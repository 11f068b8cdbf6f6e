//! Figure 2: microarchitecture reliability efficiency (IPC/AVF) across
//! workload mixes (4 contexts, ICOUNT).

use super::{avg_efficiency, mix_runs, Runs, MIX_LABELS};
use crate::runner::RunError;
use crate::table::Table;
use avf_core::StructureId;

/// Regenerate Figure 2 (from the same runs as Figure 1).
pub fn figure2(runs: &mut Runs) -> Result<Table, RunError> {
    let per_mix = mix_runs(runs, &[4])?;
    let mut table = Table::new(
        "Figure 2 — Reliability Efficiency IPC/AVF (4 contexts, ICOUNT)",
        &MIX_LABELS,
    )
    .decimals(1);
    for s in StructureId::FIGURE_SET {
        table.push(
            s.label(),
            per_mix.iter().map(|runs| avg_efficiency(runs, s)).collect(),
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_workloads_have_best_reliability_efficiency() {
        let t = Runs::shared_quick(figure2).unwrap();
        // "SMT microarchitecture yields the highest reliability efficiency
        // on CPU-bound workloads" — check on the majority of structures.
        let mut cpu_wins = 0;
        let mut total = 0;
        for (label, _) in t.rows() {
            let cpu = t.value(label, "CPU").unwrap();
            let mem = t.value(label, "MEM").unwrap();
            total += 1;
            if cpu > mem {
                cpu_wins += 1;
            }
        }
        assert!(
            cpu_wins * 2 > total,
            "CPU should beat MEM on most structures ({cpu_wins}/{total})"
        );
    }
}
