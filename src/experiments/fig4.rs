//! Figure 4: reliability efficiency (IPC/AVF), SMT vs. single-thread
//! execution, per thread, for the 4-context group-A workloads.

use super::fig3::{comparisons, FIG3_STRUCTURES};
use super::{smt_thread_avf, Runs, StComparison};
use crate::runner::RunError;
use crate::table::Table;
use avf_core::metrics;

/// Regenerate Figure 4: per-thread IPC/AVF under ST and SMT execution.
pub fn figure4(runs: &mut Runs) -> Result<Vec<Table>, RunError> {
    Ok(comparisons(runs)?.iter().map(table_for).collect())
}

fn table_for(c: &StComparison) -> Table {
    let mut table = Table::new(
        format!("Figure 4 — IPC/AVF: SMT vs ST ({})", c.workload.name),
        &["IQ_ST", "FU_ST", "ROB_ST", "IQ_SMT", "FU_SMT", "ROB_SMT"],
    )
    .decimals(1);
    let n = c.workload.contexts;
    for (i, prog) in c.workload.programs.iter().enumerate() {
        let st = &c.st[i];
        let mut row: Vec<f64> = FIG3_STRUCTURES
            .iter()
            .map(|&s| metrics::reliability_efficiency(st.ipc(), st.report.structure(s).avf))
            .collect();
        row.extend(FIG3_STRUCTURES.iter().map(|&s| {
            metrics::reliability_efficiency(c.smt.thread_ipc(i), smt_thread_avf(&c.smt, s, i))
        }));
        table.push(format!("{prog}[{i}]"), row);
    }
    let mut row: Vec<f64> = FIG3_STRUCTURES
        .iter()
        .map(|&s| {
            // Weighted ST efficiency: total ST work over the weighted AVF.
            let work: Vec<f64> = (0..n).map(|i| c.smt.report.committed()[i] as f64).collect();
            let total: f64 = work.iter().sum();
            let avf: f64 = (0..n)
                .map(|i| c.st[i].report.structure(s).avf * work[i] / total)
                .sum();
            let ipc: f64 = (0..n).map(|i| c.st[i].ipc() * work[i] / total).sum();
            metrics::reliability_efficiency(ipc, avf)
        })
        .collect();
    row.extend(
        FIG3_STRUCTURES
            .iter()
            .map(|&s| metrics::reliability_efficiency(c.smt.ipc(), c.smt.report.structure(s).avf)),
    );
    table.push("all threads", row);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_produces_finite_positive_efficiencies() {
        let tables = Runs::shared_quick(figure4).unwrap();
        assert_eq!(tables.len(), 3);
        for t in &tables {
            for (label, row) in t.rows() {
                for &v in row {
                    assert!(v.is_finite() && v >= 0.0, "{}: {label} -> {v}", t.title());
                }
            }
        }
    }

    #[test]
    fn smt_beats_weighted_st_efficiency_overall_on_mem() {
        // "SMT architecture outperforms superscalar for all of the cases
        // except the IQ on CPU workloads" — check a MEM aggregate case.
        let tables = Runs::shared_quick(figure4).unwrap();
        let mem = &tables[2];
        let st = mem.value("all threads", "FU_ST").unwrap();
        let smt = mem.value("all threads", "FU_SMT").unwrap();
        assert!(
            smt > st * 0.8,
            "SMT FU efficiency ({smt:.1}) should be competitive with ST ({st:.1})"
        );
    }
}
