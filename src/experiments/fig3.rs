//! Figure 3: microarchitecture vulnerability, SMT vs. single-thread (ST)
//! execution — per-thread IQ/FU/ROB AVF for the 4-context group-A
//! workloads, plus the all-threads aggregate against the weighted ST AVF.

use super::{smt_thread_avf, st_comparisons, Runs, StComparison};
use crate::runner::RunError;
use crate::table::Table;
use avf_core::StructureId;
use sim_workload::table2;

/// The structures Figure 3 breaks down.
pub const FIG3_STRUCTURES: [StructureId; 3] = [StructureId::Iq, StructureId::Fu, StructureId::Rob];

/// Regenerate Figure 3: one table per 4-context group-A workload, with one
/// row per thread (`<prog>`), and a final `all threads` row comparing the
/// aggregate SMT AVF to the work-weighted ST AVF.
pub fn figure3(runs: &mut Runs) -> Result<Vec<Table>, RunError> {
    Ok(comparisons(runs)?.iter().map(table_for).collect())
}

/// The SMT + progress-matched ST comparisons Figure 3 and Figure 4 share:
/// the 4-context group-A workloads.
pub(crate) fn comparisons(runs: &mut Runs) -> Result<Vec<StComparison>, RunError> {
    let workloads: Vec<_> = table2()
        .into_iter()
        .filter(|w| w.contexts == 4 && w.group == 'A')
        .collect();
    st_comparisons(runs, &workloads)
}

fn table_for(c: &StComparison) -> Table {
    let mut table = Table::new(
        format!("Figure 3 — AVF: SMT vs ST ({})", c.workload.name),
        &["IQ_ST", "FU_ST", "ROB_ST", "IQ_SMT", "FU_SMT", "ROB_SMT"],
    )
    .percent();
    let n = c.workload.contexts;
    for (i, prog) in c.workload.programs.iter().enumerate() {
        let st = &c.st[i].report;
        let mut row: Vec<f64> = FIG3_STRUCTURES
            .iter()
            .map(|&s| st.structure(s).avf)
            .collect();
        row.extend(
            FIG3_STRUCTURES
                .iter()
                .map(|&s| smt_thread_avf(&c.smt, s, i)),
        );
        table.push(format!("{prog}[{i}]"), row);
    }
    // Aggregate: SMT whole-structure AVF vs. ST AVF weighted by the work
    // each thread completed (the paper's "weighted AVF in sequential
    // execution").
    let work: Vec<f64> = (0..n).map(|i| c.smt.report.committed()[i] as f64).collect();
    let total_work: f64 = work.iter().sum();
    let mut row: Vec<f64> = FIG3_STRUCTURES
        .iter()
        .map(|&s| {
            (0..n)
                .map(|i| c.st[i].report.structure(s).avf * work[i] / total_work)
                .sum()
        })
        .collect();
    row.extend(
        FIG3_STRUCTURES
            .iter()
            .map(|&s| c.smt.report.structure(s).avf),
    );
    table.push("all threads", row);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::MIX_LABELS;

    #[test]
    fn smt_reduces_per_thread_vulnerability_but_raises_aggregate_iq() {
        let tables = Runs::shared_quick(figure3).unwrap();
        assert_eq!(tables.len(), MIX_LABELS.len());
        let cpu = &tables[0];
        // Aggregate IQ AVF in SMT exceeds the weighted sequential AVF
        // (the paper reports a ~2X increase on 4-context CPU workloads).
        let agg_st = cpu.value("all threads", "IQ_ST").unwrap();
        let agg_smt = cpu.value("all threads", "IQ_SMT").unwrap();
        assert!(
            agg_smt > agg_st,
            "aggregate SMT IQ AVF {agg_smt} should exceed weighted ST {agg_st}"
        );
        // Individual threads contribute less vulnerability under SMT for
        // the majority of (thread, structure) points.
        let mut wins = 0;
        let mut total = 0;
        for t in &tables {
            for (label, _) in t.rows() {
                if label == "all threads" {
                    continue;
                }
                for s in ["IQ", "FU", "ROB"] {
                    let st = t.value(label, &format!("{s}_ST")).unwrap();
                    let smt = t.value(label, &format!("{s}_SMT")).unwrap();
                    total += 1;
                    if smt < st {
                        wins += 1;
                    }
                }
            }
        }
        assert!(
            wins * 3 > total * 2,
            "per-thread SMT AVF should usually be below ST ({wins}/{total})"
        );
    }
}
