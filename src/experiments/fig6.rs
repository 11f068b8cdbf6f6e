//! Figure 6: microarchitecture AVF under the six fetch policies (ICOUNT,
//! FLUSH, STALL, DG, PDG, DWARN) for 4-context (panel a) and 8-context
//! (panel b) workloads, per mix.

use super::{mean, policy_sweep, Runs, MIX_LABELS};
use crate::runner::RunError;
use crate::table::Table;
use avf_core::StructureId;
use sim_model::FetchPolicyKind;

/// Regenerate Figure 6: one table per (context count, mix); rows are
/// structures, columns are fetch policies.
pub fn figure6(runs: &mut Runs) -> Result<Vec<Table>, RunError> {
    let sweep = policy_sweep(runs)?;
    let policies = FetchPolicyKind::STUDIED;
    let labels: Vec<&str> = policies.iter().map(|p| p.label()).collect();
    let mut out = Vec::new();
    for (panel, contexts) in [("6a", 4usize), ("6b", 8usize)] {
        for mix in MIX_LABELS {
            let mut t = Table::new(
                format!("Figure {panel} — AVF by fetch policy ({contexts} contexts, {mix})"),
                &labels,
            )
            .percent();
            for s in StructureId::FIGURE_SET {
                t.push(
                    s.label(),
                    policies
                        .iter()
                        .map(|&p| {
                            mean(
                                &sweep
                                    .iter()
                                    .filter(|e| {
                                        e.policy == p
                                            && e.workload.contexts == contexts
                                            && e.workload.mix.to_string() == mix
                                    })
                                    .map(|e| e.result.report.structure(s).avf)
                                    .collect::<Vec<_>>(),
                            )
                        })
                        .collect(),
                );
            }
            out.push(t);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_collapses_iq_rob_lsq_avf_on_mem_workloads() {
        let tables = Runs::shared_quick(figure6).unwrap();
        assert_eq!(tables.len(), 6);
        // 4-context MEM panel.
        let t = &tables[2];
        assert!(t.title().contains("4 contexts, MEM"));
        for s in ["IQ", "ROB", "LSQ_tag"] {
            let icount = t.value(s, "ICOUNT").unwrap();
            let flush = t.value(s, "FLUSH").unwrap();
            assert!(
                flush < icount,
                "{s}: FLUSH ({flush:.3}) should be below ICOUNT ({icount:.3})"
            );
        }
    }
}
