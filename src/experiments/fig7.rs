//! Figure 7: reliability efficiency (throughput-IPC/AVF) of the five
//! advanced fetch policies, normalized to the ICOUNT baseline.

use super::{mean, policy_sweep, Runs, SweepEntry};
use crate::runner::RunError;
use crate::table::Table;
use avf_core::StructureId;
use sim_model::FetchPolicyKind;

/// The advanced policies compared against ICOUNT.
pub const ADVANCED: [FetchPolicyKind; 5] = [
    FetchPolicyKind::Flush,
    FetchPolicyKind::Stall,
    FetchPolicyKind::DataGating,
    FetchPolicyKind::PredictiveDataGating,
    FetchPolicyKind::DWarn,
];

/// Regenerate Figure 7 from the policy sweep over the 4- and 8-context
/// workloads.
pub fn figure7(runs: &mut Runs) -> Result<Table, RunError> {
    let sweep = policy_sweep(runs)?;
    let labels: Vec<&str> = ADVANCED.iter().map(|p| p.label()).collect();
    let mut t = Table::new(
        "Figure 7 — IPC/AVF normalized to ICOUNT (4+8 contexts, all mixes)",
        &labels,
    );
    for s in StructureId::FIGURE_SET {
        let row: Vec<f64> = ADVANCED
            .iter()
            .map(|&p| {
                normalized_metric(&sweep, s, p, |e, s| {
                    e.result.report.reliability_efficiency(s)
                })
            })
            .collect();
        t.push(s.label(), row);
    }
    Ok(t)
}

/// Average over workloads of `metric(policy run) / metric(ICOUNT run)` for
/// one structure.
pub(crate) fn normalized_metric(
    sweep: &[SweepEntry],
    structure: StructureId,
    policy: FetchPolicyKind,
    metric: impl Fn(&SweepEntry, StructureId) -> f64,
) -> f64 {
    let mut ratios = Vec::new();
    let workload_names: Vec<&str> = {
        let mut names: Vec<&str> = sweep.iter().map(|e| e.workload.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    };
    for name in workload_names {
        let base = sweep
            .iter()
            .find(|e| e.workload.name == name && e.policy == FetchPolicyKind::Icount);
        let run = sweep
            .iter()
            .find(|e| e.workload.name == name && e.policy == policy);
        if let (Some(base), Some(run)) = (base, run) {
            let b = metric(base, structure);
            let v = metric(run, structure);
            if b.is_finite() && v.is_finite() && b > 0.0 {
                ratios.push(v / b);
            }
        }
    }
    if ratios.is_empty() {
        // Every workload had degenerate (zero-AVF) efficiency on one side:
        // report parity rather than a misleading 0.
        1.0
    } else {
        mean(&ratios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_improves_iq_reliability_efficiency() {
        let t = Runs::shared_quick(figure7).unwrap();
        let flush_iq = t.value("IQ", "FLUSH").unwrap();
        assert!(
            flush_iq > 1.0,
            "FLUSH should beat ICOUNT on IQ IPC/AVF (got {flush_iq:.2})"
        );
        for (_, row) in t.rows() {
            for &v in row {
                assert!(v.is_finite() && v > 0.0);
            }
        }
    }
}
