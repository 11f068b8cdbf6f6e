//! Section 5 extension study: do the paper's proposed optimizations pay
//! off? Compares the Section 4.3 front-runners (FLUSH, STALL) against the
//! implemented proposals — PSTALL (predictive stall), RAFT (reliability-
//! aware fetch throttling) and static IQ partitioning — on the 4-context
//! MIX workloads where thread diversity makes resource allocation matter.

use super::{avg_avf, avg_efficiency, grouped, mean, policy_key, workloads_of, Runs};
use crate::runner::{RunError, RunKey};
use crate::table::Table;
use avf_core::StructureId;
use sim_model::FetchPolicyKind;

/// Design points compared by the extension study: a fetch policy, and
/// whether the shared IQ is statically partitioned.
const POINTS: [(&str, FetchPolicyKind, bool); 6] = [
    ("ICOUNT", FetchPolicyKind::Icount, false),
    ("FLUSH", FetchPolicyKind::Flush, false),
    ("STALL", FetchPolicyKind::Stall, false),
    ("PSTALL", FetchPolicyKind::PredictiveStall, false),
    ("RAFT", FetchPolicyKind::VulnerabilityAware, false),
    ("IQ-PART", FetchPolicyKind::Icount, true),
];

/// Run the extension study on the 4-context MIX workloads: per design
/// point, IPC, IQ/ROB AVF, and IQ reliability efficiency.
pub fn extensions(runs: &mut Runs) -> Result<Table, RunError> {
    let scale = runs.scale();
    let workloads = workloads_of(4, "MIX");
    let groups: Vec<Vec<RunKey>> = POINTS
        .iter()
        .map(|&(_, policy, partitioned)| {
            let keys = workloads.iter().map(|w| {
                let mut key = policy_key(w, policy, scale);
                key.cfg.iq_partitioned = partitioned;
                key
            });
            keys.collect()
        })
        .collect();
    let mut t = Table::new(
        "Extension study — Section 5 proposals on 4-context MIX workloads",
        &["IPC", "IQ AVF", "ROB AVF", "Reg AVF", "IQ IPC/AVF"],
    );
    for ((point, ..), runs) in POINTS.iter().zip(grouped(runs, &groups)?) {
        let ipc = mean(&runs.iter().map(|r| r.ipc()).collect::<Vec<_>>());
        t.push(
            *point,
            vec![
                ipc,
                avg_avf(&runs, StructureId::Iq),
                avg_avf(&runs, StructureId::Rob),
                avg_avf(&runs, StructureId::RegFile),
                avg_efficiency(&runs, StructureId::Iq),
            ],
        );
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_points_all_run_and_improve_iq_avf() {
        let t = Runs::shared_quick(extensions).unwrap();
        assert_eq!(t.rows().len(), POINTS.len());
        let icount_iq = t.value("ICOUNT", "IQ AVF").unwrap();
        for point in ["PSTALL", "RAFT", "IQ-PART"] {
            let v = t.value(point, "IQ AVF").unwrap();
            assert!(
                v < icount_iq * 1.05,
                "{point} IQ AVF ({v:.3}) should not exceed ICOUNT ({icount_iq:.3})"
            );
        }
        for (_, row) in t.rows() {
            for &v in row {
                assert!(v.is_finite() && v >= 0.0);
            }
        }
    }
}
