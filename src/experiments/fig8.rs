//! Figure 8: reliability efficiency under fairness-aware performance
//! metrics — (a) weighted-speedup/AVF and (b) harmonic-IPC/AVF — for the
//! five advanced fetch policies, normalized to ICOUNT.

use super::fig7::{normalized_metric, ADVANCED};
use super::{policy_sweep, Runs, SweepEntry};
use crate::runner::{RunError, RunKey};
use crate::table::Table;
use avf_core::{metrics, StructureId};

/// Regenerate both panels of Figure 8.
pub fn figure8(runs: &mut Runs) -> Result<(Table, Table), RunError> {
    let sweep = policy_sweep(runs)?;
    // The weighted-speedup denominator: each program's steady-state
    // single-thread IPC, from a fixed seed per program (the
    // workload-instance seeds are irrelevant because the synthetic
    // streams are phase-stationary).
    let mut programs: Vec<&str> = sweep
        .iter()
        .flat_map(|e| e.workload.programs.iter().copied())
        .collect();
    programs.sort_unstable();
    programs.dedup();
    let budget = runs.scale().budget(1);
    let keys: Vec<RunKey> = programs
        .iter()
        .map(|p| RunKey::single_thread(p, 1_000 + p.len() as u64, budget))
        .collect();
    let st_ipc: Vec<f64> = runs
        .results(&keys)?
        .iter()
        .map(|r| r.ipc().max(1e-6))
        .collect();
    // One sweep entry's (weighted speedup, harmonic weighted IPC).
    let fairness = |e: &SweepEntry| {
        let smt_ipc: Vec<f64> = e
            .result
            .thread_ipcs()
            .iter()
            .map(|&v| v.max(1e-6))
            .collect();
        let st_ipc: Vec<f64> = e
            .workload
            .programs
            .iter()
            .map(|p| st_ipc[programs.binary_search(p).expect("listed above")])
            .collect();
        (
            metrics::weighted_speedup(&smt_ipc, &st_ipc),
            metrics::harmonic_weighted_ipc(&smt_ipc, &st_ipc),
        )
    };

    let labels: Vec<&str> = ADVANCED.iter().map(|p| p.label()).collect();
    let mut a = Table::new(
        "Figure 8a — Weighted-Speedup/AVF normalized to ICOUNT",
        &labels,
    );
    let mut b = Table::new("Figure 8b — Harmonic-IPC/AVF normalized to ICOUNT", &labels);
    for s in StructureId::FIGURE_SET {
        for (table, harmonic) in [(&mut a, false), (&mut b, true)] {
            let row = ADVANCED.iter().map(|&p| {
                normalized_metric(&sweep, s, p, |e, s| {
                    let (speedup, hmean) = fairness(e);
                    let perf = if harmonic { hmean } else { speedup };
                    metrics::reliability_efficiency(perf, e.result.report.structure(s).avf)
                })
            });
            table.push(s.label(), row.collect());
        }
    }
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_metrics_produce_finite_tables() {
        let (a, b) = Runs::shared_quick(figure8).unwrap();
        for t in [&a, &b] {
            assert_eq!(t.rows().len(), StructureId::FIGURE_SET.len());
            for (_, row) in t.rows() {
                for &v in row {
                    assert!(v.is_finite() && v > 0.0);
                }
            }
        }
    }
}
