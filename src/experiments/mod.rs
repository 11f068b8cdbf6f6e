//! Experiment runners regenerating every table and figure of the paper.
//!
//! Each `figureN` function runs the required simulations at a given
//! [`ExperimentScale`] and returns [`Table`](crate::Table)s whose rows/columns mirror the
//! paper's panels. The `bench` crate runs any one of them by name
//! (`cargo run --release -p smt-avf-bench --bin all -- fig1`), and EXPERIMENTS.md
//! records measured-vs-paper shapes.

pub mod campaign;
pub mod characterize;
pub mod extensions;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod memhier;
pub mod tables;

pub use campaign::{default_campaign, validate_workload, SfiValidation, ValidationError};
pub use characterize::{characterize, characterize_all, Characterization};
pub use extensions::extensions;
pub use fig1::figure1;
pub use fig2::figure2;
pub use fig3::figure3;
pub use fig4::figure4;
pub use fig5::figure5;
pub use fig6::figure6;
pub use fig7::figure7;
pub use fig8::figure8;
pub use memhier::memory_hierarchy;
pub use tables::{table1, table2_listing};

use crate::runner::{run_single_thread, run_workload, workload_seed, RunError};
use crate::scale::ExperimentScale;
use avf_core::StructureId;
use sim_model::FetchPolicyKind;
use sim_pipeline::{SimBudget, SimResult};
use sim_workload::{table2, SmtWorkload};
use std::collections::HashMap;

/// The workload mix labels in the paper's presentation order.
pub const MIX_LABELS: [&str; 3] = ["CPU", "MIX", "MEM"];

/// Mean of a slice (0 for empty input).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// All Table 2 workloads with `contexts` contexts and the given mix label.
pub(crate) fn workloads_of(contexts: usize, mix_label: &str) -> Vec<SmtWorkload> {
    table2()
        .into_iter()
        .filter(|w| w.contexts == contexts && w.mix.to_string() == mix_label)
        .collect()
}

/// Run every group of `(contexts, mix)` under `policy` and return results.
///
/// Runs execute on the [`sim_exec`] worker pool; results are in workload
/// order and bit-identical to a serial run for any worker count.
pub(crate) fn run_mix(
    contexts: usize,
    mix_label: &str,
    policy: FetchPolicyKind,
    scale: ExperimentScale,
) -> Result<Vec<SimResult>, RunError> {
    let workloads = workloads_of(contexts, mix_label);
    sim_exec::try_par_map(&workloads, sim_exec::worker_count(), |w| {
        run_workload(w, policy, scale.budget(contexts))
    })
}

/// Average AVF of `structure` across runs.
pub(crate) fn avg_avf(results: &[SimResult], structure: StructureId) -> f64 {
    mean(
        &results
            .iter()
            .map(|r| r.report.structure(structure).avf)
            .collect::<Vec<_>>(),
    )
}

/// Average reliability efficiency (IPC/AVF) of `structure` across runs.
/// Zero-AVF runs have infinite efficiency; they are excluded from the mean
/// (and an all-infinite set reports infinity rather than an empty mean).
pub(crate) fn avg_efficiency(results: &[SimResult], structure: StructureId) -> f64 {
    let finite: Vec<f64> = results
        .iter()
        .map(|r| r.report.reliability_efficiency(structure))
        .filter(|v| v.is_finite())
        .collect();
    if finite.is_empty() && !results.is_empty() {
        f64::INFINITY
    } else {
        mean(&finite)
    }
}

/// The SMT-vs-single-thread comparison data behind Figures 3 and 4: one
/// SMT run plus a progress-matched single-thread run per thread.
pub struct StComparison {
    /// The workload compared.
    pub workload: SmtWorkload,
    /// The SMT run.
    pub smt: SimResult,
    /// Progress-matched single-thread runs, one per context.
    pub st: Vec<SimResult>,
}

/// Build the Figure 3/4 comparison for one workload: run SMT, then replay
/// each thread's *same dynamic instruction stream* alone for the same
/// instruction count (the paper's methodology, Section 4.1).
pub fn st_comparison(
    workload: &SmtWorkload,
    scale: ExperimentScale,
) -> Result<StComparison, RunError> {
    let smt = run_workload(
        workload,
        FetchPolicyKind::Icount,
        scale.budget(workload.contexts),
    )?;
    // The per-thread replays are independent of each other (only the SMT
    // run above feeds them), so they fan out on the worker pool.
    let st = sim_exec::run_indexed(workload.programs.len(), sim_exec::worker_count(), |i| {
        let committed = smt.report.committed()[i].max(1_000);
        let budget = SimBudget::total_instructions(committed).with_warmup(scale.warmup_per_thread);
        run_single_thread(workload.programs[i], workload_seed(workload, i), budget)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(StComparison {
        workload: workload.clone(),
        smt,
        st,
    })
}

/// A thread's AVF contribution in the SMT run, made comparable to a
/// single-thread AVF: shared structures compare directly; private
/// (per-thread) structures are rescaled to the thread's own instance.
pub fn smt_thread_avf(result: &SimResult, structure: StructureId, thread: usize) -> f64 {
    let s = result.report.structure(structure);
    let scale = if structure.is_shared() {
        1.0
    } else {
        result.threads.len() as f64
    };
    s.per_thread[thread] * scale
}

/// One entry of a fetch-policy sweep.
pub struct SweepEntry {
    /// Workload run.
    pub workload: SmtWorkload,
    /// Fetch policy applied.
    pub policy: FetchPolicyKind,
    /// The run's results.
    pub result: SimResult,
}

/// Run every `(workload, policy)` pair for the given context counts —
/// the data behind Figures 6, 7 and 8 — on the default worker pool.
pub fn policy_sweep(
    contexts_list: &[usize],
    scale: ExperimentScale,
) -> Result<Vec<SweepEntry>, RunError> {
    let mut jobs = Vec::new();
    for &contexts in contexts_list {
        for w in table2().into_iter().filter(|w| w.contexts == contexts) {
            for policy in FetchPolicyKind::STUDIED {
                jobs.push((w.clone(), policy));
            }
        }
    }
    sweep(&jobs, scale, sim_exec::worker_count())
}

/// Run an explicit `(workload, policy)` job list on `workers` threads.
///
/// Results come back in job order and are bit-identical for any worker
/// count ([`sim_exec`]'s determinism contract); `workers == 1` is the
/// serial reference the parallel runs are checked against in tests.
pub fn sweep(
    jobs: &[(SmtWorkload, FetchPolicyKind)],
    scale: ExperimentScale,
    workers: usize,
) -> Result<Vec<SweepEntry>, RunError> {
    sim_exec::try_par_map(jobs, workers, |(w, policy)| {
        let result = run_workload(w, *policy, scale.budget(w.contexts))?;
        Ok(SweepEntry {
            workload: w.clone(),
            policy: *policy,
            result,
        })
    })
}

/// Cached single-thread IPC per program (fixed-length steady-state run),
/// used as the weighted-speedup denominator in Figure 8.
pub struct StIpcCache {
    scale: ExperimentScale,
    cache: HashMap<String, f64>,
}

impl StIpcCache {
    /// An empty cache computing baselines at `scale`.
    pub fn new(scale: ExperimentScale) -> StIpcCache {
        StIpcCache {
            scale,
            cache: HashMap::new(),
        }
    }

    /// The single-thread IPC of `program` (memoized).
    pub fn ipc(&mut self, program: &str) -> Result<f64, RunError> {
        if let Some(&v) = self.cache.get(program) {
            return Ok(v);
        }
        let budget = SimBudget::total_instructions(self.scale.measure_per_thread)
            .with_warmup(self.scale.warmup_per_thread);
        // A fixed seed per program: the baseline is the program's
        // steady-state single-thread IPC (the workload-instance seeds are
        // irrelevant because the synthetic streams are phase-stationary).
        let seed = 1_000 + program.len() as u64;
        let v = run_single_thread(program, seed, budget)?.ipc().max(1e-6);
        self.cache.insert(program.to_string(), v);
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn workload_filters() {
        assert_eq!(workloads_of(4, "CPU").len(), 2);
        assert_eq!(workloads_of(8, "MEM").len(), 1);
        assert_eq!(workloads_of(4, "???").len(), 0);
    }

    #[test]
    fn smt_thread_avf_scaling_rule() {
        assert!(StructureId::Iq.is_shared());
        assert!(!StructureId::Rob.is_shared());
    }
}
