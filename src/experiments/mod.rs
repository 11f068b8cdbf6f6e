//! Experiment runners regenerating every table and figure of the paper.
//!
//! The figures are views over one shared set of simulations: the
//! 4-context ICOUNT runs alone feed Figures 1–5, the fetch-policy sweep
//! and the extension study. So every experiment is a function of a
//! [`Runs`] table, which simulates each distinct [`RunKey`] once per
//! invocation, and returns [`Table`](crate::Table)s whose rows/columns
//! mirror the paper's panels. The `bench` crate runs any one of them by
//! name (`cargo run --release -p smt-avf-bench --bin all -- fig1`), and
//! EXPERIMENTS.md records measured-vs-paper shapes.

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

use crate::runner::{workload_seed, RunError, RunKey};
use crate::scale::ExperimentScale;
use avf_core::StructureId;
use sim_model::FetchPolicyKind;
use sim_pipeline::{SimBudget, SimResult};
use sim_workload::{table2, SmtWorkload};

/// The workload mix labels in the paper's presentation order.
pub const MIX_LABELS: [&str; 3] = ["CPU", "MIX", "MEM"];

/// The simulations of one invocation, each distinct [`RunKey`] run once.
///
/// Experiments ask the table for the runs they need; a key already in it
/// is answered from the table, not simulated again. The caller owns the
/// table and drops it when the invocation ends, so no result outlives the
/// run that asked for it.
pub struct Runs {
    scale: ExperimentScale,
    workers: usize,
    table: Vec<(RunKey, SimResult)>,
}

impl Runs {
    /// An empty table at `scale`, simulating on the default worker pool
    /// ([`sim_exec::worker_count`]).
    pub fn new(scale: ExperimentScale) -> Runs {
        Runs::with_workers(scale, sim_exec::worker_count())
    }

    /// An empty table simulating on `workers` threads. Results are
    /// bit-identical for any worker count ([`sim_exec`]'s determinism
    /// contract); `workers == 1` is the serial reference.
    pub fn with_workers(scale: ExperimentScale, workers: usize) -> Runs {
        Runs {
            scale,
            workers,
            table: Vec::new(),
        }
    }

    /// The scale experiments size their budgets by.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// Distinct simulations run so far.
    pub fn simulations(&self) -> usize {
        self.table.len()
    }

    /// The results of `keys`, in request order. The keys not yet in the
    /// table are simulated in one worker-pool call, each distinct key
    /// once; the others are copies of the earlier results.
    pub fn results(&mut self, keys: &[RunKey]) -> Result<Vec<SimResult>, RunError> {
        let mut missing: Vec<RunKey> = Vec::new();
        for key in keys {
            if self.find(key).is_none() && !missing.contains(key) {
                missing.push(key.clone());
            }
        }
        let fresh = sim_exec::try_par_map(&missing, self.workers, RunKey::run)?;
        self.table.extend(missing.into_iter().zip(fresh));
        Ok(keys
            .iter()
            .map(|key| self.find(key).expect("simulated above").clone())
            .collect())
    }

    fn find(&self, key: &RunKey) -> Option<&SimResult> {
        self.table.iter().find(|(k, _)| k == key).map(|(_, r)| r)
    }
}

/// The key of `workload` under `policy` on the Table 1 baseline machine,
/// with the budget `scale` gives its context count.
pub fn policy_key(
    workload: &SmtWorkload,
    policy: FetchPolicyKind,
    scale: ExperimentScale,
) -> RunKey {
    RunKey::baseline(workload, policy, scale.budget(workload.contexts))
}

/// [`Runs::results`] for groups of keys requested together; the results
/// come back grouped the same way.
pub(crate) fn grouped(
    runs: &mut Runs,
    groups: &[Vec<RunKey>],
) -> Result<Vec<Vec<SimResult>>, RunError> {
    let mut results = runs.results(&groups.concat())?.into_iter();
    Ok(groups
        .iter()
        .map(|g| results.by_ref().take(g.len()).collect())
        .collect())
}

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

/// The ICOUNT runs of every Table 2 group, one result set per
/// `(contexts, mix)` in `contexts_list` × [`MIX_LABELS`] order.
pub(crate) fn mix_runs(
    runs: &mut Runs,
    contexts_list: &[usize],
) -> Result<Vec<Vec<SimResult>>, RunError> {
    let scale = runs.scale();
    let groups: Vec<Vec<RunKey>> = contexts_list
        .iter()
        .flat_map(|&contexts| MIX_LABELS.map(|mix| workloads_of(contexts, mix)))
        .map(|ws| {
            let keys = ws
                .iter()
                .map(|w| policy_key(w, FetchPolicyKind::Icount, scale));
            keys.collect()
        })
        .collect();
    grouped(runs, &groups)
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

/// Build the Figure 3/4 comparison for each of `workloads`: run SMT under
/// ICOUNT, then replay each thread's *same dynamic instruction stream*
/// alone for the same instruction count (the paper's methodology,
/// Section 4.1).
pub fn st_comparisons(
    runs: &mut Runs,
    workloads: &[SmtWorkload],
) -> Result<Vec<StComparison>, RunError> {
    let scale = runs.scale();
    let smt_keys: Vec<RunKey> = workloads
        .iter()
        .map(|w| policy_key(w, FetchPolicyKind::Icount, scale))
        .collect();
    let mut out = Vec::new();
    for (w, smt) in workloads.iter().zip(runs.results(&smt_keys)?) {
        let st_keys: Vec<RunKey> = (0..w.contexts)
            .map(|i| {
                let committed = smt.report.committed()[i].max(1_000);
                let budget =
                    SimBudget::total_instructions(committed).with_warmup(scale.warmup_per_thread);
                RunKey::single_thread(w.programs[i], workload_seed(w, i), budget)
            })
            .collect();
        out.push(StComparison {
            workload: w.clone(),
            st: runs.results(&st_keys)?,
            smt,
        });
    }
    Ok(out)
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

/// Every `(workload, policy)` pair of the 4- and 8-context workloads under
/// the studied fetch policies — the data behind Figures 6, 7 and 8.
pub(crate) fn policy_sweep(runs: &mut Runs) -> Result<Vec<SweepEntry>, RunError> {
    let jobs: Vec<(SmtWorkload, FetchPolicyKind)> = table2()
        .into_iter()
        .filter(|w| matches!(w.contexts, 4 | 8))
        .flat_map(|w| FetchPolicyKind::STUDIED.map(|policy| (w.clone(), policy)))
        .collect();
    let scale = runs.scale();
    let keys: Vec<RunKey> = jobs
        .iter()
        .map(|(w, policy)| policy_key(w, *policy, scale))
        .collect();
    Ok(jobs
        .into_iter()
        .zip(runs.results(&keys)?)
        .map(|((workload, policy), result)| SweepEntry {
            workload,
            policy,
            result,
        })
        .collect())
}

#[cfg(test)]
impl Runs {
    /// Run `f` on the quick-scale table every unit test in this crate
    /// shares, so each distinct simulation runs once per test binary.
    pub(crate) fn shared_quick<T>(f: impl FnOnce(&mut Runs) -> T) -> T {
        static SHARED: std::sync::Mutex<Option<Runs>> = std::sync::Mutex::new(None);
        let mut runs = SHARED.lock().unwrap_or_else(|e| e.into_inner());
        f(runs.get_or_insert_with(|| Runs::new(ExperimentScale::quick())))
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
