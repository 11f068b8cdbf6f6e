//! Simulation runners: one multithreaded run, one single-thread run, the
//! [`RunKey`] both build their core from, and the deterministic seeding
//! scheme tying them together — plus the
//! *observed* variant that layers tracing and windowed-AVF telemetry onto
//! a run.

use avf_core::{AvfWindow, StructureId};
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::{SimBudget, SimResult, SmtCore};
use sim_trace::chrome::CounterSample;
use sim_workload::{profile, SmtWorkload, TraceGenerator};

/// An error raised while preparing or executing a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A program named by the workload has no benchmark profile.
    UnknownBenchmark {
        /// The unprofiled program name as given.
        name: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownBenchmark { name } => {
                write!(f, "unknown benchmark: {name} (no profile registered)")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The deterministic seed for context `index` of `workload`.
///
/// Seeds derive from the workload name so groups A and B of the same mix
/// type observe different dynamic instances, as the paper intends, while
/// every rerun is bit-identical.
pub fn workload_seed(workload: &SmtWorkload, index: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in workload.name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h ^ (index as u64 + 1)
}

/// Run one Table 2 workload under `policy` with the given budget on the
/// Table 1 baseline machine.
///
/// Returns [`RunError::UnknownBenchmark`] if a program in the workload has
/// no profile (all Table 2 programs do).
pub fn run_workload(
    workload: &SmtWorkload,
    policy: FetchPolicyKind,
    budget: SimBudget,
) -> Result<SimResult, RunError> {
    RunKey::baseline(workload, policy, budget).run()
}

/// Run one workload on an explicit machine configuration (used by the
/// ablation benches and the fault-injection campaigns).
pub fn run_workload_on(
    cfg: &MachineConfig,
    workload: &SmtWorkload,
    budget: SimBudget,
) -> Result<SimResult, RunError> {
    RunKey::workload(cfg.clone(), workload, budget).run()
}

/// Build the per-context trace generators for `workload` with the standard
/// deterministic seeding, without running anything. Fault-injection trials
/// use this to construct many identical cores from one workload.
pub fn workload_generators(workload: &SmtWorkload) -> Result<Vec<TraceGenerator>, RunError> {
    workload
        .programs
        .iter()
        .enumerate()
        .map(|(i, name)| generator(name, workload_seed(workload, i)))
        .collect()
}

fn generator(program: &str, seed: u64) -> Result<TraceGenerator, RunError> {
    let p = profile(program).ok_or_else(|| RunError::UnknownBenchmark {
        name: program.to_string(),
    })?;
    Ok(TraceGenerator::new(p, seed))
}

/// The full input of one simulation: the machine, each context's
/// `(program, seed)` in context order, and the budget. Simulation is
/// deterministic, so two runs with equal keys are bit-identical — which is
/// what lets [`Runs`](crate::experiments::Runs) simulate each key once.
#[derive(Debug, Clone, PartialEq)]
pub struct RunKey {
    /// The simulated machine.
    pub cfg: MachineConfig,
    /// Per-context program and generator seed, in context order.
    pub contexts: Vec<(String, u64)>,
    /// Warm-up, measurement window and cycle cap.
    pub budget: SimBudget,
}

impl RunKey {
    /// `workload` on `cfg`, each context seeded by [`workload_seed`].
    pub fn workload(cfg: MachineConfig, workload: &SmtWorkload, budget: SimBudget) -> RunKey {
        let contexts = workload
            .programs
            .iter()
            .enumerate()
            .map(|(i, name)| (name.to_string(), workload_seed(workload, i)))
            .collect();
        RunKey {
            cfg,
            contexts,
            budget,
        }
    }

    /// `workload` under `policy` on the Table 1 baseline machine.
    pub fn baseline(workload: &SmtWorkload, policy: FetchPolicyKind, budget: SimBudget) -> RunKey {
        let cfg = MachineConfig::ispass07_baseline()
            .with_contexts(workload.contexts)
            .with_fetch_policy(policy);
        RunKey::workload(cfg, workload, budget)
    }

    /// `program` alone on the superscalar (1-context) baseline machine.
    pub fn single_thread(program: &str, seed: u64, budget: SimBudget) -> RunKey {
        RunKey {
            cfg: MachineConfig::ispass07_baseline().with_contexts(1),
            contexts: vec![(program.to_string(), seed)],
            budget,
        }
    }

    /// Build the core this key describes, without running it.
    pub fn core(&self) -> Result<SmtCore, RunError> {
        let gens = self
            .contexts
            .iter()
            .map(|(name, seed)| generator(name, *seed))
            .collect::<Result<_, _>>()?;
        Ok(SmtCore::new(self.cfg.clone(), gens))
    }

    /// Simulate the key.
    pub fn run(&self) -> Result<SimResult, RunError> {
        Ok(self.core()?.run(self.budget))
    }
}

/// Ring-buffer trace capture settings for an observed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSettings {
    /// Trace ring capacity in events (oldest dropped beyond this).
    pub capacity: usize,
    /// Emit one sample per thread every this many cycles.
    pub sample_interval: u64,
}

impl Default for TraceSettings {
    fn default() -> TraceSettings {
        TraceSettings {
            capacity: 1 << 16,
            sample_interval: 64,
        }
    }
}

/// What to observe during a run. The default observes nothing and is
/// exactly [`run_workload_on`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observers {
    /// Record windowed AVF telemetry every N cycles.
    pub telemetry_window: Option<u64>,
    /// Capture pipeline events into a ring and export Chrome Trace JSON.
    /// Requires the `trace` cargo feature; when compiled out, a warning is
    /// printed and no trace is produced (the run itself is unaffected).
    pub trace: Option<TraceSettings>,
}

/// A simulation result plus whatever the observers captured.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The ordinary simulation result.
    pub result: SimResult,
    /// Windowed AVF telemetry, if requested. Summing a structure's raw
    /// per-window ACE deltas reproduces the aggregate report numerator
    /// exactly (see [`avf_core::telemetry`]).
    pub windows: Option<Vec<AvfWindow>>,
    /// Complete Chrome Trace Event JSON (openable in Perfetto /
    /// `chrome://tracing`), if tracing was requested *and* compiled in.
    /// Windowed-AVF counter tracks are merged into the same timeline.
    pub chrome_trace: Option<String>,
    /// Events retained in the trace ring (0 when tracing was off).
    pub trace_retained: usize,
    /// Events the ring evicted because it was full. A nonzero count means
    /// the exported trace starts mid-run; callers should warn and suggest
    /// a bigger [`TraceSettings::capacity`] (see
    /// [`suggest_trace_capacity`]).
    pub trace_dropped: u64,
}

/// The smallest power-of-two ring capacity that would have retained every
/// event of a run that kept `retained` and dropped `dropped`.
pub fn suggest_trace_capacity(retained: usize, dropped: u64) -> usize {
    (retained as u64 + dropped)
        .max(1)
        .next_power_of_two()
        .try_into()
        .unwrap_or(usize::MAX)
}

/// Convert telemetry windows into per-structure counter tracks for the
/// Chrome trace timeline (one sample per window, stamped at the window
/// end).
pub fn windows_to_counters(windows: &[AvfWindow]) -> Vec<CounterSample> {
    let mut out = Vec::with_capacity(windows.len() * StructureId::ALL.len());
    for w in windows {
        for &s in &StructureId::ALL {
            out.push(CounterSample {
                name: format!("AVF {s}"),
                cycle: w.end_cycle,
                value: w.structure_avf(s),
            });
        }
    }
    out
}

/// Run one workload on an explicit machine configuration with observers
/// attached. Observation never perturbs simulated behavior: the cycle-level
/// history (and thus `result`) is bit-identical to [`run_workload_on`].
pub fn run_workload_observed(
    cfg: &MachineConfig,
    workload: &SmtWorkload,
    budget: SimBudget,
    obs: &Observers,
) -> Result<ObservedRun, RunError> {
    let mut core = RunKey::workload(cfg.clone(), workload, budget).core()?;
    if let Some(window) = obs.telemetry_window {
        core.enable_telemetry(window);
    }
    #[cfg(feature = "trace")]
    if let Some(ts) = obs.trace {
        core.enable_tracing(sim_pipeline::TraceConfig {
            capacity: ts.capacity,
            sample_interval: ts.sample_interval,
        });
    }
    #[cfg(not(feature = "trace"))]
    if obs.trace.is_some() {
        eprintln!(
            "warning: trace capture requested but the `trace` feature is compiled out; \
             rebuild with default features to produce a trace"
        );
    }
    let result = core.run(budget);
    let windows = core.take_telemetry();
    #[cfg(feature = "trace")]
    let (chrome_trace, trace_retained, trace_dropped) = match core.take_trace() {
        Some((events, dropped)) => {
            let counters = windows_to_counters(windows.as_deref().unwrap_or(&[]));
            let retained = events.len();
            let json = sim_trace::chrome::render(&events, dropped, &core.thread_names(), &counters);
            (Some(json), retained, dropped)
        }
        None => (None, 0, 0),
    };
    #[cfg(not(feature = "trace"))]
    let (chrome_trace, trace_retained, trace_dropped) = (None, 0, 0);
    Ok(ObservedRun {
        result,
        windows,
        chrome_trace,
        trace_retained,
        trace_dropped,
    })
}

/// Run `program` alone on the superscalar (1-context) configuration of the
/// same machine — the paper's single-thread baseline. `seed` should match
/// the seed the program had inside the SMT workload so the *same dynamic
/// instruction stream* is replayed (Section 4.1: "we record the progress of
/// each thread in the SMT execution and then simulate the same amount of
/// instructions ... in the single thread execution mode").
pub fn run_single_thread(
    program: &str,
    seed: u64,
    budget: SimBudget,
) -> Result<SimResult, RunError> {
    RunKey::single_thread(program, seed, budget).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_workload::table2;

    fn first_2t() -> SmtWorkload {
        table2().into_iter().find(|w| w.contexts == 2).unwrap()
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let w = first_2t();
        assert_eq!(workload_seed(&w, 0), workload_seed(&w, 0));
        assert_ne!(workload_seed(&w, 0), workload_seed(&w, 1));
        let other = table2().into_iter().nth(1).unwrap();
        assert_ne!(workload_seed(&w, 0), workload_seed(&other, 0));
    }

    #[test]
    fn run_workload_is_deterministic() {
        let w = first_2t();
        let b = SimBudget::total_instructions(6_000).with_warmup(2_000);
        let a = run_workload(&w, FetchPolicyKind::Icount, b).unwrap();
        let c = run_workload(&w, FetchPolicyKind::Icount, b).unwrap();
        assert_eq!(a.cycles, c.cycles);
        assert_eq!(a.report, c.report);
    }

    #[test]
    fn single_thread_runs() {
        let b = SimBudget::total_instructions(6_000).with_warmup(2_000);
        let r = run_single_thread("bzip2", 1, b).unwrap();
        assert_eq!(r.threads.len(), 1);
        assert!(r.ipc() > 0.1);
    }

    #[test]
    fn suggested_capacity_covers_retained_plus_dropped() {
        assert_eq!(suggest_trace_capacity(0, 0), 1);
        assert_eq!(suggest_trace_capacity(4, 0), 4);
        assert_eq!(suggest_trace_capacity(4, 1), 8);
        assert_eq!(suggest_trace_capacity(1000, 24), 1024);
        assert_eq!(suggest_trace_capacity(1000, 25), 2048);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn overflowing_trace_ring_reports_drops_and_a_sufficient_capacity() {
        let w = first_2t();
        let cfg = MachineConfig::ispass07_baseline()
            .with_contexts(w.contexts)
            .with_fetch_policy(FetchPolicyKind::Icount);
        let budget = SimBudget::total_instructions(6_000).with_warmup(2_000);
        let tiny = Observers {
            telemetry_window: None,
            trace: Some(TraceSettings {
                capacity: 16,
                sample_interval: 1,
            }),
        };
        let observed = run_workload_observed(&cfg, &w, budget, &tiny).unwrap();
        assert!(
            observed.trace_dropped > 0,
            "a 16-event ring must overflow on thousands of cycles"
        );
        assert_eq!(observed.trace_retained, 16);
        let enough = suggest_trace_capacity(observed.trace_retained, observed.trace_dropped);
        assert!(enough as u64 >= observed.trace_retained as u64 + observed.trace_dropped);
        // The suggestion is sufficient: rerunning with it drops nothing,
        // and observation never perturbed the simulated result.
        let big = Observers {
            telemetry_window: None,
            trace: Some(TraceSettings {
                capacity: enough,
                sample_interval: 1,
            }),
        };
        let rerun = run_workload_observed(&cfg, &w, budget, &big).unwrap();
        assert_eq!(rerun.trace_dropped, 0);
        assert_eq!(rerun.result, observed.result);
    }

    #[test]
    fn unknown_benchmark_is_an_error_not_a_panic() {
        let b = SimBudget::total_instructions(1_000);
        let err = run_single_thread("no-such-benchmark", 1, b).unwrap_err();
        assert_eq!(
            err,
            RunError::UnknownBenchmark {
                name: "no-such-benchmark".into()
            }
        );
        assert!(err.to_string().contains("no-such-benchmark"));

        let mut w = first_2t();
        w.programs[0] = "bogus";
        let err = run_workload(&w, FetchPolicyKind::Icount, b).unwrap_err();
        assert!(matches!(err, RunError::UnknownBenchmark { .. }));
    }
}
