#![warn(missing_docs)]
//! # smt-avf-bench — benchmark harness for the paper's tables and figures
//!
//! One binary, `all`, regenerating every table and figure of the paper
//! (`cargo run --release -p smt-avf-bench --bin all`) or one named
//! experiment (`--bin all -- fig1`), and one bench target per experiment
//! measuring its regeneration cost (plus the ablation benches DESIGN.md
//! calls out). Both walk the [`EXPERIMENTS`] registry over a
//! [`Runs`] table, so each distinct simulation runs once per invocation.
//! The bench targets use the dependency-free [`timing`] harness so the
//! workspace builds fully offline.
//!
//! The binary honors the `SMT_AVF_SCALE` environment variable:
//! `quick` | `default` (the default) | `paper` (longest; closest to the
//! paper's 25M-instructions-per-thread methodology, scaled down ~100×).

pub mod timing;

use smt_avf::experiments::{self as ex, Runs};
use smt_avf::runner::RunError;
use smt_avf::ExperimentScale;

/// Resolve the experiment scale from `SMT_AVF_SCALE`.
pub fn scale_from_env() -> ExperimentScale {
    match std::env::var("SMT_AVF_SCALE").as_deref() {
        Ok("quick") => ExperimentScale::quick(),
        Ok("paper") => ExperimentScale {
            warmup_per_thread: 100_000,
            measure_per_thread: 250_000,
        },
        _ => ExperimentScale::default_scale(),
    }
}

/// The micro scale used inside Criterion benches (kept small so a full
/// `cargo bench` pass stays in the minutes range).
pub fn bench_scale() -> ExperimentScale {
    ExperimentScale {
        warmup_per_thread: 2_000,
        measure_per_thread: 3_000,
    }
}

/// One named experiment: a declarative row binding a name to the
/// experiment function it runs, with the output normalized to a list of
/// rendered blocks.
pub struct Experiment {
    /// Registry name (`fig1`, `table2`, `characterize`, ...).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Run against `runs`, returning the rendered tables in print order.
    pub run: fn(&mut Runs) -> Result<Vec<String>, RunError>,
}

fn render<T: ToString>(tables: impl IntoIterator<Item = T>) -> Vec<String> {
    tables.into_iter().map(|t| t.to_string()).collect()
}

/// Every named experiment, in the paper's presentation order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        about: "Table 1: simulated machine configuration",
        run: |_| Ok(vec![ex::table1()]),
    },
    Experiment {
        name: "table2",
        about: "Table 2: the studied workload mixes",
        run: |_| Ok(vec![ex::table2_listing()]),
    },
    Experiment {
        name: "characterize",
        about: "Section 3 benchmark categorization",
        run: |r| Ok(render([ex::characterize(r)?])),
    },
    Experiment {
        name: "fig1",
        about: "Figure 1: SMT microarchitecture vulnerability profile",
        run: |r| Ok(render([ex::figure1(r)?])),
    },
    Experiment {
        name: "fig2",
        about: "Figure 2: per-structure AVF by workload mix",
        run: |r| Ok(render([ex::figure2(r)?])),
    },
    Experiment {
        name: "fig3",
        about: "Figure 3: AVF of SMT vs single-thread execution",
        run: |r| Ok(render(ex::figure3(r)?)),
    },
    Experiment {
        name: "fig4",
        about: "Figure 4: per-thread AVF inside SMT vs alone",
        run: |r| Ok(render(ex::figure4(r)?)),
    },
    Experiment {
        name: "fig5",
        about: "Figure 5: AVF scaling with context count",
        run: |r| {
            let (a, b) = ex::figure5(r)?;
            Ok(render([a, b]))
        },
    },
    Experiment {
        name: "fig6",
        about: "Figure 6: AVF under the six fetch policies",
        run: |r| Ok(render(ex::figure6(r)?)),
    },
    Experiment {
        name: "fig7",
        about: "Figure 7: IPC under the six fetch policies",
        run: |r| Ok(render([ex::figure7(r)?])),
    },
    Experiment {
        name: "fig8",
        about: "Figure 8: reliability efficiency of the fetch policies",
        run: |r| {
            let (a, b) = ex::figure8(r)?;
            Ok(render([a, b]))
        },
    },
    Experiment {
        name: "memhier",
        about: "Memory-hierarchy AVF study (extension)",
        run: |r| Ok(render([ex::memory_hierarchy(r)?])),
    },
    Experiment {
        name: "extensions",
        about: "Section 5 extension study (PSTALL / RAFT / IQ partitioning)",
        run: |r| Ok(render([ex::extensions(r)?])),
    },
];

/// What `all` runs without a name, in print order (the EXPERIMENTS.md
/// source of truth): every experiment but the two standalone studies.
pub fn all() -> Vec<&'static str> {
    let standalone = ["characterize", "memhier"];
    EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .filter(|name| !standalone.contains(name))
        .collect()
}

/// Look up a registry row by name.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The whole of `all` (e.g. `cargo run --release -p smt-avf-bench --bin
/// all -- fig1`): resolve the scale from the environment, run the named
/// experiments in order over one [`Runs`] table, print each rendered
/// block, and return the table.
///
/// It additionally honors the observability knobs:
///
/// * `SMT_AVF_TRACE_OUT=trace.json` — after the experiments, run the trace
///   workload once with pipeline tracing and write Chrome Trace Event JSON
///   there (open in Perfetto or `chrome://tracing`).
/// * `SMT_AVF_TELEMETRY_WINDOW=N` — record windowed AVF every N cycles on
///   that observed run (default 4096) and fold the AVF series into the
///   trace as counter tracks.
/// * `SMT_AVF_TRACE_WORKLOAD=NAME` — which Table 2 workload to observe
///   (default `4T-MIX-A`).
///
/// # Panics
/// Panics on an unknown name or a failed experiment.
pub fn run_experiments(names: &[&str]) -> Runs {
    let mut runs = Runs::new(scale_from_env());
    for name in names {
        let e = experiment(name).unwrap_or_else(|| panic!("unknown experiment: {name}"));
        for block in (e.run)(&mut runs).expect("experiment failed") {
            println!("{block}");
        }
    }
    maybe_trace(runs.scale());
    runs
}

/// Honor `SMT_AVF_TRACE_OUT` (see [`run_experiments`]): run the observed
/// workload and write the Chrome trace. A no-op when the variable is unset.
pub fn maybe_trace(scale: ExperimentScale) {
    let Ok(path) = std::env::var("SMT_AVF_TRACE_OUT") else {
        return;
    };
    let wanted = std::env::var("SMT_AVF_TRACE_WORKLOAD").unwrap_or_else(|_| "4T-MIX-A".to_string());
    let window = std::env::var("SMT_AVF_TELEMETRY_WINDOW")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4096);
    let workload = sim_workload::table2()
        .into_iter()
        .find(|w| w.name == wanted)
        .unwrap_or_else(|| panic!("SMT_AVF_TRACE_WORKLOAD: unknown workload {wanted}"));
    let cfg = sim_model::MachineConfig::ispass07_baseline()
        .with_contexts(workload.contexts)
        .with_fetch_policy(sim_model::FetchPolicyKind::Icount);
    let observers = smt_avf::Observers {
        telemetry_window: Some(window),
        trace: Some(smt_avf::TraceSettings::default()),
    };
    let observed = smt_avf::run_workload_observed(
        &cfg,
        &workload,
        scale.budget(workload.contexts),
        &observers,
    )
    .expect("observed trace run failed");
    match observed.chrome_trace {
        Some(json) => {
            std::fs::write(&path, &json).expect("write SMT_AVF_TRACE_OUT");
            eprintln!(
                "[trace] wrote {path} ({} bytes): {} over {} cycles, AVF window {window}",
                json.len(),
                workload.name,
                observed.result.cycles
            );
            if observed.trace_dropped > 0 {
                eprintln!(
                    "[trace] WARNING: ring dropped {} event(s); the trace starts mid-run. \
                     Re-run with a ring of at least {} events to keep them all.",
                    observed.trace_dropped,
                    smt_avf::runner::suggest_trace_capacity(
                        observed.trace_retained,
                        observed.trace_dropped
                    )
                );
            }
        }
        None => {
            eprintln!("[trace] SMT_AVF_TRACE_OUT set but tracing is compiled out; no trace written")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_default() {
        // Only valid when the env var is unset, which is the test default.
        if std::env::var("SMT_AVF_SCALE").is_err() {
            assert_eq!(scale_from_env(), ExperimentScale::default_scale());
        }
    }

    #[test]
    fn bench_scale_is_tiny() {
        assert!(bench_scale().measure_per_thread < ExperimentScale::quick().measure_per_thread);
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate registry name");
        assert!(experiment("fig1").is_some());
        assert!(experiment("no-such-experiment").is_none());
    }

    #[test]
    fn all_prints_the_paper_order_without_the_standalone_studies() {
        let figures = [
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        ];
        let expected: Vec<&str> = ["table1", "table2"]
            .into_iter()
            .chain(figures)
            .chain(["extensions"])
            .collect();
        assert_eq!(all(), expected);
    }
}
