//! Cross-validate ACE-derived AVF against statistical fault injection.
//!
//! Runs an SFI campaign (default: 200 single-bit strikes per structure)
//! and the ACE analysis over the same workload and measurement window,
//! then prints the per-structure comparison table. See DESIGN.md §5c.
//!
//! ```text
//! cargo run --release --bin validate_avf -- [--workload 2T-MIX-A]
//!     [--trials 200] [--seed 12] [--workers N] [--scale quick|default]
//!     [--checkpoints K] [--scalar]
//!     [--trace-out trace.json] [--telemetry-window N]
//! ```
//!
//! Trials restore from K golden-run checkpoints (at most 64, planned at
//! evenly spaced committed-instruction milestones) and run 64 per batch on
//! the lane-parallel lockstep engine (see DESIGN.md §5i). `--scalar` runs
//! one core per trial instead: the oracle the batched engine is proven
//! bit-identical against, so the window, rows and outcome tallies match.
//!
//! `--trace-out PATH` re-runs the ACE reference with pipeline tracing and
//! writes Chrome Trace Event JSON (open in Perfetto or `chrome://tracing`).
//! `--telemetry-window N` records windowed AVF every N cycles and prints
//! the time series; combined with `--trace-out`, the AVF windows become
//! counter tracks on the same timeline.

use sim_inject::{render_metrics, TrialPath};
use sim_trace::metrics;
use smt_avf::experiments::campaign::{
    default_campaign, outcome_tally, resolve_workload, validate_workload, validate_workload_stored,
};
use smt_avf::{ExperimentScale, TraceSettings};
use std::process::ExitCode;

struct Options {
    workload: String,
    trials: usize,
    seed: u64,
    workers: usize,
    scale: ExperimentScale,
    checkpoints: usize,
    scalar: bool,
    trace_out: Option<String>,
    telemetry_window: Option<u64>,
    store: Option<String>,
    resume: bool,
    chunk: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: "2T-MIX-A".to_string(),
        trials: 200,
        seed: 12,
        workers: 0, // 0 = auto
        scale: ExperimentScale::quick(),
        checkpoints: sim_inject::DEFAULT_CHECKPOINTS,
        scalar: false,
        trace_out: None,
        telemetry_window: None,
        store: None,
        resume: false,
        chunk: 0, // 0 = sim-store default
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--trials" => {
                opts.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--scale" => {
                opts.scale = match value("--scale")?.as_str() {
                    "quick" => ExperimentScale::quick(),
                    "default" => ExperimentScale::default_scale(),
                    other => return Err(format!("--scale: unknown scale '{other}'")),
                }
            }
            "--checkpoints" => {
                opts.checkpoints = value("--checkpoints")?
                    .parse()
                    .map_err(|e| format!("--checkpoints: {e}"))?
            }
            "--scalar" => opts.scalar = true,
            "--store" => opts.store = Some(value("--store")?),
            "--resume" => opts.resume = true,
            "--chunk" => {
                opts.chunk = value("--chunk")?
                    .parse()
                    .map_err(|e| format!("--chunk: {e}"))?
            }
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--telemetry-window" => {
                let n: u64 = value("--telemetry-window")?
                    .parse()
                    .map_err(|e| format!("--telemetry-window: {e}"))?;
                if n == 0 {
                    return Err("--telemetry-window must be positive".to_string());
                }
                opts.telemetry_window = Some(n);
            }
            "--help" | "-h" => {
                return Err("usage: validate_avf [--workload NAME] [--trials N] \
                     [--seed S] [--workers W] [--scale quick|default] \
                     [--checkpoints K] [--scalar] \
                     [--store DIR] [--resume] [--chunk N] \
                     [--trace-out PATH] [--telemetry-window N]\n\
                     --checkpoints: golden snapshots trials restore from \
                     (default 12, at most 64)\n\
                     --scalar: one core per trial (the oracle the default \
                     64-lane batches are proven bit-identical against)"
                    .to_string())
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if opts.trials == 0 {
        return Err("--trials must be positive".to_string());
    }
    if opts.resume && opts.store.is_none() {
        return Err("--resume requires --store".to_string());
    }
    Ok(opts)
}

/// Run the observed ACE reference if `--trace-out`/`--telemetry-window`
/// asked for it: write the Chrome trace and print the windowed-AVF series.
fn observe(
    opts: &Options,
    workload: &sim_workload::SmtWorkload,
    campaign: &sim_inject::CampaignConfig,
) -> Result<(), String> {
    let observers = smt_avf::Observers {
        telemetry_window: opts.telemetry_window,
        trace: opts.trace_out.as_ref().map(|_| TraceSettings::default()),
    };
    if observers == smt_avf::Observers::default() {
        return Ok(());
    }
    let cfg = sim_model::MachineConfig::ispass07_baseline()
        .with_contexts(workload.contexts)
        .with_fetch_policy(sim_model::FetchPolicyKind::Icount);
    let observed = smt_avf::run_workload_observed(&cfg, workload, campaign.budget, &observers)
        .map_err(|e| format!("observed run failed: {e}"))?;

    if let Some(windows) = &observed.windows {
        use avf_core::StructureId;
        println!(
            "\ntime-resolved AVF (window {} cycles):",
            opts.telemetry_window.unwrap_or(0)
        );
        println!(
            "{:>12} {:>12} {:>8} {:>8} {:>8} {:>8}",
            "start", "end", "IQ", "ROB", "RegFile", "FU"
        );
        for w in windows {
            println!(
                "{:>12} {:>12} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
                w.start_cycle,
                w.end_cycle,
                w.structure_avf(StructureId::Iq),
                w.structure_avf(StructureId::Rob),
                w.structure_avf(StructureId::RegFile),
                w.structure_avf(StructureId::Fu),
            );
        }
    }
    if let Some(path) = &opts.trace_out {
        match &observed.chrome_trace {
            Some(json) => {
                std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
                println!(
                    "\nwrote Chrome trace to {path} ({} bytes) — open in Perfetto \
                     (https://ui.perfetto.dev) or chrome://tracing",
                    json.len()
                );
                if observed.trace_dropped > 0 {
                    eprintln!(
                        "WARNING: trace ring dropped {} event(s); the trace starts mid-run. \
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
                return Err(
                    "--trace-out given but no trace captured (trace feature compiled out?)"
                        .to_string(),
                )
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let workload = match resolve_workload(&opts.workload) {
        Ok(w) => w,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut campaign = default_campaign(&workload, opts.trials, opts.seed, opts.scale);
    if opts.workers > 0 {
        campaign.workers = opts.workers;
    }
    campaign.checkpoints = opts.checkpoints.max(1);
    if opts.scalar {
        campaign.path = TrialPath::Scalar;
    }
    campaign.progress = true;
    // The trial executor publishes its diagnostics (throughput, restores,
    // lane classes) into the global registry; the summary renders them.
    metrics::set_enabled(true);
    println!(
        "SFI campaign: workload {}, {} trials/structure over {} structures, seed {}, {} workers, {} checkpoints, {}",
        workload.name,
        campaign.trials_per_structure,
        campaign.targets.len(),
        campaign.seed,
        campaign.workers,
        campaign.checkpoints.min(sim_inject::MAX_CHECKPOINTS),
        match campaign.path {
            TrialPath::Batched { lanes } => format!("{lanes} lanes (batched)"),
            _ => "scalar (oracle)".to_string(),
        },
    );

    let v = match &opts.store {
        Some(dir) => {
            println!(
                "persisting to store {dir}{}",
                if opts.resume { " (resuming)" } else { "" }
            );
            validate_workload_stored(
                &workload,
                &campaign,
                std::path::Path::new(dir),
                opts.chunk,
                opts.resume,
            )
        }
        None => validate_workload(&workload, &campaign),
    };
    let v = match v {
        Ok(v) => v,
        Err(e) => {
            eprintln!("validation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (start, end) = v.campaign.window;
    println!(
        "golden window: cycles [{start}, {end}), {} instructions committed\n",
        v.campaign.ace.total_committed()
    );
    print!("{}", v.render());
    println!("\n{}", outcome_tally(&v.campaign.per_target));

    print!("{}", render_metrics(metrics::global(), &campaign.targets));

    if let Err(msg) = observe(&opts, &workload, &campaign) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }

    if v.bound_holds() {
        println!("ACE AVF upper-bounds the SFI estimate for every structure.");
        ExitCode::SUCCESS
    } else {
        println!("BOUND VIOLATED: ACE AVF fell below an SFI lower confidence bound.");
        ExitCode::FAILURE
    }
}
