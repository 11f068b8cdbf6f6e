//! `smtbench` — one benchmark for the smt-avf workspace.
//!
//! ```text
//! smtbench --workload ace-sweep|sfi-campaign|sfi-service --seed N
//!          --seconds S --trace 0|1 [--scale full|toy] [--pins FILE]
//!          [--pin-out FILE] [--workers N] [--sim-serve PATH]
//! ```
//!
//! Each run times whole passes of one workload for `--seconds`, checks
//! every unit's output against the pinned hashes, and prints one JSON line
//! last: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. See `smtbench/README.md` for what each workload and
//! metric means.

mod campaign;
mod check;
mod ledger;
mod service;
mod sweep;
mod sys;

use check::{Output, Pins};
use ledger::{Ledger, Tracer};
use smt_avf::ExperimentScale;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// A traced run fails when spans leave more than this share of a pass's
/// wall clock unaccounted for.
const MAX_OTHER_FRAC: f64 = 0.01;

/// Workload sizes. `Full` is the measured benchmark; `Toy` is the
/// self-test's seconds-long stand-in with the same code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

impl Scale {
    fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Toy => "toy",
        }
    }

    /// Simulation length: the figures' default scale, or a few thousand
    /// instructions per thread.
    pub fn experiment(self) -> ExperimentScale {
        match self {
            Scale::Full => ExperimentScale::default_scale(),
            Scale::Toy => ExperimentScale {
                warmup_per_thread: 2_000,
                measure_per_thread: 3_000,
            },
        }
    }
}

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub pins: PathBuf,
    pub pin_out: Option<PathBuf>,
    pub workers: usize,
    pub sim_serve: PathBuf,
}

impl Opts {
    /// The input variant `--seed` selects.
    pub fn variant(&self) -> u64 {
        self.seed % check::VARIANTS
    }

    fn parse(args: Vec<String>) -> Result<Opts, String> {
        let mut kv: BTreeMap<String, String> = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            kv.insert(flag, v);
        }
        let mut take = |k: &str| kv.remove(k);
        let num = |v: Option<String>, k: &str, d: f64| -> Result<f64, String> {
            v.map_or(Ok(d), |s| s.parse().map_err(|e| format!("{k}: {e}")))
        };
        let workload = take("--workload").ok_or("--workload is required")?;
        let seed =
            take("--seed").map_or(Ok(0), |s| s.parse().map_err(|e| format!("--seed: {e}")))?;
        let seconds = num(take("--seconds"), "--seconds", 10.0)?;
        let trace = num(take("--trace"), "--trace", 0.0)? != 0.0;
        let scale = match take("--scale").as_deref() {
            None | Some("full") => Scale::Full,
            Some("toy") => Scale::Toy,
            Some(s) => return Err(format!("--scale: unknown scale '{s}'")),
        };
        let pins = take("--pins").map_or_else(|| PathBuf::from("smtbench/pins.txt"), PathBuf::from);
        let pin_out = take("--pin-out").map(PathBuf::from);
        // Threads and worker processes are capped at the host's cores.
        let cap = sys::available_parallelism();
        let workers = (num(take("--workers"), "--workers", 2.0)? as usize).clamp(1, cap);
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let sim_serve = take("--sim-serve").map_or_else(
            || PathBuf::from(target).join("release").join("sim-serve"),
            PathBuf::from,
        );
        if let Some(k) = kv.keys().next() {
            return Err(format!("unknown flag {k}"));
        }
        Ok(Opts {
            workload,
            seed,
            seconds,
            trace,
            scale,
            pins,
            pin_out,
            workers,
            sim_serve,
        })
    }
}

/// What one pass of a workload produced.
#[derive(Default)]
pub struct Pass {
    /// Wall-clock seconds of the whole pass.
    pub wall: f64,
    /// Latency of each unit (one simulation, one campaign, one submit).
    pub unit_secs: Vec<f64>,
    /// Work completed: simulations or trials.
    pub work: f64,
    /// Simulated instructions committed, warm-up included (ace-sweep).
    pub committed: f64,
    /// Each unit's checked output.
    pub outputs: Vec<Output>,
}

/// One benchmark workload.
pub trait Workload {
    /// Name pins and outputs are filed under.
    const NAME: &'static str;
    /// Build everything the passes need; repeated to time `setup_s`.
    fn setup(opts: &Opts) -> Result<Self, String>
    where
        Self: Sized;
    /// Run one pass. With spans on, the pass also records per-layer
    /// observations for [`Workload::layers`].
    fn pass(&mut self, tracer: &Tracer) -> Result<Pass, String>;
    /// Per-layer metrics from the traced passes plus any probes, given the
    /// untraced passes of the same run.
    fn layers(&mut self, plain: &[Pass]) -> Result<BTreeMap<String, f64>, String>;
}

fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Every per-layer metric with its unit, in output order. Metrics a
/// workload does not exercise read 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("workload.generators_us".into(), "us"),
        ("pipeline.core_new_us".into(), "us"),
        ("pipeline.sim_minst_per_s".into(), "Minst/s"),
    ];
    for mix in sweep::MIXES {
        for (m, unit) in [
            ("pipeline.warmup_s", "s"),
            ("pipeline.window_s", "s"),
            ("pipeline.ns_per_cycle", "ns"),
            ("pipeline.ns_per_inst", "ns"),
            ("pipeline.ff_skip_frac", "ratio"),
            ("mem.dl1_miss_rate", "ratio"),
            ("mem.l2_miss_rate", "ratio"),
        ] {
            v.push((format!("{m}.{mix}"), unit));
        }
    }
    v.push(("exec.busy_frac".into(), "ratio"));
    v.push(("exec.jobs_max_over_mean".into(), "ratio"));
    for mix in campaign::MIXES {
        v.push((format!("inject.prepare_s.{mix}"), "s"));
        v.push((format!("inject.snapshot_clone_us.{mix}"), "us"));
        v.push((
            format!("inject.restore_distance_mean_cycles.{mix}"),
            "cycles",
        ));
    }
    for t in campaign::targets() {
        v.push((format!("inject.trial_s.{}", t.label()), "s"));
    }
    for (m, unit) in [
        ("inject.trials_per_s", "trials/s"),
        ("inject.early_exit_frac", "ratio"),
        ("inject.fork_rate", "ratio"),
        ("inject.lane.prechecked", "count"),
        ("inject.lane.batched", "count"),
        ("inject.lane.resident", "count"),
        ("inject.lane.forked", "count"),
        ("inject.lane.deduped", "count"),
        ("store.put_us.p50", "us"),
        ("store.put_us.p90", "us"),
        ("store.fsync_us.p50", "us"),
        ("store.encode_us", "us"),
        ("store.decode_us", "us"),
        ("store.get_us.p50", "us"),
        ("store.sha256_mb_per_s", "MB/s"),
        ("store.fsck_s", "s"),
        ("store.publishes", "count"),
        ("store.bytes_published", "bytes"),
        ("store.store_mb", "MiB"),
        ("serve.spawn_s", "s"),
        ("serve.shard_overhead_s", "s"),
        ("serve.worker_spawns_per_job", "count"),
        ("serve.result_s", "s"),
        ("serve.resume_s", "s"),
        ("ledger.wall_s", "s"),
        ("ledger.other_s", "s"),
        ("ledger.other_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ] {
        v.push((m.into(), unit));
    }
    for layer in LAYERS {
        v.push((format!("ledger.self_s.{layer}"), "s"));
    }
    v
}

/// The layers spans are filed under.
pub const LAYERS: [&str; 7] = [
    "sim-workload",
    "sim-pipeline",
    "sim-exec",
    "sim-inject",
    "sim-store",
    "sim-serve",
    "bench",
];

/// The end-to-end metrics with their units, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

fn run<W: Workload>(opts: &Opts, started: Instant) -> Result<Report, String> {
    let pins = Pins::load(&opts.pins)?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_t0 = started;
    let mut w = None;
    for _ in 0..SETUP_REPS {
        drop(w.take());
        w = Some(W::setup(opts)?);
        setups.push(setup_t0.elapsed().as_secs_f64());
        setup_t0 = Instant::now();
    }
    let mut w = w.expect("at least one set-up");
    let prefix = format!("{} {} v{}", W::NAME, opts.scale.label(), opts.variant());

    let plain_tracer = Tracer::new(false);
    let traced_tracer = Tracer::new(true);
    let (mut attempted, mut failed) = (0, 0);
    let mut plain: Vec<Pass> = Vec::new();
    let mut ledgers: Vec<Ledger> = Vec::new();
    let t0 = Instant::now();
    let (mut round_start, mut longest) = (0.0, 0.0_f64);
    loop {
        let p = w.pass(&plain_tracer)?;
        if let Some(out) = &opts.pin_out {
            let lines = check::pin_lines(&prefix, &p.outputs)?;
            let mut old = std::fs::read_to_string(out).unwrap_or_default();
            old.push_str(&lines);
            std::fs::write(out, old).map_err(|e| format!("{}: {e}", out.display()))?;
            return Ok(Report {
                attempted: p.outputs.len() as u64,
                failed: 0,
                correct: true,
                metrics: Vec::new(),
            });
        }
        let (a, f) = pins.check(&prefix, &p.outputs);
        attempted += a;
        failed += f;
        eprintln!("smtbench: pass {}: {:.3}s", plain.len() + 1, p.wall);
        plain.push(p);
        if opts.trace {
            let p = w.pass(&traced_tracer)?;
            let (a, f) = pins.check(&prefix, &p.outputs);
            attempted += a;
            failed += f;
            eprintln!(
                "smtbench: traced pass {}: {:.3}s",
                ledgers.len() + 1,
                p.wall
            );
            ledgers.push(traced_tracer.take_ledger(p.wall));
        }
        // Start another round only if one as long as the longest so far
        // still ends inside the run.
        let elapsed = t0.elapsed().as_secs_f64();
        longest = longest.max(elapsed - round_start);
        round_start = elapsed;
        if elapsed + longest > opts.seconds {
            break;
        }
    }

    let mut correct = failed == 0;
    let metrics = if opts.trace {
        let mut layer = w.layers(&plain)?;
        let mut total = Ledger::default();
        for l in &ledgers {
            total.add(l);
        }
        let n = ledgers.len() as f64;
        let other_frac = total.other / total.wall;
        eprintln!(
            "smtbench: ledger over {} traced passes: wall {:.4}s = self {:.4}s + other {:.4}s (other {:.2}%, residual {:.2e}s)",
            ledgers.len(),
            total.wall / n,
            total.self_s.values().sum::<f64>() / n,
            total.other / n,
            other_frac * 100.0,
            total.residual() / n
        );
        if other_frac > MAX_OTHER_FRAC || total.residual() > 1e-6 * total.wall {
            eprintln!("smtbench: FAILED ledger: spans do not account for the pass wall clock");
            correct = false;
        }
        layer.insert("ledger.wall_s".into(), total.wall / n);
        layer.insert("ledger.other_s".into(), total.other / n);
        layer.insert("ledger.other_frac".into(), other_frac);
        for (k, v) in &total.self_s {
            layer.insert(format!("ledger.self_s.{k}"), v / n);
        }
        let plain_wall = median(&plain.iter().map(|p| p.wall).collect::<Vec<_>>());
        let traced_wall = median(&ledgers.iter().map(|l| l.wall).collect::<Vec<_>>());
        layer.insert("trace.overhead_frac".into(), traced_wall / plain_wall - 1.0);
        let names = per_layer_names();
        for k in layer.keys() {
            if !names.iter().any(|(n, _)| n == k) {
                return Err(format!("per-layer metric {k} is not declared"));
            }
        }
        names
            .into_iter()
            .map(|(name, unit)| {
                let v = layer.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        let walls: Vec<f64> = plain.iter().map(|p| p.wall).collect();
        let p50s: Vec<f64> = plain.iter().map(|p| median(&p.unit_secs)).collect();
        let rates: Vec<f64> = plain.iter().map(|p| p.work / p.wall).collect();
        let values = [
            median(&setups),
            median(&walls),
            median(&p50s),
            median(&rates),
            sys::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), v, *unit))
            .collect()
    };
    eprintln!(
        "smtbench: {} passes, {} units checked, {} failed",
        plain.len() + ledgers.len(),
        attempted,
        failed
    );
    Ok(Report {
        attempted,
        failed,
        correct,
        metrics,
    })
}

/// The run's context line: no number should outlive where it came from.
fn context(opts: &Opts) -> String {
    let (commit, dirty) = sys::revision();
    let dirty = dirty.map_or("null".to_string(), |d| d.to_string());
    format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"variant\": {}, \"commit\": \"{commit}\", \"dirty\": {dirty}, \
         \"nproc\": {}, \"available_parallelism\": {}, \"worker_threads\": {}, \"worker_procs\": {}, \"scale\": \"{}\", \"seconds\": {}, \"trace\": {}}}}}",
        opts.workload,
        opts.seed,
        opts.variant(),
        sys::nproc(),
        sys::available_parallelism(),
        opts.workers,
        if opts.workload == service::Service::NAME { opts.workers } else { 1 },
        opts.scale.label(),
        opts.seconds,
        opts.trace
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let opts = match Opts::parse(std::env::args().skip(1).collect()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("smtbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match opts.workload.as_str() {
        sweep::Sweep::NAME => run::<sweep::Sweep>(&opts, started),
        campaign::Campaign::NAME => run::<campaign::Campaign>(&opts, started),
        service::Service::NAME => run::<service::Service>(&opts, started),
        other => Err(format!(
            "unknown workload '{other}' (ace-sweep, sfi-campaign, sfi-service)"
        )),
    };
    match report {
        Ok(r) => {
            if opts.pin_out.is_none() {
                println!("{}", context(&opts));
                println!("{}", r.json());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smtbench: {e}");
            ExitCode::FAILURE
        }
    }
}
