//! `sim-serve` — the campaign job server (DESIGN.md §5h).
//!
//! ```text
//! sim-serve submit --store DIR --workload NAME [--trials N] [--seed S]
//!                  [--worker-procs P] [--chunk N] [--scale quick|default]
//!                  [--workers W] [--checkpoints K] [--scalar]
//!                  [--targets a,b,...] [--name LABEL]
//!                  [--enqueue QUEUE_DIR]
//! sim-serve serve  --store DIR --queue DIR [--worker-procs P] [--once]
//! sim-serve status --store DIR [--watch] [--interval-ms N]
//! sim-serve result --store DIR --job ID_PREFIX
//! sim-serve metrics --store DIR
//! sim-serve gc     --store DIR
//! sim-serve fsck   --store DIR
//! sim-serve soak   --dir DIR [--jobs N] [--crash-jobs K] ...
//! sim-serve worker             (internal: spawned by the sharding parent)
//! ```
//!
//! `submit` runs a job to completion in the foreground (resuming any
//! published chunks); with `--enqueue` it instead drops the job spec into
//! a queue directory for a long-running `serve` process to pick up.
//! Killing any of these at any point is safe: the same submission resumes
//! from the store and finishes with byte-identical results.
//!
//! Wall-clock metrics (DESIGN.md §5k) are on by default for `submit`,
//! `serve`, and `soak` (`--no-metrics` opts out) and snapshot to
//! `<store>/metrics/*.json` — a directory fsck never walks, because
//! observability is deliberately outside the result-equality contract.

mod protocol;
mod server;
mod soak;

use sim_store::{decode_record, encode_record, JobSpec, ObjectId, Store, DEFAULT_CHUNK_TRIALS};
use sim_trace::metrics;
use smt_avf::experiments::campaign::{default_campaign, outcome_tally, resolve_workload};
use smt_avf::ExperimentScale;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> String {
    "usage: sim-serve <submit|serve|status|result|metrics|gc|fsck|soak|worker> [flags]\n\
     \n\
     submit --store DIR --workload NAME [--trials N] [--seed S] [--workers W]\n\
     \x20      [--worker-procs P] [--chunk N] [--scale quick|default]\n\
     \x20      [--checkpoints K] [--scalar] [--targets a,b,...]\n\
     \x20      [--name LABEL] [--enqueue QUEUE_DIR] [--no-metrics]\n\
     \x20      (--worker-procs: compute streams, the parent's included,\n\
     \x20      at most one per core.\n\
     \x20      --checkpoints: golden snapshots trials restore from,\n\
     \x20      default 12, at most 64.\n\
     \x20      --scalar: one core per trial, the oracle the default lane\n\
     \x20      batching is proven against. In process only; not part of\n\
     \x20      the job identity.)\n\
     serve  --store DIR --queue DIR [--worker-procs P] [--poll-ms N]\n\
     \x20      [--metrics-every N] [--no-metrics] [--once]\n\
     status --store DIR [--watch] [--interval-ms N]\n\
     result --store DIR --job ID_PREFIX\n\
     metrics --store DIR\n\
     gc     --store DIR\n\
     fsck   --store DIR\n\
     soak   --dir DIR [--jobs N] [--crash-jobs K] [--worker-procs P]\n\
     \x20      [--trials T] [--seed S] [--chunk C] [--workload NAME]\n\
     \x20      [--targets a,b,...] [--slo-p99-ms N] [--slo-resume-ms N]\n\
     \x20      [--report PATH]"
        .to_string()
}

struct Flags {
    values: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse `--flag value` / bare `--flag` pairs (every flag in this CLI
    /// that takes a value takes exactly one).
    fn parse(args: Vec<String>, bare: &[&str]) -> Result<Flags, String> {
        let mut values = Vec::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument '{flag}' (try --help)"));
            }
            if flag == "--help" {
                return Err(usage());
            }
            if bare.contains(&flag.as_str()) {
                values.push((flag, None));
            } else {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                values.push((flag, Some(v)));
            }
        }
        Ok(Flags { values })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.values.iter().any(|(f, _)| f == flag)
    }

    fn require(&self, flag: &str) -> Result<&str, String> {
        self.get(flag).ok_or_else(|| format!("{flag} is required"))
    }

    fn parse_num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("{flag}: {e}")),
        }
    }

    /// Reject unknown flags so typos fail loudly.
    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        for (f, _) in &self.values {
            if !known.contains(&f.as_str()) {
                return Err(format!("unknown flag '{f}' (try --help)"));
            }
        }
        Ok(())
    }
}

fn parse_target(name: &str) -> Result<sim_inject::FaultTarget, String> {
    use sim_inject::FaultTarget as T;
    Ok(match name.trim().to_ascii_lowercase().as_str() {
        "iq" => T::Iq,
        "rob" => T::Rob,
        "lsq" | "lsqtag" => T::LsqTag,
        "regfile" | "reg" => T::RegFile,
        "fu" => T::Fu,
        "dl1data" => T::Dl1Data,
        "dl1tag" => T::Dl1Tag,
        "dtlb" => T::Dtlb,
        "itlb" => T::Itlb,
        other => {
            return Err(format!(
                "--targets: unknown target '{other}' \
                 (iq, rob, lsq, regfile, fu, dl1data, dl1tag, dtlb, itlb)"
            ))
        }
    })
}

fn spec_from_flags(flags: &Flags) -> Result<JobSpec, String> {
    let workload_name = flags.require("--workload")?.to_string();
    let workload = resolve_workload(&workload_name)?;
    let trials: usize = flags.parse_num("--trials", 50)?;
    if trials == 0 {
        return Err("--trials must be positive".to_string());
    }
    let seed: u64 = flags.parse_num("--seed", 12)?;
    let scale = match flags.get("--scale").unwrap_or("quick") {
        "quick" => ExperimentScale::quick(),
        "default" => ExperimentScale::default_scale(),
        other => return Err(format!("--scale: unknown scale '{other}'")),
    };
    let mut cfg = default_campaign(&workload, trials, seed, scale);
    let workers: usize = flags.parse_num("--workers", 0)?;
    if workers > 0 {
        cfg.workers = workers;
    }
    cfg.checkpoints = flags.parse_num("--checkpoints", cfg.checkpoints)?.max(1);
    // Outside the job identity: the spec hashes and resumes the same
    // either way, because the batched engine is proven bit-identical to
    // the scalar path.
    if flags.has("--scalar") {
        cfg.path = sim_inject::TrialPath::Scalar;
    }
    if let Some(list) = flags.get("--targets") {
        cfg.targets = list
            .split(',')
            .map(parse_target)
            .collect::<Result<Vec<_>, _>>()?;
    }
    Ok(JobSpec {
        name: flags
            .get("--name")
            .unwrap_or(&format!("{workload_name}-t{trials}-s{seed}"))
            .to_string(),
        workload: workload_name,
        cfg,
        chunk_trials: flags.parse_num("--chunk", DEFAULT_CHUNK_TRIALS)?,
    })
}

/// Render a stored result the way `validate_avf` renders a live one: the
/// per-structure ACE-vs-SFI table plus outcome tallies.
fn print_result(result: &sim_store::JobResultRecord) {
    let points: Vec<avf_core::SfiPoint> = result.per_target.iter().map(|t| t.sfi).collect();
    let rows = avf_core::compare(&result.report, &points);
    print!("{}", avf_core::render(&rows));
    println!("{}", outcome_tally(&result.per_target));
}

fn cmd_submit(flags: &Flags) -> Result<(), String> {
    flags.check_known(&[
        "--store",
        "--workload",
        "--trials",
        "--seed",
        "--workers",
        "--worker-procs",
        "--chunk",
        "--scale",
        "--checkpoints",
        "--scalar",
        "--targets",
        "--name",
        "--enqueue",
        "--no-metrics",
    ])?;
    let worker_procs: usize = flags.parse_num("--worker-procs", 0)?;
    // The trial path is off the wire, so a worker process or a queued
    // job would decode the spec and silently run batched.
    if flags.has("--scalar") && (worker_procs >= 2 || flags.has("--enqueue")) {
        return Err("--scalar runs in process only: it cannot be combined with \
                    --worker-procs 2 or more, or with --enqueue (try --help)"
            .to_string());
    }
    let spec = spec_from_flags(flags)?;
    let job = spec.id();
    if let Some(queue) = flags.get("--enqueue") {
        enqueue(Path::new(queue), &spec)?;
        println!("enqueued job {} ({})", server::short(&job), spec.name);
        return Ok(());
    }
    let store = PathBuf::from(flags.require("--store")?);
    metrics::set_enabled(!flags.has("--no-metrics"));
    eprintln!(
        "sim-serve: job {} ({}): workload {}, {} trials x {} targets, chunk {}, {}",
        server::short(&job),
        spec.name,
        spec.workload,
        spec.cfg.trials_per_structure,
        spec.cfg.targets.len(),
        spec.chunk_trials,
        match worker_procs {
            0 | 1 => "in-process".to_string(),
            n => format!("up to {n} compute streams"),
        },
    );
    let outcome = server::run_job(&store, &spec, worker_procs)?;
    eprintln!(
        "sim-serve: job {} done: {} chunks resumed, {} computed \
         ({} trials in {:.2}s, {:.1} trials/s)",
        server::short(&outcome.job),
        outcome.resumed_chunks,
        outcome.computed_chunks,
        outcome.computed_trials,
        outcome.elapsed_secs,
        if outcome.elapsed_secs > 0.0 {
            outcome.computed_trials as f64 / outcome.elapsed_secs
        } else {
            0.0
        },
    );
    if metrics::enabled() {
        write_metrics_snapshot(&store, "submit.json");
    }
    println!("job {}", outcome.job);
    print_result(&outcome.result);
    Ok(())
}

/// Write the global registry to `<store>/metrics/<name>` (best effort:
/// a failed snapshot is a log line, never a failed job).
fn write_metrics_snapshot(store: &Path, name: &str) {
    let path = store.join("metrics").join(name);
    match metrics::global().write_snapshot(&path) {
        Ok(()) => eprintln!("sim-serve: metrics snapshot -> {}", path.display()),
        Err(e) => eprintln!("sim-serve: metrics snapshot {} failed: {e}", path.display()),
    }
}

/// Atomically drop a job spec into a queue directory.
fn enqueue(queue: &Path, spec: &JobSpec) -> Result<(), String> {
    std::fs::create_dir_all(queue).map_err(|e| format!("{}: {e}", queue.display()))?;
    let bytes = encode_record(spec);
    let tmp = queue.join(format!(".{}-{}.tmp", std::process::id(), spec.id()));
    let dest = queue.join(format!("{}.job", spec.id()));
    std::fs::write(&tmp, &bytes).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &dest).map_err(|e| format!("{}: {e}", dest.display()))?;
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    flags.check_known(&[
        "--store",
        "--queue",
        "--worker-procs",
        "--poll-ms",
        "--metrics-every",
        "--no-metrics",
        "--once",
    ])?;
    let store = PathBuf::from(flags.require("--store")?);
    let queue = PathBuf::from(flags.require("--queue")?);
    let worker_procs: usize = flags.parse_num("--worker-procs", 0)?;
    let poll_ms: u64 = flags.parse_num("--poll-ms", 500)?;
    let metrics_every: u64 = flags.parse_num("--metrics-every", 20)?;
    let once = flags.has("--once");
    metrics::set_enabled(!flags.has("--no-metrics"));
    std::fs::create_dir_all(&queue).map_err(|e| format!("{}: {e}", queue.display()))?;
    eprintln!(
        "sim-serve: watching {} (store {}, poll {poll_ms} ms{})",
        queue.display(),
        store.display(),
        if once { ", single pass" } else { "" }
    );
    let mut passes: u64 = 0;
    loop {
        let stats = server::drain_queue(&store, &queue, worker_procs)?;
        if !stats.drained.is_empty() {
            let worst_ms = stats
                .drained
                .iter()
                .map(|d| d.latency_us)
                .max()
                .unwrap_or(0)
                / 1000;
            eprintln!(
                "sim-serve: pass drained {} job(s), worst submit-to-result {worst_ms} ms",
                stats.drained.len()
            );
        }
        passes += 1;
        // Snapshot after any pass that did work and periodically while
        // idle, so an observer (or a crash) is at most one pass stale.
        if metrics::enabled()
            && (!stats.drained.is_empty() || once || passes.is_multiple_of(metrics_every.max(1)))
        {
            write_metrics_snapshot(&store, "serve.json");
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(50)));
    }
}

/// Render the job table `status` prints — one build per refresh so
/// `--watch` can clear and reprint an entire consistent frame.
fn status_body(store_dir: &str) -> Result<String, String> {
    let store = Store::open(store_dir).map_err(|e| e.to_string())?;
    let refs = store.refs("jobs/").map_err(|e| e.to_string())?;
    let mut jobs: Vec<String> = Vec::new();
    for (name, _) in &refs {
        let job = name.split('/').nth(1).unwrap_or_default().to_string();
        if !jobs.contains(&job) {
            jobs.push(job);
        }
    }
    let mut out = String::new();
    use std::fmt::Write as _;
    if jobs.is_empty() {
        out.push_str("no jobs\n");
        return Ok(out);
    }
    for hex in jobs {
        let Some(job) = ObjectId::from_hex(&hex) else {
            let _ = writeln!(out, "{hex}: not a job id");
            continue;
        };
        let spec = match store
            .get_ref(&sim_store::campaign::spec_ref(&job))
            .map_err(|e| e.to_string())?
        {
            Some(id) => {
                let bytes = store.get(&id).map_err(|e| e.to_string())?;
                Some(decode_record::<JobSpec>(&bytes).map_err(|e| e.to_string())?)
            }
            None => None,
        };
        let chunks = refs
            .iter()
            .filter(|(n, _)| n.starts_with(&format!("jobs/{hex}/chunks/")))
            .count();
        let planned = spec
            .as_ref()
            .map(|s| sim_store::plan_chunks(s.total_trials(), s.chunk_trials).len());
        let has_result = refs.iter().any(|(n, _)| n == &format!("jobs/{hex}/result"));
        let _ = writeln!(
            out,
            "{}  {:<24} {:>9}  chunks {}/{}",
            &hex[..12],
            spec.as_ref().map(|s| s.name.as_str()).unwrap_or("?"),
            if has_result { "complete" } else { "partial" },
            chunks,
            planned.map_or("?".to_string(), |n| n.to_string()),
        );
    }
    Ok(out)
}

fn cmd_status(flags: &Flags) -> Result<(), String> {
    flags.check_known(&["--store", "--watch", "--interval-ms"])?;
    let store_dir = flags.require("--store")?;
    if !flags.has("--watch") {
        print!("{}", status_body(store_dir)?);
        return Ok(());
    }
    let interval_ms: u64 = flags.parse_num("--interval-ms", 1000)?;
    loop {
        // A status error mid-watch is transient by construction (e.g. a
        // ref updated between listing and reading) — show it and retry.
        let frame = status_body(store_dir).unwrap_or_else(|e| format!("status: {e}\n"));
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

fn cmd_result(flags: &Flags) -> Result<(), String> {
    flags.check_known(&["--store", "--job"])?;
    let store = Store::open(flags.require("--store")?).map_err(|e| e.to_string())?;
    let prefix = flags.require("--job")?;
    let refs = store.refs("jobs/").map_err(|e| e.to_string())?;
    let mut matches: Vec<&str> = refs
        .iter()
        .filter(|(n, _)| n.ends_with("/result"))
        .filter_map(|(n, _)| n.split('/').nth(1))
        .filter(|hex| hex.starts_with(prefix))
        .collect();
    matches.dedup();
    match matches.as_slice() {
        [] => Err(format!("no completed job matches '{prefix}'")),
        [hex] => {
            let job = ObjectId::from_hex(hex).ok_or("corrupt job id")?;
            let result = sim_store::load_result(&store, &job)
                .map_err(|e| e.to_string())?
                .ok_or("result vanished")?;
            println!("job {job}");
            print_result(&result);
            Ok(())
        }
        many => Err(format!(
            "'{prefix}' is ambiguous: {} jobs match",
            many.len()
        )),
    }
}

/// Print every metrics snapshot under `<store>/metrics/`. Snapshots are
/// plain JSON files outside the object namespace; this just finds and
/// dumps them with a header per file.
fn cmd_metrics(flags: &Flags) -> Result<(), String> {
    flags.check_known(&["--store"])?;
    let dir = PathBuf::from(flags.require("--store")?).join("metrics");
    let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    if files.is_empty() {
        println!(
            "no metrics snapshots under {} (run submit/serve without --no-metrics)",
            dir.display()
        );
        return Ok(());
    }
    // Snapshot dumps are exactly the output that gets piped into `head`
    // or `jq`; write through the io layer and treat a closed pipe as a
    // normal early exit instead of a println! panic.
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    for f in &files {
        let body = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let newline = if body.ends_with('\n') { "" } else { "\n" };
        if write!(out, "-- {}\n{body}{newline}", f.display()).is_err() {
            return Ok(());
        }
    }
    Ok(())
}

fn cmd_gc(flags: &Flags) -> Result<(), String> {
    flags.check_known(&["--store"])?;
    let store = Store::open(flags.require("--store")?).map_err(|e| e.to_string())?;
    let report = store.gc().map_err(|e| e.to_string())?;
    println!(
        "gc: {} live objects kept, {} unreferenced objects removed, \
         {} tmp files removed, {} bytes reclaimed",
        report.live_objects, report.removed_objects, report.tmp_removed, report.reclaimed_bytes
    );
    Ok(())
}

fn cmd_fsck(flags: &Flags) -> Result<(), String> {
    flags.check_known(&["--store"])?;
    let store = Store::open(flags.require("--store")?).map_err(|e| e.to_string())?;
    let report = store.fsck().map_err(|e| e.to_string())?;
    println!(
        "fsck: {} objects ok, {} refs ok, {} errors",
        report.objects_ok,
        report.refs_ok,
        report.errors.len()
    );
    if report.is_clean() {
        Ok(())
    } else {
        for e in &report.errors {
            eprintln!("fsck: {e}");
        }
        Err("store is corrupt; fail closed (delete the damaged campaign and resubmit)".to_string())
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let cmd = args.remove(0);
    let bare: &[&str] = &["--once", "--watch", "--no-metrics", "--scalar"];
    let run = || -> Result<(), String> {
        match cmd.as_str() {
            "worker" => server::worker_main(),
            "submit" => cmd_submit(&Flags::parse(args.clone(), bare)?),
            "serve" => cmd_serve(&Flags::parse(args.clone(), bare)?),
            "status" => cmd_status(&Flags::parse(args.clone(), bare)?),
            "result" => cmd_result(&Flags::parse(args.clone(), bare)?),
            "metrics" => cmd_metrics(&Flags::parse(args.clone(), bare)?),
            "gc" => cmd_gc(&Flags::parse(args.clone(), bare)?),
            "fsck" => cmd_fsck(&Flags::parse(args.clone(), bare)?),
            "soak" => soak::cmd_soak(&Flags::parse(args.clone(), bare)?),
            "--help" | "-h" | "help" => Err(usage()),
            other => Err(format!("unknown command '{other}'\n{}", usage())),
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
