//! `sim-serve soak` — the SLO-enforced soak harness (DESIGN.md §5k).
//!
//! One soak run drives the whole serving stack the way an unlucky day
//! would: many concurrent quick-scale jobs, a subset of submissions
//! killed mid-write by the deterministic crash hook
//! (`SIM_STORE_CRASH_AFTER_CHUNKS`), then a queue drain that must resume
//! every crashed job and finish all of them. Afterwards the harness
//! fails closed on four SLOs:
//!
//! 1. every queued job parked as `.done` (no failures, no rejects);
//! 2. p99 submit→result latency under `--slo-p99-ms`;
//! 3. every crashed job's resume (dispatch→result) under
//!    `--slo-resume-ms`;
//! 4. zero byte-level divergence between the soak store and a serial
//!    control store that never crashed — and `gc` + `fsck` afterwards
//!    must reclaim only garbage and leave the store clean.
//!
//! The metrics-overhead SLO (≤5% throughput cost with metrics on) lives
//! in perfbench's `service` section, not here: soak asserts behavior,
//! perfbench asserts cost.

use crate::server;
use crate::Flags;
use sim_store::{GcReport, JobSpec, ObjectId, Store};
use sim_trace::metrics;
use smt_avf::experiments::campaign::{default_campaign, resolve_workload};
use smt_avf::ExperimentScale;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Build the i-th soak job spec — byte-for-byte the spec that
/// `sim-serve submit --workload W --trials T --seed S+i --targets L
/// --chunk C --scale quick` builds, so the crash legs (which go through
/// `submit` in a child process) and the queue legs share job identities.
fn soak_spec(
    workload_name: &str,
    trials: usize,
    seed: u64,
    targets: &[sim_inject::FaultTarget],
    chunk: usize,
) -> Result<JobSpec, String> {
    let workload = resolve_workload(workload_name)?;
    let mut cfg = default_campaign(&workload, trials, seed, ExperimentScale::quick());
    cfg.checkpoints = cfg.checkpoints.max(1);
    cfg.targets = targets.to_vec();
    Ok(JobSpec {
        name: format!("{workload_name}-t{trials}-s{seed}"),
        workload: workload_name.to_string(),
        cfg,
        chunk_trials: chunk,
    })
}

/// Recursively collect `root/<sub>` for each `sub` as a sorted
/// relative-path → contents map. Only the listed subtrees are read, so
/// LOCK files and `tmp/`/`metrics/` leftovers never enter a comparison.
fn tree_bytes(root: &Path, subs: &[&str]) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let mut out = BTreeMap::new();
    for sub in subs {
        let top = root.join(sub);
        if !top.exists() {
            continue;
        }
        let mut stack = vec![top];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
                let path = entry.map_err(|e| e.to_string())?.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path
                        .strip_prefix(root)
                        .expect("walked under root")
                        .to_string_lossy()
                        .replace('\\', "/");
                    let bytes =
                        std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                    out.insert(rel, bytes);
                }
            }
        }
    }
    Ok(out)
}

/// First difference between two tree snapshots, as a human-readable
/// line, or `None` when they are byte-identical.
fn first_divergence(
    a: &BTreeMap<String, Vec<u8>>,
    b: &BTreeMap<String, Vec<u8>>,
) -> Option<String> {
    for (path, bytes) in a {
        match b.get(path) {
            None => return Some(format!("{path}: only in control store")),
            Some(other) if other != bytes => return Some(format!("{path}: contents differ")),
            Some(_) => {}
        }
    }
    b.keys()
        .find(|p| !a.contains_key(*p))
        .map(|p| format!("{p}: only in soak store"))
}

/// Run one crash leg: a `submit` child process with the crash hook armed,
/// which must die (abort) after publishing its first chunk.
fn crash_leg(
    store: &Path,
    workload: &str,
    trials: usize,
    seed: u64,
    targets_flag: &str,
    chunk: usize,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(&exe)
        .args([
            "submit",
            "--store",
            &store.display().to_string(),
            "--workload",
            workload,
            "--trials",
            &trials.to_string(),
            "--seed",
            &seed.to_string(),
            "--targets",
            targets_flag,
            "--chunk",
            &chunk.to_string(),
            "--scale",
            "quick",
        ])
        .env("SIM_STORE_CRASH_AFTER_CHUNKS", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawning crash leg: {e}"))?;
    if status.success() {
        return Err(format!(
            "crash leg for seed {seed} exited cleanly; the crash hook did not fire"
        ));
    }
    Ok(())
}

pub fn cmd_soak(flags: &Flags) -> Result<(), String> {
    flags.check_known(&[
        "--dir",
        "--jobs",
        "--crash-jobs",
        "--worker-procs",
        "--trials",
        "--seed",
        "--chunk",
        "--workload",
        "--targets",
        "--slo-p99-ms",
        "--slo-resume-ms",
        "--report",
        "--no-metrics",
    ])?;
    let dir = PathBuf::from(flags.require("--dir")?);
    let jobs: usize = flags.parse_num("--jobs", 6)?;
    let crash_jobs: usize = flags.parse_num("--crash-jobs", 2)?.min(jobs);
    let worker_procs: usize = flags.parse_num("--worker-procs", 2)?;
    let trials: usize = flags.parse_num("--trials", 4)?;
    let seed: u64 = flags.parse_num("--seed", 100)?;
    let chunk: usize = flags.parse_num("--chunk", 2)?;
    let workload = flags.get("--workload").unwrap_or("2T-MIX-A").to_string();
    let targets_flag = flags.get("--targets").unwrap_or("iq,regfile").to_string();
    let slo_p99_ms: u64 = flags.parse_num("--slo-p99-ms", 600_000)?;
    let slo_resume_ms: u64 = flags.parse_num("--slo-resume-ms", 300_000)?;
    let report_path = flags
        .get("--report")
        .map(PathBuf::from)
        .unwrap_or_else(|| dir.join("soak-report.json"));
    if jobs == 0 {
        return Err("--jobs must be positive".to_string());
    }
    let targets = targets_flag
        .split(',')
        .map(crate::parse_target)
        .collect::<Result<Vec<_>, _>>()?;

    let control_dir = dir.join("control");
    let soak_dir = dir.join("soak");
    let queue_dir = dir.join("queue");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let mut specs = Vec::with_capacity(jobs);
    for i in 0..jobs {
        specs.push(soak_spec(
            &workload,
            trials,
            seed + i as u64,
            &targets,
            chunk,
        )?);
    }

    // Phase 1: serial control — same specs, pristine store, no crashes,
    // metrics off so the soak registry only measures the soak store.
    eprintln!("soak: control run ({jobs} jobs, serial, in-process)");
    metrics::set_enabled(false);
    let t_control = Instant::now();
    for spec in &specs {
        server::run_job(&control_dir, spec, 0)?;
    }
    let control_secs = t_control.elapsed().as_secs_f64();

    // Phase 2: crash legs — the first K submissions die mid-campaign
    // after publishing one chunk, leaving partial state (and tmp/LOCK
    // debris) in the soak store for the drain to resume over.
    eprintln!("soak: crashing {crash_jobs} submissions mid-write");
    let mut crashed_ids: Vec<ObjectId> = Vec::new();
    for (i, spec) in specs.iter().take(crash_jobs).enumerate() {
        crash_leg(
            &soak_dir,
            &workload,
            trials,
            seed + i as u64,
            &targets_flag,
            chunk,
        )?;
        crashed_ids.push(spec.id());
    }

    // Phase 3: enqueue everything and drain with metrics on — the same
    // path `sim-serve serve --once` takes.
    eprintln!("soak: draining {jobs} queued jobs ({worker_procs} compute streams)");
    for spec in &specs {
        crate::enqueue(&queue_dir, spec)?;
    }
    metrics::set_enabled(!flags.has("--no-metrics"));
    let t_drain = Instant::now();
    let stats = server::drain_queue(&soak_dir, &queue_dir, worker_procs)?;
    let drain_secs = t_drain.elapsed().as_secs_f64();

    let mut violations: Vec<String> = Vec::new();
    let done = stats
        .drained
        .iter()
        .filter(|d| d.disposition == "done")
        .count();
    if stats.drained.len() != jobs || done != jobs {
        violations.push(format!(
            "dispositions: {done}/{} done of {jobs} queued",
            stats.drained.len()
        ));
    }

    // SLO: p99 submit→result latency, read back from the same histogram
    // the serve loop publishes (conservative bucket-upper-bound p99).
    let p99_ms = metrics::global()
        .histogram("serve.submit_to_result_us")
        .quantile(0.99)
        / 1000;
    if p99_ms > slo_p99_ms {
        violations.push(format!(
            "p99 submit-to-result {p99_ms} ms exceeds SLO {slo_p99_ms} ms"
        ));
    }

    // SLO: crashed jobs must resume within the resume ceiling.
    let mut max_resume_ms = 0u64;
    for id in &crashed_ids {
        match stats.drained.iter().find(|d| d.job.as_ref() == Some(id)) {
            Some(d) => max_resume_ms = max_resume_ms.max(d.service_us / 1000),
            None => violations.push(format!("crashed job {} never drained", server::short(id))),
        }
    }
    if max_resume_ms > slo_resume_ms {
        violations.push(format!(
            "max resume {max_resume_ms} ms exceeds SLO {slo_resume_ms} ms"
        ));
    }

    // SLO: the crash-and-resume store must be byte-identical to the
    // serial control store over everything that carries meaning
    // (objects/ and refs/; LOCK and tmp debris are outside the contract).
    let control_tree = tree_bytes(&control_dir, &["objects", "refs"])?;
    let soak_tree = tree_bytes(&soak_dir, &["objects", "refs"])?;
    let divergence = first_divergence(&control_tree, &soak_tree);
    let byte_identical = divergence.is_none();
    if let Some(d) = divergence {
        violations.push(format!("soak store diverged from control: {d}"));
    }

    // GC the soak store: crash debris goes away, no reachable byte moves,
    // and fsck stays clean.
    let store = Store::open(&soak_dir).map_err(|e| e.to_string())?;
    let gc: GcReport = store.gc().map_err(|e| e.to_string())?;
    let post_gc_tree = tree_bytes(&soak_dir, &["objects", "refs"])?;
    let post_gc_identical = post_gc_tree == soak_tree;
    if !post_gc_identical {
        violations.push("gc changed reachable bytes".to_string());
    }
    let fsck = store.fsck().map_err(|e| e.to_string())?;
    if !fsck.is_clean() {
        violations.push(format!("fsck after gc: {} errors", fsck.errors.len()));
    }

    let pass = violations.is_empty();
    let report = format!(
        "{{\n  \"schema\": \"smt-avf/soak/v1\",\n  \"jobs\": {jobs},\n  \
         \"crash_jobs\": {crash_jobs},\n  \"worker_procs\": {worker_procs},\n  \
         \"trials\": {trials},\n  \"chunk\": {chunk},\n  \
         \"control_secs\": {control_secs:.3},\n  \"drain_secs\": {drain_secs:.3},\n  \
         \"p99_submit_to_result_ms\": {p99_ms},\n  \"max_resume_ms\": {max_resume_ms},\n  \
         \"slo_p99_ms\": {slo_p99_ms},\n  \"slo_resume_ms\": {slo_resume_ms},\n  \
         \"jobs_done\": {done},\n  \"byte_identical\": {byte_identical},\n  \
         \"gc_removed_objects\": {},\n  \"gc_tmp_removed\": {},\n  \
         \"gc_reclaimed_bytes\": {},\n  \"post_gc_identical\": {post_gc_identical},\n  \
         \"fsck_clean\": {},\n  \"pass\": {pass}\n}}\n",
        gc.removed_objects,
        gc.tmp_removed,
        gc.reclaimed_bytes,
        fsck.is_clean(),
    );
    if let Some(parent) = report_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&report_path, &report).map_err(|e| format!("{}: {e}", report_path.display()))?;
    if metrics::enabled() {
        let snap = soak_dir.join("metrics").join("soak.json");
        if let Err(e) = metrics::global().write_snapshot(&snap) {
            eprintln!("soak: metrics snapshot failed: {e}");
        }
    }
    print!("{report}");
    eprintln!("soak: report -> {}", report_path.display());

    if pass {
        eprintln!(
            "soak: PASS ({jobs} jobs, {crash_jobs} crashes resumed, \
             p99 {p99_ms} ms, max resume {max_resume_ms} ms)"
        );
        Ok(())
    } else {
        Err(format!(
            "soak: FAIL — {} SLO violation(s):\n  {}",
            violations.len(),
            violations.join("\n  ")
        ))
    }
}
