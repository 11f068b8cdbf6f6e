//! Service-level equivalence tests, driven through the real `sim-serve`
//! binary (the same code path CI's smoke step exercises):
//!
//! * **Shard equivalence** — the same job run in-process and with
//!   `--worker-procs` 1, 2 and 4 (compute streams, the parent included),
//!   into separate stores, publishes byte-identical result objects (trial
//!   records, summaries, and ACE report included).
//! * **Crash-resume equivalence** — a run killed after its first
//!   published chunk (`SIM_STORE_CRASH_AFTER_CHUNKS`, a `kill -9`
//!   equivalent that leaves the writer lock behind) resumes to a result
//!   byte-identical to an uninterrupted run.
//! * **fsck** — a deliberately corrupted object makes `sim-serve fsck`
//!   fail closed.

use sim_store::{encode_record, ChunkRecord, JobResultRecord, ObjectId, Store};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_sim-serve");

/// A path under the temp dir that is removed, with whatever the test put
/// there, when dropped, also when the test panics.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<std::ffi::OsStr> for TempDir {
    fn as_ref(&self) -> &std::ffi::OsStr {
        self.0.as_os_str()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fresh_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("sim-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TempDir(dir)
}

/// The quick campaign every test submits: tiny but real (two targets,
/// chunk smaller than the trial count so resume has several chunks to
/// work with).
fn submit_cmd(store: &Path) -> Command {
    let mut cmd = Command::new(EXE);
    cmd.args(["submit", "--store", store.to_str().unwrap()]);
    cmd.args([
        "--workload",
        "2T-MIX-A",
        "--trials",
        "4",
        "--seed",
        "9",
        "--targets",
        "iq,regfile",
        "--chunk",
        "3",
        "--workers",
        "1",
    ]);
    cmd.env_remove("SIM_STORE_CRASH_AFTER_CHUNKS");
    cmd
}

fn submit(store: &Path, extra: &[(&str, &str)], procs: usize) -> Output {
    let mut cmd = submit_cmd(store);
    if procs > 1 {
        cmd.args(["--worker-procs", &procs.to_string()]);
    }
    for (k, v) in extra {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn sim-serve")
}

/// The single result record a store holds, as raw canonical bytes.
fn result_bytes(store_dir: &Path) -> Vec<u8> {
    let store = Store::open(store_dir).unwrap();
    let refs = store.refs("jobs/").unwrap();
    let results: Vec<&(String, ObjectId)> = refs
        .iter()
        .filter(|(n, _)| n.ends_with("/result"))
        .collect();
    assert_eq!(results.len(), 1, "exactly one job result in {refs:?}");
    store.get(&results[0].1).unwrap()
}

#[test]
fn sharding_does_not_change_a_single_byte() {
    let serial = fresh_dir("serial");
    let out = submit(&serial, &[], 1);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = result_bytes(&serial);

    for procs in [2, 4] {
        let dir = fresh_dir(&format!("procs{procs}"));
        let out = submit(&dir, &[], procs);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            result_bytes(&dir),
            reference,
            "--worker-procs {procs} changed the result bytes"
        );
    }
}

#[test]
fn kill_minus_nine_then_resume_is_byte_identical() {
    // Uninterrupted reference.
    let clean = fresh_dir("clean");
    let out = submit(&clean, &[], 1);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = result_bytes(&clean);

    // Crash after each possible number of published chunks (the job has
    // three), resume, and demand identical bytes every time.
    for crash_after in [1usize, 2] {
        let dir = fresh_dir(&format!("crash{crash_after}"));
        let out = submit(
            &dir,
            &[("SIM_STORE_CRASH_AFTER_CHUNKS", &crash_after.to_string())],
            1,
        );
        assert!(
            !out.status.success(),
            "the crash hook must kill the process"
        );
        // The kill leaves the canonical writer's lock behind; resume must
        // take it over (the recorded pid is dead) and finish the job.
        assert!(dir.join("LOCK").exists(), "abort should leave LOCK behind");
        let out = submit(&dir, &[], 1);
        assert!(
            out.status.success(),
            "resume after crash-at-{crash_after}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{crash_after} chunks resumed")),
            "resume should reuse the published chunks: {stderr}"
        );
        assert_eq!(
            result_bytes(&dir),
            reference,
            "crash after {crash_after} chunks + resume changed the result bytes"
        );
    }
}

#[test]
fn sharded_crash_then_resume_is_byte_identical() {
    let clean = fresh_dir("shard-clean");
    let out = submit(&clean, &[], 1);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = result_bytes(&clean);

    let dir = fresh_dir("shard-crash");
    let out = submit(&dir, &[("SIM_STORE_CRASH_AFTER_CHUNKS", "1")], 2);
    assert!(!out.status.success(), "crash hook must kill the parent");
    let out = submit(&dir, &[], 2);
    assert!(
        out.status.success(),
        "sharded resume: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(result_bytes(&dir), reference);
}

#[test]
fn resubmitting_a_finished_job_recomputes_nothing() {
    let dir = fresh_dir("idem");
    let out = submit(&dir, &[], 1);
    assert!(out.status.success());
    let before = result_bytes(&dir);
    let out = submit(&dir, &[], 1);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("0 computed"),
        "second submission should be a pure read: {stderr}"
    );
    assert_eq!(result_bytes(&dir), before);
}

#[test]
fn fsck_fails_closed_on_a_corrupted_object() {
    let dir = fresh_dir("fsck");
    let out = submit(&dir, &[], 1);
    assert!(out.status.success());

    let fsck = |dir: &Path| {
        Command::new(EXE)
            .args(["fsck", "--store", dir.to_str().unwrap()])
            .output()
            .expect("spawn fsck")
    };
    assert!(fsck(&dir).status.success(), "healthy store must pass fsck");

    // Flip one bit in one stored object.
    let store = Store::open(&dir).unwrap();
    let (_, id) = store.refs("jobs/").unwrap().into_iter().next().unwrap();
    let hex = id.to_hex();
    let path = dir.join("objects").join(&hex[..2]).join(&hex[2..]);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let out = fsck(&dir);
    assert!(!out.status.success(), "fsck must fail on corruption");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fail closed"), "{stderr}");
}

/// Every file under `root/objects` and `root/refs`, relative path →
/// contents. The reachable universe for byte-level comparisons.
fn object_and_ref_bytes(root: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    let mut out = std::collections::BTreeMap::new();
    for sub in ["objects", "refs"] {
        let top = root.join(sub);
        if !top.exists() {
            continue;
        }
        let mut stack = vec![top];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path
                        .strip_prefix(root)
                        .unwrap()
                        .to_string_lossy()
                        .to_string();
                    out.insert(rel, std::fs::read(&path).unwrap());
                }
            }
        }
    }
    out
}

#[test]
fn gc_after_crash_and_resume_changes_no_reachable_byte() {
    let dir = fresh_dir("gc");
    let out = submit(&dir, &[("SIM_STORE_CRASH_AFTER_CHUNKS", "1")], 1);
    assert!(!out.status.success(), "crash hook must fire");
    let out = submit(&dir, &[], 1);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Plant garbage the crash could have left: a valid but unreferenced
    // object (decodes fine, reachable from no ref) and a stale tmp file.
    let doomed_path;
    {
        let store = Store::open(&dir).unwrap();
        let mut rec: JobResultRecord = sim_store::decode_record(&result_bytes(&dir)).unwrap();
        rec.job = ObjectId::of(b"some other job entirely");
        let doomed = store.put(&encode_record(&rec)).unwrap();
        let hex = doomed.to_hex();
        doomed_path = dir.join("objects").join(&hex[..2]).join(&hex[2..]);
    }
    std::fs::write(dir.join("tmp").join("stale-leftover"), b"junk").unwrap();
    assert!(doomed_path.exists());

    let mut reachable = object_and_ref_bytes(&dir);
    reachable.remove(
        &doomed_path
            .strip_prefix(&dir)
            .unwrap()
            .to_string_lossy()
            .to_string(),
    );

    let out = Command::new(EXE)
        .args(["gc", "--store", dir.to_str().unwrap()])
        .output()
        .expect("spawn gc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 unreferenced objects removed"),
        "{stdout}"
    );

    assert!(!doomed_path.exists(), "garbage object must be collected");
    assert!(
        !dir.join("tmp").join("stale-leftover").exists(),
        "tmp leftovers must be collected"
    );
    assert_eq!(
        object_and_ref_bytes(&dir),
        reachable,
        "gc must not change a single reachable byte"
    );

    let out = Command::new(EXE)
        .args(["fsck", "--store", dir.to_str().unwrap()])
        .output()
        .expect("spawn fsck");
    assert!(out.status.success(), "store must stay clean after gc");
}

/// Every counter in a metrics snapshot, by name. Snapshots put one metric
/// per line: `"name": {"type": "counter", "value": N}`.
fn snapshot_counters(body: &str) -> std::collections::BTreeMap<String, u64> {
    body.lines()
        .filter_map(|line| {
            let (name, rest) = line
                .trim()
                .split_once("\": {\"type\": \"counter\", \"value\": ")?;
            let value = rest.trim_end_matches(',').strip_suffix('}')?;
            Some((
                name.trim_start_matches('"').to_string(),
                value.parse().ok()?,
            ))
        })
        .collect()
}

#[test]
fn metrics_are_observability_only_and_never_reach_the_store_objects() {
    // Same job with and without metrics: identical result bytes — the
    // registry is outside the result-equality contract by construction.
    let with = fresh_dir("metrics-on");
    let out = submit(&with, &[], 1);
    assert!(out.status.success());
    let without = fresh_dir("metrics-off");
    let mut cmd = Command::new(EXE);
    cmd.args(["submit", "--store", without.to_str().unwrap()]);
    cmd.args([
        "--workload",
        "2T-MIX-A",
        "--trials",
        "4",
        "--seed",
        "9",
        "--targets",
        "iq,regfile",
        "--chunk",
        "3",
        "--workers",
        "1",
        "--no-metrics",
    ]);
    let out = cmd.output().expect("spawn sim-serve");
    assert!(out.status.success());
    assert_eq!(
        result_bytes(&with),
        result_bytes(&without),
        "metrics on/off must not change result bytes"
    );

    // The metrics-on run snapshotted under <store>/metrics/, which fsck
    // must not treat as part of the object namespace.
    let snap = with.join("metrics").join("submit.json");
    let body = std::fs::read_to_string(&snap).expect("submit writes a snapshot");
    assert!(
        body.contains("\"schema\": \"smt-avf/metrics/v1\""),
        "{body}"
    );
    assert!(body.contains("serve.jobs"), "{body}");
    assert!(body.contains("store.publish_us"), "{body}");
    // The in-process trial executor published what it actually ran: 8
    // trials (4 per target), each resolved through exactly one lane class
    // (`reconverged` is a subset of `forked`, not a class of its own).
    let counters = snapshot_counters(&body);
    assert_eq!(counters.get("campaign.trials"), Some(&8), "{body}");
    let lane_trials: u64 = counters
        .iter()
        .filter_map(|(name, &n)| {
            let class = name.strip_prefix("campaign.lane_")?;
            (!class.contains('.') && class != "reconverged").then_some(n)
        })
        .sum();
    assert_eq!(lane_trials, 8, "{body}");
    assert!(
        !without.join("metrics").exists(),
        "--no-metrics must write nothing"
    );
    let out = Command::new(EXE)
        .args(["fsck", "--store", with.to_str().unwrap()])
        .output()
        .expect("spawn fsck");
    assert!(
        out.status.success(),
        "metrics snapshots must be invisible to fsck: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // And the metrics subcommand finds what submit wrote.
    let out = Command::new(EXE)
        .args(["metrics", "--store", with.to_str().unwrap()])
        .output()
        .expect("spawn metrics");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("submit.json"), "{stdout}");
    assert!(stdout.contains("serve.job_us"), "{stdout}");
}

#[test]
fn soak_quick_passes_its_slos() {
    let dir = fresh_dir("soak");
    let out = Command::new(EXE)
        .args([
            "soak",
            "--dir",
            dir.to_str().unwrap(),
            "--jobs",
            "2",
            "--crash-jobs",
            "1",
            "--worker-procs",
            "2",
            "--trials",
            "2",
            "--chunk",
            "1",
            "--seed",
            "400",
        ])
        .env_remove("SIM_STORE_CRASH_AFTER_CHUNKS")
        .output()
        .expect("spawn soak");
    assert!(
        out.status.success(),
        "soak failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"schema\": \"smt-avf/soak/v1\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"byte_identical\": true"), "{stdout}");
    assert!(stdout.contains("\"pass\": true"), "{stdout}");
    assert!(dir.join("soak-report.json").exists());
    assert!(
        dir.join("soak").join("metrics").join("soak.json").exists(),
        "soak must snapshot its metrics"
    );
}

#[test]
fn result_record_decodes_from_the_store() {
    let dir = fresh_dir("decode");
    let out = submit(&dir, &[], 1);
    assert!(out.status.success());
    let bytes = result_bytes(&dir);
    let result: JobResultRecord = sim_store::decode_record(&bytes).unwrap();
    assert_eq!(result.records.len(), 8, "4 trials x 2 targets");
    assert_eq!(result.per_target.len(), 2);
    assert_eq!(bytes, encode_record(&result), "round-trip byte identity");
}

#[test]
fn scalar_runs_in_process_only() {
    // The trial path is off the wire: a worker process or a queued job
    // decodes the spec and would run batched, so submit refuses those.
    let dir = fresh_dir("scalar-refused");
    let queue = dir.join("queue");
    for extra in [
        ["--worker-procs", "2"],
        ["--enqueue", queue.to_str().unwrap()],
    ] {
        let out = submit_cmd(&dir)
            .arg("--scalar")
            .args(extra)
            .output()
            .expect("spawn sim-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("--scalar runs in process only"),
            "{extra:?}: {stderr}"
        );
    }
    assert!(!dir.exists(), "a refused submit touches no store or queue");

    // In process, the scalar oracle publishes the default path's bytes.
    let batched = fresh_dir("scalar-batched");
    assert!(submit(&batched, &[], 1).status.success());
    let scalar = fresh_dir("scalar-oracle");
    let out = submit_cmd(&scalar)
        .arg("--scalar")
        .output()
        .expect("spawn sim-serve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(result_bytes(&scalar), result_bytes(&batched));
}

/// The metrics snapshot a submit wrote into `store`, as counters.
fn submit_counters(store: &Path) -> std::collections::BTreeMap<String, u64> {
    let snap = store.join("metrics").join("submit.json");
    snapshot_counters(&std::fs::read_to_string(&snap).expect("submit writes a snapshot"))
}

#[test]
fn resume_with_every_chunk_published_spawns_no_worker() {
    let clean = fresh_dir("all-published-clean");
    assert!(submit(&clean, &[], 1).status.success());
    let reference = object_and_ref_bytes(&clean);

    // In process, crash right after the last of the job's three chunks is
    // published: every chunk is in the store, the result is not.
    let dir = fresh_dir("all-published");
    let out = submit(&dir, &[("SIM_STORE_CRASH_AFTER_CHUNKS", "3")], 1);
    assert!(!out.status.success(), "crash hook must fire");
    let out = submit(&dir, &[], 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("3 chunks resumed, 0 computed"), "{stderr}");
    let counters = submit_counters(&dir);
    assert_eq!(counters.get("serve.jobs"), Some(&1), "{counters:?}");
    assert_eq!(
        counters.get("serve.worker.spawns").copied().unwrap_or(0),
        0,
        "nothing left to shard: no worker may be spawned"
    );
    assert_eq!(object_and_ref_bytes(&dir), reference);
}

/// The sample count of histogram `name` in the metrics snapshot a submit
/// wrote into `store`. Snapshots put one metric per line:
/// `"name": {"type": "histogram", "count": N, ...}`.
fn submit_histogram_count(store: &Path, name: &str) -> Option<u64> {
    let body = std::fs::read_to_string(store.join("metrics").join("submit.json")).ok()?;
    let key = format!("\"{name}\": {{\"type\": \"histogram\", \"count\": ");
    let line = body.lines().find_map(|l| l.trim().strip_prefix(&key))?;
    line.split(',').next()?.parse().ok()
}

/// A submit of 48 trials (24 per target) in six chunks of 8.
fn submit_48(store: &Path, procs: usize) -> Output {
    let mut cmd = submit_cmd(store);
    cmd.args(["--trials", "24", "--chunk", "8"]);
    if procs > 1 {
        cmd.args(["--worker-procs", &procs.to_string()]);
    }
    cmd.output().expect("spawn sim-serve")
}

#[test]
fn an_unsharded_submit_computes_its_chunks_in_one_executor_call() {
    // Six chunks of 8 fit one 64-lane batch: the in-process stream holds
    // them as one claim, so the executor runs once, not once per chunk,
    // and the claim is timed once.
    let dir = fresh_dir("one-claim");
    let out = submit_48(&dir, 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("0 chunks resumed, 6 computed"), "{stderr}");
    assert_eq!(
        submit_histogram_count(&dir, "campaign.trial_phase_us"),
        Some(1)
    );
    assert_eq!(
        submit_histogram_count(&dir, "serve.worker.chunk_us"),
        Some(1)
    );
    assert_eq!(submit_counters(&dir).get("campaign.trials"), Some(&48));
    assert_eq!(
        submit_counters(&dir).get("store.chunks_published"),
        Some(&6)
    );
}

#[test]
fn a_sharded_job_hands_each_stream_one_claim() {
    // Six chunks on two streams: claims of three chunks each. The worker
    // gets one task and answers one frame per chunk, 1 + 3 frames; the
    // parent runs its executor once. The bytes match the unsharded job's.
    let alone = fresh_dir("claims-alone");
    assert!(submit_48(&alone, 1).status.success());
    let dir = fresh_dir("claims-sharded");
    let out = submit_48(&dir, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(result_bytes(&dir), result_bytes(&alone));
    let counters = submit_counters(&dir);
    let streams = 2.min(host_cores());
    assert_eq!(spawns(&dir), streams as u64 - 1);
    assert_eq!(
        submit_histogram_count(&dir, "serve.worker.chunk_us"),
        Some(streams as u64),
        "one sample per claim"
    );
    assert_eq!(
        submit_histogram_count(&dir, "campaign.trial_phase_us"),
        Some(1),
        "the parent's claim is one executor call"
    );
    if streams == 2 {
        assert_eq!(
            counters.get("serve.worker0.frames"),
            Some(&4),
            "{counters:?}"
        );
    }
}

/// The host's available parallelism, which caps `--worker-procs`.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker processes a submit spawned, from its metrics snapshot.
fn spawns(store: &Path) -> u64 {
    submit_counters(store)
        .get("serve.worker.spawns")
        .copied()
        .unwrap_or(0)
}

#[test]
fn a_fresh_sharded_job_spawns_one_worker_per_process() {
    // P counts the parent: three chunks on two streams is one worker
    // process next to the parent (none on a one-core host).
    let dir = fresh_dir("spawns");
    let out = submit(&dir, &[], 2);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(spawns(&dir), 2.min(host_cores()) as u64 - 1);
}

#[test]
fn a_sharded_resume_with_one_missing_chunk_spawns_no_worker() {
    let clean = fresh_dir("one-missing-clean");
    assert!(submit(&clean, &[], 1).status.success());
    let reference = object_and_ref_bytes(&clean);

    // Two of the three chunks published: the parent computes the last one
    // alone.
    let dir = fresh_dir("one-missing");
    let out = submit(&dir, &[("SIM_STORE_CRASH_AFTER_CHUNKS", "2")], 1);
    assert!(!out.status.success(), "crash hook must fire");
    let out = submit(&dir, &[], 4);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("2 chunks resumed, 1 computed"), "{stderr}");
    assert_eq!(spawns(&dir), 0, "one missing chunk: the parent alone");
    assert_eq!(object_and_ref_bytes(&dir), reference);
}

#[test]
fn a_sharded_job_caps_worker_procs_at_the_host_cores() {
    // Eight chunks of one trial on far more streams than cores: the host
    // caps P, so at most seven workers start on any host.
    let dir = fresh_dir("clamp");
    let out = submit_cmd(&dir)
        .args(["--chunk", "1", "--worker-procs", "1000"])
        .output()
        .expect("spawn sim-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("0 chunks resumed, 8 computed"), "{stderr}");
    assert_eq!(spawns(&dir), host_cores().min(8) as u64 - 1);
}

/// Pids of live processes whose environment holds `var` (Linux `/proc`).
#[cfg(target_os = "linux")]
fn processes_with_env(var: &str) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/environ"))
                .is_ok_and(|env| env.split(|&b| b == 0).any(|kv| kv == var.as_bytes()))
        })
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn golden_divergence_fails_the_sharded_job_and_reaps_every_worker() {
    use sim_store::{campaign::golden_ref, decode_record, GoldenFingerprint, JobSpec};

    // Leave a published golden fingerprint behind, then tamper with it.
    let dir = fresh_dir("diverge");
    let out = submit(&dir, &[("SIM_STORE_CRASH_AFTER_CHUNKS", "1")], 1);
    assert!(!out.status.success(), "crash hook must fire");
    let store = Store::open(&dir).unwrap();
    let refs = store.refs("jobs/").unwrap();
    let (_, spec_id) = refs.iter().find(|(n, _)| n.ends_with("/spec")).unwrap();
    let spec: JobSpec = decode_record(&store.get(spec_id).unwrap()).unwrap();
    let golden = golden_ref(&spec.id());
    let id = store.get_ref(&golden).unwrap().expect("golden published");
    let mut fingerprint: GoldenFingerprint = decode_record(&store.get(&id).unwrap()).unwrap();
    fingerprint.checkpoints[0].digest ^= 1;
    let tampered = store.put(&encode_record(&fingerprint)).unwrap();
    store.set_ref(&golden, &tampered).unwrap();
    drop(store);

    // The workers start before the parent's golden pass and inherit this
    // marker; the parent must fail closed and leave none of them running.
    let marker = format!("SIM_SERVE_TEST_WORKER_TAG=diverge-{}", std::process::id());
    let (key, value) = marker.split_once('=').unwrap();
    let mut cmd = submit_cmd(&dir);
    cmd.args(["--worker-procs", "2"]).env(key, value);
    let mut child = cmd
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn sim-serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("a diverged sharded submit must exit promptly");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(!status.success(), "divergence must fail the job");
    assert!(stderr.contains("golden divergence"), "{stderr}");
    assert_eq!(
        processes_with_env(&marker),
        Vec::<u32>::new(),
        "worker processes outlived the failed job"
    );
}

/// A store holding the submitted job's spec, its first chunk, and a golden
/// fingerprint rewritten under the earlier evenly spaced checkpoint plan:
/// the cycles `start + span·i/K`, each with the digest of a freshly warmed
/// core stepped there. Returns the store, that fingerprint, and the cycles
/// the current plan captures.
fn old_plan_store(tag: &str) -> (TempDir, sim_store::GoldenFingerprint, Vec<u64>) {
    use sim_store::{
        campaign::golden_ref, decode_record, CoreSnapshot, GoldenFingerprint, JobSpec,
    };

    let dir = fresh_dir(tag);
    let out = submit(&dir, &[("SIM_STORE_CRASH_AFTER_CHUNKS", "1")], 1);
    assert!(!out.status.success(), "crash hook must fire");
    let store = Store::open(&dir).unwrap();
    let refs = store.refs("jobs/").unwrap();
    let (_, spec_id) = refs.iter().find(|(n, _)| n.ends_with("/spec")).unwrap();
    let spec: JobSpec = decode_record(&store.get(spec_id).unwrap()).unwrap();
    let golden = golden_ref(&spec.id());
    let id = store.get_ref(&golden).unwrap().expect("golden published");
    let current: GoldenFingerprint = decode_record(&store.get(&id).unwrap()).unwrap();

    let workload = sim_workload::table2()
        .into_iter()
        .find(|w| w.name == spec.workload)
        .expect("Table 2 workload");
    let factory = smt_avf::experiments::campaign::campaign_factory(&workload).unwrap();
    let mut core = sim_inject::warmed_core(&factory, spec.cfg.budget);
    let (start, end) = (current.golden.start, current.golden.end);
    let k = (spec.cfg.checkpoints as u64).min(end - start);
    let mut checkpoints = Vec::new();
    for i in 0..k {
        let at = start + (end - start) * i / k;
        while core.cycle() < at {
            core.step_fast_bounded(at);
        }
        checkpoints.push(CoreSnapshot {
            cycle: at,
            digest: core.state_digest(),
        });
    }
    let old = GoldenFingerprint {
        golden: current.golden.clone(),
        checkpoints,
    };
    let planned: Vec<u64> = current.checkpoints.iter().map(|c| c.cycle).collect();
    assert_ne!(
        old.checkpoints.iter().map(|c| c.cycle).collect::<Vec<_>>(),
        planned,
        "the two plans must differ for this test to mean anything"
    );
    let old_id = store.put(&encode_record(&old)).unwrap();
    store.set_ref(&golden, &old_id).unwrap();
    (dir, old, planned)
}

#[test]
fn stores_fingerprinted_under_the_evenly_spaced_plan_still_resume() {
    let clean = fresh_dir("old-plan-clean");
    assert!(submit(&clean, &[], 1).status.success());
    let reference = result_bytes(&clean);

    for procs in [1, 2] {
        let (dir, old, _) = old_plan_store(&format!("old-plan-{procs}"));
        let out = submit(&dir, &[], procs);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{procs} processes: {stderr}");
        assert!(stderr.contains("1 chunks resumed, 2 computed"), "{stderr}");
        assert_eq!(
            result_bytes(&dir),
            reference,
            "{procs} processes: resumed result bytes"
        );
        // The stored fingerprint is verified, never rewritten.
        let store = Store::open(&dir).unwrap();
        let refs = store.refs("jobs/").unwrap();
        let (name, _) = refs.iter().find(|(n, _)| n.ends_with("/golden")).unwrap();
        assert_eq!(
            store.get_ref(name).unwrap(),
            Some(ObjectId::of(&encode_record(&old))),
            "{procs} processes: the old fingerprint stays published"
        );
    }

    // A flipped digest at a cycle the current plan does not capture fails
    // closed, and the error names that cycle.
    let (dir, mut old, planned) = old_plan_store("old-plan-flipped");
    let bad = old
        .checkpoints
        .iter_mut()
        .find(|c| !planned.contains(&c.cycle))
        .expect("an old cycle off the current plan");
    bad.digest ^= 1;
    let cycle = bad.cycle;
    let store = Store::open(&dir).unwrap();
    let refs = store.refs("jobs/").unwrap();
    let (name, _) = refs.iter().find(|(n, _)| n.ends_with("/golden")).unwrap();
    let tampered = store.put(&encode_record(&old)).unwrap();
    store.set_ref(name, &tampered).unwrap();
    drop(store);
    let out = submit(&dir, &[], 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a flipped digest must fail the job");
    assert!(stderr.contains("golden divergence"), "{stderr}");
    assert!(stderr.contains(&format!("cycle {cycle} ")), "{stderr}");
}

#[test]
fn a_resume_counts_exactly_the_trials_it_computes() {
    // Eight trials in chunks of 3, 3 and 2: after the first chunk, the
    // resume computes 3 + 2 trials, in process and sharded alike.
    for procs in [1, 2] {
        let dir = fresh_dir(&format!("exact-trials-{procs}"));
        let out = submit(&dir, &[("SIM_STORE_CRASH_AFTER_CHUNKS", "1")], 1);
        assert!(!out.status.success(), "crash hook must fire");
        let out = submit(&dir, &[], procs);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{procs} processes: {stderr}");
        assert!(
            stderr.contains("1 chunks resumed, 2 computed (5 trials in "),
            "{procs} processes: {stderr}"
        );
    }
}

#[test]
fn a_resume_fails_closed_on_a_repointed_chunk_ref() {
    // Chunk 1's ref re-pointed at chunk 0 (another index), or at a copy of
    // chunk 1 missing a trial (another length): the resume must refuse,
    // name the chunk, and publish no result, in process and sharded.
    for procs in [1, 2] {
        for (tamper, expect) in [
            ("index", "chunk 1 belongs to"),
            ("length", "chunk 1 holds 2"),
        ] {
            let dir = fresh_dir(&format!("repointed-{tamper}-{procs}"));
            let out = submit(&dir, &[("SIM_STORE_CRASH_AFTER_CHUNKS", "2")], 1);
            assert!(!out.status.success(), "crash hook must fire");
            let store = Store::open(&dir).unwrap();
            let refs = store.refs("jobs/").unwrap();
            let chunk = |n: &str| {
                refs.iter()
                    .find(|(name, _)| name.ends_with(n))
                    .unwrap()
                    .clone()
            };
            let (name1, id1) = chunk("/chunks/000001");
            let target = match tamper {
                "index" => chunk("/chunks/000000").1,
                _ => {
                    let mut short: ChunkRecord =
                        sim_store::decode_record(&store.get(&id1).unwrap()).unwrap();
                    short.records.pop();
                    store.put(&encode_record(&short)).unwrap()
                }
            };
            store.set_ref(&name1, &target).unwrap();
            drop(store);

            let out = submit(&dir, &[], procs);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                !out.status.success(),
                "{tamper}, {procs} processes: {stderr}"
            );
            assert!(
                stderr.contains(expect),
                "{tamper}, {procs} processes: {stderr}"
            );
            let store = Store::open(&dir).unwrap();
            assert!(
                !store
                    .refs("jobs/")
                    .unwrap()
                    .iter()
                    .any(|(n, _)| n.ends_with("/result")),
                "{tamper}, {procs} processes: no result may be published"
            );
        }
    }
}

/// A `WorkerTask` frame as the parent writes it, built from raw
/// `(index, start, len)` triples so a test can send plans no driver
/// would.
struct RawTask(Vec<[usize; 3]>);

impl sim_store::Codec for RawTask {
    const TAG: u16 = 101;
    const NAME: &'static str = "WorkerTask";

    fn encode_body(&self, e: &mut sim_store::Encoder) {
        e.put_usize(self.0.len());
        for plan in &self.0 {
            plan.iter().for_each(|&v| e.put_usize(v));
        }
    }

    fn decode_body(d: &mut sim_store::Decoder<'_>) -> Result<RawTask, sim_store::WireError> {
        let n = d.get_usize()?;
        let mut plans = Vec::new();
        for _ in 0..n {
            plans.push([d.get_usize()?, d.get_usize()?, d.get_usize()?]);
        }
        Ok(RawTask(plans))
    }
}

/// Write `value` as one length-prefixed protocol frame.
fn frame<T: sim_store::Codec>(out: &mut Vec<u8>, value: &T) {
    let bytes = encode_record(value);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&bytes);
}

#[test]
fn a_shard_worker_refuses_a_task_outside_its_job_plan() {
    // 2 × 4 trials in chunks of 3 (plans 0..3 of 3, 3 and 2 trials), so
    // one claim holds at most ⌊64 / 3⌋ = 21 chunks. A task the driver
    // could not have sent ends the worker with an error before any trial
    // runs; the out-of-range one used to panic inside the executor.
    let budget = sim_pipeline::SimBudget::total_instructions(2_000).with_warmup(500);
    let mut cfg = sim_inject::CampaignConfig::new(4, 9, budget);
    cfg.targets = vec![
        sim_pipeline::FaultTarget::Iq,
        sim_pipeline::FaultTarget::RegFile,
    ];
    cfg.workers = 1;
    let spec = sim_store::JobSpec {
        name: "refuse".to_string(),
        workload: "2T-MIX-A".to_string(),
        cfg,
        chunk_trials: 3,
    };
    for plans in [
        vec![[0, usize::MAX - 1, 8]],
        vec![[1, 4, 3]],
        vec![[3, 9, 3]],
        vec![[1, 3, 3], [0, 0, 3]],
        vec![[0, 0, 3]; 22],
        vec![],
    ] {
        let mut input = Vec::new();
        frame(&mut input, &spec);
        frame(&mut input, &RawTask(plans.clone()));
        let mut child = Command::new(EXE)
            .arg("worker")
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn sim-serve worker");
        // The worker reads the whole task before it answers anything, so
        // one write of both frames cannot block on its output.
        use std::io::Write;
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(&input).expect("send frames");
        drop(stdin);
        let out = child.wait_with_output().expect("worker exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{plans:?}: {stderr}");
        assert!(stderr.contains("refusing task"), "{plans:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{plans:?}: {stderr}");
    }
}
