//! Job execution: resolve a [`JobSpec`] into a prepared campaign, shard
//! its chunks across worker processes (or run them in-process), persist
//! every completed chunk, and publish the final result.
//!
//! The parent process is the store's single canonical writer: workers
//! never touch disk, they stream completed chunks back over the
//! [`protocol`](crate::protocol) and the parent publishes them. Killing
//! the parent (or any worker) at any point loses at most the in-flight
//! chunks; a rerun of the same spec resumes from the published ones and
//! finishes with byte-identical results.

use crate::protocol::{read_frame, write_frame, WorkerChunk, WorkerReady, WorkerTask};
use sim_inject::PreparedCampaign;
use sim_store::{
    assemble_result, decode_record, encode_record, load_chunk, load_result, maybe_crash_after,
    plan_chunks, prepare_stored, run_chunk, store_chunk, ChunkPlan, ChunkRecord, GoldenFingerprint,
    JobResultRecord, JobSpec, ObjectId, Store, StoredOutcome,
};
use sim_trace::metrics::{self, micros_since};
use sim_workload::{table2, SmtWorkload};
use smt_avf::experiments::campaign::campaign_factory;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Look up a Table 2 workload by name.
pub fn resolve_workload(name: &str) -> Result<SmtWorkload, String> {
    table2()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            format!(
                "unknown workload '{name}'; Table 2 defines: {}",
                table2()
                    .iter()
                    .map(|w| w.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

/// How a finished job is reported.
pub struct JobReport {
    /// The job's identity.
    pub job: ObjectId,
    /// The published result.
    pub result: JobResultRecord,
    /// Chunks loaded from a previous run vs computed now.
    pub resumed_chunks: usize,
    /// Chunks computed by this run.
    pub computed_chunks: usize,
    /// Trials in the chunks computed by this run.
    pub computed_trials: u64,
    /// Wall-clock seconds the run took.
    pub elapsed_secs: f64,
}

/// Run `spec` to completion against the store at `store_dir`, sharding
/// across `worker_procs` spawned worker processes (0 or 1 = in-process).
/// Idempotent and resumable: published chunks are never recomputed.
pub fn run_job(store_dir: &Path, spec: &JobSpec, worker_procs: usize) -> Result<JobReport, String> {
    let store = Store::open(store_dir).map_err(|e| e.to_string())?;
    let workload = resolve_workload(&spec.workload)?;
    let started = Instant::now();
    let outcome = if worker_procs <= 1 {
        run_in_process(&store, spec, &workload)?
    } else {
        run_sharded(&store, spec, &workload, worker_procs)?
    };
    let elapsed = started.elapsed().as_secs_f64();
    let trials = outcome.result.records.len() as u64;
    let computed_trials = (outcome.computed_chunks as u64)
        .saturating_mul(spec.chunk_trials.max(1) as u64)
        .min(trials);
    if metrics::enabled() {
        let reg = metrics::global();
        reg.counter("serve.jobs").inc();
        reg.counter("serve.chunks_resumed")
            .add(outcome.resumed_chunks as u64);
        reg.counter("serve.chunks_computed")
            .add(outcome.computed_chunks as u64);
        reg.histogram("serve.job_us")
            .observe((elapsed * 1e6) as u64);
    }
    Ok(JobReport {
        job: spec.id(),
        result: outcome.result,
        resumed_chunks: outcome.resumed_chunks,
        computed_chunks: outcome.computed_chunks,
        computed_trials,
        elapsed_secs: elapsed,
    })
}

fn run_in_process(
    store: &Store,
    spec: &JobSpec,
    workload: &SmtWorkload,
) -> Result<StoredOutcome, String> {
    let factory = campaign_factory(workload).map_err(|e| e.to_string())?;
    sim_store::run_campaign_stored(store, spec, &factory).map_err(|e| e.to_string())
}

/// A worker process that is killed and reaped when dropped, so no worker
/// outlives the job that spawned it, however the job ends. Kill comes
/// before wait: a worker may be blocked writing a greeting that nobody
/// will read.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        // Both are no-ops on a child already waited for.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One spawned worker process and its protocol streams. The process is
/// the first field, so it is killed before its pipes close.
struct Worker {
    child: Reaped,
    stdin: BufWriter<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

fn spawn_worker(spec: &JobSpec) -> Result<Worker, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(&exe)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        // Workers must not see the parent's crash hook: the hook models
        // killing the *writer*, and only the parent writes.
        .env_remove("SIM_STORE_CRASH_AFTER_CHUNKS")
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let mut child = Reaped(child);
    if metrics::enabled() {
        metrics::global().counter("serve.worker.spawns").inc();
    }
    let mut stdin = BufWriter::new(child.0.stdin.take().expect("piped"));
    let stdout = BufReader::new(child.0.stdout.take().expect("piped"));
    write_frame(&mut stdin, spec).map_err(|e| format!("sending spec to worker: {e}"))?;
    Ok(Worker {
        child,
        stdin,
        stdout,
    })
}

fn run_sharded(
    store: &Store,
    spec: &JobSpec,
    workload: &SmtWorkload,
    worker_procs: usize,
) -> Result<StoredOutcome, String> {
    let job = spec.id();
    if let Some(done) = load_result(store, &job).map_err(|e| e.to_string())? {
        return Ok(StoredOutcome {
            result: done,
            resumed_chunks: plan_chunks(spec.total_trials(), spec.chunk_trials).len(),
            computed_chunks: 0,
        });
    }
    let _lock = store.lock().map_err(|e| e.to_string())?;
    if let Some(done) = load_result(store, &job).map_err(|e| e.to_string())? {
        return Ok(StoredOutcome {
            result: done,
            resumed_chunks: plan_chunks(spec.total_trials(), spec.chunk_trials).len(),
            computed_chunks: 0,
        });
    }

    let plans = plan_chunks(spec.total_trials(), spec.chunk_trials);
    let mut missing = VecDeque::new();
    let mut resumed = 0usize;
    for &plan in &plans {
        match load_chunk(store, &job, plan).map_err(|e| e.to_string())? {
            Some(_) => resumed += 1,
            None => missing.push_back(plan),
        }
    }

    // Workers start before the parent's golden pass, so every process
    // builds its golden at once. A resume with every chunk published
    // spawns none. From here on, an early return drops `workers`, which
    // kills and reaps each one.
    let procs = worker_procs.min(missing.len());
    let mut workers = Vec::with_capacity(procs);
    for _ in 0..procs {
        workers.push(spawn_worker(spec)?);
    }

    // The parent prepares its own golden: it owns fingerprint
    // verification against the store, verifies every worker's greeting
    // against it, and supplies the result's ACE report.
    let factory = campaign_factory(workload).map_err(|e| e.to_string())?;
    let (_, prepared) = prepare_stored(store, spec, &factory).map_err(|e| e.to_string())?;
    let expected = encode_record(&GoldenFingerprint::of(&prepared));

    let total = plans.len();
    let queue: Mutex<VecDeque<ChunkPlan>> = Mutex::new(missing);
    let done = AtomicUsize::new(resumed);
    let computed = AtomicUsize::new(0);

    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::with_capacity(workers.len());
        for (wi, mut worker) in workers.into_iter().enumerate() {
            let queue = &queue;
            let done = &done;
            let computed = &computed;
            let expected = &expected;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let ready: WorkerReady = read_frame(&mut worker.stdout)
                    .map_err(|e| format!("worker {wi}: {e}"))?
                    .ok_or_else(|| format!("worker {wi} exited before greeting"))?;
                if encode_record(&ready.fingerprint) != *expected {
                    return Err(format!(
                        "worker {wi} rebuilt a different golden state than the parent; \
                         refusing to shard across divergent machines"
                    ));
                }
                let timed = metrics::enabled();
                loop {
                    let plan = match queue.lock().expect("queue lock").pop_front() {
                        Some(p) => p,
                        None => break,
                    };
                    let t_chunk = timed.then(Instant::now);
                    write_frame(&mut worker.stdin, &WorkerTask { plan })
                        .map_err(|e| format!("worker {wi}: {e}"))?;
                    let reply: WorkerChunk = read_frame(&mut worker.stdout)
                        .map_err(|e| format!("worker {wi}: {e}"))?
                        .ok_or_else(|| format!("worker {wi} died running chunk {}", plan.index))?;
                    if let Some(t) = t_chunk {
                        // Dispatch→reply wall time is this worker's busy
                        // window: the parent thread does nothing else
                        // between the frames.
                        let us = micros_since(t);
                        let reg = metrics::global();
                        reg.histogram("serve.worker.chunk_us").observe(us);
                        reg.counter(&format!("serve.worker{wi}.busy_us")).add(us);
                        reg.counter(&format!("serve.worker{wi}.frames")).add(2);
                    }
                    let chunk = reply.chunk;
                    if chunk.job != job
                        || chunk.index != plan.index
                        || chunk.start != plan.start
                        || chunk.records.len() != plan.len
                    {
                        return Err(format!(
                            "worker {wi} returned chunk {} for the wrong slot",
                            chunk.index
                        ));
                    }
                    store_chunk(store, &chunk).map_err(|e| e.to_string())?;
                    let so_far = done.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!(
                        "sim-serve: job {} chunk {} published ({so_far}/{total})",
                        short(&job),
                        plan.index
                    );
                    maybe_crash_after(computed.fetch_add(1, Ordering::Relaxed) + 1);
                }
                // Closing stdin is the shutdown signal.
                drop(worker.stdin);
                let status = worker
                    .child
                    .0
                    .wait()
                    .map_err(|e| format!("worker {wi}: {e}"))?;
                if !status.success() {
                    return Err(format!("worker {wi} exited with {status}"));
                }
                Ok(())
            }));
        }
        let mut first_err = None;
        for h in handles {
            if let Err(e) = h.join().expect("worker thread panicked") {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })?;

    // Reload every chunk from the store — assembly runs over published
    // bytes, not in-memory copies, so what we summarize is what survived.
    let mut chunks: Vec<ChunkRecord> = Vec::with_capacity(plans.len());
    for &plan in &plans {
        match load_chunk(store, &job, plan).map_err(|e| e.to_string())? {
            Some(c) => chunks.push(c),
            None => return Err(format!("chunk {} missing after shard run", plan.index)),
        }
    }
    let report = prepared.ace_report().clone();
    let result = assemble_result(store, &job, spec, chunks, report).map_err(|e| e.to_string())?;
    Ok(StoredOutcome {
        result,
        resumed_chunks: resumed,
        computed_chunks: computed.load(Ordering::Relaxed),
    })
}

/// Worker-process entry point: speak the protocol on stdin/stdout until
/// the parent closes stdin. Never touches the store.
pub fn worker_main() -> Result<(), String> {
    let mut stdin = BufReader::new(std::io::stdin());
    let mut stdout = BufWriter::new(std::io::stdout());
    let spec: JobSpec = read_frame(&mut stdin)
        .map_err(|e| format!("reading job spec: {e}"))?
        .ok_or("parent closed the pipe before sending a job spec")?;
    let workload = resolve_workload(&spec.workload)?;
    let factory = campaign_factory(&workload).map_err(|e| e.to_string())?;
    let prepared = PreparedCampaign::prepare(&factory, &spec.cfg).map_err(|e| e.to_string())?;
    let job = spec.id();
    write_frame(
        &mut stdout,
        &WorkerReady {
            fingerprint: GoldenFingerprint::of(&prepared),
        },
    )
    .map_err(|e| format!("sending greeting: {e}"))?;
    while let Some(task) =
        read_frame::<WorkerTask, _>(&mut stdin).map_err(|e| format!("reading task: {e}"))?
    {
        let records = run_chunk(&prepared, &factory, task.plan, spec.cfg.workers);
        write_frame(
            &mut stdout,
            &WorkerChunk {
                chunk: ChunkRecord {
                    job,
                    index: task.plan.index,
                    start: task.plan.start,
                    records,
                },
            },
        )
        .map_err(|e| format!("sending chunk {}: {e}", task.plan.index))?;
    }
    Ok(())
}

/// One job processed by a [`drain_queue`] pass.
pub struct DrainedJob {
    /// The job's identity (`None` when the queue file did not decode).
    pub job: Option<ObjectId>,
    /// Where the queue file was parked: `"done"`, `"failed"`, `"rejected"`.
    pub disposition: &'static str,
    /// Submit (queue-file mtime) → parked, in microseconds.
    pub latency_us: u64,
    /// Dispatch (decode start) → parked, in microseconds.
    pub service_us: u64,
}

/// What one queue pass did.
pub struct DrainStats {
    /// Jobs parked by this pass, in dispatch order.
    pub drained: Vec<DrainedJob>,
}

/// Run one pass over `queue`: every `*.job` file (sorted, so dispatch
/// order is deterministic) is decoded, executed against the store, and
/// parked as `.done` / `.failed` / `.rejected`. This is the single
/// drain path shared by `sim-serve serve` and the soak harness, and the
/// place submit→dispatch→result latencies are observed: submit time is
/// the queue file's mtime (stamped by the atomic rename in `enqueue`),
/// so the latency survives across serve restarts.
pub fn drain_queue(
    store_dir: &Path,
    queue: &Path,
    worker_procs: usize,
) -> Result<DrainStats, String> {
    let timed = metrics::enabled();
    let mut jobs: Vec<PathBuf> = std::fs::read_dir(queue)
        .map_err(|e| format!("{}: {e}", queue.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "job"))
        .collect();
    jobs.sort();
    if timed {
        metrics::global()
            .gauge("serve.queue_depth")
            .set(jobs.len() as i64);
    }
    let mut drained = Vec::new();
    for path in &jobs {
        let submitted = std::fs::metadata(path).and_then(|m| m.modified()).ok();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("sim-serve: skipping {}: {e}", path.display());
                continue;
            }
        };
        let dispatched = Instant::now();
        if timed {
            let wait_us = submitted
                .and_then(|t| t.elapsed().ok())
                .map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64);
            metrics::global()
                .histogram("serve.submit_to_dispatch_us")
                .observe(wait_us);
        }
        let (job, disposition) = match decode_record::<JobSpec>(&bytes) {
            Err(e) => {
                eprintln!("sim-serve: rejecting {}: {e}", path.display());
                (None, "rejected")
            }
            Ok(spec) => {
                eprintln!(
                    "sim-serve: running job {} ({})",
                    short(&spec.id()),
                    spec.name
                );
                match run_job(store_dir, &spec, worker_procs) {
                    Ok(report) => {
                        eprintln!(
                            "sim-serve: job {} done ({} resumed, {} computed)",
                            short(&report.job),
                            report.resumed_chunks,
                            report.computed_chunks
                        );
                        (Some(report.job), "done")
                    }
                    Err(e) => {
                        eprintln!("sim-serve: job failed: {e}");
                        (Some(spec.id()), "failed")
                    }
                }
            }
        };
        let parked = path.with_extension(disposition);
        if let Err(e) = std::fs::rename(path, &parked) {
            return Err(format!("parking {}: {e}", path.display()));
        }
        let service_us = micros_since(dispatched);
        let latency_us = submitted
            .and_then(|t| t.elapsed().ok())
            .map_or(service_us, |d| d.as_micros().min(u64::MAX as u128) as u64);
        if timed {
            let reg = metrics::global();
            reg.histogram("serve.submit_to_result_us")
                .observe(latency_us);
            reg.histogram("serve.service_us").observe(service_us);
            reg.counter(&format!("serve.jobs_{disposition}")).inc();
            reg.gauge("serve.queue_depth").add(-1);
        }
        drained.push(DrainedJob {
            job,
            disposition,
            latency_us,
            service_us,
        });
    }
    Ok(DrainStats { drained })
}

/// Abbreviated job id for log lines.
pub fn short(id: &ObjectId) -> String {
    id.to_hex()[..12].to_string()
}
