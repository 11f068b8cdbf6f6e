//! Job execution: resolve a [`JobSpec`] into its campaign and run it
//! through sim-store's one stored-job driver
//! ([`sim_store::run_campaign_stored`]), which plans, checks, publishes
//! and assembles every chunk. This module keeps only the process side of
//! sharding: spawning `sim-serve worker` processes, framing the protocol
//! to them, reaping them, and their spawn and frame counters. The parent
//! is one of a job's compute streams, so `--worker-procs P` spawns at most
//! P − 1 workers.
//!
//! The parent process is the store's single canonical writer: workers
//! never touch disk, they stream completed chunks back over the
//! [`protocol`](crate::protocol) and the parent publishes them. Killing
//! the parent (or any worker) at any point loses at most the claim each
//! stream holds (one lane batch of trials); a rerun of the same spec
//! resumes from the published chunks and finishes with byte-identical
//! results.

use crate::protocol::{read_frame, write_frame, WorkerChunk, WorkerReady, WorkerTask};
use sim_inject::PreparedCampaign;
use sim_store::{
    check_claim, decode_record, run_campaign_stored, run_chunks, ChunkPlan, ChunkRecord,
    GoldenFingerprint, JobSpec, ObjectId, Shard, Shards, Store, StoredOutcome,
};
use sim_trace::metrics::{self, micros_since};
use smt_avf::experiments::campaign::{campaign_factory, resolve_workload};
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Run `spec` to completion against the store at `store_dir` on
/// `worker_procs` compute streams P, the parent's own included: the parent
/// spawns up to P − 1 worker processes (none for P ≤ 1). P is capped at the
/// host's available parallelism, so a large P never starts more golden
/// passes than there are cores to run them. Idempotent and resumable:
/// published chunks are never recomputed.
pub fn run_job(
    store_dir: &Path,
    spec: &JobSpec,
    worker_procs: usize,
) -> Result<StoredOutcome, String> {
    let store = Store::open(store_dir).map_err(|e| e.to_string())?;
    let workload = resolve_workload(&spec.workload)?;
    let factory = campaign_factory(&workload).map_err(|e| e.to_string())?;
    let spawn = |index| spawn_worker(spec, index).map(|w| Box::new(w) as Box<dyn Shard>);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = Shards {
        procs: worker_procs.min(host),
        spawn: &spawn,
    };
    let outcome =
        run_campaign_stored(&store, spec, &factory, Some(shards)).map_err(|e| e.to_string())?;
    if metrics::enabled() {
        let reg = metrics::global();
        reg.counter("serve.jobs").inc();
        reg.counter("serve.chunks_resumed")
            .add(outcome.resumed_chunks as u64);
        reg.counter("serve.chunks_computed")
            .add(outcome.computed_chunks as u64);
        reg.histogram("serve.job_us")
            .observe((outcome.elapsed_secs * 1e6) as u64);
    }
    Ok(outcome)
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

/// One spawned worker process and its protocol streams: the
/// [`Shard`] the driver hands claims to. The process is the first field,
/// so it is killed before its pipes close.
struct Worker {
    child: Reaped,
    index: usize,
    stdin: BufWriter<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

fn spawn_worker(spec: &JobSpec, index: usize) -> Result<Worker, String> {
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
        index,
        stdin,
        stdout,
    })
}

impl Shard for Worker {
    fn greet(&mut self) -> Result<GoldenFingerprint, String> {
        let wi = self.index;
        let ready: WorkerReady = read_frame(&mut self.stdout)
            .map_err(|e| format!("worker {wi}: {e}"))?
            .ok_or_else(|| format!("worker {wi} exited before greeting"))?;
        Ok(ready.fingerprint)
    }

    fn run(&mut self, claim: &[ChunkPlan]) -> Result<Vec<ChunkRecord>, String> {
        let wi = self.index;
        let task = WorkerTask {
            plans: claim.to_vec(),
        };
        write_frame(&mut self.stdin, &task).map_err(|e| format!("worker {wi}: {e}"))?;
        let mut chunks = Vec::with_capacity(claim.len());
        for plan in claim {
            let reply: WorkerChunk = read_frame(&mut self.stdout)
                .map_err(|e| format!("worker {wi}: {e}"))?
                .ok_or_else(|| format!("worker {wi} died running chunk {}", plan.index))?;
            chunks.push(reply.chunk);
        }
        if metrics::enabled() {
            metrics::global()
                .counter(&format!("serve.worker{wi}.frames"))
                .add(1 + claim.len() as u64);
        }
        Ok(chunks)
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        let Worker {
            mut child,
            index: wi,
            stdin,
            ..
        } = *self;
        // Closing stdin is the shutdown signal.
        drop(stdin);
        let status = child.0.wait().map_err(|e| format!("worker {wi}: {e}"))?;
        if !status.success() {
            return Err(format!("worker {wi} exited with {status}"));
        }
        Ok(())
    }
}

/// Worker-process entry point: speak the protocol on stdin/stdout until
/// the parent closes stdin. Each task's claim is checked against the job
/// before any trial runs (a claim this job's driver could not have sent
/// is an error), computed in one executor call, and answered one chunk
/// frame per plan. Never touches the store.
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
        check_claim(&spec, &task.plans).map_err(|e| format!("refusing task: {e}"))?;
        for chunk in run_chunks(&prepared, &factory, job, &task.plans, spec.cfg.workers) {
            let index = chunk.index;
            write_frame(&mut stdout, &WorkerChunk { chunk })
                .map_err(|e| format!("sending chunk {index}: {e}"))?;
        }
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
                    Ok(outcome) => {
                        eprintln!(
                            "sim-serve: job {} done ({} resumed, {} computed)",
                            short(&outcome.job),
                            outcome.resumed_chunks,
                            outcome.computed_chunks
                        );
                        (Some(outcome.job), "done")
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
