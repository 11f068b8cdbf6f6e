//! Chunk-grained persisted campaigns: run an SFI campaign with every
//! completed chunk of trials published to the store, so a crashed or
//! killed run resumes from the last published chunk and — by the trial
//! index determinism contract — finishes with bytes identical to an
//! uninterrupted run.
//!
//! # Store layout per job
//!
//! A job is identified by the content address of its [`JobSpec`] record,
//! so the same spec always names the same job. Under `refs/`:
//!
//! ```text
//! jobs/<job-id>/spec        the JobSpec record
//! jobs/<job-id>/golden      GoldenFingerprint of the prepared campaign
//! jobs/<job-id>/chunks/NNNNNN   ChunkRecord per completed chunk
//! jobs/<job-id>/result      JobResultRecord, published last
//! ```
//!
//! # Resume semantics
//!
//! Chunks publish atomically and carry their job id, chunk index, and
//! trial range; resuming re-prepares the campaign, verifies the golden
//! fingerprint (fail closed on divergence), loads every published chunk,
//! and computes only the missing ones. Trial `i` samples its fault from
//! `splitmix64(seed, i)` alone, so which process computes a chunk — or
//! how many times a prefix was recomputed before a crash — cannot change
//! the bytes of any record.
//!
//! # One driver
//!
//! Every stored job runs through [`run_campaign_stored`], which owns the
//! whole lifecycle and its one chunk loop. The parent is one of the job's
//! compute streams: it computes chunks in this process with [`run_chunk`]
//! on the campaign it prepared, next to any [`Shards`] (`sim-serve`
//! worker processes) that greet the driver with their golden fingerprint
//! and answer chunk plans. Every stream runs the same loop.

use crate::codec::Codec;
use crate::record::{decode_record, encode_record, CodecError};
use crate::snapshot::GoldenFingerprint;
use crate::store::{ObjectId, Store, StoreError, WriterLock};
use crate::wire::{Decoder, Encoder, WireError};
use avf_core::AvfReport;
use sim_inject::{
    summarize, CampaignConfig, InjectError, PreparedCampaign, TargetSummary, TrialRecord,
};
use sim_pipeline::SmtCore;
use sim_trace::metrics;
use sim_workload::InstSource;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default trials per persisted chunk: small enough that a kill loses
/// little work, large enough that publish overhead stays negligible.
pub const DEFAULT_CHUNK_TRIALS: usize = 32;

/// A campaign job: everything that determines its results.
///
/// The job's identity is the content address of this record, so two
/// specs differing in any field are different jobs with disjoint chunk
/// namespaces.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable label (part of the identity on purpose: two
    /// submissions with different names are tracked separately).
    pub name: String,
    /// Workload name, resolved by the embedding binary's workload table.
    pub workload: String,
    /// The campaign to run.
    pub cfg: CampaignConfig,
    /// Trials per persisted chunk.
    pub chunk_trials: usize,
}

impl Codec for JobSpec {
    const TAG: u16 = 12;
    const NAME: &'static str = "JobSpec";

    fn encode_body(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_str(&self.workload);
        self.cfg.encode_body(e);
        e.put_usize(self.chunk_trials);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<JobSpec, WireError> {
        Ok(JobSpec {
            name: d.get_str()?,
            workload: d.get_str()?,
            cfg: CampaignConfig::decode_body(d)?,
            chunk_trials: d.get_usize()?,
        })
    }
}

impl JobSpec {
    /// The job's identity: the content address of its canonical record.
    pub fn id(&self) -> ObjectId {
        ObjectId::of(&encode_record(self))
    }

    /// Total trials the job runs.
    pub fn total_trials(&self) -> usize {
        self.cfg.targets.len() * self.cfg.trials_per_structure
    }
}

/// Ref name of a job's spec record.
pub fn spec_ref(job: &ObjectId) -> String {
    format!("jobs/{job}/spec")
}

/// Ref name of a job's golden fingerprint.
pub fn golden_ref(job: &ObjectId) -> String {
    format!("jobs/{job}/golden")
}

/// Ref name of a job's chunk `index`.
pub fn chunk_ref(job: &ObjectId, index: usize) -> String {
    format!("jobs/{job}/chunks/{index:06}")
}

/// Ref name of a job's final result.
pub fn result_ref(job: &ObjectId) -> String {
    format!("jobs/{job}/result")
}

/// One contiguous range of trial indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Chunk index (dense, from 0).
    pub index: usize,
    /// First trial index in the chunk.
    pub start: usize,
    /// Number of trials in the chunk.
    pub len: usize,
}

/// Split `total` trials into chunks of `chunk_trials` (the last chunk may
/// be short). `chunk_trials` is clamped to at least 1.
pub fn plan_chunks(total: usize, chunk_trials: usize) -> Vec<ChunkPlan> {
    let per = chunk_trials.max(1);
    (0..total.div_ceil(per))
        .map(|index| ChunkPlan {
            index,
            start: index * per,
            len: per.min(total - index * per),
        })
        .collect()
}

/// One completed, published chunk of trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRecord {
    /// The owning job.
    pub job: ObjectId,
    /// Chunk index within the job's plan.
    pub index: usize,
    /// First trial index.
    pub start: usize,
    /// The completed trials, in index order.
    pub records: Vec<TrialRecord>,
}

impl Codec for ChunkRecord {
    const TAG: u16 = 13;
    const NAME: &'static str = "ChunkRecord";

    fn encode_body(&self, e: &mut Encoder) {
        self.job.put(e);
        e.put_usize(self.index);
        e.put_usize(self.start);
        e.put_usize(self.records.len());
        for r in &self.records {
            r.encode_body(e);
        }
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<ChunkRecord, WireError> {
        let job = ObjectId::get(d)?;
        let index = d.get_usize()?;
        let start = d.get_usize()?;
        let n = d.get_usize()?;
        let mut records = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            records.push(TrialRecord::decode_body(d)?);
        }
        Ok(ChunkRecord {
            job,
            index,
            start,
            records,
        })
    }
}

/// A job's final, published result.
#[derive(Debug, Clone)]
pub struct JobResultRecord {
    /// The owning job.
    pub job: ObjectId,
    /// Every trial, in index order.
    pub records: Vec<TrialRecord>,
    /// Per-target outcome summaries with SFI estimates.
    pub per_target: Vec<TargetSummary>,
    /// The ACE reference report over the same window.
    pub report: AvfReport,
}

impl Codec for JobResultRecord {
    const TAG: u16 = 14;
    const NAME: &'static str = "JobResultRecord";

    fn encode_body(&self, e: &mut Encoder) {
        self.job.put(e);
        e.put_usize(self.records.len());
        for r in &self.records {
            r.encode_body(e);
        }
        e.put_usize(self.per_target.len());
        for t in &self.per_target {
            t.encode_body(e);
        }
        self.report.encode_body(e);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<JobResultRecord, WireError> {
        let job = ObjectId::get(d)?;
        let n = d.get_usize()?;
        let mut records = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            records.push(TrialRecord::decode_body(d)?);
        }
        let n = d.get_usize()?;
        let mut per_target = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            per_target.push(TargetSummary::decode_body(d)?);
        }
        Ok(JobResultRecord {
            job,
            records,
            per_target,
            report: AvfReport::decode_body(d)?,
        })
    }
}

/// A stored-campaign failure.
#[derive(Debug)]
pub enum CampaignStoreError {
    /// The store itself failed.
    Store(StoreError),
    /// A stored record failed to decode.
    Codec(CodecError),
    /// The campaign could not be prepared or run.
    Inject(InjectError),
    /// Stored state or a shard contradicts the job being run (wrong job
    /// id, golden divergence, chunk shape mismatch). Always fatal.
    Diverged(String),
    /// A shard failed to start, to answer, or to shut down.
    Shard(String),
}

impl fmt::Display for CampaignStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignStoreError::Store(e) => write!(f, "store: {e}"),
            CampaignStoreError::Codec(e) => write!(f, "stored record: {e}"),
            CampaignStoreError::Inject(e) => write!(f, "campaign: {e}"),
            CampaignStoreError::Diverged(s) => write!(f, "refusing to resume: {s}"),
            CampaignStoreError::Shard(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for CampaignStoreError {}

impl From<StoreError> for CampaignStoreError {
    fn from(e: StoreError) -> CampaignStoreError {
        CampaignStoreError::Store(e)
    }
}

impl From<CodecError> for CampaignStoreError {
    fn from(e: CodecError) -> CampaignStoreError {
        CampaignStoreError::Codec(e)
    }
}

impl From<InjectError> for CampaignStoreError {
    fn from(e: InjectError) -> CampaignStoreError {
        CampaignStoreError::Inject(e)
    }
}

/// How a stored job finished.
#[derive(Debug)]
pub struct StoredOutcome {
    /// The job's identity.
    pub job: ObjectId,
    /// The final result (freshly assembled or loaded from the store).
    pub result: JobResultRecord,
    /// The golden measurement window `[start, end)`.
    pub window: (u64, u64),
    /// Chunks loaded from a previous run.
    pub resumed_chunks: usize,
    /// Chunks computed by this run.
    pub computed_chunks: usize,
    /// Trials in the chunks computed by this run.
    pub computed_trials: usize,
    /// Wall-clock seconds the run took.
    pub elapsed_secs: f64,
}

/// A worker that computes chunks of the job being run outside the
/// parent's thread. It never touches the store: the parent, the single
/// writer, checks and publishes every chunk it returns.
pub trait Shard: Send {
    /// The fingerprint of the golden state this shard rebuilt. No chunk is
    /// handed out until it encodes exactly like the parent's own.
    fn greet(&mut self) -> Result<GoldenFingerprint, String>;
    /// Compute chunk `plan`.
    fn run(&mut self, plan: ChunkPlan) -> Result<ChunkRecord, String>;
    /// Shut down cleanly once no chunk is left.
    fn finish(self: Box<Self>) -> Result<(), String>;
}

/// The shards a stored job may spread its missing chunks over.
pub struct Shards<'a> {
    /// Compute-stream count P, the parent's own stream included: the
    /// driver starts `min(P, missing chunks) − 1` shards, so with P ≤ 1, or
    /// one missing chunk, the parent computes alone.
    pub procs: usize,
    /// Start shard `i` of the job being run.
    pub spawn: &'a dyn Fn(usize) -> Result<Box<dyn Shard>, String>,
}

/// Fail closed unless `chunk` is chunk `plan` of `job`.
fn check_chunk(
    chunk: &ChunkRecord,
    job: &ObjectId,
    plan: ChunkPlan,
) -> Result<(), CampaignStoreError> {
    if chunk.job != *job || chunk.index != plan.index || chunk.start != plan.start {
        return Err(CampaignStoreError::Diverged(format!(
            "chunk {} belongs to job {} [index {}, start {}], expected job {} \
             [index {}, start {}]",
            plan.index, chunk.job, chunk.index, chunk.start, job, plan.index, plan.start
        )));
    }
    if chunk.records.len() != plan.len {
        return Err(CampaignStoreError::Diverged(format!(
            "chunk {} holds {} trials, plan says {}",
            plan.index,
            chunk.records.len(),
            plan.len
        )));
    }
    Ok(())
}

/// Load and check chunk `plan` of `job` if it is already published;
/// `Ok(None)` when absent.
fn load_chunk(
    store: &Store,
    job: &ObjectId,
    plan: ChunkPlan,
) -> Result<Option<ChunkRecord>, CampaignStoreError> {
    let Some(id) = store.get_ref(&chunk_ref(job, plan.index))? else {
        return Ok(None);
    };
    let chunk: ChunkRecord = decode_record(&store.get(&id)?)?;
    check_chunk(&chunk, job, plan)?;
    Ok(Some(chunk))
}

/// Publish `chunk` and point its ref at it.
fn store_chunk(store: &Store, chunk: &ChunkRecord) -> Result<(), CampaignStoreError> {
    let t = metrics::enabled().then(Instant::now);
    let id = store.put(&encode_record(chunk))?;
    store.set_ref(&chunk_ref(&chunk.job, chunk.index), &id)?;
    if let Some(t) = t {
        let g = metrics::global();
        g.histogram("store.chunk_publish_us")
            .observe(metrics::micros_since(t));
        g.counter("store.chunks_published").inc();
    }
    Ok(())
}

/// Crash hook for the crash-equivalence tests: when
/// `SIM_STORE_CRASH_AFTER_CHUNKS=N` is set and this run has published
/// `fresh` new chunks, die exactly like `kill -9` would (no unwinding, no
/// cleanup, the LOCK file stays behind).
fn maybe_crash_after(fresh: usize) {
    if let Ok(v) = std::env::var("SIM_STORE_CRASH_AFTER_CHUNKS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if fresh >= n {
                eprintln!("sim-store: SIM_STORE_CRASH_AFTER_CHUNKS={n} reached, aborting");
                std::process::abort();
            }
        }
    }
}

/// Prepare `spec`'s campaign and reconcile it with the store: publish the
/// spec, then publish or verify the golden fingerprint (fail closed on
/// divergence with a previous run). Returns the campaign and the encoding
/// of the fingerprint this process rebuilt.
fn prepare_stored<S, F>(
    store: &Store,
    spec: &JobSpec,
    factory: &F,
) -> Result<(PreparedCampaign<S>, Vec<u8>), CampaignStoreError>
where
    S: InstSource + Clone,
    F: Fn() -> SmtCore<S>,
{
    let job = spec.id();
    let prepared = PreparedCampaign::prepare(factory, &spec.cfg)?;
    let fingerprint = GoldenFingerprint::of(&prepared);
    let encoded = encode_record(&fingerprint);
    let spec_id = store.put(&encode_record(spec))?;
    store.set_ref(&spec_ref(&job), &spec_id)?;
    match store.get_ref(&golden_ref(&job))? {
        Some(id) => {
            let stored: GoldenFingerprint = decode_record(&store.get(&id)?)?;
            stored
                .verify(&prepared)
                .map_err(CampaignStoreError::Diverged)?;
            // Byte-level belt and braces: identical fingerprints encode
            // identically, so when the stored checkpoint plan is this
            // rebuild's, the stored object must be what we'd write. A
            // fingerprint from an earlier plan was verified by stepping.
            let same_plan = stored
                .checkpoints
                .iter()
                .map(|c| c.cycle)
                .eq(fingerprint.checkpoints.iter().map(|c| c.cycle));
            if same_plan && id != ObjectId::of(&encoded) {
                return Err(CampaignStoreError::Diverged(
                    "stored golden fingerprint encodes differently from the rebuilt one"
                        .to_string(),
                ));
            }
        }
        None => {
            let id = store.put(&encoded)?;
            store.set_ref(&golden_ref(&job), &id)?;
        }
    }
    Ok((prepared, encoded))
}

/// The chunk loop of one compute stream: starting with `first`, then
/// taking chunks off `queue` until it is empty, get each from `compute`
/// (timed as `serve.worker.chunk_us`), check it against its plan, publish
/// it, and fire the crash hook. On any failure the queue is emptied, so
/// the other streams stop at their next chunk.
fn publish_chunks(
    store: &Store,
    job: &ObjectId,
    queue: &Mutex<VecDeque<ChunkPlan>>,
    fresh: &AtomicUsize,
    mut first: Option<ChunkPlan>,
    mut compute: impl FnMut(ChunkPlan) -> Result<ChunkRecord, CampaignStoreError>,
) -> Result<(), CampaignStoreError> {
    let mut publish = |plan: ChunkPlan| {
        let t = metrics::enabled().then(Instant::now);
        let chunk = compute(plan)?;
        if let Some(t) = t {
            metrics::global()
                .histogram("serve.worker.chunk_us")
                .observe(metrics::micros_since(t));
        }
        check_chunk(&chunk, job, plan)?;
        store_chunk(store, &chunk)?;
        maybe_crash_after(fresh.fetch_add(1, Ordering::Relaxed) + 1);
        Ok(())
    };
    while let Some(plan) = first
        .take()
        .or_else(|| queue.lock().expect("chunk queue").pop_front())
    {
        if let Err(e) = publish(plan) {
            queue.lock().expect("chunk queue").clear();
            return Err(e);
        }
    }
    Ok(())
}

/// The finished-result shortcut: `result` is already published. The
/// window comes from the job's stored golden fingerprint, published by
/// whichever run prepared the campaign first.
fn finished(
    store: &Store,
    job: ObjectId,
    chunks: usize,
    result: JobResultRecord,
    started: Instant,
) -> Result<StoredOutcome, CampaignStoreError> {
    let id = store.get_ref(&golden_ref(&job))?.ok_or_else(|| {
        CampaignStoreError::Diverged(format!("job {job} has a result but no golden"))
    })?;
    let golden: GoldenFingerprint = decode_record(&store.get(&id)?)?;
    Ok(StoredOutcome {
        job,
        result,
        window: (golden.golden.start, golden.golden.end),
        resumed_chunks: chunks,
        computed_chunks: 0,
        computed_trials: 0,
        elapsed_secs: started.elapsed().as_secs_f64(),
    })
}

/// Run `spec` against `store`: the one driver of every stored job
/// (DESIGN.md §5h, "Job timeline"). Returns the published result if there
/// is one, checked before and again under the writer lock; otherwise scans
/// the published chunks, starts `min(P, missing) − 1` shards before the
/// parent's golden pass, prepares and fingerprints the campaign, checks
/// every shard's greeting against it (accepting a greeting assigns the
/// shard its first chunk), runs one chunk loop per compute stream, the
/// parent's included, and assembles the result from the store. Any
/// failure fails the job closed and drops every started shard; a rerun
/// after any interruption produces byte-identical records.
pub fn run_campaign_stored<S, F>(
    store: &Store,
    spec: &JobSpec,
    factory: &F,
    shards: Option<Shards<'_>>,
) -> Result<StoredOutcome, CampaignStoreError>
where
    S: InstSource + Clone + Sync,
    F: Fn() -> SmtCore<S> + Sync,
{
    let started = Instant::now();
    let job = spec.id();
    let plans = plan_chunks(spec.total_trials(), spec.chunk_trials);
    if let Some(done) = load_result(store, &job)? {
        return finished(store, job, plans.len(), done, started);
    }
    let _lock: WriterLock = store.lock()?;
    // Someone else may have finished between the check and the lock.
    if let Some(done) = load_result(store, &job)? {
        return finished(store, job, plans.len(), done, started);
    }
    let mut missing = VecDeque::new();
    for &plan in &plans {
        if load_chunk(store, &job, plan)?.is_none() {
            missing.push_back(plan);
        }
    }
    let computed_chunks = missing.len();
    let computed_trials = missing.iter().map(|p| p.len).sum();
    let mut spawned = Vec::new();
    if let Some(Shards { procs, spawn }) = shards {
        for i in 0..procs.min(missing.len()).saturating_sub(1) {
            spawned.push(spawn(i).map_err(CampaignStoreError::Shard)?);
        }
    }

    let (prepared, expected) = prepare_stored(store, spec, factory)?;
    let mut greeted = Vec::with_capacity(spawned.len());
    for (i, mut shard) in spawned.into_iter().enumerate() {
        let greeting = shard.greet().map_err(CampaignStoreError::Shard)?;
        if encode_record(&greeting) != expected {
            return Err(CampaignStoreError::Diverged(format!(
                "shard {i} rebuilt a different golden state than the parent; \
                 refusing to shard across divergent machines"
            )));
        }
        // Fewer shards than missing chunks: each gets one, the parent keeps
        // at least one.
        let first = missing.pop_front().expect("a chunk per started shard");
        greeted.push((shard, first));
    }
    let queue = &Mutex::new(missing);
    let fresh = &AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let streams: Vec<_> = greeted
            .into_iter()
            .map(|(mut shard, first)| {
                scope.spawn(move || {
                    publish_chunks(store, &job, queue, fresh, Some(first), |plan| {
                        shard.run(plan).map_err(CampaignStoreError::Shard)
                    })?;
                    shard.finish().map_err(CampaignStoreError::Shard)
                })
            })
            .collect();
        let parent = publish_chunks(store, &job, queue, fresh, None, |plan| {
            Ok(run_chunk(&prepared, factory, job, plan, spec.cfg.workers))
        });
        streams
            .into_iter()
            .map(|stream| stream.join().expect("shard thread panicked"))
            .fold(parent, Result::and)
    })?;

    let result = assemble_result(store, &job, spec, &plans, prepared.ace_report().clone())?;
    let golden = prepared.golden();
    Ok(StoredOutcome {
        job,
        result,
        window: (golden.start, golden.end),
        resumed_chunks: plans.len() - computed_chunks,
        computed_chunks,
        computed_trials,
        elapsed_secs: started.elapsed().as_secs_f64(),
    })
}

/// Execute chunk `plan` of `job` on `workers` threads (at most the
/// host's available parallelism); records come back in trial-index order
/// regardless of scheduling. Runs the prepared campaign's
/// [`CampaignConfig::path`] — every trial path changes only wall clock,
/// never the records, so stored chunks (and the object ids derived from
/// them) are byte-identical for any lane count.
///
/// [`CampaignConfig::path`]: sim_inject::CampaignConfig::path
pub fn run_chunk<S, F>(
    prepared: &PreparedCampaign<S>,
    factory: &F,
    job: ObjectId,
    plan: ChunkPlan,
    workers: usize,
) -> ChunkRecord
where
    S: InstSource + Clone + Sync,
    F: Fn() -> SmtCore<S> + Sync,
{
    // `workers` comes from a decoded spec, so cap it at the host's
    // parallelism: a job file must not size a thread pool. Records are
    // worker-count-invariant, so only wall clock changes.
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let execs = sim_inject::run_trials_batched_full(
        prepared,
        factory,
        plan.start,
        plan.len,
        workers.min(host),
    )
    .0;
    ChunkRecord {
        job,
        index: plan.index,
        start: plan.start,
        records: execs.into_iter().map(|exec| exec.record).collect(),
    }
}

/// Reload every chunk of `plans` from the store — assembly runs over the
/// published bytes, not in-memory copies — then summarize, attach `report`
/// (the golden window's [`PreparedCampaign::ace_report`]), and publish the
/// job's result.
fn assemble_result(
    store: &Store,
    job: &ObjectId,
    spec: &JobSpec,
    plans: &[ChunkPlan],
    report: AvfReport,
) -> Result<JobResultRecord, CampaignStoreError> {
    let mut records = Vec::with_capacity(spec.total_trials());
    for &plan in plans {
        let chunk = load_chunk(store, job, plan)?.ok_or_else(|| {
            CampaignStoreError::Diverged(format!("chunk {} missing at assembly", plan.index))
        })?;
        records.extend(chunk.records);
    }
    let per_target = summarize(&spec.cfg.targets, spec.cfg.trials_per_structure, &records);
    let result = JobResultRecord {
        job: *job,
        records,
        per_target,
        report,
    };
    let id = store.put(&encode_record(&result))?;
    store.set_ref(&result_ref(job), &id)?;
    Ok(result)
}

/// Load and validate a job's published result, if any.
pub fn load_result(
    store: &Store,
    job: &ObjectId,
) -> Result<Option<JobResultRecord>, CampaignStoreError> {
    let Some(id) = store.get_ref(&result_ref(job))? else {
        return Ok(None);
    };
    let result: JobResultRecord = decode_record(&store.get(&id)?)?;
    if result.job != *job {
        return Err(CampaignStoreError::Diverged(format!(
            "result under job {job} belongs to job {}",
            result.job
        )));
    }
    Ok(Some(result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_plans_tile_the_trial_space() {
        for (total, per) in [(0, 4), (1, 4), (8, 4), (9, 4), (7, 100), (5, 0)] {
            let plans = plan_chunks(total, per);
            let mut next = 0;
            for (i, p) in plans.iter().enumerate() {
                assert_eq!(p.index, i);
                assert_eq!(p.start, next);
                assert!(p.len > 0);
                next += p.len;
            }
            assert_eq!(next, total, "total {total} per {per}");
        }
    }
}
