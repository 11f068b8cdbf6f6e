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
//! compute streams: it computes chunks in this process with
//! [`run_chunks`] on the campaign it prepared, next to any [`Shards`]
//! (`sim-serve` worker processes) that greet the driver with their golden
//! fingerprint and answer claims. Every stream runs the same loop.
//!
//! # Claims
//!
//! Chunks are the unit of publication and of resume, not of computation.
//! The missing chunks are split into claims of consecutive chunks, each
//! at most one lane batch of trials ([`claim_chunks`]), and a stream
//! computes a whole claim in one executor call, so one golden follower
//! walk carries the trials of several chunks. A crash loses at most the
//! claim each stream holds.

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
use std::ops::Range;
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
    (0..total.div_ceil(chunk_trials.max(1)))
        .filter_map(|index| plan_at(total, chunk_trials, index))
        .collect()
}

/// Chunk `index` of [`plan_chunks`]`(total, chunk_trials)`, computed
/// without building the plan; `None` past the last chunk.
fn plan_at(total: usize, chunk_trials: usize, index: usize) -> Option<ChunkPlan> {
    let per = chunk_trials.max(1);
    (index < total.div_ceil(per)).then(|| ChunkPlan {
        index,
        start: index * per,
        len: per.min(total - index * per),
    })
}

/// The most chunks one claim of `spec` holds: as many whole chunks as fit
/// in one lane batch of its trial path, at least one, and exactly one off
/// the batched path (the scalar oracles gain nothing from a shared walk).
pub fn claim_chunks(spec: &JobSpec) -> usize {
    spec.cfg
        .path
        .lanes()
        .map_or(1, |lanes| (lanes / spec.chunk_trials.max(1)).max(1))
}

/// Fail unless `claim` is a claim a driver could hand a shard of `spec`:
/// one to [`claim_chunks`] chunks of the job's plan, in ascending index
/// order. A shard checks every claim it receives before computing it, so
/// a corrupt or hostile task is an error, never a panic; the check sizes
/// no allocation from the spec.
pub fn check_claim(spec: &JobSpec, claim: &[ChunkPlan]) -> Result<(), String> {
    let most = claim_chunks(spec);
    if claim.is_empty() || claim.len() > most {
        return Err(format!(
            "a claim of {} chunks, where one holds 1 to {most}",
            claim.len()
        ));
    }
    let total = spec
        .cfg
        .targets
        .len()
        .checked_mul(spec.cfg.trials_per_structure)
        .ok_or("the job's trial count overflows")?;
    for &plan in claim {
        if plan_at(total, spec.chunk_trials, plan.index) != Some(plan) {
            return Err(format!(
                "chunk {} [start {}, {} trials] is not in the job's plan",
                plan.index, plan.start, plan.len
            ));
        }
    }
    if claim.windows(2).any(|w| w[0].index >= w[1].index) {
        return Err("a claim's chunks must ascend".to_string());
    }
    Ok(())
}

/// Split `missing` into claims for `streams` compute streams: the fewest
/// runs of consecutive chunks, with sizes differing by at most one, such
/// that no claim exceeds `most` chunks and every stream gets at least
/// one. Every claim thus holds at most `min(most, ⌈missing / streams⌉)`
/// chunks.
fn split_claims(missing: Vec<ChunkPlan>, most: usize, streams: usize) -> VecDeque<Vec<ChunkPlan>> {
    let n = streams
        .max(missing.len().div_ceil(most.max(1)))
        .min(missing.len());
    let mut rest = missing.into_iter();
    (0..n)
        .map(|k| {
            let len = rest.len().div_ceil(n - k);
            rest.by_ref().take(len).collect()
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

/// A worker that computes claims of the job being run outside the
/// parent's thread. It never touches the store: the parent, the single
/// writer, checks and publishes every chunk it returns.
pub trait Shard: Send {
    /// The fingerprint of the golden state this shard rebuilt. No claim is
    /// handed out until it encodes exactly like the parent's own.
    fn greet(&mut self) -> Result<GoldenFingerprint, String>;
    /// Compute every chunk of `claim` (ascending chunks of the job's plan,
    /// at most [`claim_chunks`]) and return them in the claim's order.
    fn run(&mut self, claim: &[ChunkPlan]) -> Result<Vec<ChunkRecord>, String>;
    /// Shut down cleanly once no claim is left.
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
/// taking claims off `queue` until it is empty, get each claim's chunks
/// from `compute` in one call (timed as `serve.worker.chunk_us`, one
/// sample per claim), check every chunk against its plan, then publish
/// them in index order, firing the crash hook after each. Nothing of a
/// claim with one bad chunk is published. On any failure the queue is
/// emptied, so the other streams stop at their next claim.
fn publish_chunks(
    store: &Store,
    job: &ObjectId,
    queue: &Mutex<VecDeque<Vec<ChunkPlan>>>,
    fresh: &AtomicUsize,
    mut first: Option<Vec<ChunkPlan>>,
    mut compute: impl FnMut(&[ChunkPlan]) -> Result<Vec<ChunkRecord>, CampaignStoreError>,
) -> Result<(), CampaignStoreError> {
    let mut publish = |claim: &[ChunkPlan]| {
        let t = metrics::enabled().then(Instant::now);
        let chunks = compute(claim)?;
        if let Some(t) = t {
            metrics::global()
                .histogram("serve.worker.chunk_us")
                .observe(metrics::micros_since(t));
        }
        if chunks.len() != claim.len() {
            return Err(CampaignStoreError::Diverged(format!(
                "a claim of {} chunks came back with {}",
                claim.len(),
                chunks.len()
            )));
        }
        for (chunk, &plan) in chunks.iter().zip(claim) {
            check_chunk(chunk, job, plan)?;
        }
        for chunk in &chunks {
            store_chunk(store, chunk)?;
            maybe_crash_after(fresh.fetch_add(1, Ordering::Relaxed) + 1);
        }
        Ok(())
    };
    while let Some(claim) = first
        .take()
        .or_else(|| queue.lock().expect("claim queue").pop_front())
    {
        if let Err(e) = publish(&claim) {
            queue.lock().expect("claim queue").clear();
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
/// parent's golden pass, splits the missing chunks into claims of
/// consecutive chunks (at most [`claim_chunks`] each, at least one per
/// stream), prepares and fingerprints the campaign, checks every shard's
/// greeting against it (accepting a greeting assigns the shard its first
/// claim; the parent then takes its own), runs one chunk loop per compute
/// stream, the parent's included, and assembles the result from the
/// store. Any failure fails the job closed and drops every started shard;
/// a rerun after any interruption produces byte-identical records, having
/// lost at most the claim each stream held.
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
    let mut missing = Vec::new();
    for &plan in &plans {
        if load_chunk(store, &job, plan)?.is_none() {
            missing.push(plan);
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
    let mut claims = split_claims(missing, claim_chunks(spec), spawned.len() + 1);

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
        // At least one claim per stream: each shard gets one, and so does
        // the parent, before any stream starts.
        let first = claims.pop_front().expect("a claim per started shard");
        greeted.push((shard, first));
    }
    let parent_first = claims.pop_front();
    let queue = &Mutex::new(claims);
    let fresh = &AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let streams: Vec<_> = greeted
            .into_iter()
            .map(|(mut shard, first)| {
                scope.spawn(move || {
                    publish_chunks(store, &job, queue, fresh, Some(first), |claim| {
                        shard.run(claim).map_err(CampaignStoreError::Shard)
                    })?;
                    shard.finish().map_err(CampaignStoreError::Shard)
                })
            })
            .collect();
        let parent = publish_chunks(store, &job, queue, fresh, parent_first, |claim| {
            Ok(run_chunks(&prepared, factory, job, claim, spec.cfg.workers))
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

/// Execute the chunks `plans` of `job` (ascending, as a claim holds them)
/// in one [`sim_inject::run_trials`] call on `workers` threads (at most
/// the host's available parallelism), so their trials share lane batches
/// and follower walks. Returns one record per plan, in the plans' order,
/// each holding its trials in index order regardless of scheduling. Runs
/// the prepared campaign's [`CampaignConfig::path`] — every trial path,
/// and every split of a job into claims, changes only wall clock, never
/// the records, so stored chunks (and the object ids derived from them)
/// are byte-identical for any lane count and any claim.
///
/// [`CampaignConfig::path`]: sim_inject::CampaignConfig::path
pub fn run_chunks<S, F>(
    prepared: &PreparedCampaign<S>,
    factory: &F,
    job: ObjectId,
    plans: &[ChunkPlan],
    workers: usize,
) -> Vec<ChunkRecord>
where
    S: InstSource + Clone + Sync,
    F: Fn() -> SmtCore<S> + Sync,
{
    // `workers` comes from a decoded spec, so cap it at the host's
    // parallelism: a job file must not size a thread pool. Records are
    // worker-count-invariant, so only wall clock changes.
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ranges: Vec<Range<usize>> = plans.iter().map(|p| p.start..p.start + p.len).collect();
    let mut records = sim_inject::run_trials(prepared, factory, &ranges, workers.min(host))
        .0
        .into_iter()
        .map(|exec| exec.record);
    plans
        .iter()
        .map(|plan| ChunkRecord {
            job,
            index: plan.index,
            start: plan.start,
            records: records.by_ref().take(plan.len).collect(),
        })
        .collect()
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

    fn plan(index: usize, per: usize) -> ChunkPlan {
        ChunkPlan {
            index,
            start: index * per,
            len: per,
        }
    }

    #[test]
    fn claims_are_consecutive_balanced_and_one_per_stream_at_least() {
        let sizes = |missing: usize, most: usize, streams: usize| -> Vec<usize> {
            let plans: Vec<ChunkPlan> = (0..missing).map(|i| plan(i, 8)).collect();
            let claims = split_claims(plans.clone(), most, streams);
            let flat: Vec<ChunkPlan> = claims.iter().flatten().copied().collect();
            assert_eq!(flat, plans, "claims tile the missing chunks in order");
            claims.iter().map(Vec::len).collect()
        };
        assert_eq!(sizes(6, 8, 1), [6]);
        assert_eq!(sizes(6, 8, 2), [3, 3]);
        assert_eq!(sizes(5, 8, 2), [3, 2]);
        assert_eq!(sizes(5, 8, 4), [2, 1, 1, 1]);
        assert_eq!(sizes(10, 4, 2), [4, 3, 3]);
        assert_eq!(sizes(3, 1, 2), [1, 1, 1]);
        assert_eq!(sizes(0, 8, 2), Vec::<usize>::new());
    }

    #[test]
    fn a_claim_holds_ascending_planned_chunks_up_to_one_lane_batch() {
        let budget = sim_pipeline::SimBudget::total_instructions(100);
        let mut cfg = CampaignConfig::new(10, 1, budget);
        cfg.targets.truncate(2);
        let mut spec = JobSpec {
            name: "claims".to_string(),
            workload: "w".to_string(),
            cfg,
            chunk_trials: 3,
        };
        // 20 trials in chunks of 3: six of 3, then one of 2.
        assert_eq!(claim_chunks(&spec), 21);
        let last = ChunkPlan {
            index: 6,
            start: 18,
            len: 2,
        };
        assert_eq!(check_claim(&spec, &[plan(0, 3), plan(2, 3), last]), Ok(()));
        for bad in [
            vec![],
            vec![plan(2, 3), plan(1, 3)],
            vec![plan(1, 3), plan(1, 3)],
            vec![plan(6, 3)],
            vec![plan(7, 3)],
            vec![ChunkPlan {
                index: usize::MAX,
                start: usize::MAX,
                len: usize::MAX,
            }],
        ] {
            assert!(check_claim(&spec, &bad).is_err(), "{bad:?}");
        }
        spec.chunk_trials = 32;
        assert_eq!(claim_chunks(&spec), 2);
        spec.chunk_trials = 100;
        assert_eq!(claim_chunks(&spec), 1, "at least one chunk per claim");
        spec.cfg.path = sim_inject::TrialPath::Scalar;
        spec.chunk_trials = 1;
        assert_eq!(
            claim_chunks(&spec),
            1,
            "the scalar oracle claims chunks singly"
        );
        let two = [plan(0, 1), plan(1, 1)];
        assert!(check_claim(&spec, &two).is_err());
    }

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
