//! `sim-inject`: statistical fault-injection (SFI) campaigns that
//! cross-validate the ACE-derived AVF estimates.
//!
//! # Methodology
//!
//! The paper's methodology infers vulnerability analytically: every bit's
//! residency is classified ACE or un-ACE and AVF falls out of the
//! accounting. A fault-injection campaign measures the same quantity
//! empirically:
//!
//! 1. Run an uninjected **golden** simulation, recording the retired
//!    instruction stream of the measurement window and its ACE report
//!    (the estimate the campaign is compared against).
//! 2. For each trial, pick a `(structure, entry, bit, cycle)` uniformly at
//!    random, replay the simulation to that cycle, flip the bit via
//!    [`SmtCore::inject_fault`], and run the perturbed simulation to the
//!    same committed-instruction target.
//! 3. Classify the outcome by diffing against the golden run:
//!    * [`Outcome::Detected`] — the strike hit control state a real
//!      pipeline traps on, or the machine hung / never completed (the
//!      detectable-error ≈ DUE proxy);
//!    * [`Outcome::Sdc`] — corrupt state reached architectural output (a
//!      tainted retirement, or the retired stream diverged);
//!    * [`Outcome::Latent`] — corrupt state survived to the end of the
//!      trial but was never consumed (the ACE model likewise excludes
//!      never-read values);
//!    * [`Outcome::Masked`] — the fault landed on empty/idle state or was
//!      overwritten/healed before mattering.
//!
//! The SFI vulnerability estimate of a structure is
//! `(SDC + Detected) / trials` with a binomial (Wilson) confidence
//! interval. Because ACE analysis is deliberately conservative, the
//! expected relationship is one-sided: **ACE AVF ≥ SFI lower bound**; the
//! gap measures the conservatism.
//!
//! # Determinism
//!
//! Trial `i`'s fault is sampled from a splitmix64-derived stream seeded by
//! `(campaign_seed, i)` only, and results are stored by trial index, so a
//! campaign is bit-identical for any worker count.
//!
//! # Checkpointing
//!
//! Replaying every trial from cycle 0 costs `O(trials × (warmup +
//! window/2))` simulated cycles before the first bit is even flipped. The
//! campaign runner instead plans up to K snapshots of the golden machine
//! at committed-instruction milestones — the first at the window start
//! (skipping warmup replay entirely), the rest after the steps that bring
//! the window's commit count to `⌊N·i/K⌋` — taken by deep-cloning
//! [`SmtCore`], whose state is self-contained (see
//! [`run_golden_checkpointed`]). Because the plan needs no window end,
//! the one golden pass that finds the window also records the golden
//! streams, clones every snapshot and closes out the ACE report; nothing
//! steps the window a second time. A snapshot holds no commit log, only
//! per-thread counts of the golden retirements before it. A trial
//! restores the nearest snapshot at or before its injection cycle, steps
//! only the delta, and diffs its retirements against the golden streams
//! from those counts on. Because a restored clone steps bit-identically
//! to the original machine, the trial outcome is exactly what the
//! replay-from-zero path produces; that path is kept as
//! [`TrialPath::ReplayFromZero`], the oracle the equivalence tests
//! (and perfbench baseline timing) run against.

use avf_core::{AvfReport, SfiPoint, StructureId};
use sim_model::rng::splitmix64;
use sim_model::{MachineConfig, SimRng};
pub use sim_pipeline::{target_entries, Fault, FaultTarget, Landing, RetiredInst};
use sim_pipeline::{LaneBatch, SimBudget, SmtCore, Strike};
use sim_trace::metrics::{self, MetricsRegistry};
use sim_workload::InstSource;
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;

/// An error preparing or executing a fault-injection campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectError {
    /// The golden run hit its cycle cap before committing the target
    /// instruction count — the budget is unusable for trials.
    GoldenIncomplete {
        /// Instructions committed when the run gave up.
        committed: u64,
        /// The committed-instruction target.
        target: u64,
    },
    /// The golden measurement window spans zero cycles: nothing to inject
    /// into.
    EmptyWindow,
    /// The requested injection cycle lies outside the golden measurement
    /// window `[start, end)` — the machine state at that cycle is either
    /// warm-up state or past the end of the simulation.
    CycleOutOfRange {
        /// The rejected cycle.
        cycle: u64,
        /// Window start (inclusive).
        start: u64,
        /// Window end (exclusive).
        end: u64,
    },
    /// The campaign lists no target structures.
    NoTargets,
    /// The campaign requests zero trials per structure.
    ZeroTrials,
}

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectError::GoldenIncomplete { committed, target } => write!(
                f,
                "golden run incomplete: committed {committed} of {target} before the cycle cap"
            ),
            InjectError::EmptyWindow => write!(f, "golden measurement window is empty"),
            InjectError::CycleOutOfRange { cycle, start, end } => write!(
                f,
                "injection cycle {cycle} outside the measured window [{start}, {end})"
            ),
            InjectError::NoTargets => write!(f, "campaign has no target structures"),
            InjectError::ZeroTrials => write!(f, "campaign requests zero trials per structure"),
        }
    }
}

impl std::error::Error for InjectError {}

/// The AVF structure a fault target's estimate is compared against.
pub fn target_structure(t: FaultTarget) -> StructureId {
    match t {
        FaultTarget::Iq => StructureId::Iq,
        FaultTarget::Rob => StructureId::Rob,
        FaultTarget::LsqTag => StructureId::LsqTag,
        FaultTarget::RegFile => StructureId::RegFile,
        FaultTarget::Fu => StructureId::Fu,
        FaultTarget::Dl1Data => StructureId::Dl1Data,
        FaultTarget::Dl1Tag => StructureId::Dl1Tag,
        FaultTarget::Dtlb => StructureId::Dtlb,
        FaultTarget::Itlb => StructureId::Itlb,
    }
}

/// Bits per entry of `target` (the bit sampling space), following
/// `avf_core::budgets`.
pub fn target_bits(t: FaultTarget, cfg: &MachineConfig) -> u64 {
    use avf_core::budgets;
    match t {
        FaultTarget::Iq => budgets::iq::ENTRY,
        FaultTarget::Rob => budgets::rob::ENTRY,
        FaultTarget::LsqTag => budgets::lsq::TAG_ENTRY,
        FaultTarget::RegFile => budgets::regfile::ENTRY,
        FaultTarget::Fu => budgets::fu::ENTRY,
        FaultTarget::Dl1Data => cfg.dl1.line_bytes as u64 * 8,
        FaultTarget::Dl1Tag => budgets::dl1::TAG_ENTRY,
        FaultTarget::Dtlb | FaultTarget::Itlb => budgets::tlb::ENTRY,
    }
}

/// Final classification of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No architecturally visible effect.
    Masked,
    /// Corrupt state survived to the end of the trial without ever being
    /// consumed (excluded from the vulnerability estimate, matching the
    /// ACE model's exclusion of never-read values).
    Latent,
    /// Silent data corruption: the retired stream diverged from the golden
    /// run or an instruction retired with a corrupt result.
    Sdc,
    /// Detectable error: control-state strike, hang, or failure to reach
    /// the commit target.
    Detected,
}

/// One completed trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// The struck structure.
    pub target: FaultTarget,
    /// Trial index within the structure's series.
    pub trial: usize,
    /// Sampled physical entry.
    pub entry: u64,
    /// Sampled bit within the entry.
    pub bit: u64,
    /// Sampled injection cycle.
    pub cycle: u64,
    /// What the strike landed on.
    pub landing: Landing,
    /// Final classification.
    pub outcome: Outcome,
}

/// The golden (uninjected) reference run.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// First cycle of the measurement window (inclusive).
    pub start: u64,
    /// Cycle the commit target was reached (exclusive injection bound).
    pub end: u64,
    /// The committed-instruction target trials must also reach.
    pub target_committed: u64,
    /// Retired instructions of the window, split per thread (commit is
    /// in-order per thread, so per-thread streams are interleaving-proof).
    pub per_thread: Vec<Vec<RetiredInst>>,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Trials per target structure.
    pub trials_per_structure: usize,
    /// Master seed: trial `i` samples from `splitmix64(seed, i)`.
    pub seed: u64,
    /// Worker threads (clamped to at least 1). The result is identical for
    /// any value, but the store codec encodes it (as it does
    /// [`progress`](CampaignConfig::progress)), so it is part of a stored
    /// job's identity: the same campaign at 1 and 2 workers is two jobs.
    pub workers: usize,
    /// Simulation budget for the golden run and every trial.
    pub budget: SimBudget,
    /// Cycles without any commit before a trial is declared hung.
    pub hang_cycles: u64,
    /// Snapshots planned across the golden window, at evenly spaced
    /// committed-instruction milestones (see [`run_golden_checkpointed`]);
    /// a trial replays from the nearest one before its injection cycle.
    /// The plan clamps this to `1..=`[`MAX_CHECKPOINTS`] (64) and to the
    /// budget's `total_instructions`; the stored spec keeps the value as
    /// given, so the clamp never changes a job's identity. Ignored on
    /// [`TrialPath::ReplayFromZero`].
    pub checkpoints: usize,
    /// Print a heartbeat progress line to stderr as trials complete
    /// (completed count + trials/s). Off by default; purely cosmetic —
    /// results are unaffected.
    pub progress: bool,
    /// How trials execute: batched by default, or one of the oracles the
    /// fast paths are proven bit-identical against. Records are identical
    /// on every path.
    pub path: TrialPath,
    /// The structures to inject into.
    pub targets: Vec<FaultTarget>,
}

/// Default snapshot count: enough that per-trial replay is a small slice
/// of the window while golden capture stays a handful of clones.
pub const DEFAULT_CHECKPOINTS: usize = 12;

/// Default lane width: the full 64-bit lane mask, so each follower replay
/// carries as many riders as the batch plan can give it.
pub const DEFAULT_LANES: usize = 64;

/// How a campaign's trials execute. The default, [`TrialPath::Batched`],
/// combines every fast path; each other variant turns exactly one of them
/// off and is the oracle that fast path is proven bit-identical against.
/// The campaign store encodes only the two distinctions the golden run
/// depends on (checkpoints and fast-forward), so `Scalar` and any
/// `Batched` width share one job identity and decode as the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialPath {
    /// Checkpoints, fast-forward, and up to `lanes` trials riding one
    /// shared golden follower core (see [`sim_pipeline::LaneBatch`]).
    /// `lanes` is clamped to `1..=64`.
    Batched { lanes: usize },
    /// Checkpoints and fast-forward, one core per trial: the lane oracle.
    Scalar,
    /// [`TrialPath::Scalar`] with idle-cycle fast-forwarding off: the
    /// fast-forward oracle. Every externally scheduled cycle (injection,
    /// hang verdict, convergence check, snapshot capture) bounds the
    /// clock jumps, so records match cycle-by-cycle stepping exactly.
    CycleByCycle,
    /// Every trial replays from cycle 0 (warm-up, then the window up to
    /// its injection cycle) instead of restoring a snapshot: the
    /// checkpoint oracle. Slow.
    ReplayFromZero,
}

impl Default for TrialPath {
    fn default() -> TrialPath {
        TrialPath::Batched {
            lanes: DEFAULT_LANES,
        }
    }
}

impl TrialPath {
    /// Idle-cycle fast-forwarding on the campaign's cores.
    fn fast_forward(self) -> bool {
        self != TrialPath::CycleByCycle
    }

    /// The clamped lane width; `None` off the batched path.
    pub fn lanes(self) -> Option<usize> {
        match self {
            TrialPath::Batched { lanes } => Some(lanes.clamp(1, 64)),
            _ => None,
        }
    }
}

impl CampaignConfig {
    /// A campaign over the structures the cross-validation report covers.
    pub fn new(trials_per_structure: usize, seed: u64, budget: SimBudget) -> CampaignConfig {
        CampaignConfig {
            trials_per_structure,
            seed,
            workers: sim_exec::worker_count(),
            budget,
            hang_cycles: 20_000,
            checkpoints: DEFAULT_CHECKPOINTS,
            progress: false,
            path: TrialPath::default(),
            targets: vec![
                FaultTarget::Iq,
                FaultTarget::Rob,
                FaultTarget::LsqTag,
                FaultTarget::RegFile,
                FaultTarget::Fu,
                FaultTarget::Dl1Data,
                FaultTarget::Dl1Tag,
                FaultTarget::Dtlb,
            ],
        }
    }
}

/// Per-structure outcome tally with the SFI estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetSummary {
    /// The struck structure.
    pub target: FaultTarget,
    /// Trials injected.
    pub trials: u64,
    /// Strikes with no architecturally visible effect.
    pub masked: u64,
    /// Latent corrupt state at end of trial.
    pub latent: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Detectable errors.
    pub detected: u64,
    /// `(sdc + detected) / trials` with its 95% Wilson interval.
    pub sfi: SfiPoint,
}

/// How the lane-batch engine classified one target's trials: every trial
/// resolves through exactly one of `prechecked`, `batched`, `resident`,
/// `forked`, or `deduped`. Deterministic for a given campaign (a pure
/// function of the batch plan and the tail plan, both
/// worker-count-independent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneClassCounts {
    /// Resolved when the strike is decoded, without occupying a lane
    /// (`Empty`/`Benign`/`Detected`).
    pub prechecked: u64,
    /// Taint/poison strikes that rode the shared follower to a verdict.
    pub batched: u64,
    /// Resident cache/TLB strikes that rode the shared follower without
    /// forking: timing-only invalidations (clean DL1 tag, TLB entries)
    /// riding bare, poisoned DL1 words (and their escaped stale
    /// addresses) under a consumption watch, and untouched lost dirty
    /// lines.
    pub resident: u64,
    /// Scalar tails actually executed: immediate forks (a taint that
    /// feeds timing) plus watched lanes whose lost dirty line was
    /// touched (doomed fallbacks).
    pub forked: u64,
    /// Of `forked`, runs the convergence check cut short — the machine
    /// provably re-merged with the golden run before the commit target.
    pub reconverged: u64,
    /// Forking trials that shared the tail of another trial in the same
    /// executor range with the identical `(fault, cycle)` key instead
    /// of running (disjoint from `forked`).
    pub deduped: u64,
}

impl LaneClassCounts {
    fn add(&mut self, o: &LaneClassCounts) {
        self.prechecked += o.prechecked;
        self.batched += o.batched;
        self.resident += o.resident;
        self.forked += o.forked;
        self.reconverged += o.reconverged;
        self.deduped += o.deduped;
    }

    /// `(class name, count)` pairs, in report order — the names the
    /// `campaign.lane_<class>` metrics carry.
    fn by_class(&self) -> [(&'static str, u64); 6] {
        [
            ("prechecked", self.prechecked),
            ("batched", self.batched),
            ("resident", self.resident),
            ("forked", self.forked),
            ("reconverged", self.reconverged),
            ("deduped", self.deduped),
        ]
    }

    /// Trials this tally covers.
    pub fn trials(&self) -> u64 {
        self.prechecked + self.batched + self.resident + self.forked + self.deduped
    }

    /// Fraction of trials that needed a scalar run (`forked / trials`);
    /// 0 when empty.
    pub fn fork_rate(&self) -> f64 {
        let t = self.trials();
        if t == 0 {
            0.0
        } else {
            self.forked as f64 / t as f64
        }
    }

    /// Fraction of trials resolved without a scalar run
    /// (`1 - (forked / trials)`; deduped trials count as avoided runs).
    pub fn batched_fraction(&self) -> f64 {
        let t = self.trials();
        if t == 0 {
            1.0
        } else {
            1.0 - self.forked as f64 / t as f64
        }
    }
}

/// Per-target [`LaneClassCounts`] for a batched campaign, keyed in order
/// of first appearance in the (deterministic) batch plan, then tail plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneStats {
    /// `(target, counts)` pairs; every executed target appears once.
    pub per_target: Vec<(FaultTarget, LaneClassCounts)>,
}

impl LaneStats {
    fn counts_mut(&mut self, target: FaultTarget) -> &mut LaneClassCounts {
        if let Some(i) = self.per_target.iter().position(|(t, _)| *t == target) {
            return &mut self.per_target[i].1;
        }
        self.per_target.push((target, LaneClassCounts::default()));
        &mut self.per_target.last_mut().expect("just pushed").1
    }

    /// Fold another tally into this one (batch-order merges keep the
    /// key order deterministic).
    pub fn merge(&mut self, other: &LaneStats) {
        for (t, c) in &other.per_target {
            self.counts_mut(*t).add(c);
        }
    }

    /// Counts summed over all targets.
    pub fn totals(&self) -> LaneClassCounts {
        let mut all = LaneClassCounts::default();
        for (_, c) in &self.per_target {
            all.add(c);
        }
        all
    }

    /// The tally for one target, if it executed any trials.
    pub fn for_target(&self, target: FaultTarget) -> Option<&LaneClassCounts> {
        self.per_target
            .iter()
            .find(|(t, _)| *t == target)
            .map(|(_, c)| c)
    }
}

/// A completed campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Every trial, ordered by (target, trial index) — bit-identical for a
    /// given seed regardless of worker count.
    pub records: Vec<TrialRecord>,
    /// The golden measurement window `[start, end)`.
    pub window: (u64, u64),
    /// Per-structure tallies.
    pub per_target: Vec<TargetSummary>,
    /// The ACE report over the same window (see
    /// [`PreparedCampaign::ace_report`]).
    pub ace: AvfReport,
}

impl CampaignResult {
    /// The SFI estimates, one per target, for `avf_core::compare`.
    pub fn sfi_points(&self) -> Vec<SfiPoint> {
        self.per_target.iter().map(|t| t.sfi).collect()
    }
}

/// Build a fresh core and run the shared pre-measurement preamble: warm
/// up, open the measurement window, enable the commit log. Both the
/// golden pass and the replay-from-zero trial path start from exactly
/// this state, which is what makes their histories comparable. Public so
/// the campaign store can rebuild snapshot machines by deterministic
/// replay (`sim-store`'s snapshot restore path).
pub fn warmed_core<S, F>(factory: &F, budget: SimBudget) -> SmtCore<S>
where
    S: InstSource,
    F: Fn() -> SmtCore<S>,
{
    let mut core = factory();
    while core.total_committed() < budget.warmup_instructions && core.cycle() < budget.max_cycles {
        core.step_fast_bounded(budget.max_cycles);
    }
    if budget.warmup_instructions > 0 {
        core.reset_measurement();
    }
    core.enable_commit_log();
    core
}

/// Run the uninjected reference simulation: warm up, open the measurement
/// window, record the retired stream until the commit target.
pub fn run_golden<S, F>(factory: &F, budget: SimBudget) -> Result<GoldenRun, InjectError>
where
    S: InstSource,
    F: Fn() -> SmtCore<S>,
{
    run_window(warmed_core(factory, budget), budget, 0, |_, _| {}).map(|(golden, _)| golden)
}

/// The most snapshots a campaign plans, whatever
/// [`CampaignConfig::checkpoints`] asks for. Each snapshot is a full
/// machine clone (megabytes at default scale) held for the campaign's
/// life, so a spec, flag or queued job file cannot size the golden pass's
/// memory by its checkpoint count.
pub const MAX_CHECKPOINTS: usize = 64;

/// Step `core`, fresh from [`warmed_core`], through the measurement
/// window to the commit target and return the window with its retired
/// streams, plus the window's ACE report. The core steps exactly as
/// [`SmtCore::run`] does over the same budget, so the report is the one
/// an uninjected reference run of that budget produces.
///
/// With `k > 0` the pass also captures the golden machine at `k` commit
/// milestones: milestone `i` is `⌊N·i/k⌋` window commits, where
/// `N = budget.total_instructions`, and the capture follows the step that
/// first reaches it (milestone 0 is the window start, before any step).
/// At a capture the commit log moves into the golden streams and starts
/// over empty, so `capture` sees a log-free machine and its log base: how
/// many golden retirements of each thread precede it. A step that reaches
/// several milestones captures once, and a step that reaches the commit
/// target captures nothing, so every capture has its own cycle in
/// `[start, end)`.
fn run_window<S: InstSource>(
    mut core: SmtCore<S>,
    budget: SimBudget,
    k: u64,
    mut capture: impl FnMut(&SmtCore<S>, &[usize]),
) -> Result<(GoldenRun, AvfReport), InjectError> {
    let start = core.cycle();
    let base = core.total_committed();
    let target_committed = base + budget.total_instructions;
    let milestone = |i: u64| (budget.total_instructions as u128 * i as u128 / k as u128) as u64;
    let mut per_thread = vec![Vec::new(); core.config().contexts];
    let drain = |core: &mut SmtCore<S>, per_thread: &mut Vec<Vec<RetiredInst>>| {
        for r in core.take_commit_log().expect("log was enabled") {
            per_thread[r.thread as usize].push(r);
        }
    };
    let mut next = 0;
    while core.total_committed() < target_committed && core.cycle() < budget.max_cycles {
        let done = core.total_committed() - base;
        if next < k && done >= milestone(next) {
            drain(&mut core, &mut per_thread);
            core.enable_commit_log();
            let log_base: Vec<usize> = per_thread.iter().map(Vec::len).collect();
            capture(&core, &log_base);
            while next < k && done >= milestone(next) {
                next += 1;
            }
        }
        core.step_fast_bounded(budget.max_cycles);
    }
    if core.total_committed() < target_committed {
        return Err(InjectError::GoldenIncomplete {
            committed: core.total_committed(),
            target: target_committed,
        });
    }
    let end = core.cycle();
    if end <= start {
        return Err(InjectError::EmptyWindow);
    }
    drain(&mut core, &mut per_thread);
    let golden = GoldenRun {
        start,
        end,
        target_committed,
        per_thread,
    };
    Ok((golden, core.into_result().report))
}

/// The golden reference plus the machine snapshots trials restore from.
///
/// Snapshots are deep clones of the golden [`SmtCore`]: every piece of
/// behavior-relevant state (slab ROBs + ftags, IQ/LSQ, completion-event
/// heap, caches and TLBs with their ACE interval timestamps, predictors,
/// fetch-policy state, residency trackers, generator cursors) is owned by
/// the core, so a restored clone steps bit-identically to the original
/// machine. A snapshot's commit log is empty: instead of the golden
/// retirements that precede it, it records their per-thread count (its
/// log base), and a trial restored from it diffs its retirements against
/// the golden streams from that offset on.
///
/// Every snapshot is captured by the one golden pass that finds the
/// window (see [`run_golden_checkpointed`]), so a `CheckpointedGolden` is
/// complete when built and read-only after.
#[derive(Debug)]
pub struct CheckpointedGolden<S> {
    /// The golden window and retired streams trials are diffed against.
    pub golden: GoldenRun,
    /// Snapshots ascending by cycle; the first is at the window start.
    snapshots: Vec<Snapshot<S>>,
}

/// One golden snapshot: the machine with an empty commit log, and how
/// many golden retirements of each thread precede it in the window.
#[derive(Debug)]
struct Snapshot<S> {
    core: SmtCore<S>,
    log_base: Vec<usize>,
}

impl<S: InstSource> CheckpointedGolden<S> {
    /// Cycles at which snapshots were captured, sorted ascending; the
    /// first is the window start.
    pub fn checkpoint_cycles(&self) -> Vec<u64> {
        self.snapshots.iter().map(|s| s.core.cycle()).collect()
    }

    /// The `(cycle, machine)` snapshots, ascending by cycle — read-only
    /// access for fingerprinting (the campaign store digests each
    /// snapshot to fail closed on resume divergence).
    pub fn snapshots(&self) -> impl Iterator<Item = (u64, &SmtCore<S>)> {
        self.snapshots.iter().map(|s| (s.core.cycle(), &s.core))
    }

    /// Each snapshot's log base, ascending by cycle: per thread, the
    /// golden retirements of the window that precede the snapshot.
    pub fn log_bases(&self) -> impl Iterator<Item = &[usize]> {
        self.snapshots.iter().map(|s| s.log_base.as_slice())
    }

    /// The snapshot a trial injecting at `cycle` restores: the nearest
    /// checkpoint at or before `cycle`.
    fn nearest_at_or_before(&self, cycle: u64) -> &Snapshot<S> {
        let i = self.snapshots.partition_point(|s| s.core.cycle() <= cycle);
        debug_assert!(i > 0, "cycle precedes the window-start checkpoint");
        &self.snapshots[i - 1]
    }
}

/// Run the golden simulation and capture its snapshots in the same pass.
/// Returns them with the window's ACE report.
///
/// The plan is fixed before the pass, by committed instructions rather
/// than cycles: `K` is `k` clamped to `1..=`[`MAX_CHECKPOINTS`] and to
/// the budget's `N = total_instructions`, and snapshot `i` is taken right
/// after the step that first brings the window's commit count to at
/// least `⌊N·i/K⌋`. Snapshot 0 is therefore the window start (so no trial
/// ever replays warm-up), no two snapshots share a cycle, and none sits
/// at or after the window end; a step that crosses several milestones
/// yields one snapshot, so there may be fewer than `K`.
///
/// Warm-up runs once, then one core steps the window once: it discovers
/// `[start, end)`, records the retired streams, clones each snapshot as
/// it passes, and is finalized into the window's ACE report.
pub fn run_golden_checkpointed<S, F>(
    factory: &F,
    budget: SimBudget,
    k: usize,
) -> Result<(CheckpointedGolden<S>, AvfReport), InjectError>
where
    S: InstSource + Clone,
    F: Fn() -> SmtCore<S>,
{
    let k = (k.clamp(1, MAX_CHECKPOINTS) as u64).min(budget.total_instructions.max(1));
    let mut snapshots = Vec::with_capacity(k as usize);
    let (golden, ace) = run_window(warmed_core(factory, budget), budget, k, |core, log_base| {
        snapshots.push(Snapshot {
            core: core.clone(),
            log_base: log_base.to_vec(),
        })
    })?;
    Ok((CheckpointedGolden { golden, snapshots }, ace))
}

/// Replay the simulation from cycle 0 to `inject_cycle`, apply `fault`,
/// run to the golden commit target, classify. The injection cycle must lie
/// inside the golden window `[start, end)`; anything else — in particular
/// a cycle at or past the simulation's end — is rejected with
/// [`InjectError::CycleOutOfRange`].
///
/// This is the oracle path: [`run_trial_checkpointed`] produces identical
/// outcomes at a fraction of the replay cost.
pub fn run_trial<S, F>(
    factory: &F,
    budget: SimBudget,
    golden: &GoldenRun,
    fault: Fault,
    inject_cycle: u64,
    hang_cycles: u64,
) -> Result<(Landing, Outcome), InjectError>
where
    S: InstSource,
    F: Fn() -> SmtCore<S>,
{
    check_window(golden, inject_cycle)?;
    let core = warmed_core(factory, budget);
    let log_base = vec![0; golden.per_thread.len()];
    let t = finish_trial(core, golden, &log_base, fault, inject_cycle, hang_cycles);
    Ok((t.landing, t.outcome))
}

/// Restore the nearest checkpoint at or before `inject_cycle`, step only
/// the delta, apply `fault`, run to the golden commit target, classify.
/// Outcome-identical to [`run_trial`] (the equivalence tests assert this);
/// replay cost drops from `warmup + (inject_cycle − start)` to the cycles
/// since the nearest earlier snapshot (about `window / K` when commits
/// are steady) plus one machine clone.
pub fn run_trial_checkpointed<S>(
    checkpointed: &CheckpointedGolden<S>,
    fault: Fault,
    inject_cycle: u64,
    hang_cycles: u64,
) -> Result<(Landing, Outcome), InjectError>
where
    S: InstSource + Clone,
{
    check_window(&checkpointed.golden, inject_cycle)?;
    let snap = checkpointed.nearest_at_or_before(inject_cycle);
    let t = finish_trial(
        snap.core.clone(),
        &checkpointed.golden,
        &snap.log_base,
        fault,
        inject_cycle,
        hang_cycles,
    );
    Ok((t.landing, t.outcome))
}

fn check_window(golden: &GoldenRun, inject_cycle: u64) -> Result<(), InjectError> {
    if inject_cycle < golden.start || inject_cycle >= golden.end {
        return Err(InjectError::CycleOutOfRange {
            cycle: inject_cycle,
            start: golden.start,
            end: golden.end,
        });
    }
    Ok(())
}

/// The full account of one trial. The public trial functions expose only
/// `(landing, outcome)` — the equivalence contract between the
/// checkpointed and oracle paths is over those — while the campaign runner
/// also consumes the metrics flags. `early_exit` *is* path-identical (the
/// convergence check schedule starts at the injection cycle in both
/// paths); it lives here rather than in `Outcome` because it describes how
/// the verdict was reached, not what it is.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TrialRun {
    landing: Landing,
    outcome: Outcome,
    /// The convergence check proved the machine masked before the commit
    /// target was reached.
    early_exit: bool,
}

/// Shared trial tail: step `core` (already past warmup, at or before the
/// injection cycle, commit log running) to `inject_cycle`, flip the bit,
/// run out the trial and classify it. `log_base[t]` counts thread `t`'s
/// golden retirements before `core`'s commit log began: the trial's
/// retirements are diffed against the golden streams from there on.
fn finish_trial<S: InstSource>(
    mut core: SmtCore<S>,
    golden: &GoldenRun,
    log_base: &[usize],
    fault: Fault,
    inject_cycle: u64,
    hang_cycles: u64,
) -> TrialRun {
    // Bounding every fast step by the injection cycle makes the strike
    // land on exactly the cycle a cycle-by-cycle run would have injected.
    while core.cycle() < inject_cycle {
        core.step_fast_bounded(inject_cycle);
    }
    let landing = core.inject_fault(&fault);
    let outcome = match landing {
        // Masked by emptiness / architectural idleness: the trial would
        // retire the golden stream by construction.
        Landing::Empty | Landing::Benign => Outcome::Masked,
        Landing::Detected => Outcome::Detected,
        Landing::Injected => {
            // Corruption is in flight: run to the same commit target. An
            // injected fault may also wedge the scheduler, so bound the run
            // with a hang watchdog and a cycle cap. Convergence checks
            // (geometrically backed off, so their total cost is a handful
            // of scans) cut the run short once the machine is provably
            // masked again.
            let cycle_cap = golden.end * 2 + hang_cycles;
            let mut hung = false;
            // The convergence-check schedule is anchored at the injection
            // cycle: checks fire at inject + 256, then geometrically
            // backed off, clamped so the clock lands on each check cycle
            // exactly. A caller may hand in a core already *past* the
            // injection cycle (a lane-doomed fork resuming from a later
            // snapshot, valid only when every skipped check provably saw
            // residual corruption and declined to exit); replaying the
            // deterministic schedule to the core's cycle re-seeds the
            // state those fired checks would have left behind.
            let mut check_step = CONVERGENCE_CHECK_START;
            let mut next_check = inject_cycle + check_step;
            while next_check <= core.cycle() {
                check_step = (check_step * 2).min(CONVERGENCE_CHECK_MAX);
                next_check += check_step;
            }
            while core.total_committed() < golden.target_committed {
                if core.cycle() >= cycle_cap || core.cycles_since_last_commit() > hang_cycles {
                    hung = true;
                    break;
                }
                if core.cycle() >= next_check {
                    check_step = (check_step * 2).min(CONVERGENCE_CHECK_MAX);
                    next_check = core.cycle() + check_step;
                    if converged_back_to_golden(&core, golden, log_base) {
                        return TrialRun {
                            landing,
                            outcome: Outcome::Masked,
                            early_exit: true,
                        };
                    }
                }
                // A clock jump must not overshoot any externally scheduled
                // cycle: the hang verdict fires at last_commit +
                // hang_cycles + 1, the cycle cap at cycle_cap, and the
                // next convergence check at next_check — clamping to the
                // earliest keeps all three on their exact oracle cycles.
                let last_commit = core.cycle() - core.cycles_since_last_commit();
                let bound = cycle_cap.min(last_commit + hang_cycles + 1).min(next_check);
                core.step_fast_bounded(bound);
            }
            classify_completed_trial(&mut core, golden, log_base, hung)
        }
    };
    TrialRun {
        landing,
        outcome,
        early_exit: false,
    }
}

/// First convergence check after injection, in cycles; the interval
/// doubles after every check up to [`CONVERGENCE_CHECK_MAX`].
const CONVERGENCE_CHECK_START: u64 = 256;
const CONVERGENCE_CHECK_MAX: u64 = 8_192;

/// Is the trial machine provably back on the golden path? True when no
/// corrupt state survives anywhere (no poisoned registers or memory words,
/// no tainted in-flight instruction, nothing retired corrupt) and every
/// thread's retired stream since its log base is a prefix of the golden
/// stream from that base.
///
/// Values in the model flow only through the explicit taint/poison state,
/// and [`RetiredInst`] carries no timing fields, so a clean machine whose
/// streams still match golden can never diverge later: its remaining
/// retirement is architecturally identical to golden's and the final
/// classification would be [`Outcome::Masked`]. Checking mid-run merely
/// reaches that verdict early — the classification itself is unchanged,
/// which is why both the checkpointed and the replay-from-zero oracle
/// path share this tail.
fn converged_back_to_golden<S: InstSource>(
    core: &SmtCore<S>,
    golden: &GoldenRun,
    log_base: &[usize],
) -> bool {
    if core.corrupt_retired() > 0 || core.residual_corruption() {
        return false;
    }
    let log = core.commit_log().expect("log was enabled");
    let mut pos = log_base.to_vec();
    for r in log {
        let t = r.thread as usize;
        let gold = &golden.per_thread[t];
        if pos[t] >= gold.len() || gold[pos[t]] != *r {
            return false;
        }
        pos[t] += 1;
    }
    true
}

fn classify_completed_trial<S: InstSource>(
    core: &mut SmtCore<S>,
    golden: &GoldenRun,
    log_base: &[usize],
    hung: bool,
) -> Outcome {
    if hung {
        return Outcome::Detected; // never completed: detectable by timeout
    }
    if core.corrupt_retired() > 0 {
        return Outcome::Sdc;
    }
    // Diff the retired streams per thread. Commit is in-order per thread,
    // so a timing-only perturbation yields identical per-thread prefixes;
    // any field mismatch is architectural divergence.
    let log = core.take_commit_log().expect("log was enabled");
    let mut per_thread = vec![Vec::new(); golden.per_thread.len()];
    for r in log {
        per_thread[r.thread as usize].push(r);
    }
    for ((trial, gold), &base) in per_thread.iter().zip(&golden.per_thread).zip(log_base) {
        let gold = &gold[base..];
        let n = trial.len().min(gold.len());
        if trial[..n] != gold[..n] {
            return Outcome::Sdc;
        }
    }
    if core.residual_corruption() {
        return Outcome::Latent;
    }
    Outcome::Masked
}

/// The per-trial RNG: mixes the campaign seed with the global trial index
/// so the sample depends on `(seed, index)` only — never on scheduling.
fn trial_rng(seed: u64, index: usize) -> SimRng {
    let mut s = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    SimRng::seed_from_u64(splitmix64(&mut s))
}

/// The fault one trial injects and when: a pure function of the campaign
/// seed, the global trial index and the golden window — never of
/// scheduling, sharding, or which process samples it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledTrial {
    /// The struck structure.
    pub target: FaultTarget,
    /// The sampled strike.
    pub fault: Fault,
    /// The sampled injection cycle.
    pub cycle: u64,
}

/// One executed trial: the record that enters the result-equality
/// contract, plus the runner diagnostics that ride alongside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialExec {
    /// The completed trial.
    pub record: TrialRecord,
    /// The convergence check cut the run short (provably masked).
    pub early_exit: bool,
    /// Cycles stepped from the restored snapshot to the injection point;
    /// `None` on the replay-from-zero oracle path.
    pub restore_distance: Option<u64>,
}

/// Wrap `factory` so every core it builds inherits the trial path's
/// fast-forward setting.
fn configured_factory<S, F>(factory: &F, path: TrialPath) -> impl Fn() -> SmtCore<S> + '_
where
    S: InstSource,
    F: Fn() -> SmtCore<S>,
{
    move || {
        let mut core = factory();
        core.set_fast_forward(path.fast_forward());
        core
    }
}

/// A campaign whose golden state has been externalized: the golden
/// reference (checkpointed unless the oracle path was requested), the
/// machine configuration, the sampling spaces, and the golden window's
/// ACE report. Every trial is a pure
/// function of this prepared state and its global index, so any subset —
/// a chunk, a worker process's shard, the unfinished remainder of a
/// crashed run — can execute anywhere, in any order, and merge by index
/// into the same bytes. The campaign store and the `sim-serve` job server
/// are built on exactly this property.
#[derive(Debug)]
pub struct PreparedCampaign<S> {
    cfg: CampaignConfig,
    machine: MachineConfig,
    checkpointed: Option<CheckpointedGolden<S>>,
    plain_golden: Option<GoldenRun>,
    ace: AvfReport,
}

impl<S: InstSource + Clone> PreparedCampaign<S> {
    /// Validate `cfg` and run the golden pass: checkpointed, or plain on
    /// [`TrialPath::ReplayFromZero`]. Returns with every snapshot
    /// captured; no golden core steps after this.
    pub fn prepare<F>(factory: &F, cfg: &CampaignConfig) -> Result<PreparedCampaign<S>, InjectError>
    where
        F: Fn() -> SmtCore<S>,
    {
        if cfg.targets.is_empty() {
            return Err(InjectError::NoTargets);
        }
        if cfg.trials_per_structure == 0 {
            return Err(InjectError::ZeroTrials);
        }
        let factory = configured_factory(factory, cfg.path);
        let (checkpointed, plain_golden, ace) = match cfg.path {
            TrialPath::ReplayFromZero => {
                let core = warmed_core(&factory, cfg.budget);
                let (golden, ace) = run_window(core, cfg.budget, 0, |_, _| {})?;
                (None, Some(golden), ace)
            }
            _ => {
                let (c, ace) = run_golden_checkpointed(&factory, cfg.budget, cfg.checkpoints)?;
                (Some(c), None, ace)
            }
        };
        let machine = factory().config().clone();
        Ok(PreparedCampaign {
            cfg: cfg.clone(),
            machine,
            checkpointed,
            plain_golden,
            ace,
        })
    }

    /// The campaign configuration this state was prepared for.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// The machine configuration the cores were built with.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The golden reference run.
    pub fn golden(&self) -> &GoldenRun {
        self.checkpointed
            .as_ref()
            .map(|c| &c.golden)
            .or(self.plain_golden.as_ref())
            .expect("one golden path ran")
    }

    /// The ACE report of the golden measurement window: the report an
    /// uninjected reference run of the campaign's budget produces, so the
    /// SFI-vs-ACE comparison needs no second simulation.
    pub fn ace_report(&self) -> &AvfReport {
        &self.ace
    }

    /// Total trials across all targets (`targets × trials_per_structure`).
    pub fn total_trials(&self) -> usize {
        self.cfg.targets.len() * self.cfg.trials_per_structure
    }

    /// The checkpointed golden state; `None` on the oracle path.
    pub fn checkpointed_golden(&self) -> Option<&CheckpointedGolden<S>> {
        self.checkpointed.as_ref()
    }

    /// Sample trial `index`'s fault and injection cycle.
    ///
    /// # Panics
    /// Panics if `index >= total_trials()`.
    pub fn sample(&self, index: usize) -> SampledTrial {
        let golden = self.golden();
        let target = self.cfg.targets[index / self.cfg.trials_per_structure];
        let mut rng = trial_rng(self.cfg.seed, index);
        let entry = rng.range_u64(0, target_entries(target, &self.machine));
        let bit = rng.range_u64(0, target_bits(target, &self.machine));
        let cycle = rng.range_u64(golden.start, golden.end);
        SampledTrial {
            target,
            fault: Fault { target, entry, bit },
            cycle,
        }
    }

    /// Cycles a trial injecting at `cycle` re-steps from its restored
    /// snapshot — a pure function of the checkpoint schedule, so it can be
    /// recomputed without re-running the trial. `None` on the oracle path.
    pub fn restore_distance(&self, cycle: u64) -> Option<u64> {
        self.checkpointed
            .as_ref()
            .map(|c| cycle - c.nearest_at_or_before(cycle).core.cycle())
    }

    /// Execute trial `index`: restore/replay, inject, run out, classify.
    /// `factory` is only consulted on [`TrialPath::ReplayFromZero`]
    /// (checkpointed trials clone a snapshot instead).
    pub fn run_index<F>(&self, factory: &F, index: usize) -> TrialExec
    where
        F: Fn() -> SmtCore<S>,
    {
        let s = self.sample(index);
        self.exec(index, &s, self.tail_run(factory, &s, s.cycle))
    }

    /// The one scalar trial tail: restore the snapshot nearest at or
    /// before `restore` (replay from zero on the oracle path), then inject
    /// `s` and run it out. `restore` is the injection cycle except for a
    /// doomed lost-dirty-line lane, which may restore later (DESIGN §5j).
    fn tail_run<F>(&self, factory: &F, s: &SampledTrial, restore: u64) -> TrialRun
    where
        F: Fn() -> SmtCore<S>,
    {
        let hang_cycles = self.cfg.hang_cycles;
        let (core, golden, log_base) = match &self.checkpointed {
            Some(c) => {
                let snap = c.nearest_at_or_before(restore);
                (snap.core.clone(), &c.golden, snap.log_base.clone())
            }
            None => {
                let factory = configured_factory(factory, self.cfg.path);
                let golden = self.golden();
                let core = warmed_core(&factory, self.cfg.budget);
                (core, golden, vec![0; golden.per_thread.len()])
            }
        };
        finish_trial(core, golden, &log_base, s.fault, s.cycle, hang_cycles)
    }

    /// Trial `index`'s exec, given its sample and how it ran.
    fn exec(&self, index: usize, s: &SampledTrial, run: TrialRun) -> TrialExec {
        TrialExec {
            record: TrialRecord {
                target: s.target,
                trial: index % self.cfg.trials_per_structure,
                entry: s.fault.entry,
                bit: s.fault.bit,
                cycle: s.cycle,
                landing: run.landing,
                outcome: run.outcome,
            },
            early_exit: run.early_exit,
            restore_distance: self.restore_distance(s.cycle),
        }
    }
}

/// Group the trials `indices` into lane batches: one global order by
/// `(injection cycle, index)`, chunked into groups of at most `lanes` — a
/// batch's follower visits each lane's injection cycle in nondecreasing
/// order. A pure function of the prepared state and the index set, so the
/// batch plan (and with it every record) is identical for any worker
/// count.
fn plan_batches<S: InstSource + Clone>(
    prepared: &PreparedCampaign<S>,
    indices: &[usize],
    lanes: usize,
) -> Vec<Vec<usize>> {
    // One global cycle order, chunked to the lane width. Batches
    // deliberately span snapshot intervals: the follower restores at its
    // first trial's snapshot and injects each later trial when the clock
    // arrives, so a single shared replay serves every interval it passes
    // through. Splitting at interval boundaries (the previous plan) made
    // each group replay its own tail to the commit target — latent
    // riders hold the follower there — which multiplied the shared
    // stepping bill by the number of occupied intervals. Batches span
    // the ranges of a multi-range call for the same reason.
    debug_assert!(
        prepared.checkpointed.is_some(),
        "batched planning requires the checkpointed golden path"
    );
    let mut order: Vec<(u64, usize)> = indices
        .iter()
        .map(|&i| (prepared.sample(i).cycle, i))
        .collect();
    order.sort_unstable();
    order
        .chunks(lanes)
        .map(|chunk| chunk.iter().map(|&(_, i)| i).collect())
        .collect()
}

/// A trial riding the shared follower: its lane plus the scalar trial
/// loop's convergence-check schedule (per rider, exactly as
/// [`finish_trial`] keeps it per core).
struct Rider {
    lane: usize,
    check_step: u64,
    next_check: u64,
}

/// A forking trial deferred to the tail phase: its global index and the
/// cycle whose nearest snapshot its scalar tail restores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tail {
    index: usize,
    restore: u64,
}

/// One scalar tail to run, plus the trials that share its result.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TailJob {
    /// The lowest-indexed trial with this key, and the restore cycle
    /// the job uses.
    tail: Tail,
    /// The struck structure (the key's, so every sharer's too).
    target: FaultTarget,
    /// Global indices of the other trials with the same key.
    dups: Vec<usize>,
}

/// Deduplicate and order a trial range's deferred tails. Two trials with
/// the same `(fault, cycle)` key produce the same [`TrialRun`]: they
/// inject the same bit at the same cycle into the same golden machine,
/// and every valid restore point of one is valid for the other (an
/// immediate fork restores at the injection cycle; a doomed
/// lost-dirty-line lane's pre-step cycle precedes the first touch, which
/// is a property of the golden run, not of the batch). So each key runs
/// once, from the latest restore cycle any of its trials recorded, and
/// its other trials share the result. Jobs run in ascending restore
/// cycle — the longest tails start first. The plan depends only on the
/// set of tails, never on their order.
fn plan_tails(mut tails: Vec<Tail>, key: impl Fn(usize) -> (Fault, u64)) -> Vec<TailJob> {
    tails.sort_unstable_by_key(|t| t.index);
    let mut jobs: Vec<TailJob> = Vec::new();
    let mut job_of: HashMap<(Fault, u64), usize> = HashMap::new();
    for t in tails {
        let (fault, cycle) = key(t.index);
        match job_of.entry((fault, cycle)) {
            Entry::Occupied(e) => {
                let job = &mut jobs[*e.get()];
                job.tail.restore = job.tail.restore.max(t.restore);
                job.dups.push(t.index);
            }
            Entry::Vacant(e) => {
                e.insert(jobs.len());
                jobs.push(TailJob {
                    tail: t,
                    target: fault.target,
                    dups: Vec::new(),
                });
            }
        }
    }
    jobs.sort_unstable_by_key(|j| (j.tail.restore, j.tail.index));
    jobs
}

/// Hand each job's run to its trial and every sharer, in job order, and
/// tally it: one `forked` (plus `reconverged` on an early exit) per job,
/// one `deduped` per sharer.
fn fold_tails(jobs: &[TailJob], runs: &[TrialRun]) -> (Vec<(usize, TrialRun)>, LaneStats) {
    let mut resolved = Vec::new();
    let mut stats = LaneStats::default();
    for (job, &run) in jobs.iter().zip(runs) {
        let c = stats.counts_mut(job.target);
        c.forked += 1;
        c.reconverged += u64::from(run.early_exit);
        c.deduped += job.dups.len() as u64;
        resolved.push((job.tail.index, run));
        resolved.extend(job.dups.iter().map(|&i| (i, run)));
    }
    (resolved, stats)
}

/// Execute one lane batch: restore the shared snapshot once, step the
/// follower through the golden timing, and resolve every lane — metadata
/// strikes ride the follower's lane masks, resident cache/TLB strikes
/// ride bare (timing-only) or under a DL1 watch (poisoned word, its
/// escaped stale address, or a lost dirty line), everything else forks:
/// it comes back as a deferred [`Tail`] for the scalar tail phase.
/// Returns the lanes resolved in-batch as `(global index, exec)` pairs,
/// the in-batch tally, and the tails.
///
/// Equivalence with the scalar path, lane by lane:
/// * the follower's clock is bounded by every rider's externally
///   scheduled cycles (injection, hang verdict, convergence checks), and
///   `step_fast_bounded` histories are bound-sequence-independent, so
///   each rider observes its verdict conditions on exactly the cycles its
///   scalar trial would stop on — extra stops for *other* riders are
///   harmless because every condition is a function of the cycle;
/// * a riding lane's timing is the golden timing (taint/poison is pure
///   metadata), so its retired stream equals the golden stream whenever
///   its corrupt count is zero — the scalar per-thread prefix diff can
///   never fire for it, and the scalar convergence predicate reduces to
///   [`LaneBatch::lane_clean`];
/// * a timing-only resident lane (clean DL1 tag, any TLB entry) retires
///   the golden stream from cycle zero — identity-mapped translation and
///   clean-line refills leave no architectural residue and the scalar
///   trial records no fault state for them — so its scalar run passes
///   the first convergence check unconditionally, exactly as the bare
///   lane (all-zero masks, no watch) does;
/// * a word-watched lane converts each demand read of the poisoned word
///   into slot taint — the scalar machine's only response — and stays on
///   the golden timing throughout; [`LaneBatch::residual`] carries the
///   still-poisoned word into the same convergence/latent classification
///   the scalar path uses. A dirty eviction moves the watch to the
///   word's *address* (mirroring the scalar `stale_words` set, including
///   re-poisoning refills), so even escaped poison keeps riding;
/// * a lost-dirty-line lane (tag strike on a dirty line) rides while the
///   golden run leaves the line and its set untouched — the struck
///   machine's timing is identical until then, and its stale words make
///   it permanently residual (Latent, no early exit), exactly like the
///   scalar trial. The first touch dooms the lane, which re-runs as a
///   full scalar trial from a snapshot — exact by construction, merely
///   slower;
/// * a forked lane's tail is the scalar trial itself: the follower at
///   the injection cycle is bit-identical to a scalar restore of the same
///   snapshot stepped to that cycle, so the decode it forked on is the
///   one the tail's injection sees.
fn run_one_batch<S: InstSource + Clone>(
    prepared: &PreparedCampaign<S>,
    indices: &[usize],
) -> (Vec<(usize, TrialExec)>, LaneStats, Vec<Tail>) {
    let ckpt = prepared
        .checkpointed
        .as_ref()
        .expect("batched execution requires the checkpointed golden path");
    let golden = &ckpt.golden;
    let hang_cycles = prepared.cfg.hang_cycles;
    let cycle_cap = golden.end * 2 + hang_cycles;
    let samples: Vec<SampledTrial> = indices.iter().map(|&i| prepared.sample(i)).collect();

    let follower = ckpt.nearest_at_or_before(samples[0].cycle).core.clone();
    let mut batch = LaneBatch::new(follower, indices.len());
    let mut out: Vec<Option<TrialExec>> = vec![None; indices.len()];
    let mut riders: Vec<Rider> = Vec::new();
    let mut pending = 0usize;
    let mut stats = LaneStats::default();
    // Lane k rides under a consumption-feed watch (vs. taint/poison masks).
    let mut was_resident = vec![false; indices.len()];
    // Lane k rides a lost dirty line: if doomed, its tail may restore a
    // snapshot *past* the injection cycle (see the take_doomed loop).
    let mut dirty_line = vec![false; indices.len()];
    let mut tails: Vec<Tail> = Vec::new();

    let make_exec = |k: usize, landing: Landing, outcome: Outcome, early_exit: bool| {
        let run = TrialRun {
            landing,
            outcome,
            early_exit,
        };
        prepared.exec(indices[k], &samples[k], run)
    };

    loop {
        // Inject every trial whose cycle has arrived. The step bound never
        // overshoots a pending injection cycle, so the follower sits on
        // exactly the cycle a scalar trial would inject at, and decodes
        // observe exactly the scalar pre-injection state (decoding and
        // lane activation never mutate the follower's timing state).
        while pending < samples.len() && batch.cycle() >= samples[pending].cycle {
            debug_assert_eq!(batch.cycle(), samples[pending].cycle);
            let k = pending;
            pending += 1;
            let strike = batch.follower().decode_fault(&samples[k].fault);
            match strike {
                Strike::Empty | Strike::Benign => {
                    stats.counts_mut(samples[k].target).prechecked += 1;
                    out[k] = Some(make_exec(k, strike.landing(), Outcome::Masked, false));
                }
                Strike::Detected => {
                    stats.counts_mut(samples[k].target).prechecked += 1;
                    out[k] = Some(make_exec(k, Landing::Detected, Outcome::Detected, false));
                }
                Strike::Taint {
                    feeds_timing: false,
                    ..
                }
                | Strike::PoisonReg { .. }
                | Strike::Dl1Word { .. }
                | Strike::Dl1Line { .. }
                | Strike::Tlb { .. } => {
                    was_resident[k] = matches!(
                        strike,
                        Strike::Dl1Word { .. } | Strike::Dl1Line { .. } | Strike::Tlb { .. }
                    );
                    dirty_line[k] = matches!(strike, Strike::Dl1Line { dirty: true, .. });
                    batch.activate(k, strike);
                    riders.push(Rider {
                        lane: k,
                        check_step: CONVERGENCE_CHECK_START,
                        next_check: batch.cycle() + CONVERGENCE_CHECK_START,
                    });
                }
                Strike::Taint {
                    feeds_timing: true, ..
                } => {
                    // Fork: defer to a scalar tail that restores at the
                    // injection cycle and injects for real.
                    tails.push(Tail {
                        index: indices[k],
                        restore: samples[k].cycle,
                    });
                }
            }
        }

        // The follower reached the commit target: the scalar loop exits
        // here without further hang/convergence checks, so finalize every
        // remaining rider by the completed-trial classification.
        if batch.total_committed() >= golden.target_committed {
            for r in riders.drain(..) {
                let outcome = if batch.corrupt(r.lane) > 0 {
                    Outcome::Sdc
                } else if batch.residual(r.lane) {
                    Outcome::Latent
                } else {
                    Outcome::Masked
                };
                let c = stats.counts_mut(samples[r.lane].target);
                if was_resident[r.lane] {
                    c.resident += 1;
                } else {
                    c.batched += 1;
                }
                out[r.lane] = Some(make_exec(r.lane, Landing::Injected, outcome, false));
            }
            break;
        }

        // Per-rider verdict checks at this stop cycle, in the scalar
        // trial loop's order: hang watchdog first, then the convergence
        // early-exit when this rider's check cycle has arrived.
        let now = batch.cycle();
        let gap = batch.cycles_since_last_commit();
        riders.retain_mut(|r| {
            let resolve = |batch: &mut LaneBatch<S>, stats: &mut LaneStats| {
                batch.clear_watch(r.lane);
                let c = stats.counts_mut(samples[r.lane].target);
                if was_resident[r.lane] {
                    c.resident += 1;
                } else {
                    c.batched += 1;
                }
            };
            if now >= cycle_cap || gap > hang_cycles {
                resolve(&mut batch, &mut stats);
                out[r.lane] = Some(make_exec(
                    r.lane,
                    Landing::Injected,
                    Outcome::Detected,
                    false,
                ));
                return false;
            }
            if now >= r.next_check {
                r.check_step = (r.check_step * 2).min(CONVERGENCE_CHECK_MAX);
                r.next_check = now + r.check_step;
                if batch.lane_clean(r.lane) {
                    resolve(&mut batch, &mut stats);
                    out[r.lane] = Some(make_exec(r.lane, Landing::Injected, Outcome::Masked, true));
                    return false;
                }
            }
            true
        });
        if riders.is_empty() && pending >= samples.len() {
            break; // every lane resolved; nothing left to ride for
        }
        if riders.is_empty() {
            // Converged riders leave all-zero masks behind; drop the
            // event feed until the next injection arms it again.
            batch.disarm_if_idle();
        }

        // Clamp the next clock advance to the earliest externally
        // scheduled cycle of any unresolved trial (same rule as the
        // scalar loop, over all riders at once).
        let last_commit = now - gap;
        let mut bound = cycle_cap.min(last_commit + hang_cycles + 1);
        if pending < samples.len() {
            bound = bound.min(samples[pending].cycle);
        }
        for r in &riders {
            bound = bound.min(r.next_check);
        }
        batch.step_bounded(bound, golden.target_committed);

        // Resolve consumed watches *before* the loop head can classify
        // their lanes as completed riders: an event inside the step that
        // reached the commit target still belongs to both histories, and
        // a doomed lane's verdict must come from its own scalar run.
        //
        // A doomed *lost-dirty-line* lane's tail restores the snapshot
        // nearest the pre-step cycle `now`, not the injection cycle: until
        // its first touch (the doom, strictly after `now`) the struck
        // machine is the golden machine minus one valid line, and
        // injecting the same fault into the golden snapshot re-creates
        // that exact delta — the line is untouched, so its tag, dirty bit
        // and spilled stale words are the ones the original strike took,
        // and no stale word can have healed (the healing store would have
        // hit the line and doomed first). Every convergence check between
        // the injection cycle and `now` saw those residual stale words
        // and declined to exit, which is what lets `finish_trial` re-seed
        // the check schedule past them. Other doom sources (none today)
        // must keep restoring at the injection cycle unless they prove
        // the same re-injection property.
        let mut doomed = batch.take_doomed();
        while doomed != 0 {
            let lane = doomed.trailing_zeros() as usize;
            doomed &= doomed - 1;
            riders.retain(|r| r.lane != lane);
            tails.push(Tail {
                index: indices[lane],
                restore: if dirty_line[lane] {
                    now
                } else {
                    samples[lane].cycle
                },
            });
        }
    }

    let resolved: Vec<(usize, TrialExec)> = indices
        .iter()
        .zip(out)
        .filter_map(|(&i, exec)| Some((i, exec?)))
        .collect();
    debug_assert_eq!(resolved.len() + tails.len(), indices.len());
    (resolved, stats, tails)
}

/// Execute the trials in `ranges` on the prepared campaign's
/// [`TrialPath`], returning execs in the ranges' order (each range in
/// ascending index) plus the worker pool's scheduling stats and the lane
/// engine's per-target classification tally. The ranges must ascend and
/// must not overlap; they may leave holes, the shape a resume's missing
/// chunks take. Every path gives the same records for any set of ranges
/// and at any worker count, because trial `i` depends only on the
/// prepared state and `i`, and results scatter by global index. The
/// batched path plans lane batches over the union of the ranges, so one
/// follower walk can carry trials of several ranges; it runs two pool
/// phases over the same workers: phase 1 runs the lane batches, one job
/// each; phase 2 runs the forked trials' scalar tails, one job per
/// distinct `(fault, cycle)` key ([`plan_tails`]), so a batch's forks
/// never run serially behind one worker. Every other path runs one trial
/// per job. The pool stats sum both phases per worker. The tally is
/// `None` off the batched path (or for an empty set); otherwise it is
/// deterministic — batches merge in plan order and tails in job order,
/// neither of which a worker count can reshuffle. How the trials split
/// into ranges can move trials between lane classes' diagnostics (a
/// `deduped` tail shares a key across ranges), never a record.
///
/// This is the one producer of campaign diagnostics: when
/// [`metrics::enabled`], each call publishes its tallies into
/// [`metrics::global`] (see [`render_metrics`] for the names).
///
/// # Panics
/// Panics if the ranges overlap or do not ascend, or reach past
/// [`PreparedCampaign::total_trials`].
pub fn run_trials<S, F>(
    prepared: &PreparedCampaign<S>,
    factory: &F,
    ranges: &[Range<usize>],
    workers: usize,
) -> (Vec<TrialExec>, sim_exec::PoolStats, Option<LaneStats>)
where
    S: InstSource + Clone + Sync,
    F: Fn() -> SmtCore<S> + Sync,
{
    let indices: Vec<usize> = ranges.iter().cloned().flatten().collect();
    assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "trial ranges must ascend and must not overlap"
    );
    // Position of trial `i` in the returned execs.
    let slot = |i: usize| indices.binary_search(&i).expect("a trial of the ranges");
    let len = indices.len();

    // Heartbeat bookkeeping (stderr only; results are unaffected).
    let t0 = std::time::Instant::now();
    let completed = std::sync::atomic::AtomicU64::new(0);
    let heartbeat_stride = (len as u64 / 20).max(1);
    let path = prepared.cfg.path;
    let heartbeat = |n: u64| {
        if !prepared.cfg.progress {
            return;
        }
        let done = completed.fetch_add(n, std::sync::atomic::Ordering::Relaxed) + n;
        if done / heartbeat_stride != (done - n) / heartbeat_stride || done == len as u64 {
            let secs = t0.elapsed().as_secs_f64();
            let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
            eprintln!("[sfi] {done}/{len} trials ({rate:.1}/s, {path:?})");
        }
    };

    let (execs, pool, lane_stats) = match path.lanes() {
        Some(lanes) if len > 0 => {
            let batches = plan_batches(prepared, &indices, lanes);
            let (per_batch, mut pool) = sim_exec::run_indexed_stats(batches.len(), workers, |b| {
                let batch = run_one_batch(prepared, &batches[b]);
                heartbeat(batch.0.len() as u64);
                batch
            });
            let mut out: Vec<Option<TrialExec>> = vec![None; len];
            let mut lane_stats = LaneStats::default();
            let mut tails = Vec::new();
            for (resolved, batch_stats, batch_tails) in per_batch {
                lane_stats.merge(&batch_stats);
                tails.extend(batch_tails);
                for (i, exec) in resolved {
                    out[slot(i)] = Some(exec);
                }
            }

            let jobs = plan_tails(tails, |i| {
                let s = prepared.sample(i);
                (s.fault, s.cycle)
            });
            let (runs, tail_pool) = sim_exec::run_indexed_stats(jobs.len(), workers, |j| {
                let job = &jobs[j];
                let s = prepared.sample(job.tail.index);
                let run = prepared.tail_run(factory, &s, job.tail.restore);
                heartbeat(1 + job.dups.len() as u64);
                run
            });
            pool.merge(&tail_pool);
            let (resolved, tail_stats) = fold_tails(&jobs, &runs);
            lane_stats.merge(&tail_stats);
            for (i, run) in resolved {
                out[slot(i)] = Some(prepared.exec(i, &prepared.sample(i), run));
            }
            let execs = out
                .into_iter()
                .map(|o| o.expect("batches and tails tile the trial set"))
                .collect();
            (execs, pool, Some(lane_stats))
        }
        _ => {
            let (execs, pool) = sim_exec::run_indexed_stats(len, workers, |k| {
                let exec = prepared.run_index(factory, indices[k]);
                heartbeat(1);
                exec
            });
            (execs, pool, None)
        }
    };
    if metrics::enabled() {
        publish_metrics(
            metrics::global(),
            &execs,
            &pool,
            lane_stats.as_ref(),
            metrics::micros_since(t0),
        );
    }
    (execs, pool, lane_stats)
}

/// [`run_trials`] over the one range `[start, start + len)`.
pub fn run_trials_batched_full<S, F>(
    prepared: &PreparedCampaign<S>,
    factory: &F,
    start: usize,
    len: usize,
    workers: usize,
) -> (Vec<TrialExec>, sim_exec::PoolStats, Option<LaneStats>)
where
    S: InstSource + Clone + Sync,
    F: Fn() -> SmtCore<S> + Sync,
{
    run_trials(
        prepared,
        factory,
        std::slice::from_ref(&(start..start + len)),
        workers,
    )
}

/// Fold one executor call into `registry`. Counters accumulate across
/// calls (chunks, campaigns); the `workers` gauge holds the latest call's
/// pool width; each call adds one `trial_phase_us` sample and one
/// `restore_distance_cycles` sample per restored trial. Diagnostics only:
/// nothing here feeds back into records.
fn publish_metrics(
    registry: &MetricsRegistry,
    execs: &[TrialExec],
    pool: &sim_exec::PoolStats,
    lane_stats: Option<&LaneStats>,
    elapsed_us: u64,
) {
    let count = |name: &str, n: u64| registry.counter(&format!("campaign.{name}")).add(n);
    let tally = |keep: fn(&TrialExec) -> bool| execs.iter().filter(|e| keep(e)).count() as u64;
    count("trials", execs.len() as u64);
    count(
        "injected_trials",
        tally(|e| e.record.landing == Landing::Injected),
    );
    count("early_exits", tally(|e| e.early_exit));
    count("restores", tally(|e| e.restore_distance.is_some()));
    let distances = registry.histogram("campaign.restore_distance_cycles");
    for d in execs.iter().filter_map(|e| e.restore_distance) {
        distances.observe(d);
    }
    registry
        .gauge("campaign.workers")
        .set(pool.per_worker_jobs.len() as i64);
    registry
        .histogram("campaign.trial_phase_us")
        .observe(elapsed_us);
    for (i, &jobs) in pool.per_worker_jobs.iter().enumerate() {
        count(&format!("worker{i}.jobs"), jobs);
    }
    for (target, c) in lane_stats.map_or(&[][..], |ls| &ls.per_target) {
        for (class, n) in c.by_class() {
            count(&format!("lane_{class}"), n);
            count(&format!("lane_{class}.{}", target.label()), n);
        }
    }
}

/// Render the campaign diagnostics [`run_trials`] published
/// into `registry`: a `campaign:` throughput line, a `restores:` line when
/// any trial restored a snapshot, and a `lane probe classes` line with
/// one row per target in `targets` when any trial ran batched. Each line
/// ends in a newline; the text is empty when no trial was published.
pub fn render_metrics(registry: &MetricsRegistry, targets: &[FaultTarget]) -> String {
    let counter = |name: &str| registry.counter(&format!("campaign.{name}")).get();
    let trials = counter("trials");
    if trials == 0 {
        return String::new();
    }
    let secs = registry.histogram("campaign.trial_phase_us").sum() as f64 / 1e6;
    let rate = if secs > 0.0 {
        trials as f64 / secs
    } else {
        0.0
    };
    let mut out = format!(
        "campaign: {trials} trials in {secs:.2}s ({rate:.1} trials/s) on {} workers; \
         {} injected, {} early exits\n",
        registry.gauge("campaign.workers").get(),
        counter("injected_trials"),
        counter("early_exits"),
    );
    let distances = registry.histogram("campaign.restore_distance_cycles");
    if distances.count() > 0 {
        out += &format!(
            "restores: {} from checkpoints, replay distance mean {:.0} cycles, p90 <= {}\n",
            distances.count(),
            distances.mean(),
            distances.quantile(0.90),
        );
    }
    let lanes = |suffix: &str| {
        let get = |class: &str| counter(&format!("lane_{class}{suffix}"));
        LaneClassCounts {
            prechecked: get("prechecked"),
            batched: get("batched"),
            resident: get("resident"),
            forked: get("forked"),
            reconverged: get("reconverged"),
            deduped: get("deduped"),
        }
    };
    let t = lanes("");
    if t.trials() == 0 {
        return out;
    }
    out += &format!(
        "lane probe classes: {} prechecked, {} batched, {} resident-resolved, \
         {} forked ({} reconverged early), {} deduped — fork rate {:.3}\n",
        t.prechecked,
        t.batched,
        t.resident,
        t.forked,
        t.reconverged,
        t.deduped,
        t.fork_rate()
    );
    for target in targets {
        let c = lanes(&format!(".{}", target.label()));
        out += &format!(
            "  {:>8}: {:>4} prechecked {:>4} batched {:>4} resident {:>4} forked \
             ({:>3} reconverged) {:>3} deduped\n",
            target.label(),
            c.prechecked,
            c.batched,
            c.resident,
            c.forked,
            c.reconverged,
            c.deduped
        );
    }
    out
}

/// Per-structure tallies over `records`, which must hold
/// `trials_per_structure` consecutive records per target in campaign
/// order (the order [`run_campaign`] and the chunked store path produce).
///
/// # Panics
/// Panics if `records.len() != targets.len() * trials_per_structure`.
pub fn summarize(
    targets: &[FaultTarget],
    trials_per_structure: usize,
    records: &[TrialRecord],
) -> Vec<TargetSummary> {
    let per = trials_per_structure;
    assert_eq!(
        records.len(),
        targets.len() * per,
        "records do not tile the campaign's (target, trial) grid"
    );
    targets
        .iter()
        .enumerate()
        .map(|(ti, &target)| {
            let slice = &records[ti * per..(ti + 1) * per];
            let count = |o: Outcome| slice.iter().filter(|r| r.outcome == o).count() as u64;
            let (masked, latent) = (count(Outcome::Masked), count(Outcome::Latent));
            let (sdc, detected) = (count(Outcome::Sdc), count(Outcome::Detected));
            TargetSummary {
                target,
                trials: per as u64,
                masked,
                latent,
                sdc,
                detected,
                sfi: SfiPoint::from_counts(target_structure(target), sdc + detected, per as u64),
            }
        })
        .collect()
}

/// Run a full campaign: golden run (checkpointed unless the path is
/// [`TrialPath::ReplayFromZero`]), then `trials_per_structure` trials per
/// target executed by `workers` scoped threads on [`CampaignConfig::path`].
pub fn run_campaign<S, F>(factory: F, cfg: &CampaignConfig) -> Result<CampaignResult, InjectError>
where
    S: InstSource + Clone + Sync,
    F: Fn() -> SmtCore<S> + Sync,
{
    // Workers share the prepared state (golden + every snapshot); each
    // trial clones only the one snapshot it restores.
    let prepared = PreparedCampaign::prepare(&factory, cfg)?;

    // Each trial is a pure function of the prepared state and its global
    // index, so the sim-exec pool's index-ordered merge makes the record
    // vector bit-identical for any worker count — and, because every
    // trial path is proven bit-identical to its oracle, for any
    // `cfg.path`.
    let (trials, _, _) =
        run_trials_batched_full(&prepared, &factory, 0, prepared.total_trials(), cfg.workers);
    let records: Vec<TrialRecord> = trials.into_iter().map(|exec| exec.record).collect();

    let golden = prepared.golden();
    let per_target = summarize(&cfg.targets, cfg.trials_per_structure, &records);
    Ok(CampaignResult {
        records,
        window: (golden.start, golden.end),
        per_target,
        ace: prepared.ace_report().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_rng_is_index_stable() {
        let a = trial_rng(42, 7).next_u64();
        let b = trial_rng(42, 7).next_u64();
        let c = trial_rng(42, 8).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn entry_and_bit_spaces_are_nonzero() {
        let cfg = MachineConfig::ispass07_baseline().with_contexts(2);
        for t in [
            FaultTarget::Iq,
            FaultTarget::Rob,
            FaultTarget::LsqTag,
            FaultTarget::RegFile,
            FaultTarget::Fu,
            FaultTarget::Dl1Data,
            FaultTarget::Dl1Tag,
            FaultTarget::Dtlb,
            FaultTarget::Itlb,
        ] {
            assert!(target_entries(t, &cfg) > 0, "{t:?} entries");
            assert!(target_bits(t, &cfg) > 0, "{t:?} bits");
        }
        assert_eq!(target_entries(FaultTarget::Fu, &cfg), 28, "Table 1 FUs");
    }

    #[test]
    fn tail_dedupe_runs_each_key_once_and_ignores_input_order() {
        let fault = |target, entry| Fault {
            target,
            entry,
            bit: 3,
        };
        // Trials 2, 5 and 9 share a key; 4 and 7 share another, 7 having
        // recorded a later restore; 1 strikes the same bit as 2 at another
        // cycle, so it is a key of its own.
        let key = |i: usize| match i {
            2 | 5 | 9 => (fault(FaultTarget::Iq, 11), 500),
            4 | 7 => (fault(FaultTarget::Rob, 3), 800),
            1 => (fault(FaultTarget::Iq, 11), 900),
            _ => unreachable!("trial {i} has no tail"),
        };
        let tail = |index, restore| Tail { index, restore };
        let mut tails = [
            tail(5, 500),
            tail(1, 900),
            tail(7, 950),
            tail(2, 500),
            tail(9, 500),
            tail(4, 800),
        ];
        let jobs = plan_tails(tails.to_vec(), key);
        let planned: Vec<(Tail, Vec<usize>)> =
            jobs.iter().map(|j| (j.tail, j.dups.clone())).collect();
        assert_eq!(
            planned,
            vec![
                (tail(2, 500), vec![5, 9]),
                (tail(1, 900), vec![]),
                (tail(4, 950), vec![7]),
            ],
            "one job per key, lowest index, latest restore, ascending restore"
        );
        for _ in 0..tails.len() {
            tails.rotate_left(1);
            assert_eq!(plan_tails(tails.to_vec(), key), jobs);
        }
        tails.reverse();
        assert_eq!(plan_tails(tails.to_vec(), key), jobs);

        let run = |outcome, early_exit| TrialRun {
            landing: Landing::Injected,
            outcome,
            early_exit,
        };
        let runs = [
            run(Outcome::Sdc, false),
            run(Outcome::Masked, true),
            run(Outcome::Latent, false),
        ];
        let (resolved, stats) = fold_tails(&jobs, &runs);
        let mut indices: Vec<usize> = resolved.iter().map(|&(i, _)| i).collect();
        indices.sort_unstable();
        assert_eq!(indices, [1, 2, 4, 5, 7, 9], "every trial resolves once");
        let run_of = |i: usize| resolved.iter().find(|&&(k, _)| k == i).expect("resolved").1;
        for (trial, owner) in [(2, 0), (5, 0), (9, 0), (1, 1), (4, 2), (7, 2)] {
            assert_eq!(run_of(trial), runs[owner], "trial {trial}");
        }
        let counts = |t| {
            let c = stats.for_target(t).expect("tallied");
            (c.forked, c.reconverged, c.deduped)
        };
        assert_eq!(counts(FaultTarget::Iq), (2, 1, 2));
        assert_eq!(counts(FaultTarget::Rob), (1, 0, 1));
        assert_eq!(stats.totals().trials(), 6);
    }

    #[test]
    fn error_display_is_informative() {
        let e = InjectError::CycleOutOfRange {
            cycle: 99,
            start: 10,
            end: 50,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("[10, 50)"));
    }
}
