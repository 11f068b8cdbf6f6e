//! The SMT core: fetch → dispatch → issue → execute → commit, with
//! deferred ACE-bit banking at every structure.

use crate::inject::{
    target_entries, Fault, FaultState, FaultTarget, Landing, RetiredInst, Rewrite, Strike,
};
use crate::lanes::LaneEvent;
use crate::resources::{FreeList, FuPool, IssueQueue, RegTracker, Wakeup};
use crate::result::{SimResult, ThreadStats};
use crate::slot::{FrontEndInst, Slot, SlotState};
use crate::thread::{MemDep, ThreadCtx, FETCH_QUEUE_CAP};
#[cfg(feature = "trace")]
use crate::tracer::{TraceConfig, Tracer};
use avf_core::{budgets, classify, AvfEngine, DeallocKind, StructureId};
use sim_frontend::{FetchPolicyEngine, PredictorConfigExt, ThreadTelemetry};
use sim_mem::{MemoryHierarchy, TagInject};
use sim_model::{ArchReg, FetchPolicyKind, MachineConfig, OpClass, PhysReg, ThreadId};
#[cfg(feature = "trace")]
use sim_trace::TraceSink as _;
use sim_workload::{InstSource, TraceGenerator};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles without a commit before the core declares itself wedged.
const WATCHDOG_CYCLES: u64 = 500_000;

/// Termination condition for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimBudget {
    /// Committed instructions to run before the measurement window opens
    /// (warms predictors, caches and TLBs, as the paper's Simpoint
    /// fast-forwarding does).
    pub warmup_instructions: u64,
    /// Stop once this many instructions have committed inside the
    /// measurement window (across threads).
    pub total_instructions: u64,
    /// Hard cycle cap (safety net).
    pub max_cycles: u64,
}

impl SimBudget {
    /// Run until `n` instructions commit in total (no warm-up), matching
    /// the paper's termination rule ("simulations are terminated once the
    /// total number of simulated instructions reaches N").
    pub fn total_instructions(n: u64) -> SimBudget {
        SimBudget {
            warmup_instructions: 0,
            total_instructions: n,
            max_cycles: n.saturating_mul(80).max(2_000_000),
        }
    }

    /// Builder-style warm-up length.
    pub fn with_warmup(mut self, warmup: u64) -> SimBudget {
        self.warmup_instructions = warmup;
        self.max_cycles = (self.total_instructions + warmup)
            .saturating_mul(80)
            .max(2_000_000);
        self
    }
}

/// The simulated SMT processor, generic over the per-thread instruction
/// source (the synthetic [`TraceGenerator`] by default; any
/// [`InstSource`], e.g. a replayed trace file, works).
///
/// When `S: Clone` the whole core is a deep snapshot: every piece of
/// behavior-relevant state (slab ROBs, IQ, caches with ACE intervals,
/// predictors, residency trackers, generator cursors) lives in these
/// fields, so `core.clone()` then stepping both copies produces
/// bit-identical histories. `sim-inject` builds its checkpointed
/// fault-injection campaigns on this property.
#[derive(Clone)]
pub struct SmtCore<S = TraceGenerator> {
    cfg: MachineConfig,
    cycle: u64,
    threads: Vec<ThreadCtx<S>>,
    mem: MemoryHierarchy,
    avf: AvfEngine,
    policy: FetchPolicyEngine,
    iq: IssueQueue,
    /// The IQ's ready list and per-register waiter lists (see [`Wakeup`]).
    wake: Wakeup,
    fus: FuPool,
    int_free: FreeList,
    fp_free: FreeList,
    int_regs: RegTracker,
    fp_regs: RegTracker,
    /// (completion cycle, thread, ftag, slab index), min-heap. The slab
    /// index rides along for O(1) slot resolution; it does not participate
    /// in ordering decisions (the (cycle, thread, ftag) prefix is unique).
    events: BinaryHeap<Reverse<(u64, u8, u64, u32)>>,
    total_committed: u64,
    last_commit_cycle: u64,
    commit_rr: usize,
    fetch_pc: Vec<u64>,
    wrong_pc: Vec<u64>,
    /// Cycle at which the measurement window opened.
    measure_cycle0: u64,
    /// Per-thread committed counts when the window opened.
    measure_committed0: Vec<u64>,
    /// Per-thread (squashed, wrong-path-fetched, predictions, mispredictions)
    /// when the window opened, so ThreadStats cover the measured window only.
    measure_thread0: Vec<(u64, u64, u64, u64)>,
    /// Cache/TLB counters when the window opened.
    measure_mem0: MemSnapshot,
    /// Optional time-resolved AVF telemetry (exact windowed accounting).
    telemetry: Option<avf_core::TelemetryRecorder>,
    /// Optional pipeline event tracer. `None` is the runtime-off path (one
    /// branch per hook); disabling the `trace` feature removes the hooks
    /// and this field entirely.
    #[cfg(feature = "trace")]
    tracer: Option<Tracer>,
    /// Fault-injection bookkeeping (poisoned registers, commit log).
    faults: FaultState,
    /// Lane-batch event feed: when enabled, every taint/poison-relevant
    /// mutation (dispatch alloc, issue, writeback, commit, squash) pushes
    /// one [`LaneEvent`] so a `LaneBatch` can mirror the metadata for N
    /// lanes at once. `None` (the default) is a single branch per site;
    /// recording never feeds back into timing, so enabling it cannot
    /// perturb the simulated history (the lane equivalence tests pin
    /// this).
    lane_events: Option<Vec<LaneEvent>>,
    /// Reusable per-cycle buffers (see [`Scratch`]).
    scratch: Scratch,
    /// Idle-cycle fast-forwarding: when the core is provably quiescent,
    /// [`SmtCore::step_fast_bounded`] jumps the clock to the next activity
    /// cycle instead of stepping through stall cycles one at a time.
    /// Disabled, it degenerates to the cycle-by-cycle oracle.
    fast_forward: bool,
}

/// Per-cycle scratch buffers, owned by the core and reused every cycle.
///
/// Each buffer is `clear()`ed (capacity retained) before use and handed to
/// the stage via `std::mem::take`, so after the first few thousand cycles
/// every buffer has reached its high-water capacity and `step()` performs
/// no heap allocation. The take/restore dance is what lets a stage iterate
/// a buffer while mutating the rest of the core; a stage must put the
/// buffer back before returning. Buffers carry no state across cycles —
/// only capacity. Cloning a core clones whatever is in the buffers, but
/// since every buffer is cleared before use the contents never influence
/// behavior — a restored snapshot only inherits capacity.
#[derive(Debug, Default, Clone)]
struct Scratch {
    /// FLUSH triggers `(thread, ftag)` collected while issuing.
    flushes: Vec<(usize, u64)>,
    /// Squashed correct-path ROB tail, youngest-first (replayed oldest-first).
    replay_rev: Vec<sim_model::Inst>,
    /// Squashed correct-path front-end instructions, oldest-first.
    frontend: Vec<sim_model::Inst>,
    /// Thread visit order for dispatch (ICOUNT ascending).
    dispatch_order: Vec<usize>,
    /// Per-thread telemetry fed to the fetch policy.
    telemetry: Vec<ThreadTelemetry>,
    /// Fetch priority order produced by the policy.
    priority: Vec<ThreadId>,
}

#[derive(Debug, Clone, Copy, Default)]
struct MemSnapshot {
    dl1_acc: u64,
    dl1_miss: u64,
    l2_acc: u64,
    l2_miss: u64,
    il1_acc: u64,
    il1_miss: u64,
}

impl<S: InstSource> SmtCore<S> {
    /// Build a core running one instruction source per context.
    ///
    /// # Panics
    /// Panics if the configuration is invalid, the generator count differs
    /// from `cfg.contexts`, or the physical register pools cannot cover the
    /// architectural state of every context.
    pub fn new(cfg: MachineConfig, gens: Vec<S>) -> SmtCore<S> {
        cfg.validate().expect("invalid machine configuration");
        assert_eq!(
            gens.len(),
            cfg.contexts,
            "need exactly one trace per context"
        );
        let arch_per_class = ArchReg::PER_CLASS as u32;
        assert!(
            cfg.int_phys_regs >= arch_per_class * cfg.contexts as u32 + 8
                && cfg.fp_phys_regs >= arch_per_class * cfg.contexts as u32 + 8,
            "physical register pools too small for {} contexts",
            cfg.contexts
        );

        let mut int_free = FreeList::new(cfg.int_phys_regs);
        let mut fp_free = FreeList::new(cfg.fp_phys_regs);
        let mut int_regs = RegTracker::new(cfg.int_phys_regs);
        let mut fp_regs = RegTracker::new(cfg.fp_phys_regs);

        let mut fetch_pc = Vec::new();
        let threads: Vec<ThreadCtx<S>> = gens
            .into_iter()
            .enumerate()
            .map(|(i, gen)| {
                let id = ThreadId(i as u8);
                // Map the architectural state: 32 int + 32 fp live-in values
                // written at cycle 0.
                let rename: [PhysReg; 64] = std::array::from_fn(|a| {
                    let reg = ArchReg(a as u8);
                    if reg.is_fp() {
                        let p = fp_free.alloc().expect("fp pool underflow");
                        fp_regs.on_alloc(p, id);
                        fp_regs.on_write(p, 0, true);
                        p
                    } else {
                        let p = int_free.alloc().expect("int pool underflow");
                        int_regs.on_alloc(p, id);
                        int_regs.on_write(p, 0, true);
                        p
                    }
                });
                fetch_pc.push(gen.current_pc());
                ThreadCtx::new(id, gen, cfg.predictor.build(), rename)
            })
            .collect();

        let mut avf = AvfEngine::new(cfg.contexts);
        let mem = MemoryHierarchy::new(&cfg);
        mem.configure_avf(&mut avf);
        let fus = FuPool::new(&cfg.fus);
        avf.set_total_bits(StructureId::Iq, cfg.iq_entries as u64 * budgets::iq::ENTRY);
        avf.set_total_bits(
            StructureId::Rob,
            cfg.contexts as u64 * cfg.rob_entries_per_thread as u64 * budgets::rob::ENTRY,
        );
        avf.set_total_bits(
            StructureId::LsqTag,
            cfg.contexts as u64 * cfg.lsq_entries_per_thread as u64 * budgets::lsq::TAG_ENTRY,
        );
        avf.set_total_bits(
            StructureId::LsqData,
            cfg.contexts as u64 * cfg.lsq_entries_per_thread as u64 * budgets::lsq::DATA_ENTRY,
        );
        avf.set_total_bits(StructureId::Fu, fus.total_units() * budgets::fu::ENTRY);
        avf.set_total_bits(
            StructureId::RegFile,
            (cfg.int_phys_regs as u64 + cfg.fp_phys_regs as u64) * budgets::regfile::ENTRY,
        );

        let policy = FetchPolicyEngine::new(
            cfg.fetch_policy,
            cfg.dg_threshold,
            cfg.iq_entries / cfg.contexts as u32,
        );
        let iq = IssueQueue::new(cfg.iq_entries);
        let wake = Wakeup::new(cfg.iq_entries, cfg.int_phys_regs, cfg.fp_phys_regs);
        let n = cfg.contexts;
        let cfg2 = (cfg.int_phys_regs, cfg.fp_phys_regs);
        let rob_total = n * cfg.rob_entries_per_thread as usize;
        SmtCore {
            cfg,
            cycle: 0,
            threads,
            mem,
            avf,
            policy,
            iq,
            wake,
            fus,
            int_free,
            fp_free,
            int_regs,
            fp_regs,
            // Pre-size to the architectural bound on in-flight completions
            // (every ROB slot of every thread) so steady-state pushes never
            // grow the heap.
            events: BinaryHeap::with_capacity(rob_total),
            total_committed: 0,
            last_commit_cycle: 0,
            commit_rr: 0,
            fetch_pc,
            wrong_pc: vec![0; n],
            measure_cycle0: 0,
            measure_committed0: vec![0; n],
            measure_thread0: vec![(0, 0, 0, 0); n],
            measure_mem0: MemSnapshot::default(),
            telemetry: None,
            #[cfg(feature = "trace")]
            tracer: None,
            faults: FaultState::new(cfg2.0, cfg2.1),
            lane_events: None,
            scratch: Scratch::default(),
            fast_forward: true,
        }
    }

    /// Record exact windowed AVF telemetry every `window_cycles` cycles
    /// (see [`avf_core::TelemetryRecorder`]). Call before `run`; the final
    /// partial window is closed after end-of-run finalization banking, so
    /// the per-window ACE sums equal the report's aggregate totals exactly.
    pub fn enable_telemetry(&mut self, window_cycles: u64) {
        let mut rec = avf_core::TelemetryRecorder::new(window_cycles);
        rec.resync(&self.avf, self.cycle);
        self.telemetry = Some(rec);
    }

    /// Take the recorded AVF telemetry windows, if telemetry was enabled.
    ///
    /// Only meaningful after `run` (the tail window is closed by the
    /// end-of-run finalization); taking mid-run yields the closed windows
    /// recorded so far.
    pub fn take_telemetry(&mut self) -> Option<Vec<avf_core::AvfWindow>> {
        self.telemetry
            .take()
            .map(avf_core::TelemetryRecorder::into_windows)
    }

    /// Start tracing pipeline events into a preallocated ring (see
    /// [`crate::tracer`]). Call before `run`.
    #[cfg(feature = "trace")]
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        self.tracer = Some(Tracer::new(cfg, self.threads.len(), self.cycle));
    }

    /// Take the recorded trace: events oldest-first plus the ring's
    /// dropped-event count. `None` if tracing was never enabled.
    #[cfg(feature = "trace")]
    pub fn take_trace(&mut self) -> Option<(Vec<sim_trace::TraceEvent>, u64)> {
        self.tracer.take().map(Tracer::into_events)
    }

    /// The per-thread workload names, in thread-id order (labels trace
    /// exports and reports).
    pub fn thread_names(&self) -> Vec<String> {
        self.threads
            .iter()
            .map(|t| t.gen.name().to_string())
            .collect()
    }

    /// The machine configuration in effect.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total committed instructions so far.
    pub fn total_committed(&self) -> u64 {
        self.total_committed
    }

    /// Enable or disable idle-cycle fast-forwarding (on by default).
    /// Disabled, [`SmtCore::run`] and [`SmtCore::step_fast_bounded`]
    /// advance strictly one cycle at a time — the cycle-by-cycle oracle
    /// `tests/fastforward_equivalence.rs` compares against.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Whether idle-cycle fast-forwarding is enabled.
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// Run until the budget is reached and produce the report.
    ///
    /// # Panics
    /// Panics if the core makes no forward progress for an extended period
    /// (a simulator bug, not a workload property).
    pub fn run(&mut self, budget: SimBudget) -> SimResult {
        let watchdog = |core: &SmtCore<S>| {
            assert!(
                core.cycle - core.last_commit_cycle < WATCHDOG_CYCLES,
                "no commit in {WATCHDOG_CYCLES} cycles at cycle {}: wedged core \
                 (iq={}, committed={})",
                core.cycle,
                core.iq.len(),
                core.total_committed
            );
        };
        // Clamping each fast step to the watchdog horizon makes a wedged
        // core panic at exactly the cycle the cycle-by-cycle run would.
        let limit = |core: &SmtCore<S>| {
            budget
                .max_cycles
                .min(core.last_commit_cycle + WATCHDOG_CYCLES)
        };
        while self.total_committed < budget.warmup_instructions && self.cycle < budget.max_cycles {
            self.step_fast_bounded(limit(self));
            watchdog(self);
        }
        if budget.warmup_instructions > 0 {
            self.reset_measurement();
        }
        let target = self.measured_base_total() + budget.total_instructions;
        while self.total_committed < target && self.cycle < budget.max_cycles {
            self.step_fast_bounded(limit(self));
            watchdog(self);
        }
        self.finish()
    }

    /// Close out a core that was stepped to its budget by hand and produce
    /// the report [`run`](SmtCore::run) would have: the fault-injection
    /// golden pass reads its window's ACE report this way. Consumes the
    /// core, because finalization banks every live interval and the
    /// machine cannot step on after it.
    pub fn into_result(mut self) -> SimResult {
        self.finish()
    }

    fn measured_base_total(&self) -> u64 {
        self.measure_committed0.iter().sum()
    }

    /// Open the measurement window at the current cycle: zero the AVF
    /// accumulators, clamp interval timestamps, snapshot counters.
    pub fn reset_measurement(&mut self) {
        let now = self.cycle;
        self.avf.reset();
        self.mem.reset_epoch(now);
        self.int_regs.reset_epoch(now);
        self.fp_regs.reset_epoch(now);
        self.measure_cycle0 = now;
        // In-flight instructions straddling the warm-up boundary must not
        // bank pre-window residency into the measured AVF.
        for th in &mut self.threads {
            for i in 0..th.rob.len() {
                let slot = &mut th.slab[th.rob[i] as usize];
                slot.dispatched_at = slot.dispatched_at.max(now);
                if slot.issued_at > 0 {
                    slot.issued_at = slot.issued_at.max(now);
                }
                if slot.completed_at > 0 {
                    slot.completed_at = slot.completed_at.max(now);
                }
            }
        }
        if let Some(rec) = &mut self.telemetry {
            // Discards warm-up windows: post-reset windows must sum to the
            // post-reset engine totals exactly.
            rec.resync(&self.avf, now);
        }
        self.measure_committed0 = self.threads.iter().map(|t| t.committed).collect();
        self.measure_thread0 = self
            .threads
            .iter()
            .map(|t| {
                (
                    t.squashed,
                    t.wrong_path_fetched,
                    t.predictor.predictions(),
                    t.predictor.mispredictions(),
                )
            })
            .collect();
        self.measure_mem0 = MemSnapshot {
            dl1_acc: self.mem.dl1_stats().accesses,
            dl1_miss: self.mem.dl1_stats().misses,
            l2_acc: self.mem.l2_stats().accesses,
            l2_miss: self.mem.l2_stats().misses,
            il1_acc: self.mem.il1_stats().accesses,
            il1_miss: self.mem.il1_stats().misses,
        };
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        self.commit(now);
        self.process_completions(now);
        self.issue(now);
        self.dispatch(now);
        self.fetch(now);
        self.cycle += 1;
        if let Some(rec) = &mut self.telemetry {
            rec.tick(&self.avf, self.cycle);
        }
        self.trace_sample();
    }

    /// Advance one cycle, or — when the core is provably quiescent and
    /// fast-forwarding is enabled — jump the clock straight to the next
    /// cycle where any stage can make progress, clamped to `limit`.
    ///
    /// The observable history is bit-identical to repeated [`SmtCore::step`]
    /// calls: residency intervals are closed at dealloc time with absolute
    /// cycles, so skipped stall cycles bank nothing differently, and the
    /// per-cycle bookkeeping a quiescent step *does* perform (round-robin
    /// rotors, recorder window boundaries, trace samples) is replayed in
    /// bulk by [`SmtCore::skip_to`]. `tests/fastforward_equivalence.rs`
    /// pins this.
    ///
    /// `limit` must be greater than the current cycle; the clock never
    /// moves past it, so callers can make externally scheduled events
    /// (fault injections, hang checks, watchdog horizons) land on exactly
    /// the cycle they would in a cycle-by-cycle run.
    pub fn step_fast_bounded(&mut self, limit: u64) {
        debug_assert!(self.cycle < limit, "fast-forward bound must be ahead");
        // The quiescence scan costs O(threads + ready IQ entries) — worth
        // paying only when a stall looks plausible. A cycle that just
        // committed is in a busy phase; gating on a one-cycle commit gap
        // skips the scan for the vast majority of active cycles at the
        // price of one plain step when entering each stall span.
        if self.fast_forward && self.cycle > self.last_commit_cycle + 1 {
            if let Some(next) = self.next_activity_cycle() {
                let target = next.min(limit);
                if target > self.cycle {
                    self.skip_to(target);
                    return;
                }
            }
        }
        self.step();
    }

    /// [`SmtCore::step_fast_bounded`] with no external bound.
    pub fn step_fast(&mut self) {
        self.step_fast_bounded(u64::MAX);
    }

    /// The earliest future cycle at which any pipeline stage could make
    /// progress, or `None` when progress is (or may be) possible right now
    /// and the caller must take a normal [`SmtCore::step`].
    ///
    /// The predicate errs in exactly one direction: it may claim activity
    /// where a real step would find none (forcing a plain step, which is
    /// always correct, merely slower), but it never claims quiescence when
    /// a step could change state. See DESIGN §5g for the full soundness
    /// argument; the cases where it stays conservative on purpose are
    /// FU-port conflicts and memory-dependence stalls, which the real
    /// issue stage resolves.
    fn next_activity_cycle(&self) -> Option<u64> {
        let now = self.cycle;
        let mut next = u64::MAX;
        // (a) In-flight completions: writeback, wakeup and mispredict
        // recovery all happen when the event at the heap head fires.
        if let Some(&Reverse((c, ..))) = self.events.peek() {
            if c <= now {
                return None;
            }
            next = c;
        }
        for (t, th) in self.threads.iter().enumerate() {
            // Commit: a Done ROB head retires this cycle.
            if th.front_slot().is_some_and(|s| s.state == SlotState::Done) {
                return None;
            }
            // (b) Fetch: an unstalled thread with queue space fetches now;
            // a stalled one wakes when its I-side fill arrives.
            if th.fetch_queue.len() < FETCH_QUEUE_CAP {
                if th.fetch_stall_until <= now {
                    return None;
                }
                next = next.min(th.fetch_stall_until);
            }
            // Dispatch: the fetch-queue head clears the front-end pipe at
            // `ready_at`; structural hazards (ROB/IQ/LSQ/free-list) only
            // clear through commits or completions, which cases (a) and
            // the commit check above already cover.
            if let Some(fe) = th.fetch_queue.front() {
                if self.can_dispatch_front(t, now) {
                    return None;
                }
                if fe.ready_at > now {
                    next = next.min(fe.ready_at);
                }
            }
        }
        // (c) Issue: an IQ entry with ready sources might issue this cycle.
        // Every such entry is on the ready list (which may also hold a
        // demotion candidate, hence the re-check). Entries off the list
        // wait on an unwritten register, and only a completion event —
        // case (a) — writes one, so during a skipped span no entry wakes.
        for e in &self.wake.ready {
            let slot = &self.threads[e.thread.index()].slab[e.slot as usize];
            if self.srcs_ready(slot) {
                return None;
            }
        }
        (next > now && next < u64::MAX).then_some(next)
    }

    /// Jump the clock to `target` across a provably quiescent span,
    /// performing exactly the per-cycle bookkeeping the skipped no-op
    /// `step()`s would have: the commit round-robin rotor and the fetch
    /// policy's rotor advance once per skipped cycle, and recorder window
    /// boundaries / trace samples land on their exact slow-path cycles.
    /// Nothing else in a quiescent step mutates state, so nothing else
    /// needs replaying.
    fn skip_to(&mut self, target: u64) {
        debug_assert!(target > self.cycle);
        let skipped = target - self.cycle;
        let n = self.threads.len().max(1);
        self.commit_rr = (self.commit_rr + (skipped % n as u64) as usize) % n;
        self.policy.skip_cycles(skipped, self.threads.len());
        self.cycle = target;
        if let Some(rec) = &mut self.telemetry {
            rec.tick_span(&self.avf, target);
        }
        self.trace_sample_span();
    }

    /// Close out interval accounting and build the result (measurement
    /// window only).
    fn finish(&mut self) -> SimResult {
        let now = self.cycle;
        self.mem.finalize(now, &mut self.avf);
        // Bank the still-live register values (write → last read) that were
        // never freed; without this, long-lived globals would be invisible.
        self.int_regs.finalize(&mut self.avf);
        self.fp_regs.finalize(&mut self.avf);
        // Close the telemetry tail *after* finalization banking so the late
        // banks (register last-reads, cache evictions) land in the final
        // window instead of escaping the series.
        if let Some(rec) = &mut self.telemetry {
            rec.flush(&self.avf, now);
        }
        let committed: Vec<u64> = self
            .threads
            .iter()
            .zip(&self.measure_committed0)
            .map(|(t, base)| t.committed - base)
            .collect();
        let cycles = now - self.measure_cycle0;
        let report = self.avf.finish(cycles, &committed);
        let rate = |acc: u64, acc0: u64, miss: u64, miss0: u64| {
            let a = acc - acc0;
            if a == 0 {
                0.0
            } else {
                (miss - miss0) as f64 / a as f64
            }
        };
        let m0 = self.measure_mem0;
        SimResult {
            report,
            policy: self.policy.policy(),
            cycles,
            threads: self
                .threads
                .iter()
                .zip(&self.measure_thread0)
                .zip(&self.measure_committed0)
                .map(|((t, &(sq0, wp0, pred0, mis0)), &c0)| {
                    let preds = t.predictor.predictions() - pred0;
                    ThreadStats {
                        name: t.gen.name(),
                        committed: t.committed - c0,
                        squashed: t.squashed - sq0,
                        wrong_path_fetched: t.wrong_path_fetched - wp0,
                        mispredict_rate: if preds == 0 {
                            0.0
                        } else {
                            (t.predictor.mispredictions() - mis0) as f64 / preds as f64
                        },
                    }
                })
                .collect(),
            dl1_miss_rate: rate(
                self.mem.dl1_stats().accesses,
                m0.dl1_acc,
                self.mem.dl1_stats().misses,
                m0.dl1_miss,
            ),
            l2_miss_rate: rate(
                self.mem.l2_stats().accesses,
                m0.l2_acc,
                self.mem.l2_stats().misses,
                m0.l2_miss,
            ),
            il1_miss_rate: rate(
                self.mem.il1_stats().accesses,
                m0.il1_acc,
                self.mem.il1_stats().misses,
                m0.il1_miss,
            ),
        }
    }

    // -----------------------------------------------------------------
    // Commit
    // -----------------------------------------------------------------

    fn commit(&mut self, now: u64) {
        let width = self.cfg.commit_width;
        let n = self.threads.len();
        let mut committed = 0u32;
        for i in 0..n {
            let t = (self.commit_rr + i) % n;
            while committed < width {
                let head_done = self.threads[t]
                    .front_slot()
                    .is_some_and(|s| s.state == SlotState::Done);
                if !head_done {
                    break;
                }
                self.commit_one(t, now);
                committed += 1;
            }
        }
        self.commit_rr = (self.commit_rr + 1) % n.max(1);
        if committed > 0 {
            self.last_commit_cycle = now;
        }
    }

    fn commit_one(&mut self, t: usize, now: u64) {
        // Lane feed: the slab index is recycled by the pop, so capture it
        // first (only when the feed is armed — it is `None` otherwise).
        let lane_slab = if self.lane_events.is_some() {
            self.threads[t].rob.front().copied()
        } else {
            None
        };
        let slot = self.threads[t]
            .pop_front_slot()
            .expect("commit on empty ROB");
        if let Some(slab) = lane_slab {
            let old = slot.old_phys.map(|p| {
                (
                    slot.inst.dest.expect("old mapping without dest").is_fp(),
                    p.0,
                )
            });
            self.lane_events
                .as_mut()
                .expect("lane_slab captured only when the feed is armed")
                .push(LaneEvent::Commit {
                    thread: t as u8,
                    slab,
                    old,
                });
        }
        let id = ThreadId(t as u8);
        let inst = &slot.inst;
        assert!(!inst.wrong_path, "wrong-path op reached commit");
        let k = DeallocKind::Committed;

        // Fault injection: a tainted retirement is an architectural-output
        // corruption; the commit log is the diffable record of it.
        if slot.tainted {
            self.faults.corrupt_retired += 1;
        }
        if let Some(log) = &mut self.faults.commit_log {
            log.push(RetiredInst {
                thread: t as u8,
                pc: inst.pc,
                op: inst.op,
                mem_addr: inst.mem.map(|m| m.addr).unwrap_or(0),
                tainted: slot.tainted,
            });
        }

        // ROB residency.
        self.avf.bank_split(
            StructureId::Rob,
            id,
            classify::rob_ace_bits(inst, k),
            budgets::rob::ENTRY,
            slot.rob_residency(now),
        );
        // IQ residency (dispatch → issue). NOPs never entered the IQ.
        if inst.op != OpClass::Nop {
            self.avf.bank_split(
                StructureId::Iq,
                id,
                classify::iq_ace_bits(inst, k),
                budgets::iq::ENTRY,
                slot.iq_residency(now),
            );
            // FU occupancy while executing.
            self.avf.bank_split(
                StructureId::Fu,
                id,
                classify::fu_ace_bits(inst, k),
                budgets::fu::ENTRY,
                slot.exec_latency,
            );
        }
        // LSQ residency (dispatch → commit for the tag; data held from the
        // moment it exists).
        if inst.op.is_mem() {
            self.avf.bank_split(
                StructureId::LsqTag,
                id,
                classify::lsq_tag_ace_bits(inst, k),
                budgets::lsq::TAG_ENTRY,
                slot.rob_residency(now),
            );
            let data_res = match inst.op {
                OpClass::Load => now.saturating_sub(slot.completed_at),
                OpClass::Store => now.saturating_sub(slot.issued_at.max(slot.dispatched_at)),
                _ => 0,
            };
            self.avf.bank_split(
                StructureId::LsqData,
                id,
                classify::lsq_data_ace_bits(inst, k),
                budgets::lsq::DATA_ENTRY,
                data_res,
            );
            self.threads[t].lsq_used -= 1;
            // Stores write the data cache at retirement.
            if inst.op == OpClass::Store {
                let m = inst.mem.expect("store without address");
                self.mem.data_write(id, m.addr, m.size, now, &mut self.avf);
                // Stores emit no Read events, so the attribution is unused.
                self.pump_dl1_events(t as u8, 0);
            }
        }
        // Free the previous mapping of the destination register.
        if let Some(old) = slot.old_phys {
            let fp = inst.dest.expect("old mapping without dest").is_fp();
            let (regs, free) = if fp {
                (&mut self.fp_regs, &mut self.fp_free)
            } else {
                (&mut self.int_regs, &mut self.int_free)
            };
            regs.on_free(old, &mut self.avf);
            free.free(old);
            self.faults.poison(fp)[old.index()] = false;
        }
        self.threads[t].committed += 1;
        self.total_committed += 1;
        self.trace_committed(t);
    }

    // -----------------------------------------------------------------
    // Completion events
    // -----------------------------------------------------------------

    fn process_completions(&mut self, now: u64) {
        while let Some(&Reverse((cycle, t8, ftag, idx))) = self.events.peek() {
            if cycle > now {
                break;
            }
            self.events.pop();
            let t = t8 as usize;
            let Some(slot) = self.threads[t].slot_at_mut(idx, ftag) else {
                continue; // squashed while in flight
            };
            slot.state = SlotState::Done;
            slot.completed_at = now;
            let inst = slot.inst;
            let counted_l1 = std::mem::take(&mut slot.counted_l1);
            let counted_l2 = std::mem::take(&mut slot.counted_l2);
            let counted_pred = std::mem::take(&mut slot.counted_pred);
            let counted_pred_l2 = std::mem::take(&mut slot.counted_pred_l2);
            let mispredicted = slot.mispredicted;
            let dest_phys = slot.dest_phys;
            let tainted = slot.tainted;

            let th = &mut self.threads[t];
            if counted_l1 {
                th.outstanding_l1 -= 1;
            }
            if counted_l2 {
                th.outstanding_l2 -= 1;
            }
            if counted_pred {
                th.predicted_l1 = th.predicted_l1.saturating_sub(1);
            }
            if counted_pred_l2 {
                th.predicted_l2 = th.predicted_l2.saturating_sub(1);
            }
            // Produce the value: the register holds valid (potentially ACE)
            // data from write-back onward.
            if let Some(p) = dest_phys {
                let value_ace = !(inst.dyn_dead || inst.wrong_path);
                let fp = inst.dest.expect("phys without arch dest").is_fp();
                if fp {
                    self.fp_regs.on_write(p, now, value_ace);
                } else {
                    self.int_regs.on_write(p, now, value_ace);
                }
                self.wake_waiters(fp, p);
                // A tainted producer writes a corrupt value; a clean one
                // heals whatever the register held before.
                self.faults.poison(fp)[p.index()] = tainted;
                if let Some(buf) = &mut self.lane_events {
                    buf.push(LaneEvent::Writeback {
                        thread: t as u8,
                        slab: idx,
                        fp,
                        reg: p.0,
                    });
                }
            }
            // Resolve mispredicted branches: squash the wrong path.
            if inst.op.is_branch() && mispredicted {
                self.squash_after(t, ftag, now, false);
                let th = &mut self.threads[t];
                debug_assert_eq!(th.pending_mispredict, Some(ftag));
                th.pending_mispredict = None;
                th.fetch_stall_until = th
                    .fetch_stall_until
                    .max(now + 1 + self.cfg.mispredict_redirect_penalty as u64);
                self.fetch_pc[t] = th.gen.current_pc();
                if let Some(fe) = th.replay.front() {
                    self.fetch_pc[t] = fe.pc;
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Issue
    // -----------------------------------------------------------------

    fn srcs_ready(&self, slot: &Slot) -> bool {
        unready_src(&self.int_regs, &self.fp_regs, slot).is_none()
    }

    /// Register `reg` was just written: re-file each IQ entry waiting on
    /// it. Records of entries that have since issued or been squashed
    /// (their slab slot no longer holds the ftag, or holds it out of the
    /// IQ) are dropped.
    fn wake_waiters(&mut self, fp: bool, reg: PhysReg) {
        let mut i = self.wake.detach(fp, reg);
        while let Some((e, next)) = self.wake.release(i) {
            i = next;
            let slot = &self.threads[e.thread.index()].slab[e.slot as usize];
            if slot.ftag == e.ftag && slot.in_iq {
                self.wake
                    .file(e, unready_src(&self.int_regs, &self.fp_regs, slot));
            }
        }
    }

    /// Every IQ entry whose sources are all written is on the ready list,
    /// in age order: the wakeup lists select exactly what a scan of the
    /// whole IQ would.
    #[cfg(debug_assertions)]
    fn check_ready_list(&self) {
        let ready = |e: &&crate::resources::IqEntry| {
            self.srcs_ready(&self.threads[e.thread.index()].slab[e.slot as usize])
        };
        assert!(
            self.wake.ready.windows(2).all(|w| w[0].age < w[1].age),
            "ready list out of age order"
        );
        assert!(
            self.wake
                .ready
                .iter()
                .filter(ready)
                .eq(self.iq.entries().iter().filter(ready)),
            "ready list disagrees with a scan of the IQ at cycle {}",
            self.cycle
        );
    }

    fn record_reads(&mut self, wrong_path: bool, srcs: [Option<(bool, PhysReg)>; 2], now: u64) {
        if wrong_path {
            return; // wrong-path reads do not extend ACE lifetimes
        }
        for (fp, p) in srcs.into_iter().flatten() {
            if fp {
                self.fp_regs.on_read(p, now);
            } else {
                self.int_regs.on_read(p, now);
            }
        }
    }

    fn issue(&mut self, now: u64) {
        #[cfg(debug_assertions)]
        self.check_ready_list();
        let mut issued = 0u32;
        let mut flushes = std::mem::take(&mut self.scratch.flushes);
        flushes.clear();
        // Select walks the ready list oldest-first and compacts it in
        // place: issued entries leave it, and so does an entry whose
        // sources are no longer all written, which goes back to waiting.
        // Nothing in the walk files a ready entry, so the list can be
        // taken out of the core for its duration.
        let mut ready = std::mem::take(&mut self.wake.ready);
        ready.retain(|&e| {
            if issued >= self.cfg.issue_width {
                return true;
            }
            let t = e.thread.index();
            // IQ entries are removed on squash, so the slab reference is
            // always live while the entry exists.
            let slot = &self.threads[t].slab[e.slot as usize];
            debug_assert_eq!(slot.ftag, e.ftag, "IQ entry without ROB slot");
            if let Some((fp, reg)) = unready_src(&self.int_regs, &self.fp_regs, slot) {
                self.wake.demote(fp, reg, e);
                return false;
            }
            let op = slot.inst.op;
            // Loads: memory-dependence check against older stores.
            let mut forward = false;
            if op == OpClass::Load {
                let addr = slot.inst.mem.expect("load without address").addr;
                match self.threads[t].load_store_dep(e.ftag, addr) {
                    MemDep::Blocked => return true,
                    MemDep::Forward => forward = true,
                    MemDep::None => {}
                }
            }
            if !self.fus.try_issue(op, now) {
                return true;
            }
            // Commit to issuing this op.
            self.iq.remove_entry(e);
            issued += 1;
            self.trace_issued(t);
            let slot = &mut self.threads[t].slab[e.slot as usize];
            slot.state = SlotState::Issued;
            slot.issued_at = now;
            slot.in_iq = false;
            let srcs = slot.srcs();
            // Fault injection: consuming a corrupt source value corrupts
            // this instruction's result.
            for (fp, p) in srcs.into_iter().flatten() {
                if self.faults.poison(fp)[p.index()] {
                    slot.tainted = true;
                }
            }
            // `Inst` is `Copy`: snapshot it for the rest of the walk
            // instead of cloning the slot.
            let inst = slot.inst;
            if let Some(buf) = &mut self.lane_events {
                buf.push(LaneEvent::Issue {
                    thread: t as u8,
                    slab: e.slot,
                    srcs: srcs.map(|s| s.map(|(fp, p)| (fp, p.0))),
                });
            }
            self.record_reads(inst.wrong_path, srcs, now);
            let th = &mut self.threads[t];
            th.iq_used -= 1;
            if op != OpClass::Nop {
                th.icount = th.icount.saturating_sub(1);
            }

            let completion = match op {
                OpClass::Load => {
                    let m = inst.mem.expect("load without address");
                    if forward {
                        th.miss_pred.update(inst.pc, false);
                        th.l2_miss_pred.update(inst.pc, false);
                        let slot = &mut self.threads[t].slab[e.slot as usize];
                        slot.exec_latency = 1;
                        now + 2
                    } else {
                        let ace = !inst.wrong_path;
                        let access = self.mem.data_read(
                            e.thread,
                            m.addr,
                            m.size,
                            now + 1,
                            ace,
                            &mut self.avf,
                        );
                        self.pump_dl1_events(t as u8, e.slot);
                        let th = &mut self.threads[t];
                        th.miss_pred.update(inst.pc, access.is_l1_miss());
                        th.l2_miss_pred.update(inst.pc, access.is_l2_miss());
                        let slot = &mut th.slab[e.slot as usize];
                        slot.exec_latency = 1;
                        if access.poisoned {
                            slot.tainted = true; // loaded a corrupt word
                        }
                        if access.is_l1_miss() {
                            slot.counted_l1 = true;
                        }
                        if access.is_l2_miss() {
                            slot.counted_l2 = true;
                        }
                        let th = &mut self.threads[t];
                        if access.is_l1_miss() {
                            th.outstanding_l1 += 1;
                        }
                        if access.is_l2_miss() {
                            th.outstanding_l2 += 1;
                            if self.cfg.fetch_policy == FetchPolicyKind::Flush {
                                flushes.push((t, e.ftag));
                            }
                        }
                        now + 1 + access.latency as u64
                    }
                }
                OpClass::Store => {
                    let slot = &mut self.threads[t].slab[e.slot as usize];
                    slot.exec_latency = 1;
                    now + 1
                }
                _ => {
                    let lat = self.fus.latency(op);
                    let slot = &mut self.threads[t].slab[e.slot as usize];
                    // Pipelined units hold an op in their issue latch for
                    // one cycle (a new op enters every cycle); unpipelined
                    // dividers occupy their unit for the full latency. The
                    // FU AVF denominator is one latch per unit, so this is
                    // what keeps occupancy <= 1.
                    slot.exec_latency = match op {
                        OpClass::IntDiv | OpClass::FpDiv => lat,
                        _ => 1,
                    };
                    now + lat
                }
            };
            self.events
                .push(Reverse((completion, t as u8, e.ftag, e.slot)));
            false
        });
        self.wake.ready = ready;

        // FLUSH: squash everything younger than each L2-missing load and
        // queue the squashed correct-path work for refetch.
        flushes.sort_unstable_by_key(|&(t, ftag)| (t, ftag));
        flushes.dedup_by_key(|&mut (t, _)| t); // oldest boundary per thread
        for &(t, ftag) in &flushes {
            // The default trigger squashes from the first instruction
            // *following* the offending load; the alternative scheme
            // re-fetches the load itself too.
            let boundary = if self.cfg.flush_from_offender {
                ftag.saturating_sub(1)
            } else {
                ftag
            };
            self.squash_after(t, boundary, now, true);
        }
        self.scratch.flushes = flushes;
    }

    // -----------------------------------------------------------------
    // Squash
    // -----------------------------------------------------------------

    /// Squash every instruction of thread `t` younger than `boundary`.
    /// With `replay`, squashed correct-path instructions are queued for
    /// refetch (FLUSH semantics); without, they are dropped (misprediction
    /// recovery, where everything younger is wrong-path).
    fn squash_after(&mut self, t: usize, boundary: u64, now: u64, replay: bool) {
        let id = ThreadId(t as u8);
        let squashed_before = self.threads[t].squashed;
        let mut replay_rev = std::mem::take(&mut self.scratch.replay_rev);
        replay_rev.clear();
        while let Some(back) = self.threads[t].back_slot() {
            if back.ftag <= boundary {
                break;
            }
            // Lane feed: slab index is recycled by the pop — capture first.
            let lane_slab = if self.lane_events.is_some() {
                self.threads[t].rob.back().copied()
            } else {
                None
            };
            let slot = self.threads[t].pop_back_slot().expect("just peeked");
            if let Some(slab) = lane_slab {
                let dest = slot.dest_phys.map(|p| {
                    (
                        slot.inst.dest.expect("phys dest without arch dest").is_fp(),
                        p.0,
                    )
                });
                self.lane_events
                    .as_mut()
                    .expect("lane_slab captured only when the feed is armed")
                    .push(LaneEvent::Squash {
                        thread: t as u8,
                        slab,
                        dest,
                    });
            }
            let inst = &slot.inst;
            let k = DeallocKind::Squashed;
            // Occupancy-only banking for every structure the op touched.
            self.avf.bank_split(
                StructureId::Rob,
                id,
                0,
                budgets::rob::ENTRY,
                slot.rob_residency(now),
            );
            if inst.op != OpClass::Nop {
                if slot.in_iq {
                    assert!(self.iq.remove(id, slot.ftag));
                    self.threads[t].iq_used -= 1;
                }
                self.avf.bank_split(
                    StructureId::Iq,
                    id,
                    classify::iq_ace_bits(inst, k),
                    budgets::iq::ENTRY,
                    slot.iq_residency(now),
                );
                if slot.issued_at > 0 {
                    self.avf.bank_split(
                        StructureId::Fu,
                        id,
                        0,
                        budgets::fu::ENTRY,
                        slot.exec_latency,
                    );
                }
            }
            if slot.in_lsq {
                self.avf.bank_split(
                    StructureId::LsqTag,
                    id,
                    0,
                    budgets::lsq::TAG_ENTRY,
                    slot.rob_residency(now),
                );
                let data_res = match (inst.op, slot.completed_at, slot.issued_at) {
                    (OpClass::Load, c, _) if c > 0 => now - c,
                    (OpClass::Store, _, i) if i > 0 => now - i,
                    _ => 0,
                };
                self.avf.bank_split(
                    StructureId::LsqData,
                    id,
                    0,
                    budgets::lsq::DATA_ENTRY,
                    data_res,
                );
                self.threads[t].lsq_used -= 1;
            }
            // Outstanding-miss accounting for in-flight loads.
            {
                let th = &mut self.threads[t];
                if slot.counted_l1 {
                    th.outstanding_l1 -= 1;
                }
                if slot.counted_l2 {
                    th.outstanding_l2 -= 1;
                }
                if slot.counted_pred {
                    th.predicted_l1 = th.predicted_l1.saturating_sub(1);
                }
                if slot.counted_pred_l2 {
                    th.predicted_l2 = th.predicted_l2.saturating_sub(1);
                }
                th.squashed += 1;
            }
            // Rename rollback: restore the previous mapping, free the
            // speculative register.
            if let Some(p) = slot.dest_phys {
                let arch = inst.dest.expect("phys dest without arch dest");
                let (regs, free) = if arch.is_fp() {
                    (&mut self.fp_regs, &mut self.fp_free)
                } else {
                    (&mut self.int_regs, &mut self.int_free)
                };
                regs.on_squash(p);
                regs.on_free(p, &mut self.avf);
                free.free(p);
                self.faults.poison(arch.is_fp())[p.index()] = false;
                self.threads[t].rename[arch.index()] =
                    slot.old_phys.expect("dest without old mapping");
            }
            if replay && !inst.wrong_path {
                replay_rev.push(slot.inst);
            }
        }
        self.wake.squash(id, boundary);
        // Front-end pipe: drop wrong-path work, optionally replay the rest.
        let mut frontend = std::mem::take(&mut self.scratch.frontend);
        frontend.clear();
        let th = &mut self.threads[t];
        for fe in th.fetch_queue.drain(..) {
            if fe.predicted_miss {
                th.predicted_l1 = th.predicted_l1.saturating_sub(1);
            }
            if fe.predicted_l2_miss {
                th.predicted_l2 = th.predicted_l2.saturating_sub(1);
            }
            if replay && !fe.inst.wrong_path {
                frontend.push(fe.inst);
            } else {
                th.squashed += 1;
            }
        }
        if replay {
            // Oldest-first: squashed ROB tail (reversed) then the front end,
            // ahead of anything already awaiting replay.
            for &inst in frontend.iter().rev() {
                th.replay.push_front(inst);
            }
            for &inst in &replay_rev {
                th.replay.push_front(inst);
            }
        }
        if th.pending_mispredict.is_some_and(|f| f > boundary) {
            th.pending_mispredict = None;
        }
        th.recompute_icount();
        // Resume fetching at the right PC.
        self.fetch_pc[t] = if let Some(i) = th.replay.front() {
            i.pc
        } else if th.pending_mispredict.is_some() {
            self.wrong_pc[t]
        } else {
            th.gen.current_pc()
        };
        self.scratch.replay_rev = replay_rev;
        self.scratch.frontend = frontend;
        let squashed = self.threads[t].squashed - squashed_before;
        self.trace_squash(t, squashed, replay, now);
    }

    // -----------------------------------------------------------------
    // Dispatch (rename + allocate)
    // -----------------------------------------------------------------

    /// Whether thread `t`'s fetch-queue head could dispatch this cycle:
    /// it has cleared the front-end pipe and no structural hazard (ROB,
    /// LSQ, IQ, free list) blocks it. Shared between the dispatch stage
    /// and the fast-forward quiescence predicate so the two can never
    /// disagree.
    fn can_dispatch_front(&self, t: usize, now: u64) -> bool {
        let th = &self.threads[t];
        let Some(fe) = th.fetch_queue.front() else {
            return false;
        };
        if fe.ready_at > now {
            return false;
        }
        let inst = &fe.inst;
        // Structural hazards.
        if th.rob.len() >= self.cfg.rob_entries_per_thread as usize {
            return false;
        }
        if inst.op.is_mem() && th.lsq_used >= self.cfg.lsq_entries_per_thread {
            return false;
        }
        if inst.op != OpClass::Nop && !self.iq.has_space() {
            return false;
        }
        if inst.op != OpClass::Nop
            && self.cfg.iq_partitioned
            && th.iq_used >= self.cfg.iq_entries / self.cfg.contexts as u32
        {
            return false;
        }
        if let Some(dest) = inst.dest {
            let free = if dest.is_fp() {
                self.fp_free.available()
            } else {
                self.int_free.available()
            };
            if free == 0 {
                return false;
            }
        }
        true
    }

    fn dispatch(&mut self, now: u64) {
        let width = self.cfg.issue_width;
        let mut order = std::mem::take(&mut self.scratch.dispatch_order);
        order.clear();
        order.extend(0..self.threads.len());
        order.sort_unstable_by_key(|&t| (self.threads[t].icount, t));
        let mut dispatched = 0u32;
        for &t in &order {
            while dispatched < width {
                if !self.can_dispatch_front(t, now) {
                    break;
                }
                // All clear: dispatch.
                let fe = self.threads[t]
                    .fetch_queue
                    .pop_front()
                    .expect("just peeked");
                let id = ThreadId(t as u8);
                let mut slot = Slot::new(fe, now);
                // Rename sources.
                for (i, src) in slot.inst.srcs.iter().enumerate() {
                    if let Some(arch) = src {
                        slot.srcs_phys[i] = Some(self.threads[t].mapping(*arch));
                    }
                }
                // Rename destination.
                if let Some(arch) = slot.inst.dest {
                    let (regs, free) = if arch.is_fp() {
                        (&mut self.fp_regs, &mut self.fp_free)
                    } else {
                        (&mut self.int_regs, &mut self.int_free)
                    };
                    let p = free.alloc().expect("checked availability above");
                    regs.on_alloc(p, id);
                    // A reallocated register no longer holds the old
                    // (possibly corrupt) value.
                    self.faults.poison(arch.is_fp())[p.index()] = false;
                    if let Some(buf) = &mut self.lane_events {
                        buf.push(LaneEvent::Alloc {
                            fp: arch.is_fp(),
                            reg: p.0,
                        });
                    }
                    slot.dest_phys = Some(p);
                    slot.old_phys = Some(self.threads[t].rename[arch.index()]);
                    self.threads[t].rename[arch.index()] = p;
                }
                slot.mispredicted = self.threads[t].pending_mispredict == Some(slot.ftag);
                let needs_iq = slot.inst.op != OpClass::Nop;
                if needs_iq {
                    slot.in_iq = true;
                    self.threads[t].iq_used += 1;
                } else {
                    slot.state = SlotState::Done;
                    slot.completed_at = now;
                    self.threads[t].icount = self.threads[t].icount.saturating_sub(1);
                }
                if slot.inst.op.is_mem() {
                    slot.in_lsq = true;
                    self.threads[t].lsq_used += 1;
                }
                let ftag = slot.ftag;
                let unready = unready_src(&self.int_regs, &self.fp_regs, &slot);
                let idx = self.threads[t].push_slot(slot);
                if needs_iq {
                    let e = self.iq.insert(id, ftag, idx);
                    self.wake.file(e, unready);
                }
                dispatched += 1;
            }
        }
        self.scratch.dispatch_order = order;
    }

    // -----------------------------------------------------------------
    // Fetch
    // -----------------------------------------------------------------

    fn fill_telemetry(&self, out: &mut Vec<ThreadTelemetry>) {
        out.clear();
        out.extend(self.threads.iter().map(|th| ThreadTelemetry {
            active: true,
            in_flight: th.icount,
            outstanding_l1_misses: th.outstanding_l1,
            outstanding_l2_misses: th.outstanding_l2,
            predicted_l1_misses: th.predicted_l1,
            predicted_l2_misses: th.predicted_l2,
            iq_occupancy: th.iq_used,
        }));
    }

    #[cfg(test)]
    fn telemetry(&self) -> Vec<ThreadTelemetry> {
        let mut out = Vec::new();
        self.fill_telemetry(&mut out);
        out
    }

    fn fetch(&mut self, now: u64) {
        let mut telemetry = std::mem::take(&mut self.scratch.telemetry);
        let mut priority = std::mem::take(&mut self.scratch.priority);
        self.fill_telemetry(&mut telemetry);
        self.policy.priority_into(&telemetry, &mut priority);
        let mut fetched_total = 0u32;
        let mut threads_used = 0u32;
        for &id in &priority {
            if fetched_total >= self.cfg.fetch_width
                || threads_used >= self.cfg.fetch_threads_per_cycle
            {
                break;
            }
            let t = id.index();
            if self.threads[t].fetch_stall_until > now
                || self.threads[t].fetch_queue.len() >= FETCH_QUEUE_CAP
            {
                continue;
            }
            // Instruction cache access at the thread's fetch PC. A one-line
            // fetch buffer holds the current line: it is only re-probed when
            // fetch moves to a different line (on a miss the fill is started
            // and the buffered line becomes usable when the stall expires).
            let pc = self.fetch_pc[t];
            let line = pc & !(self.cfg.il1.line_bytes as u64 - 1);
            if self.threads[t].fetch_line != Some(line) {
                // While a misprediction is unresolved the fetch stream is
                // wrong-path: it pollutes the I-side but consumes nothing.
                let ace = self.threads[t].pending_mispredict.is_none();
                let access = self.mem.inst_fetch(id, pc, now, ace, &mut self.avf);
                self.threads[t].fetch_line = Some(line);
                if access.latency > self.cfg.il1.hit_latency {
                    self.threads[t].fetch_stall_until = now + access.latency as u64;
                    continue;
                }
            }
            threads_used += 1;
            // Fetch a contiguous block, ending at the first branch.
            while fetched_total < self.cfg.fetch_width
                && self.threads[t].fetch_queue.len() < FETCH_QUEUE_CAP
            {
                let th = &mut self.threads[t];
                let ftag = th.alloc_ftag();
                let (inst, next_pc) = if th.pending_mispredict.is_some() {
                    let seq = th.alloc_wrong_seq();
                    let pc = self.wrong_pc[t];
                    let inst = th.gen.wrong_path_inst(pc, seq);
                    th.wrong_path_fetched += 1;
                    self.wrong_pc[t] = pc + 4;
                    (inst, pc + 4)
                } else if let Some(inst) = th.replay.pop_front() {
                    let next = if inst.op.is_branch() && inst.taken {
                        inst.target
                    } else {
                        inst.pc + 4
                    };
                    (inst, next)
                } else {
                    let inst = th.gen.next_inst();
                    let next = th.gen.current_pc();
                    (inst, next)
                };
                let is_branch = inst.op.is_branch();
                let mut predicted_miss = false;
                let mut predicted_l2_miss = false;
                if !inst.wrong_path {
                    if is_branch {
                        let pred = self.threads[t].predictor.predict_and_train(&inst);
                        if !pred.correct {
                            let th = &mut self.threads[t];
                            th.pending_mispredict = Some(ftag);
                            // Fetch continues down the (wrong) predicted
                            // path next cycle.
                            self.wrong_pc[t] = inst.pc + 64;
                        }
                    } else if inst.op == OpClass::Load {
                        let th = &mut self.threads[t];
                        predicted_miss = th.miss_pred.predict_miss(inst.pc);
                        if predicted_miss {
                            th.predicted_l1 += 1;
                        }
                        predicted_l2_miss = th.l2_miss_pred.predict_miss(inst.pc);
                        if predicted_l2_miss {
                            th.predicted_l2 += 1;
                        }
                    }
                }
                let th = &mut self.threads[t];
                th.fetch_queue.push_back(FrontEndInst {
                    inst,
                    ftag,
                    ready_at: now + self.cfg.frontend_depth as u64,
                    predicted_miss,
                    predicted_l2_miss,
                });
                th.icount += 1;
                fetched_total += 1;
                // While a misprediction is unresolved, fetch follows the
                // wrong path; otherwise it follows the instruction stream.
                self.fetch_pc[t] = if th.pending_mispredict.is_some() {
                    self.wrong_pc[t]
                } else {
                    next_pc
                };
                self.trace_fetched(t);
                if is_branch {
                    break;
                }
            }
        }
        self.scratch.telemetry = telemetry;
        self.scratch.priority = priority;
    }
}

// ---------------------------------------------------------------------
// Trace hooks
//
// With the `trace` feature these accumulate stage activity and emit ring
// events; without it they are empty `#[inline(always)]` functions, so the
// call sites compile to nothing and the cycle loop is bit-for-bit the
// uninstrumented one (the steady-state overhead benchmark pins this).
// ---------------------------------------------------------------------

#[cfg(feature = "trace")]
impl<S> SmtCore<S> {
    #[inline]
    fn trace_fetched(&mut self, t: usize) {
        if let Some(tr) = &mut self.tracer {
            tr.counts[t].fetched += 1;
        }
    }

    #[inline]
    fn trace_issued(&mut self, t: usize) {
        if let Some(tr) = &mut self.tracer {
            tr.counts[t].issued += 1;
        }
    }

    #[inline]
    fn trace_committed(&mut self, t: usize) {
        if let Some(tr) = &mut self.tracer {
            tr.counts[t].committed += 1;
        }
    }

    #[inline]
    fn trace_squash(&mut self, t: usize, squashed: u64, replay: bool, now: u64) {
        if let Some(tr) = &mut self.tracer {
            if squashed == 0 {
                return;
            }
            let kind = if replay {
                sim_trace::SquashKind::Flush
            } else {
                sim_trace::SquashKind::Mispredict
            };
            tr.squash(now, t, squashed.min(u32::MAX as u64) as u32, kind);
        }
    }

    /// Emit one sample per thread plus a shared-structure snapshot when a
    /// sample boundary is reached. Called once per cycle from `step`.
    #[inline]
    fn trace_sample(&mut self) {
        let Some(tr) = &self.tracer else {
            return;
        };
        if self.cycle < tr.next_sample {
            return;
        }
        self.trace_emit_sample(self.cycle);
    }

    /// Emit every sample boundary a clock jump skipped over, at exactly
    /// the cycles the per-cycle path would have sampled. Stage counts
    /// accumulated before the jump land in the first boundary's sample
    /// (`mem::take` zeroes them for the rest), and occupancies are
    /// constant across a quiescent span — so the event stream is
    /// bit-identical to the slow path's.
    fn trace_sample_span(&mut self) {
        loop {
            let Some(tr) = &self.tracer else {
                return;
            };
            let at = tr.next_sample;
            if at > self.cycle {
                return;
            }
            self.trace_emit_sample(at);
        }
    }

    fn trace_emit_sample(&mut self, at: u64) {
        let Some(tr) = &mut self.tracer else {
            return;
        };
        for (t, th) in self.threads.iter().enumerate() {
            let c = std::mem::take(&mut tr.counts[t]);
            tr.sink.emit(sim_trace::TraceEvent::Stage {
                cycle: at,
                thread: t as u8,
                fetched: c.fetched,
                issued: c.issued,
                committed: c.committed,
                squashed: c.squashed,
                rob: th.rob.len() as u32,
                iq: th.iq_used,
            });
        }
        tr.sink.emit(sim_trace::TraceEvent::Shared {
            cycle: at,
            iq: self.iq.len() as u32,
            int_free: self.int_free.available() as u32,
            fp_free: self.fp_free.available() as u32,
        });
        tr.next_sample = at + tr.sample_interval;
    }
}

#[cfg(not(feature = "trace"))]
impl<S> SmtCore<S> {
    #[inline(always)]
    fn trace_fetched(&mut self, _t: usize) {}
    #[inline(always)]
    fn trace_issued(&mut self, _t: usize) {}
    #[inline(always)]
    fn trace_committed(&mut self, _t: usize) {}
    #[inline(always)]
    fn trace_squash(&mut self, _t: usize, _squashed: u64, _replay: bool, _now: u64) {}
    #[inline(always)]
    fn trace_sample(&mut self) {}
    #[inline(always)]
    fn trace_sample_span(&mut self) {}
}

// ---------------------------------------------------------------------
// Fault injection (see `crate::inject` and the `sim-inject` crate)
// ---------------------------------------------------------------------

impl<S: InstSource> SmtCore<S> {
    /// Cycles elapsed since the last commit — the hang detector for fault
    /// trials (an injected fault can wedge the scheduler).
    pub fn cycles_since_last_commit(&self) -> u64 {
        self.cycle - self.last_commit_cycle
    }

    /// Start recording the retired-instruction stream (the diffable
    /// architectural output proxy).
    pub fn enable_commit_log(&mut self) {
        self.faults.commit_log = Some(Vec::new());
    }

    /// Take the recorded commit log, if recording was enabled.
    pub fn take_commit_log(&mut self) -> Option<Vec<RetiredInst>> {
        self.faults.commit_log.take()
    }

    /// Borrow the commit log recorded so far without consuming it (the
    /// fault-injection runner polls this mid-trial to detect convergence
    /// back onto the golden stream).
    pub fn commit_log(&self) -> Option<&[RetiredInst]> {
        self.faults.commit_log.as_deref()
    }

    /// A strike landed on control state classified as hardware-detectable.
    pub fn fault_detected(&self) -> bool {
        self.faults.detected
    }

    /// Ready IQ entries that select moved back to waiting because a
    /// source register went unwritten again after they were filed (only a
    /// corrupted source tag can cause that). Debug builds only: tests read
    /// it to show the demotion path ran.
    #[cfg(debug_assertions)]
    #[doc(hidden)]
    pub fn ready_demotions(&self) -> u64 {
        self.wake.demotions
    }

    /// Instructions that retired with corrupt results so far.
    pub fn corrupt_retired(&self) -> u64 {
        self.faults.corrupt_retired
    }

    /// Corrupt state still latent in the machine: poisoned registers,
    /// tainted in-flight instructions, or poisoned/stale memory words.
    pub fn residual_corruption(&self) -> bool {
        self.faults.any_poison()
            || self.mem.has_poison()
            || self
                .threads
                .iter()
                .any(|th| th.rob_slots().any(|s| s.tainted))
    }

    /// A deterministic 64-bit fingerprint of the behavior-relevant machine
    /// state: the clock, commit counters, per-thread front-end and ROB
    /// occupancy (slab indices, ftags and PCs in program order), the
    /// rename maps, the shared IQ, the sorted completion-event schedule,
    /// fault-injection poison state, and the memory-hierarchy counters.
    ///
    /// Two cores with equal digests are not proven bit-identical — the
    /// digest is a *divergence detector*, not a full state hash — but any
    /// difference in the hashed state (which covers everything the
    /// snapshot-equivalence tests have ever caught drifting) changes it.
    /// The campaign store uses it to fail closed when a resumed campaign's
    /// rebuilt golden checkpoints do not match the ones the persisted
    /// chunks were produced from.
    pub fn state_digest(&self) -> u64 {
        // FNV-1a over the state serialized as little-endian u64s.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        put(self.cycle);
        put(self.total_committed);
        put(self.last_commit_cycle);
        put(self.commit_rr as u64);
        for &pc in self.fetch_pc.iter().chain(&self.wrong_pc) {
            put(pc);
        }
        for th in &self.threads {
            put(th.committed);
            put(th.next_ftag);
            put(th.icount as u64);
            put(th.lsq_used as u64);
            put(th.fetch_stall_until);
            put(th.fetch_queue.len() as u64);
            put(th.replay.len() as u64);
            for r in &th.rename {
                put(r.0 as u64);
            }
            for (i, s) in th.rob.iter().map(|&i| (i, &th.slab[i as usize])) {
                put(i as u64);
                put(s.ftag);
                put(s.inst.pc);
                put(s.dispatched_at);
            }
        }
        for e in self.iq.entries() {
            put(e.thread.0 as u64);
            put(e.ftag);
            put(e.slot as u64);
            put(e.age);
        }
        // BinaryHeap iteration order is an implementation detail; hash the
        // schedule in sorted order so the digest depends only on contents.
        let mut events: Vec<_> = self.events.iter().map(|Reverse(e)| *e).collect();
        events.sort_unstable();
        for (cycle, thread, ftag, slot) in events {
            put(cycle);
            put(thread as u64);
            put(ftag);
            put(slot as u64);
        }
        put(self.int_free.available() as u64);
        put(self.fp_free.available() as u64);
        for (i, &p) in self
            .faults
            .int_poison
            .iter()
            .chain(&self.faults.fp_poison)
            .enumerate()
        {
            if p {
                put(i as u64);
            }
        }
        put(self.faults.detected as u64);
        put(self.faults.corrupt_retired);
        for s in [
            self.mem.dl1_stats(),
            self.mem.il1_stats(),
            self.mem.l2_stats(),
        ] {
            put(s.accesses);
            put(s.misses);
            put(s.writebacks);
        }
        for s in [self.mem.dtlb_stats(), self.mem.itlb_stats()] {
            put(s.accesses);
            put(s.misses);
        }
        h
    }

    /// Flip one bit *now*: apply `fault` to the current microarchitectural
    /// state and report what the strike landed on. Entry indices are
    /// uniform over each array's physical entries, so strikes on empty or
    /// architecturally idle state return [`Landing::Empty`] /
    /// [`Landing::Benign`] — exactly the derating the ACE model accounts
    /// for analytically — and apply nothing.
    ///
    /// The strike is resolved by [`SmtCore::decode_fault`] and then
    /// applied, so it always lands where the decoded [`Strike`] says.
    pub fn inject_fault(&mut self, fault: &Fault) -> Landing {
        let strike = self.decode_fault(fault);
        self.apply_strike(strike);
        strike.landing()
    }

    /// Resolve `fault` against the current state without mutating
    /// anything: the occupant it strikes, the field within that occupant's
    /// budgeted layout (`avf_core::budgets`), and the mutation injecting
    /// it makes.
    ///
    /// Any entry at or past [`target_entries`](crate::target_entries) is
    /// [`Strike::Empty`]. Wrong-path occupants are [`Strike::Benign`]: the
    /// squash that removes them discards the corrupt entry wholesale (and
    /// the matching ACE classification is un-ACE).
    pub fn decode_fault(&self, fault: &Fault) -> Strike {
        let Fault { target, entry, bit } = *fault;
        if entry >= target_entries(target, &self.cfg) {
            return Strike::Empty;
        }
        let occupant = match target {
            FaultTarget::Iq => self
                .iq
                .entries()
                .get(entry as usize)
                .map(|e| (e.thread.index(), e.slot)),
            FaultTarget::Rob => {
                let per = self.cfg.rob_entries_per_thread as u64;
                let t = (entry / per) as usize;
                self.threads[t]
                    .rob
                    .get((entry % per) as usize)
                    .map(|&i| (t, i))
            }
            FaultTarget::LsqTag => {
                let per = self.cfg.lsq_entries_per_thread as u64;
                let t = (entry / per) as usize;
                let th = &self.threads[t];
                th.rob
                    .iter()
                    .copied()
                    .filter(|&i| th.slab[i as usize].in_lsq)
                    .nth((entry % per) as usize)
                    .map(|i| (t, i))
            }
            FaultTarget::Fu => {
                // Instructions currently holding a functional-unit latch:
                // issued, and still inside their occupancy window (one
                // cycle for pipelined units, the full latency for
                // dividers) — the same window the ACE accounting banks.
                let now = self.cycle;
                self.threads
                    .iter()
                    .enumerate()
                    .flat_map(|(t, th)| th.rob.iter().map(move |&i| (t, i, &th.slab[i as usize])))
                    .filter(|(_, _, s)| {
                        s.state == SlotState::Issued
                            && s.inst.op != OpClass::Nop
                            && s.issued_at + s.exec_latency.max(1) >= now
                    })
                    .map(|(t, i, _)| (t, i))
                    .nth(entry as usize)
            }
            FaultTarget::RegFile => {
                let int_pool = self.cfg.int_phys_regs as u64;
                let (fp, reg) = if entry < int_pool {
                    (false, PhysReg(entry as u16))
                } else {
                    (true, PhysReg((entry - int_pool) as u16))
                };
                let regs = if fp { &self.fp_regs } else { &self.int_regs };
                // Free, or allocated but not yet written: the bits are idle
                // and the eventual write overwrites the flip.
                return if regs.is_ready(reg) {
                    Strike::PoisonReg { fp, reg: reg.0 }
                } else {
                    Strike::Empty
                };
            }
            FaultTarget::Dl1Data => {
                return match self.mem.dl1().decode_data(entry, bit) {
                    Some(word) => Strike::Dl1Word {
                        line: entry as u32,
                        word: word as u8,
                    },
                    None => Strike::Empty,
                };
            }
            FaultTarget::Dl1Tag => {
                let line = entry as u32;
                return match self.mem.dl1().decode_tag(entry, bit) {
                    TagInject::Empty => Strike::Empty,
                    TagInject::Benign => Strike::Benign,
                    // The refill restores a lost clean line; only timing
                    // changes. The trial still runs: that is the
                    // measurement.
                    TagInject::CleanInvalidate => Strike::Dl1Line { line, dirty: false },
                    TagInject::DirtyLost => Strike::Dl1Line { line, dirty: true },
                };
            }
            FaultTarget::Dtlb | FaultTarget::Itlb => {
                // A lost translation is refilled by the page walk; with the
                // model's identity mapping the refill is identical, so these
                // strikes measure as masked — the gap to the nonzero ACE
                // estimate is the model's conservatism on TLBs.
                let itlb = target == FaultTarget::Itlb;
                return match self.mem.tlb(itlb).decode_entry(entry) {
                    Some(entry) => Strike::Tlb { itlb, entry },
                    None => Strike::Empty,
                };
            }
        };
        let Some((t, slab)) = occupant else {
            return Strike::Empty;
        };
        let slot = &self.threads[t].slab[slab as usize];
        if slot.inst.wrong_path {
            return Strike::Benign;
        }
        let taint = |rewrite: Option<Rewrite>, feeds_timing: bool| Strike::Taint {
            thread: t as u8,
            slab,
            rewrite,
            feeds_timing,
        };
        let flush = self.cfg.fetch_policy == FetchPolicyKind::Flush;
        match target {
            FaultTarget::Iq => {
                use budgets::iq::{DEST_TAG, ENTRY, IMMEDIATE, OPCODE, SRC_TAG};
                // Entry layout: opcode | src0 | src1 | dest tag | immediate
                // | status.
                let b = bit % ENTRY;
                let src_end = OPCODE + 2 * SRC_TAG;
                let dest_end = src_end + DEST_TAG;
                let imm_end = dest_end + IMMEDIATE;
                if b < OPCODE {
                    // A corrupted opcode decodes as a different/illegal
                    // operation.
                    Strike::Detected
                } else if b < src_end {
                    let src = ((b - OPCODE) / SRC_TAG) as usize;
                    let tag_bit = (b - OPCODE) % SRC_TAG;
                    let Some((fp, p)) = slot.srcs()[src] else {
                        return Strike::Benign; // the op has no such source
                    };
                    let pool = if fp {
                        self.cfg.fp_phys_regs
                    } else {
                        self.cfg.int_phys_regs
                    };
                    let flipped = (p.0 ^ (1 << tag_bit.min(15))) as u32 % pool;
                    if flipped == p.0 as u32 {
                        return Strike::Benign;
                    }
                    // The op now waits on — and reads — the wrong register:
                    // its result is corrupt, and it may wait forever (hang →
                    // detected).
                    let reg = flipped as u16;
                    let src = src as u8;
                    taint(Some(Rewrite::SrcTag { src, reg }), true)
                } else if b < dest_end {
                    // The result is steered to the wrong physical register.
                    if slot.dest_phys.is_none() {
                        Strike::Benign
                    } else {
                        taint(None, false)
                    }
                } else if b < imm_end {
                    if slot.inst.dyn_dead {
                        Strike::Benign
                    } else if slot.inst.op.is_mem() {
                        // The effective address changes: flip an address
                        // bit above the word offset (accesses stay 8-byte
                        // aligned).
                        taint(Some(Rewrite::MemAddr(1 << (3 + (b - dest_end) % 34))), true)
                    } else if slot.inst.op.is_branch() {
                        // A corrupted branch displacement misdirects fetch.
                        Strike::Detected
                    } else {
                        taint(None, false)
                    }
                } else if slot.inst.dyn_dead || slot.inst.op == OpClass::Nop {
                    // Scheduling status. For an instruction whose result is
                    // dead the scramble only perturbs timing; for a live one
                    // the issue logic misfires.
                    Strike::Benign
                } else {
                    Strike::Detected
                }
            }
            FaultTarget::Rob => {
                use budgets::rob::{DEST_ARCH, DEST_PHYS, ENTRY, OLD_PHYS, OPCODE, PC, STATUS};
                let b = bit % ENTRY;
                let old_end = PC + DEST_ARCH + DEST_PHYS + OLD_PHYS;
                let opcode_end = old_end + STATUS + OPCODE;
                if b < PC {
                    // The architectural PC record changes: visible in the
                    // retired stream unless the instruction's execution is
                    // dead anyway. The slot is also tainted — the record it
                    // will retire is corrupt, and the taint keeps the
                    // in-flight corruption visible to `residual_corruption`
                    // (without it, a convergence check landing while the
                    // slot is still in flight would see a clean machine and
                    // exit early as masked). After dispatch the recorded PC
                    // feeds nothing else, with two exceptions that make
                    // timing consult it again: a not-yet-issued load trains
                    // the miss predictors with its PC at issue, and FLUSH's
                    // L2-miss squash replays slots by refetching from their
                    // recorded PCs.
                    if slot.inst.dyn_dead {
                        return Strike::Benign;
                    }
                    let waiting_load =
                        slot.inst.op == OpClass::Load && slot.state == SlotState::Waiting;
                    taint(Some(Rewrite::Pc(1 << (b % 32))), flush || waiting_load)
                } else if b < old_end {
                    // Destination arch/phys or previous-mapping tag: the
                    // value ends up in (or frees) the wrong register.
                    if slot.dest_phys.is_none() {
                        Strike::Benign
                    } else {
                        taint(None, false)
                    }
                } else if b < opcode_end {
                    // Status and opcode corruption break retirement control
                    // for live *and* dead instructions (the ROB still
                    // sequences them) — the same fields the ACE model keeps
                    // ACE for dead ops.
                    Strike::Detected
                } else if slot.inst.op.is_branch() {
                    // Branch-state bits.
                    taint(None, false)
                } else {
                    Strike::Benign
                }
            }
            FaultTarget::LsqTag => {
                let b = bit % budgets::lsq::TAG_ENTRY;
                if b >= budgets::lsq::ADDR {
                    // Load/store control state (op kind, size, ordering
                    // flags).
                    return Strike::Detected;
                }
                if slot.inst.dyn_dead {
                    return Strike::Benign;
                }
                // The access address changes: a load reads (or has read)
                // the wrong data, a store retires to the wrong location. A
                // load's address is consumed exactly once, at issue
                // (`data_read` plus the store-address scan); dependence
                // checks by other ops scan store addresses only, and the
                // classifier short-circuits on the taint before diffing
                // logged addresses. Past issue the flip is dead state —
                // only the taint is observable. FLUSH is excluded: its
                // L2-miss squash replays the slot and would re-issue at the
                // rewritten address.
                let issued_load = slot.inst.op == OpClass::Load && slot.state != SlotState::Waiting;
                let addr = Rewrite::MemAddr(1 << (3 + b % 34));
                taint(Some(addr), flush || !issued_load)
            }
            FaultTarget::Fu => {
                if slot.inst.dyn_dead {
                    Strike::Benign
                } else if bit % budgets::fu::ENTRY < budgets::fu::OPERANDS {
                    // Operand latch: the in-flight computation is corrupt.
                    taint(None, false)
                } else {
                    // FU control (op select, stage valid bits).
                    Strike::Detected
                }
            }
            _ => unreachable!("array targets return above"),
        }
    }

    /// Apply a decoded strike. `Empty` and `Benign` apply nothing.
    fn apply_strike(&mut self, strike: Strike) {
        match strike {
            Strike::Empty | Strike::Benign => {}
            Strike::Detected => self.faults.detected = true,
            Strike::Taint {
                thread,
                slab,
                rewrite,
                ..
            } => {
                let slot = &mut self.threads[thread as usize].slab[slab as usize];
                match rewrite {
                    Some(Rewrite::SrcTag { src, reg }) => {
                        slot.srcs_phys[src as usize] = Some(PhysReg(reg));
                    }
                    Some(Rewrite::MemAddr(mask)) => {
                        if let Some(m) = &mut slot.inst.mem {
                            m.addr ^= mask;
                        }
                    }
                    Some(Rewrite::Pc(mask)) => slot.inst.pc ^= mask,
                    None => {}
                }
                slot.tainted = true;
                if let Some(Rewrite::SrcTag { .. }) = rewrite {
                    // The entry now waits on, or is ready through, another
                    // register: re-file it. Its record on the old register
                    // is dropped or re-filed harmlessly when that register
                    // is written.
                    let slot = &self.threads[thread as usize].slab[slab as usize];
                    let e = *self
                        .iq
                        .entries()
                        .iter()
                        .find(|e| e.thread.0 == thread && e.ftag == slot.ftag)
                        .expect("source-tag strike on an op outside the IQ");
                    self.wake
                        .file(e, unready_src(&self.int_regs, &self.fp_regs, slot));
                }
            }
            Strike::PoisonReg { fp, reg } => self.faults.poison(fp)[reg as usize] = true,
            Strike::Dl1Word { line, word } => self.mem.poison_dl1_word(line, word as usize),
            Strike::Dl1Line { line, .. } => self.mem.invalidate_dl1_line(line),
            Strike::Tlb { itlb, entry } => self.mem.invalidate_tlb_entry(itlb, entry),
        }
    }

    // -----------------------------------------------------------------
    // The lane event feed (see `crate::lanes`)
    // -----------------------------------------------------------------

    /// Arm the lane event feed (idempotent). While armed, every
    /// taint/poison-relevant mutation pushes one [`LaneEvent`]; the feed
    /// never influences the simulated history.
    pub(crate) fn lane_events_enable(&mut self) {
        if self.lane_events.is_none() {
            self.lane_events = Some(Vec::new());
        }
    }

    /// Disarm the feed and drop pending events (an idle batch stops
    /// paying for events no lane would read).
    pub(crate) fn lane_events_disable(&mut self) {
        self.lane_events = None;
    }

    /// Move pending events into `out` (clearing it first); the internal
    /// buffer stays armed and the two vectors' capacities ping-pong, so
    /// steady state allocates nothing.
    pub(crate) fn lane_events_drain(&mut self, out: &mut Vec<LaneEvent>) {
        out.clear();
        if let Some(buf) = &mut self.lane_events {
            std::mem::swap(buf, out);
        }
    }

    /// Arm the DL1 consumption feed; see
    /// [`sim_mem::MemoryHierarchy::consumption_enable`]. Idempotent. While
    /// both this feed and the lane feed are armed, every data-cache access
    /// forwards its [`sim_mem::CacheEvent`]s into the lane event stream
    /// (see [`SmtCore::pump_dl1_events`]), so the lane engine sees cache
    /// consumption *in order* with the taint/poison events around it.
    pub(crate) fn consumption_enable(&mut self) {
        self.mem.consumption_enable();
    }

    /// Disarm the consumption feed and drop pending events.
    pub(crate) fn consumption_disable(&mut self) {
        self.mem.consumption_disable();
    }

    /// Forward the DL1 consumption events emitted by the data access that
    /// just returned into the lane event stream, attributed to the
    /// consuming `(thread, slab)` — only `Read` events use the
    /// attribution (a poisoned demand read taints exactly that in-flight
    /// load); writes and fills carry their own identity. Forwarding
    /// inline at the access site is what gives the combined stream one
    /// total order: a read-taint, the consumer's own writeback, and an
    /// eviction of the watched line land in the buffer in true machine
    /// order, which the lane engine's heal/taint/doom rules depend on.
    fn pump_dl1_events(&mut self, thread: u8, slab: u32) {
        let Some(buf) = self.lane_events.as_mut() else {
            return;
        };
        self.mem.for_each_dl1_event(|ev| {
            buf.push(match ev {
                sim_mem::CacheEvent::Read { line, base, w0, w1 } => LaneEvent::DlRead {
                    thread,
                    slab,
                    line,
                    base,
                    w0,
                    w1,
                },
                sim_mem::CacheEvent::Write { line, base, w0, w1 } => {
                    LaneEvent::DlWrite { line, base, w0, w1 }
                }
                sim_mem::CacheEvent::Fill {
                    line,
                    base,
                    was_dirty,
                    ..
                } => LaneEvent::DlFill {
                    line,
                    base,
                    was_dirty,
                },
            })
        });
    }
}

impl<S: InstSource> SmtCore<S> {
    /// Multi-line diagnostic dump of scheduler-relevant state (used when
    /// debugging progress failures).
    pub fn dump_state(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "cycle={} committed={} iq={} int_free={} fp_free={} events={}",
            self.cycle,
            self.total_committed,
            self.iq.len(),
            self.int_free.available(),
            self.fp_free.available(),
            self.events.len()
        );
        for (t, th) in self.threads.iter().enumerate() {
            let head = th.front_slot().map(|sl| {
                format!(
                    "{:?} op={:?} ftag={} wrong={} in_iq={} disp@{} iss@{}",
                    sl.state,
                    sl.inst.op,
                    sl.ftag,
                    sl.inst.wrong_path,
                    sl.in_iq,
                    sl.dispatched_at,
                    sl.issued_at
                )
            });
            let _ = writeln!(
                s,
                "T{t} {}: rob={} fq={} replay={} icount={} iq_used={} lsq={} stall_until={} pending={:?} ol1={} ol2={} head={:?}",
                th.gen.name(),
                th.rob.len(),
                th.fetch_queue.len(),
                th.replay.len(),
                th.icount,
                th.iq_used,
                th.lsq_used,
                th.fetch_stall_until,
                th.pending_mispredict,
                th.outstanding_l1,
                th.outstanding_l2,
                head
            );
        }
        s
    }
}

/// The first source of `slot` whose register is not written yet — the one
/// its IQ entry waits on — or `None` when every source is ready.
#[inline]
fn unready_src(
    int_regs: &RegTracker,
    fp_regs: &RegTracker,
    slot: &Slot,
) -> Option<(bool, PhysReg)> {
    slot.srcs()
        .into_iter()
        .flatten()
        .find(|&(fp, p)| !if fp { fp_regs } else { int_regs }.is_ready(p))
}

impl<S> std::fmt::Debug for SmtCore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmtCore")
            .field("cycle", &self.cycle)
            .field("contexts", &self.threads.len())
            .field("total_committed", &self.total_committed)
            .field("iq_occupancy", &self.iq.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_workload::profile;

    fn core_for(programs: &[&str]) -> SmtCore {
        let cfg = MachineConfig::ispass07_baseline().with_contexts(programs.len());
        let gens = programs
            .iter()
            .enumerate()
            .map(|(i, p)| TraceGenerator::new(profile(p).expect("known"), i as u64 + 1))
            .collect();
        SmtCore::new(cfg, gens)
    }

    #[test]
    fn budget_constructors() {
        let b = SimBudget::total_instructions(1_000);
        assert_eq!(b.warmup_instructions, 0);
        assert_eq!(b.total_instructions, 1_000);
        let b = b.with_warmup(500);
        assert_eq!(b.warmup_instructions, 500);
        assert!(b.max_cycles >= (1_500) * 80);
    }

    #[test]
    fn fast_forward_matches_cycle_by_cycle_oracle() {
        // Memory-bound threads stall for long L2 spans — the richest
        // skipping opportunity. The root-crate equivalence suite covers
        // every mix/policy; this pins the core invariant in-crate.
        let mut fast = core_for(&["mcf", "swim"]);
        let mut slow = core_for(&["mcf", "swim"]);
        slow.set_fast_forward(false);
        fast.enable_telemetry(256);
        slow.enable_telemetry(256);
        let budget = SimBudget::total_instructions(8_000).with_warmup(2_000);
        let rf = fast.run(budget);
        let rs = slow.run(budget);
        assert_eq!(rf, rs);
        assert_eq!(fast.cycle(), slow.cycle());
        assert_eq!(fast.total_committed(), slow.total_committed());
        assert_eq!(fast.take_telemetry(), slow.take_telemetry());
    }

    #[test]
    fn measurement_window_excludes_warmup_counts() {
        let mut core = core_for(&["eon"]);
        let r = core.run(SimBudget::total_instructions(5_000).with_warmup(5_000));
        // The report covers only the measured window...
        assert!(r.report.total_committed() >= 5_000);
        assert!(r.report.total_committed() < 7_000, "window leaked warm-up");
        // ...while the core's lifetime counter covers both phases.
        assert!(core.total_committed() >= 10_000);
        assert!(r.cycles < core.cycle());
    }

    #[test]
    fn commit_bandwidth_is_shared_fairly_between_equal_threads() {
        let mut core = core_for(&["bzip2", "bzip2"]);
        let r = core.run(SimBudget::total_instructions(30_000).with_warmup(10_000));
        let a = r.report.committed()[0] as f64;
        let b = r.report.committed()[1] as f64;
        // Same program, different seeds: commit counts within 25%.
        assert!(
            (a - b).abs() / a.max(b) < 0.25,
            "unfair commit split: {a} vs {b}"
        );
    }

    #[test]
    fn dump_state_mentions_every_thread() {
        let mut core = core_for(&["bzip2", "mcf"]);
        for _ in 0..100 {
            core.step();
        }
        let dump = core.dump_state();
        assert!(dump.contains("T0 bzip2"));
        assert!(dump.contains("T1 mcf"));
        assert!(dump.contains("cycle=100"));
    }

    #[test]
    fn debug_format_is_nonempty() {
        let core = core_for(&["eon"]);
        let s = format!("{core:?}");
        assert!(s.contains("SmtCore"));
        assert!(s.contains("contexts"));
    }

    #[test]
    fn zero_warmup_budget_measures_from_cycle_zero() {
        let mut core = core_for(&["eon"]);
        let r = core.run(SimBudget::total_instructions(3_000));
        assert_eq!(r.cycles, core.cycle());
    }

    #[test]
    fn icount_telemetry_tracks_inflight_work() {
        let mut core = core_for(&["bzip2"]);
        // Enough cycles to get past the cold ITLB/IL1 fill stalls.
        for _ in 0..2_000 {
            core.step();
        }
        let t = core.telemetry();
        assert_eq!(t.len(), 1);
        assert!(t[0].active);
        // Something should be in flight mid-execution.
        assert!(t[0].in_flight > 0);
    }
}
