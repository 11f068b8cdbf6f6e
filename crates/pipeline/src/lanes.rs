//! Lane-parallel batched fault trials: one shared golden *follower* core
//! carries up to 64 trials ("lanes") at once, with per-lane bitmasks
//! mirroring the only state a metadata-only strike can touch.
//!
//! The observation this exploits: `Slot::tainted` and the register poison
//! tables are pure metadata — nothing in the scheduler, caches, or
//! predictors reads them, so a trial whose injection only sets taint or
//! poison follows the golden timing *forever*. Instead of re-simulating
//! that timing once per trial, a [`LaneBatch`] steps the pristine golden
//! core once and mirrors the metadata for N trials in
//! structure-of-arrays form: one `u64` lane mask per ROB slab slot and
//! per physical register, updated from a stream of [`LaneEvent`]s the
//! core emits at exactly the sites that touch taint, poison, or
//! data-cache consumption state. Lane masks make the N-trial update O(1)
//! per event — a bitwise OR/assign — rather than O(N).
//!
//! Resident cache/TLB strikes ride too. Three sub-cases:
//!
//! * **Timing-only strikes** (clean DL1 tag, any TLB entry) ride *bare*:
//!   no watch, no extra feed. Translation is identity-mapped and a clean
//!   line's refill restores it exactly, so the struck machine differs
//!   from golden only in timing — it retires the golden instruction
//!   stream from cycle zero and passes the per-thread-prefix convergence
//!   check at the first opportunity, exactly as the scalar trial does
//!   (its `FaultState` records nothing for these strikes). The lane just
//!   reports clean.
//! * **DL1 data-word poison** holds a [`Watch`] on the struck word and
//!   scans the data cache's *consumption feed*, which the core pumps
//!   into the lane event stream at the access site so cache consumption
//!   stays ordered with the taint/poison events around it
//!   ([`LaneEvent::DlRead`] and friends). A demand read of the word
//!   taints the consuming load's slab slot — the scalar machine's *only*
//!   response to reading a poisoned word is `slot.tainted = true`, which
//!   is exactly the metadata the lane masks already model, so the lane
//!   keeps riding. An overwrite heals the watch; a clean eviction heals
//!   it too (the refill restores the word). A *dirty* eviction spills
//!   the poison into the next level, and the watch follows it *by
//!   address* ([`Watch::Stale`], mirroring the scalar `stale_words`
//!   set): refills pick the poison back up, stores heal it, and the lane
//!   still never forks. Word poison feeds back into nothing — cache
//!   metadata, hit/miss, victim choice all stay golden — which is what
//!   makes the event-driven mirror exact.
//! * **A lost dirty line** (tag strike on a dirty line,
//!   [`Watch::DirtyLine`]) leaves the struck machine golden-minus-one-
//!   line with every word's address stale: timing-identical *until* the
//!   line or its set is touched, permanently residual (Latent) if never
//!   touched. The first touch — a read or write of the line, or any
//!   fill into its set — dooms the lane to a scalar fork from the
//!   checkpoint. See DESIGN.md §5j.
//!
//! Strikes that would mutate live scheduling state (renamed source tags,
//! pre-issue effective addresses, recorded PCs) are detected up front by
//! [`SmtCore::decode_fault`] (a [`Strike::Taint`] that `feeds_timing`)
//! and *forked*: the lane leaves the batch and its trial runs the
//! ordinary scalar path from a golden checkpoint (the follower at the
//! injection cycle is bit-identical to that restore, by the snapshot
//! property the checkpointed campaigns already rely on). Divergence
//! detection is conservative by construction — decoding only has to be
//! exact about the cheap cases, because the fork is always correct.

use crate::core::SmtCore;
use crate::inject::Strike;
use sim_workload::{InstSource, TraceGenerator};

/// One taint/poison-relevant mutation in the follower core, emitted when
/// the lane feed is armed. Registers are identified by `(fp, index)`,
/// in-flight instructions by `(thread, slab index)` — the same stable
/// keys [`Strike`] reports.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LaneEvent {
    /// Dispatch allocated a fresh destination register: any lane's stale
    /// poison on it is cleared (scalar: `poison[p] = false` on alloc).
    Alloc { fp: bool, reg: u16 },
    /// An instruction issued and read its renamed sources: poison on any
    /// source propagates to the slot's taint (scalar: `slot.tainted = true`
    /// if a source is poisoned).
    Issue {
        thread: u8,
        slab: u32,
        srcs: [Option<(bool, u16)>; 2],
    },
    /// A producer wrote back: the destination register now holds exactly
    /// the producer's corruption (scalar: `poison[p] = slot.tainted` — an
    /// assignment, so a clean producer *heals* the register).
    Writeback {
        thread: u8,
        slab: u32,
        fp: bool,
        reg: u16,
    },
    /// The ROB head retired: a tainted retirement is an architectural
    /// corruption (scalar: `corrupt_retired += 1`), the slab slot is
    /// recycled, and the previous mapping of the destination is freed
    /// (scalar: `poison[old] = false`).
    Commit {
        thread: u8,
        slab: u32,
        old: Option<(bool, u16)>,
    },
    /// A squash discarded the slot: its taint vanishes with it and the
    /// speculative destination register is freed (scalar: `poison[p] =
    /// false` on rollback).
    Squash {
        thread: u8,
        slab: u32,
        dest: Option<(bool, u16)>,
    },
    /// A demand load read words `w0..=w1` of the DL1 line holding base
    /// address `base` (flat physical index `line`), on behalf of
    /// in-flight instruction `(thread, slab)`. Emitted for hits *and*
    /// (right after the [`DlFill`](LaneEvent::DlFill)) for miss refills.
    /// If a lane's watched poisoned word — resident or stale — is in the
    /// range, that load consumed the corruption: the scalar machine's
    /// sole response is `slot.tainted = true`, so the lane ORs its bit
    /// into the slot's taint mask and keeps riding. Pumped inline at the
    /// access site so cache events stay ordered with the taint/poison
    /// traffic around them.
    DlRead {
        thread: u8,
        slab: u32,
        line: u32,
        base: u64,
        w0: u8,
        w1: u8,
    },
    /// A store overwrote words `w0..=w1` of the line holding base address
    /// `base`: any watched poisoned word in the range is healed — scalar:
    /// the write clears the word's poison bit and removes the word's
    /// address from the stale set, wherever the bad copy lives.
    DlWrite {
        line: u32,
        base: u64,
        w0: u8,
        w1: u8,
    },
    /// A refill replaced DL1 line `line`, which previously held the line
    /// at base address `base` (0 if the way was invalid). A watched word
    /// on the victim heals if the line was clean (the fill overwrites the
    /// poison) and goes *stale* if dirty (the writeback spills the poison
    /// into the next level, where the watch keeps tracking it by
    /// address). A strike-free lane's victim choice is identical to
    /// golden — word poison touches no valid/lru/tag metadata — so `line`
    /// is the victim in every lane and no victim-ambiguity analysis is
    /// needed.
    DlFill {
        line: u32,
        base: u64,
        was_dirty: bool,
    },
}

/// Current DL1 copy of a stale word's address (see [`Watch::Stale`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StaleCopy {
    /// No valid DL1 line holds the address.
    Gone,
    /// The given flat line holds the address and the word is poisoned: a
    /// read miss refilled it and `poison_words_from` re-marked every
    /// stale word of the line.
    Poisoned(u32),
    /// The given flat line holds the address but the word is *clean*: a
    /// write-allocate fill of other words brought the line in without
    /// re-poisoning (the scalar calls `poison_words_from` on read misses
    /// only). Reads of the address consume good data and do not taint;
    /// the address stays in the stale set until a store covers it.
    Clean(u32),
}

/// One lane's resident DL1 strike, scanned against the
/// [`LaneEvent::DlRead`]/[`DlWrite`](LaneEvent::DlWrite)/
/// [`DlFill`](LaneEvent::DlFill) traffic. Line numbers are *flat*
/// physical indices (`set * assoc + way`), the numbering the feed uses.
/// Every watch state is residual corruption while it stands — the lane
/// is Latent if the trial ends with it still set, exactly like the
/// scalar `dl1.has_poison() || !stale_words.is_empty()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Watch {
    /// A poisoned data word in a valid line (scalar: `ws.poisoned`).
    /// Reads covering it taint the consumer; a store covering it heals;
    /// a clean eviction heals (the refill restores the word); a dirty
    /// eviction transitions to [`Watch::Stale`].
    Word { line: u32, word: u8 },
    /// The poisoned word escaped below DL1 on a dirty writeback: the
    /// corruption now lives at word address `addr` in the scalar
    /// `stale_words` set, re-entering the DL1 on demand (`copy` mirrors
    /// whether a DL1 copy is resident and poisoned). Only a store
    /// covering `addr` heals; reads taint only when they consume a
    /// poisoned copy (a miss refill, or a hit on one).
    Stale { addr: u64, copy: StaleCopy },
    /// A dirty line silently invalidated by a tag strike (scalar: every
    /// word address pushed into `stale_words`, line gone). The struck
    /// machine is golden minus one valid line: timing-identical exactly
    /// until the line is read or written (the golden hit is a struck
    /// miss) or *any* fill lands in its set (victim choice and writeback
    /// traffic differ) — each of those dooms the lane to a scalar fork.
    /// Untouched, it can never heal or taint: permanently residual.
    DirtyLine { line: u32 },
}

/// Up to 64 metadata-only fault trials riding one golden follower core.
///
/// The follower is stepped through the shared golden timing; per-lane
/// taint/poison masks are updated from the core's [`LaneEvent`] feed.
/// The feed stays disarmed (zero per-site cost beyond one branch) until
/// the first [`LaneBatch::activate`] call — before any lane has injected
/// every mask is zero and every event would be a no-op.
pub struct LaneBatch<S = TraceGenerator> {
    follower: SmtCore<S>,
    lanes: usize,
    /// Per-thread, per-slab-slot lane masks: bit `l` set means lane `l`'s
    /// copy of that in-flight instruction is tainted. Grown on demand —
    /// the slab itself grows lazily.
    taint: Vec<Vec<u64>>,
    /// Per-physical-register lane masks (bit `l` = poisoned in lane `l`).
    int_poison: Vec<u64>,
    fp_poison: Vec<u64>,
    /// Per-lane count of corrupt retirements (the scalar
    /// `corrupt_retired`).
    corrupt: Vec<u64>,
    /// Drain buffer for the event feed (capacity ping-pongs with the
    /// core's internal buffer).
    scratch: Vec<LaneEvent>,
    /// The feed is armed (first activation has happened).
    armed: bool,
    /// Per-lane resident DL1 watch (at most one strike per lane).
    watch: Vec<Option<Watch>>,
    /// DL1 associativity: maps a flat line index to its set
    /// (`line / assoc`) for [`Watch::DirtyLine`]'s same-set fill rule.
    dl1_assoc: u32,
    /// `!(line_bytes - 1)`: aligns a word address down to its line base
    /// for [`Watch::Stale`]'s address matching.
    dl1_line_mask: u64,
    /// Live watches; the DL1 consumption feed disarms when this hits
    /// zero.
    watch_count: usize,
    /// Lanes whose lost dirty line was touched (read, written, or its
    /// set filled into): the struck machine's timing diverges here, so
    /// they must fall back to a scalar trial (collected via
    /// [`LaneBatch::take_doomed`]).
    doomed: u64,
    /// The DL1 consumption feed is armed. Its events arrive through the
    /// lane event stream (the core pumps them at the access site), so
    /// arming it also arms the lane feed.
    mem_armed: bool,
}

impl<S: InstSource> LaneBatch<S> {
    /// Wrap a follower core (a restored golden checkpoint) for up to
    /// `lanes` trials. `lanes` must be in `1..=64` (one mask bit each).
    pub fn new(follower: SmtCore<S>, lanes: usize) -> LaneBatch<S> {
        assert!((1..=64).contains(&lanes), "lane count must be 1..=64");
        let cfg = follower.config();
        let contexts = cfg.contexts;
        let slab_cap = cfg.rob_entries_per_thread as usize;
        let int_regs = cfg.int_phys_regs as usize;
        let fp_regs = cfg.fp_phys_regs as usize;
        let dl1_assoc = cfg.dl1.assoc;
        let dl1_line_mask = !(cfg.dl1.line_bytes as u64 - 1);
        LaneBatch {
            follower,
            lanes,
            taint: vec![vec![0; slab_cap]; contexts],
            int_poison: vec![0; int_regs],
            fp_poison: vec![0; fp_regs],
            corrupt: vec![0; lanes],
            scratch: Vec::new(),
            armed: false,
            watch: vec![None; lanes],
            dl1_assoc,
            dl1_line_mask,
            watch_count: 0,
            doomed: 0,
            mem_armed: false,
        }
    }

    /// The shared follower core (read-only).
    pub fn follower(&self) -> &SmtCore<S> {
        &self.follower
    }

    /// Follower clock.
    pub fn cycle(&self) -> u64 {
        self.follower.cycle()
    }

    /// Follower committed-instruction count.
    pub fn total_committed(&self) -> u64 {
        self.follower.total_committed()
    }

    /// Follower hang detector.
    pub fn cycles_since_last_commit(&self) -> u64 {
        self.follower.cycles_since_last_commit()
    }

    /// Inject a metadata-only or resident strike into lane `lane`: set
    /// the taint/poison bit the scalar `inject_fault` would have set, or
    /// start watching the struck poisoned DL1 word through the
    /// consumption feed. Each feed is armed lazily on its first use.
    ///
    /// Timing-only resident strikes (clean DL1 tag, any TLB entry) need
    /// *nothing*: translation is identity-mapped and a refill restores a
    /// clean line exactly, so the scalar trial records no fault state and
    /// passes the per-thread-prefix convergence check at the first
    /// opportunity regardless of the timing wobble. The lane rides bare
    /// and reports clean — the feeds stay cold.
    ///
    /// # Panics
    /// Panics if `strike` is `Empty`/`Benign`/`Detected` (needs no lane)
    /// or a taint that `feeds_timing` (must fork).
    pub fn activate(&mut self, lane: usize, strike: Strike) {
        assert!(lane < self.lanes, "lane out of range");
        let bit = 1u64 << lane;
        match strike {
            Strike::Taint {
                thread,
                slab,
                feeds_timing: false,
                ..
            } => {
                self.arm_lane_feed();
                let tm = &mut self.taint[thread as usize];
                if slab as usize >= tm.len() {
                    tm.resize(slab as usize + 1, 0);
                }
                tm[slab as usize] |= bit;
            }
            Strike::PoisonReg { fp, reg } => {
                self.arm_lane_feed();
                if fp {
                    self.fp_poison[reg as usize] |= bit;
                } else {
                    self.int_poison[reg as usize] |= bit;
                }
            }
            Strike::Dl1Word { line, word } => {
                self.set_watch(lane, Watch::Word { line, word });
            }
            Strike::Dl1Line { dirty: false, .. } | Strike::Tlb { .. } => {
                // Timing-only: bare rider, nothing to track.
            }
            Strike::Dl1Line { line, dirty: true } => {
                self.set_watch(lane, Watch::DirtyLine { line });
            }
            other => panic!("lane activation on non-batchable strike {other:?}"),
        }
    }

    fn arm_lane_feed(&mut self) {
        if !self.armed {
            // Before the first injection every mask is zero, so every
            // missed event was a no-op; arm lazily.
            self.follower.lane_events_enable();
            self.armed = true;
        }
    }

    fn set_watch(&mut self, lane: usize, w: Watch) {
        debug_assert!(self.watch[lane].is_none(), "lane already holds a watch");
        if !self.mem_armed {
            // Same lazy-arming argument: with no watch, every consumption
            // event would be ignored. DL1 events travel through the lane
            // event stream, so the lane feed must be live too.
            self.follower.consumption_enable();
            self.mem_armed = true;
        }
        self.arm_lane_feed();
        self.watch[lane] = Some(w);
        self.watch_count += 1;
    }

    /// Advance the follower until its clock reaches `bound` or its commit
    /// count reaches `target_committed`, mirroring every event into the
    /// lane masks. Like `step_fast_bounded`, stopping early and resuming
    /// with a different bound cannot change the simulated history.
    pub fn step_bounded(&mut self, bound: u64, target_committed: u64) {
        while self.follower.cycle() < bound && self.follower.total_committed() < target_committed {
            self.follower.step_fast_bounded(bound);
            if self.armed {
                let mut events = std::mem::take(&mut self.scratch);
                self.follower.lane_events_drain(&mut events);
                for &ev in &events {
                    self.apply(ev);
                }
                self.scratch = events;
            }
        }
    }

    fn doom(&mut self, lane: usize) {
        self.doomed |= 1 << lane;
        self.clear_watch(lane);
    }

    /// Drop lane `lane`'s watch (it healed, was consumed, or its rider
    /// resolved); disarms the consumption feed when no watches remain.
    pub fn clear_watch(&mut self, lane: usize) {
        if self.watch[lane].take().is_some() {
            self.watch_count -= 1;
            if self.watch_count == 0 && self.mem_armed {
                self.follower.consumption_disable();
                self.mem_armed = false;
            }
        }
    }

    /// Lanes whose lost dirty line was touched since the last call: each
    /// must be re-run as a full scalar trial (its watch is already
    /// cleared). The mask resets on read.
    pub fn take_doomed(&mut self) -> u64 {
        std::mem::take(&mut self.doomed)
    }

    /// Mirror one follower event into the lane masks. Events are applied
    /// in emission order, so within-step slab recycling (commit/squash
    /// then re-dispatch) resolves exactly as the scalar updates do.
    fn apply(&mut self, ev: LaneEvent) {
        match ev {
            LaneEvent::Alloc { fp, reg } => {
                if fp {
                    self.fp_poison[reg as usize] = 0;
                } else {
                    self.int_poison[reg as usize] = 0;
                }
            }
            LaneEvent::Issue { thread, slab, srcs } => {
                let mut m = 0u64;
                for (fp, reg) in srcs.into_iter().flatten() {
                    m |= if fp {
                        self.fp_poison[reg as usize]
                    } else {
                        self.int_poison[reg as usize]
                    };
                }
                if m != 0 {
                    let tm = &mut self.taint[thread as usize];
                    if slab as usize >= tm.len() {
                        tm.resize(slab as usize + 1, 0);
                    }
                    tm[slab as usize] |= m;
                }
            }
            LaneEvent::Writeback {
                thread,
                slab,
                fp,
                reg,
            } => {
                let t = self.taint_of(thread, slab);
                if fp {
                    self.fp_poison[reg as usize] = t;
                } else {
                    self.int_poison[reg as usize] = t;
                }
            }
            LaneEvent::Commit { thread, slab, old } => {
                let mut m = self.taint_of(thread, slab);
                self.clear_taint(thread, slab);
                while m != 0 {
                    self.corrupt[m.trailing_zeros() as usize] += 1;
                    m &= m - 1;
                }
                if let Some((fp, reg)) = old {
                    if fp {
                        self.fp_poison[reg as usize] = 0;
                    } else {
                        self.int_poison[reg as usize] = 0;
                    }
                }
            }
            LaneEvent::Squash { thread, slab, dest } => {
                self.clear_taint(thread, slab);
                if let Some((fp, reg)) = dest {
                    if fp {
                        self.fp_poison[reg as usize] = 0;
                    } else {
                        self.int_poison[reg as usize] = 0;
                    }
                }
            }
            LaneEvent::DlRead {
                thread,
                slab,
                line,
                base,
                w0,
                w1,
            } => {
                if self.watch_count != 0 {
                    // Every watching lane whose poisoned word — resident
                    // or stale — is consumed by this read taints the
                    // load's slot: the scalar machine's only response to
                    // a poisoned read. The watch stays; the corruption
                    // remains for later readers, exactly as in the scalar
                    // cache. A read of a *lost dirty line* is the first
                    // touch that makes the struck machine's timing
                    // diverge (its copy is gone): doom to a fork.
                    let mask = self.dl1_line_mask;
                    let mut m = 0u64;
                    let mut doom = 0u64;
                    for (lane, w) in self.watch.iter_mut().enumerate() {
                        match w {
                            Some(Watch::Word { line: wl, word })
                                if *wl == line && w0 <= *word && *word <= w1 =>
                            {
                                m |= 1 << lane;
                            }
                            Some(Watch::Stale { addr, copy }) if *addr & mask == base => {
                                let wi = ((*addr - base) / 8) as u8;
                                let covered = w0 <= wi && wi <= w1;
                                match *copy {
                                    StaleCopy::Gone => {
                                        // A read miss refilled the word's
                                        // line: the scalar re-poisons every
                                        // stale word of it
                                        // (`poison_words_from`) and taints
                                        // the accessor if its range touches
                                        // one.
                                        *copy = StaleCopy::Poisoned(line);
                                        if covered {
                                            m |= 1 << lane;
                                        }
                                    }
                                    StaleCopy::Poisoned(_) => {
                                        if covered {
                                            m |= 1 << lane;
                                        }
                                    }
                                    StaleCopy::Clean(_) => {}
                                }
                            }
                            Some(Watch::DirtyLine { line: wl }) if *wl == line => {
                                doom |= 1 << lane;
                            }
                            _ => {}
                        }
                    }
                    if m != 0 {
                        let tm = &mut self.taint[thread as usize];
                        if slab as usize >= tm.len() {
                            tm.resize(slab as usize + 1, 0);
                        }
                        tm[slab as usize] |= m;
                    }
                    while doom != 0 {
                        self.doom(doom.trailing_zeros() as usize);
                        doom &= doom - 1;
                    }
                }
            }
            LaneEvent::DlWrite { line, base, w0, w1 } => {
                if self.watch_count != 0 {
                    let mask = self.dl1_line_mask;
                    for lane in 0..self.lanes {
                        match self.watch[lane] {
                            Some(Watch::Word { line: wl, word })
                                if wl == line && w0 <= word && word <= w1 =>
                            {
                                self.clear_watch(lane);
                            }
                            Some(Watch::Stale { addr, copy }) if addr & mask == base => {
                                let wi = ((addr - base) / 8) as u8;
                                if w0 <= wi && wi <= w1 {
                                    // The store heals the word everywhere:
                                    // poison cleared, stale entry removed.
                                    self.clear_watch(lane);
                                } else if copy == StaleCopy::Gone {
                                    // A write-allocate miss brought the
                                    // word's line back without touching
                                    // the word: the copy is clean (the
                                    // scalar re-poisons on *read* misses
                                    // only), the address stays stale.
                                    self.watch[lane] = Some(Watch::Stale {
                                        addr,
                                        copy: StaleCopy::Clean(line),
                                    });
                                }
                            }
                            Some(Watch::DirtyLine { line: wl }) if wl == line => {
                                // A write to the lost line hits in golden
                                // but write-allocates in the struck
                                // machine: first touch, timing diverges.
                                self.doom(lane);
                            }
                            _ => {}
                        }
                    }
                }
            }
            LaneEvent::DlFill {
                line,
                base,
                was_dirty,
            } => {
                if self.watch_count != 0 {
                    let assoc = self.dl1_assoc;
                    for lane in 0..self.lanes {
                        match self.watch[lane] {
                            Some(Watch::Word { line: wl, word }) if wl == line => {
                                if was_dirty {
                                    // The writeback carries the poisoned
                                    // word below DL1; keep tracking the
                                    // corruption by its memory address.
                                    self.watch[lane] = Some(Watch::Stale {
                                        addr: base + 8 * word as u64,
                                        copy: StaleCopy::Gone,
                                    });
                                } else {
                                    self.clear_watch(lane);
                                }
                            }
                            Some(Watch::Stale {
                                addr,
                                copy: StaleCopy::Poisoned(cl) | StaleCopy::Clean(cl),
                            }) if cl == line => {
                                // The copy was evicted: dirty re-spills
                                // the same stale address, clean discards
                                // the copy — either way only the stale
                                // entry remains.
                                self.watch[lane] = Some(Watch::Stale {
                                    addr,
                                    copy: StaleCopy::Gone,
                                });
                            }
                            Some(Watch::DirtyLine { line: wl }) if wl / assoc == line / assoc => {
                                // Any fill into the lost line's set sees
                                // a different way picture in the struck
                                // machine (an extra invalid way to claim;
                                // if golden's victim *is* the lost line,
                                // golden also writes it back): victim
                                // choice or L2 traffic diverges.
                                self.doom(lane);
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    fn taint_of(&self, thread: u8, slab: u32) -> u64 {
        self.taint[thread as usize]
            .get(slab as usize)
            .copied()
            .unwrap_or(0)
    }

    fn clear_taint(&mut self, thread: u8, slab: u32) {
        if let Some(m) = self.taint[thread as usize].get_mut(slab as usize) {
            *m = 0;
        }
    }

    /// Disarm the event feed if no lane holds any taint, poison, or DL1
    /// word watch (e.g. every injected rider has converged and the next
    /// injection is still ahead). With all masks zero every event is a
    /// no-op — the same reasoning that lets [`LaneBatch::activate`] arm
    /// the feed lazily — so idle stretches pay nothing; the next
    /// activation re-arms. A live watch blocks disarming because its
    /// cache events travel through this same stream.
    pub fn disarm_if_idle(&mut self) {
        if !self.armed {
            return;
        }
        let idle = self.watch_count == 0
            && self
                .int_poison
                .iter()
                .chain(&self.fp_poison)
                .all(|&m| m == 0)
            && self.taint.iter().all(|tm| tm.iter().all(|&m| m == 0));
        if idle {
            self.follower.lane_events_disable();
            self.armed = false;
        }
    }

    /// Corrupt retirements charged to `lane` so far (the scalar trial's
    /// `corrupt_retired`).
    pub fn corrupt(&self, lane: usize) -> u64 {
        self.corrupt[lane]
    }

    /// Corruption still latent in lane `lane`: a poisoned register, a
    /// tainted in-flight instruction, or a standing DL1 watch — a
    /// poisoned word, its stale below-DL1 address, or a lost dirty line
    /// (the scalar `residual_corruption`, whose memory terms are
    /// `dl1.has_poison()` and `!stale_words.is_empty()`). Timing-only
    /// riders (invalidated clean lines and TLB entries) leave no
    /// architectural residue and carry nothing here — exactly as the
    /// scalar convergence predicate ignores them.
    pub fn residual(&self, lane: usize) -> bool {
        let bit = 1u64 << lane;
        self.int_poison
            .iter()
            .chain(&self.fp_poison)
            .any(|&m| m & bit != 0)
            || self.taint.iter().any(|tm| tm.iter().any(|&m| m & bit != 0))
            || self.watch[lane].is_some()
    }

    /// Lane `lane` has fully converged back onto the golden run: nothing
    /// corrupt retired and nothing corrupt remains in flight. Because a
    /// riding lane's retired stream is the golden stream whenever its
    /// corrupt count is zero, this is exactly the scalar convergence
    /// predicate (`converged_back_to_golden`).
    pub fn lane_clean(&self, lane: usize) -> bool {
        self.corrupt[lane] == 0 && !self.residual(lane)
    }
}
