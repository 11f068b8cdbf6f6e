//! The three-level memory hierarchy of Table 1: split L1s, unified L2,
//! main memory, and I/D TLBs.
//!
//! # Fast-forward compatibility
//!
//! The hierarchy is *time-stateless*: every access takes `now` as an
//! argument and returns its full latency immediately; there are no
//! background fills, port schedules, or per-cycle tick methods. All
//! latency state lives in the core (completion events, fetch stalls), so
//! when `SmtCore` fast-forwards its clock over a quiescent span there is
//! nothing here to catch up — the next access at the jumped-to cycle sees
//! exactly the state a cycle-by-cycle run would have produced. Residency
//! intervals (cache-line ACE lifetimes, TLB entries) are banked with
//! absolute cycle stamps at eviction/finalize time, which makes them
//! skip-invariant by construction.

use crate::cache::{AccessKind, Cache, CacheEvent, CacheStats};
use crate::tlb::{Tlb, TlbStats};
use avf_core::{AvfEngine, StructureId};
use sim_model::{MachineConfig, ThreadId};
use std::collections::HashSet;

/// Outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles (TLB walk + cache levels + memory).
    pub latency: u32,
    /// Did the access hit in the L1?
    pub l1_hit: bool,
    /// Did the access (having missed L1) hit in the L2? `true` for L1 hits.
    pub l2_hit: bool,
    /// Did the TLB translation hit?
    pub tlb_hit: bool,
    /// Did a read consume a word whose value is corrupt (fault injection)?
    pub poisoned: bool,
}

impl AccessResult {
    /// Whether this access goes all the way to main memory — the condition
    /// the FLUSH/STALL fetch policies react to.
    pub fn is_l2_miss(&self) -> bool {
        !self.l1_hit && !self.l2_hit
    }

    /// Whether this access missed the L1 — the condition DG/PDG react to.
    pub fn is_l1_miss(&self) -> bool {
        !self.l1_hit
    }
}

/// The full memory hierarchy, instrumented for DL1 and TLB vulnerability.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    memory_latency: u32,
    /// Fault injection: word addresses whose copy below the DL1 is corrupt
    /// (a poisoned dirty line was written back, or a dirty line was lost to
    /// a tag fault). Refills of these words re-enter the DL1 poisoned.
    stale_words: HashSet<u64>,
}

impl MemoryHierarchy {
    /// Build the hierarchy described by `cfg`.
    ///
    /// # Panics
    /// Panics if the L2 line size is smaller than an L1 line size (dirty L1
    /// victims are written back as whole lines into the L2).
    pub fn new(cfg: &MachineConfig) -> MemoryHierarchy {
        assert!(
            cfg.l2.line_bytes >= cfg.dl1.line_bytes && cfg.l2.line_bytes >= cfg.il1.line_bytes,
            "L2 line size must be at least the L1 line sizes"
        );
        MemoryHierarchy {
            il1: Cache::new(
                "IL1",
                cfg.il1,
                Some(StructureId::Il1Data),
                Some(StructureId::Il1Tag),
            ),
            dl1: Cache::new(
                "DL1",
                cfg.dl1,
                Some(StructureId::Dl1Data),
                Some(StructureId::Dl1Tag),
            ),
            l2: Cache::new(
                "L2",
                cfg.l2,
                Some(StructureId::L2Data),
                Some(StructureId::L2Tag),
            ),
            itlb: Tlb::new(cfg.itlb, Some(StructureId::Itlb)),
            dtlb: Tlb::new(cfg.dtlb, Some(StructureId::Dtlb)),
            memory_latency: cfg.memory_latency,
            stale_words: HashSet::new(),
        }
    }

    /// Register all tracked arrays' bit budgets with the AVF engine.
    pub fn configure_avf(&self, engine: &mut AvfEngine) {
        self.il1.configure_avf(engine);
        self.dl1.configure_avf(engine);
        self.l2.configure_avf(engine);
        self.itlb.configure_avf(engine);
        self.dtlb.configure_avf(engine);
    }

    /// Fetch an instruction cache line for `thread` at `addr`. `ace` is
    /// false when the front end is fetching down a known-wrong path.
    pub fn inst_fetch(
        &mut self,
        thread: ThreadId,
        addr: u64,
        now: u64,
        ace: bool,
        engine: &mut AvfEngine,
    ) -> AccessResult {
        let tlb_hit = self.itlb.translate_with(thread, addr, now, ace, engine);
        let mut latency = if tlb_hit {
            0
        } else {
            self.itlb.config().miss_latency
        };
        let l1 = self
            .il1
            .access_with(thread, addr, 4, AccessKind::Read, now, ace, engine);
        latency += self.il1.config().hit_latency;
        let l2_hit = if l1.hit {
            true
        } else {
            let l2 = self
                .l2
                .access(thread, addr, 4, AccessKind::Read, now, engine);
            latency += self.l2.config().hit_latency;
            if !l2.hit {
                latency += self.memory_latency;
            }
            l2.hit
        };
        AccessResult {
            latency,
            l1_hit: l1.hit,
            l2_hit,
            tlb_hit,
            poisoned: false,
        }
    }

    /// Read `size` bytes at `addr` for `thread` (a load's cache access).
    /// `ace` is false for wrong-path loads, whose reads pollute the caches
    /// but do not architecturally consume the resident bits.
    pub fn data_read(
        &mut self,
        thread: ThreadId,
        addr: u64,
        size: u8,
        now: u64,
        ace: bool,
        engine: &mut AvfEngine,
    ) -> AccessResult {
        self.data_access(thread, addr, size, AccessKind::Read, now, ace, engine)
    }

    /// Write `size` bytes at `addr` for `thread` (a store retiring).
    pub fn data_write(
        &mut self,
        thread: ThreadId,
        addr: u64,
        size: u8,
        now: u64,
        engine: &mut AvfEngine,
    ) -> AccessResult {
        self.data_access(thread, addr, size, AccessKind::Write, now, true, engine)
    }

    #[allow(clippy::too_many_arguments)]
    fn data_access(
        &mut self,
        thread: ThreadId,
        addr: u64,
        size: u8,
        kind: AccessKind,
        now: u64,
        ace: bool,
        engine: &mut AvfEngine,
    ) -> AccessResult {
        let tlb_hit = self.dtlb.translate_with(thread, addr, now, ace, engine);
        let mut latency = if tlb_hit {
            0
        } else {
            self.dtlb.config().miss_latency
        };
        let l1 = self
            .dl1
            .access_with(thread, addr, size as u32, kind, now, ace, engine);
        latency += self.dl1.config().hit_latency;
        let l2_hit = if l1.hit {
            true
        } else {
            // Fill (and, for a write-allocate store, subsequently dirty) the
            // L1 line from L2.
            let l2 = self.l2.access_with(
                thread,
                addr,
                size as u32,
                AccessKind::Read,
                now,
                ace,
                engine,
            );
            latency += self.l2.config().hit_latency;
            if !l2.hit {
                latency += self.memory_latency;
            }
            l2.hit
        };
        // A dirty L1 victim is absorbed by the L2 *after* the demand access
        // (a write-back buffer lets the demand read go first — issuing the
        // write-back earlier could evict the very line being read). The
        // write is attributed to the victim line's owner, not the accessing
        // thread, and adds no latency.
        if let (Some(victim), Some(owner)) = (l1.writeback_addr, l1.writeback_owner) {
            let line = self.dl1.config().line_bytes;
            self.l2
                .access(owner, victim, line, AccessKind::Write, now, engine);
        }
        // Fault-injection bookkeeping. Poisoned words carried by a dirty
        // victim are now the below-DL1 copy; a miss fill picks poison back
        // up from the stale set; a store's new value heals the word
        // everywhere (the fresh DL1 copy shadows the levels below until the
        // write-back overwrites them).
        self.stale_words.extend(self.dl1.drain_poison_spill());
        let word_addrs = |a: u64, s: u8| {
            let first = a & !7;
            let last = (a + s.max(1) as u64 - 1) & !7;
            (first..=last).step_by(8)
        };
        let poisoned = match kind {
            AccessKind::Write => {
                for w in word_addrs(addr, size) {
                    self.stale_words.remove(&w);
                }
                false
            }
            AccessKind::Read => {
                if l1.hit {
                    l1.poisoned
                } else {
                    self.dl1.poison_words_from(addr, &self.stale_words);
                    word_addrs(addr, size).any(|w| self.stale_words.contains(&w))
                }
            }
        };
        AccessResult {
            latency,
            l1_hit: l1.hit,
            l2_hit,
            tlb_hit,
            poisoned,
        }
    }

    // -----------------------------------------------------------------
    // Fault injection
    // -----------------------------------------------------------------

    /// The DL1, read-only: fault strikes are decoded against it with
    /// [`Cache::decode_data`] / [`Cache::decode_tag`].
    pub fn dl1(&self) -> &Cache {
        &self.dl1
    }

    /// The instruction TLB (`itlb`) or data TLB, read-only: fault strikes
    /// are decoded against it with [`Tlb::decode_entry`].
    pub fn tlb(&self, itlb: bool) -> &Tlb {
        if itlb {
            &self.itlb
        } else {
            &self.dtlb
        }
    }

    /// Poison one DL1 data word (see [`Cache::poison_word`]).
    pub fn poison_dl1_word(&mut self, line: u32, word: usize) {
        self.dl1.poison_word(line, word);
    }

    /// Invalidate one DL1 line (see [`Cache::invalidate_line`]); a dirty
    /// line's words join the stale-memory set.
    pub fn invalidate_dl1_line(&mut self, line: u32) {
        self.dl1.invalidate_line(line);
        self.stale_words.extend(self.dl1.drain_poison_spill());
    }

    /// Invalidate one flat ITLB (`itlb`) or DTLB entry (see
    /// [`Tlb::invalidate`]).
    pub fn invalidate_tlb_entry(&mut self, itlb: bool, entry: u32) {
        if itlb {
            self.itlb.invalidate(entry);
        } else {
            self.dtlb.invalidate(entry);
        }
    }

    /// Arm the DL1 consumption feed. This is the only feed the
    /// lane-batched fault engine consumes: a DL1 *data* strike leaves
    /// residue (a poisoned word) whose consumption must be tracked, while
    /// TLB and clean-tag strikes are pure invalidations whose loss is
    /// timing-only — nothing needs watching (the [`Tlb`] feed still
    /// exists at the structure level for direct use). IL1/L2 are not
    /// injection targets, so they never feed.
    pub fn consumption_enable(&mut self) {
        self.dl1.events_enable();
    }

    /// Disarm the DL1 consumption feed, dropping undrained events.
    pub fn consumption_disable(&mut self) {
        self.dl1.events_disable();
    }

    /// Drain pending DL1 consumption events through `f`, in emission
    /// order. A no-op while the feed is disarmed.
    pub fn for_each_dl1_event(&mut self, f: impl FnMut(CacheEvent)) {
        self.dl1.for_each_event(f);
    }

    /// Residual-corruption check: any poisoned resident DL1 word, or any
    /// word whose only good copy was lost below the DL1.
    pub fn has_poison(&self) -> bool {
        !self.stale_words.is_empty() || self.dl1.has_poison()
    }

    /// Whether a data access at `addr` would hit the DL1 right now (used by
    /// PDG's miss predictor oracle-assist mode and by tests).
    pub fn dl1_would_hit(&self, addr: u64) -> bool {
        self.dl1.would_hit(addr)
    }

    /// DL1 counters.
    pub fn dl1_stats(&self) -> CacheStats {
        self.dl1.stats()
    }

    /// IL1 counters.
    pub fn il1_stats(&self) -> CacheStats {
        self.il1.stats()
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// DTLB counters.
    pub fn dtlb_stats(&self) -> TlbStats {
        self.dtlb.stats()
    }

    /// ITLB counters.
    pub fn itlb_stats(&self) -> TlbStats {
        self.itlb.stats()
    }

    /// Start a measurement window at `now`: warm-up residency of resident
    /// lines and TLB entries is excluded from subsequent banking.
    pub fn reset_epoch(&mut self, now: u64) {
        self.il1.reset_epoch(now);
        self.dl1.reset_epoch(now);
        self.l2.reset_epoch(now);
        self.itlb.reset_epoch(now);
        self.dtlb.reset_epoch(now);
    }

    /// Bank the trailing ACE intervals of dirty cache state at simulation
    /// end.
    pub fn finalize(&mut self, now: u64, engine: &mut AvfEngine) {
        self.dl1.finalize(now, engine);
        self.l2.finalize(now, engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);

    fn hierarchy() -> (MemoryHierarchy, AvfEngine) {
        let cfg = MachineConfig::ispass07_baseline();
        let m = MemoryHierarchy::new(&cfg);
        let mut e = AvfEngine::new(1);
        m.configure_avf(&mut e);
        (m, e)
    }

    #[test]
    fn cold_read_goes_to_memory() {
        let (mut m, mut e) = hierarchy();
        let r = m.data_read(T0, 0x10_0000, 8, 0, true, &mut e);
        assert!(!r.l1_hit);
        assert!(!r.l2_hit);
        assert!(!r.tlb_hit);
        assert!(r.is_l2_miss());
        // TLB walk (200) + DL1 (1) + L2 (12) + memory (200)
        assert_eq!(r.latency, 200 + 1 + 12 + 200);
    }

    #[test]
    fn warm_read_hits_l1() {
        let (mut m, mut e) = hierarchy();
        m.data_read(T0, 0x10_0000, 8, 0, true, &mut e);
        let r = m.data_read(T0, 0x10_0000, 8, 10, true, &mut e);
        assert!(r.l1_hit && r.l2_hit && r.tlb_hit);
        assert_eq!(r.latency, 1);
        assert!(!r.is_l1_miss());
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let (mut m, mut e) = hierarchy();
        m.data_read(T0, 0, 8, 0, true, &mut e);
        // Evict line 0 from DL1 (64KB, 4-way, 64B lines -> 16KB stride
        // conflicts) but keep it in the 2MB L2.
        for i in 1..=4u64 {
            m.data_read(T0, i * 16 * 1024, 8, i, true, &mut e);
        }
        let r = m.data_read(T0, 0, 8, 100, true, &mut e);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
        assert_eq!(r.latency, 1 + 12);
    }

    #[test]
    fn inst_fetch_uses_il1_and_itlb() {
        let (mut m, mut e) = hierarchy();
        let r = m.inst_fetch(T0, 0x400000, 0, true, &mut e);
        assert!(!r.l1_hit);
        let r = m.inst_fetch(T0, 0x400000, 5, true, &mut e);
        assert!(r.l1_hit);
        assert_eq!(r.latency, 1);
        assert_eq!(m.il1_stats().accesses, 2);
        assert_eq!(m.itlb_stats().accesses, 2);
        assert_eq!(m.dl1_stats().accesses, 0);
    }

    #[test]
    fn store_dirties_and_finalize_accounts_it() {
        let (mut m, mut e) = hierarchy();
        m.data_write(T0, 0x8000, 8, 0, &mut e);
        m.finalize(500, &mut e);
        // Whole-line write-back semantics: all 8 words' tails are ACE.
        assert_eq!(
            e.tracker(StructureId::Dl1Data).total_ace_bit_cycles(),
            8 * 64 * 500
        );
    }

    #[test]
    fn dirty_l1_evictions_land_in_the_l2() {
        let (mut m, mut e) = hierarchy();
        // Dirty a DL1 line, then evict it with four conflicting fills.
        m.data_write(T0, 0x8000, 8, 0, &mut e);
        for i in 1..=4u64 {
            m.data_read(T0, 0x8000 + i * 16 * 1024, 8, 10 + i, true, &mut e);
        }
        assert_eq!(m.dl1_stats().writebacks, 1);
        // The L2 absorbed the write-back: evicting that L2 set must write
        // back to memory (L2: 2MB/4-way/128B lines -> 512KB conflict
        // stride).
        for i in 1..=4u64 {
            m.data_read(T0, 0x8000 + i * 512 * 1024, 8, 100 + i, true, &mut e);
        }
        assert_eq!(m.l2_stats().writebacks, 1, "dirty data must propagate");
    }

    #[test]
    fn stats_flow_through() {
        let (mut m, mut e) = hierarchy();
        m.data_read(T0, 0x1000, 8, 0, true, &mut e);
        m.data_read(T0, 0x1000, 8, 1, true, &mut e);
        assert_eq!(m.dl1_stats().accesses, 2);
        assert_eq!(m.dl1_stats().misses, 1);
        assert_eq!(m.l2_stats().accesses, 1);
        assert_eq!(m.dtlb_stats().misses, 1);
    }
}
