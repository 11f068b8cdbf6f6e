//! Set-associative TLBs with between-use ACE interval tracking.
//!
//! Address translation is modeled structurally (identity mapping): the TLB
//! decides hit/miss timing and vulnerability, not the translation values.

use avf_core::{budgets, AvfEngine, StructureId};
use sim_model::{ThreadId, TlbConfig};

/// Hit/miss counters for a TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Total translations requested.
    pub accesses: u64,
    /// Translations that missed (paid the page-walk latency).
    pub misses: u64,
}

impl TlbStats {
    /// Miss rate in `[0, 1]`; 0 when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    valid: bool,
    vpn_tag: u64,
    owner: ThreadId,
    lru: u64,
    last_use: u64,
}

/// One entry of the lazily-armed consumption feed (see
/// [`Tlb::events_enable`]): what the lane-batched fault engine needs to
/// decide whether an invalidated entry was consumed (hit again) or
/// replaced before its next use. Emitted for wrong-path translations too
/// — they move LRU state and timing exactly like architectural ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbEvent {
    /// A translation hit flat entry `set * assoc + way`.
    Hit {
        /// Flat entry index of the hit way.
        entry: u32,
    },
    /// A miss filled flat entry `set * assoc + way`, replacing whatever
    /// was there.
    Fill {
        /// Flat entry index of the victim way.
        entry: u32,
        /// The victim held a valid translation before the fill.
        was_valid: bool,
    },
}

/// A set-associative TLB.
///
/// An entry's ACE interval runs from one use to the next: a strike between
/// two uses of a translation corrupts the later use. After the final use
/// (until eviction) the entry is un-ACE — handled automatically because the
/// tail interval is only banked if another use arrives.
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    sets: Vec<Vec<Entry>>,
    page_bits: u32,
    index_mask: u64,
    lru_clock: u64,
    stats: TlbStats,
    target: Option<StructureId>,
    /// Consumption feed, armed only while a lane batch holds a resident
    /// TLB watch (`None` costs one branch per translation). Excluded from
    /// digests and stats; never observed by the simulation itself.
    events: Option<Vec<TlbEvent>>,
}

impl Tlb {
    /// Build a TLB from its configuration; `target` is the AVF structure it
    /// is accounted under (`Itlb`/`Dtlb`), or `None` to disable accounting.
    pub fn new(cfg: TlbConfig, target: Option<StructureId>) -> Tlb {
        let sets = cfg.num_sets() as usize;
        Tlb {
            cfg,
            sets: (0..sets)
                .map(|_| {
                    (0..cfg.assoc)
                        .map(|_| Entry {
                            valid: false,
                            vpn_tag: 0,
                            owner: ThreadId(0),
                            lru: 0,
                            last_use: 0,
                        })
                        .collect()
                })
                .collect(),
            page_bits: cfg.page_bytes.trailing_zeros(),
            index_mask: sets as u64 - 1,
            lru_clock: 0,
            stats: TlbStats::default(),
            target,
            events: None,
        }
    }

    /// Arm the consumption feed: subsequent translations push
    /// [`TlbEvent`]s until [`Tlb::events_disable`]. Idempotent.
    pub fn events_enable(&mut self) {
        if self.events.is_none() {
            self.events = Some(Vec::new());
        }
    }

    /// Disarm the consumption feed and drop any undrained events.
    pub fn events_disable(&mut self) {
        self.events = None;
    }

    /// Move all pending consumption events into `out` (in emission order).
    pub fn drain_events(&mut self, out: &mut Vec<TlbEvent>) {
        if let Some(ev) = &mut self.events {
            out.append(ev);
        }
    }

    /// The TLB's associativity (for mapping a flat entry index to its
    /// set: `set = entry / assoc`).
    pub fn assoc(&self) -> u32 {
        self.cfg.assoc
    }

    /// The TLB's configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Register this TLB's total bit budget with the engine.
    pub fn configure_avf(&self, engine: &mut AvfEngine) {
        if let Some(t) = self.target {
            engine.set_total_bits(t, self.cfg.entries as u64 * budgets::tlb::ENTRY);
        }
    }

    /// Start a measurement window at `now` (see `Cache::reset_epoch`).
    pub fn reset_epoch(&mut self, now: u64) {
        for set in &mut self.sets {
            for e in set {
                if e.valid {
                    e.last_use = e.last_use.max(now);
                }
            }
        }
    }

    /// Decode a strike on physical entry `entry_idx` (over
    /// `sets * assoc` slots): the flat `set * assoc + way` index it
    /// invalidates, or `None` when that slot is invalid (or out of range)
    /// and there is nothing to corrupt.
    pub fn decode_entry(&self, entry_idx: u64) -> Option<u32> {
        let assoc = self.cfg.assoc as u64;
        let set = self.sets.get((entry_idx / assoc) as usize)?;
        set[(entry_idx % assoc) as usize]
            .valid
            .then_some(entry_idx as u32)
    }

    /// Invalidate flat entry `entry` (a decoded strike). A lost
    /// translation is refilled by the next page walk, and translation is
    /// modeled as an identity mapping, so a TLB fault perturbs timing only.
    pub fn invalidate(&mut self, entry: u32) {
        let assoc = self.cfg.assoc as usize;
        self.sets[entry as usize / assoc][entry as usize % assoc].valid = false;
    }

    /// Translate `addr` for `thread` at cycle `now` (architecturally live).
    /// See [`Tlb::translate_with`].
    pub fn translate(
        &mut self,
        thread: ThreadId,
        addr: u64,
        now: u64,
        engine: &mut AvfEngine,
    ) -> bool {
        self.translate_with(thread, addr, now, true, engine)
    }

    /// Translate `addr` for `thread` at cycle `now`. Returns `true` on a hit
    /// (the caller adds the miss latency otherwise). With `ace: false` (a
    /// wrong-path translation) hit/miss, LRU and fills proceed normally but
    /// no ACE interval is banked and the entry's use clock stays put.
    pub fn translate_with(
        &mut self,
        thread: ThreadId,
        addr: u64,
        now: u64,
        ace: bool,
        engine: &mut AvfEngine,
    ) -> bool {
        self.stats.accesses += 1;
        self.lru_clock += 1;
        let lru_now = self.lru_clock;
        let vpn = addr >> self.page_bits;
        let set = (vpn & self.index_mask) as usize;
        let tag = vpn >> self.index_mask.count_ones();
        let target = self.target;

        if let Some(way) = self.sets[set]
            .iter()
            .position(|e| e.valid && e.vpn_tag == tag)
        {
            if let Some(ev) = &mut self.events {
                ev.push(TlbEvent::Hit {
                    entry: (set * self.cfg.assoc as usize + way) as u32,
                });
            }
            let e = &mut self.sets[set][way];
            // The translation had to survive since its previous use; a
            // wrong-path use does not count as a use.
            if ace {
                if let Some(t) = target {
                    if now > e.last_use {
                        engine.bank(t, e.owner, budgets::tlb::ENTRY, now - e.last_use);
                    }
                }
                e.last_use = now;
            }
            e.lru = lru_now;
            return true;
        }

        self.stats.misses += 1;
        let victim = self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("TLB sets are never empty");
        if let Some(ev) = &mut self.events {
            ev.push(TlbEvent::Fill {
                entry: (set * self.cfg.assoc as usize + victim) as u32,
                was_valid: self.sets[set][victim].valid,
            });
        }
        self.sets[set][victim] = Entry {
            valid: true,
            vpn_tag: tag,
            owner: thread,
            lru: lru_now,
            last_use: now,
        };
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::MachineConfig;

    const T0: ThreadId = ThreadId(0);

    fn dtlb() -> (Tlb, AvfEngine) {
        let cfg = MachineConfig::ispass07_baseline().dtlb;
        let t = Tlb::new(cfg, Some(StructureId::Dtlb));
        let mut e = AvfEngine::new(1);
        t.configure_avf(&mut e);
        (t, e)
    }

    #[test]
    fn miss_then_hit_same_page() {
        let (mut t, mut e) = dtlb();
        assert!(!t.translate(T0, 0x1000, 0, &mut e));
        assert!(t.translate(T0, 0x1ff8, 1, &mut e), "same 4K page");
        assert!(!t.translate(T0, 0x2000, 2, &mut e), "next page misses");
        assert_eq!(t.stats().accesses, 3);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn ace_interval_between_uses() {
        let (mut t, mut e) = dtlb();
        t.translate(T0, 0x1000, 0, &mut e);
        t.translate(T0, 0x1000, 50, &mut e);
        t.translate(T0, 0x1000, 75, &mut e);
        assert_eq!(
            e.tracker(StructureId::Dtlb).total_ace_bit_cycles(),
            budgets::tlb::ENTRY as u128 * 75
        );
    }

    #[test]
    fn unused_entry_tail_is_unace() {
        let (mut t, mut e) = dtlb();
        t.translate(T0, 0x1000, 0, &mut e);
        // Never touched again: nothing banked.
        assert_eq!(e.tracker(StructureId::Dtlb).total_ace_bit_cycles(), 0);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let cfg = TlbConfig {
            entries: 4,
            assoc: 4,
            page_bytes: 4096,
            miss_latency: 200,
        };
        let mut t = Tlb::new(cfg, None);
        let mut e = AvfEngine::new(1);
        for p in 0..4u64 {
            t.translate(T0, p * 4096, p, &mut e);
        }
        t.translate(T0, 0, 10, &mut e); // refresh page 0
        t.translate(T0, 4 * 4096, 11, &mut e); // evicts page 1
        assert!(t.translate(T0, 0, 12, &mut e));
        assert!(!t.translate(T0, 4096, 13, &mut e));
    }
}
