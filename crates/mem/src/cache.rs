//! A set-associative, write-back, LRU cache with word-granular ACE
//! interval tracking.

use avf_core::{budgets, AvfEngine, StructureId};
use sim_model::{CacheConfig, ThreadId};

/// Whether an access reads or writes the data array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load (or instruction fetch): consumes the resident value.
    Read,
    /// Store: overwrites part of the line and marks it dirty.
    Write,
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Per-word ACE tracking state, packed into one `u64`: the low 63 bits
/// hold the cycle of the last event touching the word, and bit 63 says
/// the word's stored value is corrupt (fault injection). The word arrays,
/// the L2's above all, are a core's largest allocation and most of what a
/// cache clone copies, so a word state must stay eight bytes.
/// (Dirtiness is tracked per line: dirty lines are written back whole,
/// so every word of a dirty line shares the line's fate.)
#[derive(Debug, Clone, Copy, Default)]
struct WordState(u64);

impl WordState {
    const POISON: u64 = 1 << 63;

    fn last_event(self) -> u64 {
        self.0 & !Self::POISON
    }

    fn set_last_event(&mut self, cycle: u64) {
        debug_assert!(cycle < Self::POISON, "cycle {cycle} reaches the poison bit");
        self.0 = (self.0 & Self::POISON) | cycle;
    }

    fn poisoned(self) -> bool {
        self.0 & Self::POISON != 0
    }

    fn set_poisoned(&mut self, poisoned: bool) {
        if poisoned {
            self.0 |= Self::POISON;
        } else {
            self.0 &= !Self::POISON;
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    owner: ThreadId,
    lru: u64,
    /// Cycle of the last event relevant to tag ACE (fill or set lookup).
    tag_last: u64,
}

impl Line {
    fn empty() -> Line {
        Line {
            valid: false,
            dirty: false,
            tag: 0,
            owner: ThreadId(0),
            lru: 0,
            tag_last: 0,
        }
    }
}

/// One entry of the lazily-armed consumption feed (see
/// [`Cache::events_enable`]): everything the lane-batched fault engine
/// needs to decide whether a resident strike was consumed, overwritten,
/// or evicted. Emitted for *every* access while armed — wrong-path reads
/// included, because the scalar fault model taints the consuming slot
/// regardless of path (the squash machinery cleans it up later, so a
/// conservative consumer must see those reads too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A demand read consumed words `w0..=w1` of physical line `line`.
    /// Emitted on hits *and* after miss fills (the refilled line), so a
    /// consumer tracking an address sees every read that touches it; the
    /// preceding [`CacheEvent::Fill`] distinguishes the miss case.
    Read {
        /// Flat physical line index (`set * assoc + way`).
        line: u32,
        /// Line-aligned base address of the accessed line.
        base: u64,
        /// First word covered by the access.
        w0: u8,
        /// Last word covered by the access.
        w1: u8,
    },
    /// A demand write overwrote words `w0..=w1` of physical line `line`
    /// (overwriting heals any poison on those words). Emitted on hits and
    /// after write-allocate miss fills, like [`CacheEvent::Read`].
    Write {
        /// Flat physical line index.
        line: u32,
        /// Line-aligned base address of the accessed line.
        base: u64,
        /// First word overwritten.
        w0: u8,
        /// Last word overwritten.
        w1: u8,
    },
    /// A miss fill replaced physical line `line` (the chosen victim).
    Fill {
        /// Flat physical line index of the victim way.
        line: u32,
        /// Base address of the line the victim held before the fill
        /// (0 when the way was invalid).
        base: u64,
        /// The victim held a valid line before the fill.
        was_valid: bool,
        /// The victim was dirty and written back (its words — poisoned or
        /// not — propagated to the next level).
        was_dirty: bool,
    },
}

/// Effect of a tag-array strike (see [`Cache::decode_tag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagInject {
    /// The struck line was invalid: nothing to corrupt.
    Empty,
    /// The struck bit is architecturally idle (LRU state, or a dirty bit
    /// flipping clean data to "dirty").
    Benign,
    /// A clean line was lost; the next access refills it from below.
    CleanInvalidate,
    /// A dirty line was lost; its words' only good copies are gone.
    DirtyLost,
}

/// A set-associative write-back cache.
///
/// If constructed with AVF targets (see [`Cache::new`]), every access banks
/// exact ACE intervals for the tag and data arrays into the provided
/// [`AvfEngine`].
#[derive(Debug, Clone)]
pub struct Cache {
    name: &'static str,
    cfg: CacheConfig,
    /// All physical lines, flat: line `set * assoc + way` lives at that
    /// index. Flat `Copy` rows (instead of `Vec<Vec<Line>>` with per-line
    /// word `Vec`s) make cloning the cache two memcpys — the property the
    /// checkpointed fault-injection campaigns lean on, restoring an
    /// `SmtCore` snapshot per trial.
    lines: Vec<Line>,
    /// Per-word ACE state, flat: line `li`'s words occupy
    /// `li * words_per_line ..` — same layout argument as `lines`.
    words: Vec<WordState>,
    offset_bits: u32,
    index_mask: u64,
    words_per_line: usize,
    lru_clock: u64,
    stats: CacheStats,
    data_target: Option<StructureId>,
    tag_target: Option<StructureId>,
    /// Word addresses whose only good copy was lost (poisoned dirty data
    /// written back, or dirty lines dropped by an injected tag fault); the
    /// hierarchy drains these into its stale-memory set.
    poison_spill: Vec<u64>,
    /// Consumption feed, armed only while a lane batch holds a resident
    /// cache watch (`None` costs one branch per access). Excluded from
    /// digests and stats; never observed by the simulation itself.
    events: Option<Vec<CacheEvent>>,
}

/// Result of a single cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether a dirty victim was written back to service a miss fill.
    pub writeback: bool,
    /// Base address of the written-back victim line, when `writeback` is
    /// set (lets the next level absorb the write-back).
    pub writeback_addr: Option<u64>,
    /// Thread that owned the written-back victim line, when `writeback` is
    /// set (so the next level attributes the line correctly).
    pub writeback_owner: Option<ThreadId>,
    /// A read touched a word whose value is corrupt (fault injection).
    pub poisoned: bool,
}

impl Cache {
    /// Build a cache from its configuration.
    ///
    /// `data_target`/`tag_target` name the AVF structures this cache's data
    /// and tag arrays are accounted under (e.g. `Dl1Data`/`Dl1Tag` for the
    /// L1 data cache); pass `None` for levels the study does not track.
    pub fn new(
        name: &'static str,
        cfg: CacheConfig,
        data_target: Option<StructureId>,
        tag_target: Option<StructureId>,
    ) -> Cache {
        let sets = cfg.num_sets();
        let words_per_line = (cfg.line_bytes / 8).max(1) as usize;
        let num_lines = cfg.num_lines() as usize;
        Cache {
            name,
            cfg,
            lines: vec![Line::empty(); num_lines],
            words: vec![WordState::default(); num_lines * words_per_line],
            offset_bits: cfg.line_bytes.trailing_zeros(),
            index_mask: sets - 1,
            words_per_line,
            lru_clock: 0,
            stats: CacheStats::default(),
            data_target,
            tag_target,
            poison_spill: Vec::new(),
            events: None,
        }
    }

    /// Arm the consumption feed: subsequent accesses push [`CacheEvent`]s
    /// until [`Cache::events_disable`]. Idempotent; keeps any undrained
    /// events.
    pub fn events_enable(&mut self) {
        if self.events.is_none() {
            self.events = Some(Vec::new());
        }
    }

    /// Disarm the consumption feed and drop any undrained events.
    pub fn events_disable(&mut self) {
        self.events = None;
    }

    /// Drain pending consumption events through `f`, in emission order,
    /// keeping the feed armed (and the buffer's capacity). A no-op while
    /// the feed is disarmed.
    pub fn for_each_event(&mut self, mut f: impl FnMut(CacheEvent)) {
        if let Some(ev) = &mut self.events {
            for e in ev.drain(..) {
                f(e);
            }
        }
    }

    /// The cache's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Register this cache's total tag/data bit budgets with the engine.
    pub fn configure_avf(&self, engine: &mut AvfEngine) {
        let lines = self.cfg.num_lines();
        if let Some(t) = self.data_target {
            engine.set_total_bits(t, lines * self.cfg.line_bytes as u64 * 8);
        }
        if let Some(t) = self.tag_target {
            engine.set_total_bits(t, lines * budgets::dl1::TAG_ENTRY);
        }
    }

    #[inline]
    fn index_of(&self, addr: u64) -> usize {
        ((addr >> self.offset_bits) & self.index_mask) as usize
    }

    /// Flat index of `set`'s first way in `lines`.
    #[inline]
    fn set_base(&self, set: usize) -> usize {
        set * self.cfg.assoc as usize
    }

    /// Flat line index of the way in `set` holding `tag`, if resident.
    #[inline]
    fn find_line(&self, set: usize, tag: u64) -> Option<usize> {
        let base = self.set_base(set);
        self.lines[base..base + self.cfg.assoc as usize]
            .iter()
            .position(|l| l.valid && l.tag == tag)
            .map(|way| base + way)
    }

    /// Flat index of line `li`'s first word in `words`.
    #[inline]
    fn word_base(&self, li: usize) -> usize {
        li * self.words_per_line
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.offset_bits >> self.index_mask.count_ones()
    }

    /// Word range `[first, last]` covered by an access of `size` bytes at
    /// `addr` within its line.
    /// The model tracks accesses within a single line; accesses must not
    /// cross a line boundary (the built-in generators emit 8-byte-aligned
    /// references, which never do).
    fn word_range(&self, addr: u64, size: u32) -> (usize, usize) {
        debug_assert!(size > 0, "zero-sized access");
        let off = (addr & ((self.cfg.line_bytes as u64) - 1)) as usize;
        debug_assert!(
            off + size as usize <= self.cfg.line_bytes as usize,
            "access at {addr:#x} (size {size}) crosses a line boundary"
        );
        let first = off / 8;
        let last = (off + size as usize - 1) / 8;
        (first, last.min(self.words_per_line - 1))
    }

    /// Perform an architecturally live access. See [`Cache::access_with`].
    pub fn access(
        &mut self,
        thread: ThreadId,
        addr: u64,
        size: u32,
        kind: AccessKind,
        now: u64,
        engine: &mut AvfEngine,
    ) -> LookupResult {
        self.access_with(thread, addr, size, kind, now, true, engine)
    }

    /// Perform an access. Returns whether it hit and whether a dirty victim
    /// was written back.
    ///
    /// On a miss the line is filled immediately (the caller models the fill
    /// latency); the victim's remaining ACE intervals are banked before it
    /// is replaced. With `ace: false` (a wrong-path access) the cache state
    /// — hit/miss, LRU, fills, pollution — changes as usual, but no ACE
    /// interval is banked and the per-word/tag clocks are not advanced: a
    /// squashed consumer does not make the resident bits matter.
    #[allow(clippy::too_many_arguments)]
    pub fn access_with(
        &mut self,
        thread: ThreadId,
        addr: u64,
        size: u32,
        kind: AccessKind,
        now: u64,
        ace: bool,
        engine: &mut AvfEngine,
    ) -> LookupResult {
        self.stats.accesses += 1;
        self.lru_clock += 1;
        let lru_now = self.lru_clock;
        let set = self.index_of(addr);
        let tag = self.tag_of(addr);
        let (w0, w1) = self.word_range(addr, size);

        let acc_base = (addr >> self.offset_bits) << self.offset_bits;
        if let Some(li) = self.find_line(set, tag) {
            if let Some(ev) = &mut self.events {
                ev.push(match kind {
                    AccessKind::Read => CacheEvent::Read {
                        line: li as u32,
                        base: acc_base,
                        w0: w0 as u8,
                        w1: w1 as u8,
                    },
                    AccessKind::Write => CacheEvent::Write {
                        line: li as u32,
                        base: acc_base,
                        w0: w0 as u8,
                        w1: w1 as u8,
                    },
                });
            }
            let data_target = self.data_target;
            let tag_target = self.tag_target;
            let wbase = self.word_base(li);
            let line = &mut self.lines[li];
            line.lru = lru_now;
            // The tag had to match correctly for this hit: it is ACE from
            // its previous exercise (fill or last hit) to now. Wrong-path
            // hits consume nothing architecturally and leave the clocks
            // untouched.
            if ace {
                if let Some(t) = tag_target {
                    if now > line.tag_last {
                        engine.bank(t, line.owner, budgets::dl1::TAG_ENTRY, now - line.tag_last);
                    }
                }
                line.tag_last = now;
            }
            let owner = line.owner;
            let mut poisoned = false;
            match kind {
                AccessKind::Read => {
                    let words = &mut self.words[wbase + w0..=wbase + w1];
                    poisoned = words.iter().any(|ws| ws.poisoned());
                    // The interval since each word's previous event is ACE:
                    // the value had to survive to be consumed now.
                    if ace {
                        for ws in words {
                            if now > ws.last_event() {
                                if let Some(t) = data_target {
                                    engine.bank(t, owner, 64, now - ws.last_event());
                                }
                            }
                            ws.set_last_event(now);
                        }
                    }
                }
                AccessKind::Write => {
                    // Overwritten: the preceding interval was un-ACE for
                    // these words. The new value is dirty, and the line's
                    // eventual write-back belongs to the writing thread.
                    line.dirty = true;
                    line.owner = thread;
                    for ws in &mut self.words[wbase + w0..=wbase + w1] {
                        ws.set_last_event(now);
                        ws.set_poisoned(false);
                    }
                }
            }
            return LookupResult {
                hit: true,
                writeback: false,
                writeback_addr: None,
                writeback_owner: None,
                poisoned,
            };
        }

        // Miss: choose LRU victim, retire its ACE state, fill.
        self.stats.misses += 1;
        let base = self.set_base(set);
        let victim = self.lines[base..base + self.cfg.assoc as usize]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .map(|(i, _)| base + i)
            .expect("cache sets are never empty");
        let (writeback, writeback_addr, writeback_owner) = {
            let data_target = self.data_target;
            let tag_target = self.tag_target;
            let index_bits = self.index_mask.count_ones();
            let offset_bits = self.offset_bits;
            let wbase = self.word_base(victim);
            let wpl = self.words_per_line;
            let line = &mut self.lines[victim];
            let wb = line.valid && line.dirty;
            let old_base = if line.valid {
                ((line.tag << index_bits) | set as u64) << offset_bits
            } else {
                0
            };
            if let Some(ev) = &mut self.events {
                ev.push(CacheEvent::Fill {
                    line: victim as u32,
                    base: old_base,
                    was_valid: line.valid,
                    was_dirty: wb,
                });
            }
            let wb_addr = if wb { Some(old_base) } else { None };
            let wb_owner = if wb { Some(line.owner) } else { None };
            if wb {
                self.stats.writebacks += 1;
                let owner = line.owner;
                // Poisoned words of a dirty victim propagate their corrupt
                // values into the next level: record them as stale.
                if let Some(base) = wb_addr {
                    for (w, ws) in self.words[wbase..wbase + wpl].iter().enumerate() {
                        if ws.poisoned() {
                            self.poison_spill.push(base + 8 * w as u64);
                        }
                    }
                }
                // The *entire* line is written back, so every word must
                // survive until now — a strike on a clean word would be
                // propagated over the good copy below. The tag too (it
                // addresses the write-back).
                for ws in &mut self.words[wbase..wbase + wpl] {
                    if now > ws.last_event() {
                        if let Some(t) = data_target {
                            engine.bank(t, owner, 64, now - ws.last_event());
                        }
                        ws.set_last_event(now);
                    }
                }
                if let Some(t) = tag_target {
                    if now > line.tag_last {
                        engine.bank(t, line.owner, budgets::dl1::TAG_ENTRY, now - line.tag_last);
                    }
                }
            }
            // Fill the new line.
            line.valid = true;
            line.dirty = kind == AccessKind::Write;
            line.tag = tag;
            line.owner = thread;
            line.lru = lru_now;
            line.tag_last = now;
            for ws in &mut self.words[wbase..wbase + wpl] {
                ws.set_last_event(now);
                // A clean victim's poison is healed by the fill; whether the
                // *new* line's words are stale is decided by the hierarchy
                // (it knows which memory words have lost their good copy).
                ws.set_poisoned(false);
            }
            (wb, wb_addr, wb_owner)
        };
        // The demand access lands on the freshly filled line: emit it after
        // the fill so a consumer sees the victim replacement first.
        if let Some(ev) = &mut self.events {
            ev.push(match kind {
                AccessKind::Read => CacheEvent::Read {
                    line: victim as u32,
                    base: acc_base,
                    w0: w0 as u8,
                    w1: w1 as u8,
                },
                AccessKind::Write => CacheEvent::Write {
                    line: victim as u32,
                    base: acc_base,
                    w0: w0 as u8,
                    w1: w1 as u8,
                },
            });
        }
        LookupResult {
            hit: false,
            writeback,
            writeback_addr,
            writeback_owner,
            poisoned: false,
        }
    }

    // -----------------------------------------------------------------
    // Fault injection
    // -----------------------------------------------------------------

    /// Decode a strike on data bit `bit` of physical line `line_idx`: the
    /// word it poisons, or `None` when the line is invalid (or out of
    /// range) and there is nothing to corrupt.
    pub fn decode_data(&self, line_idx: u64, bit: u64) -> Option<usize> {
        let line = self.lines.get(line_idx as usize)?;
        line.valid
            .then_some((bit / budgets::dl1::WORD) as usize % self.words_per_line)
    }

    /// Poison word `word` of physical line `line` (a decoded
    /// [`Cache::decode_data`] strike): it now holds a corrupt value.
    pub fn poison_word(&mut self, line: u32, word: usize) {
        let wbase = self.word_base(line as usize);
        self.words[wbase + word].set_poisoned(true);
    }

    /// Decode a strike on tag-array bit `bit` (taken modulo
    /// `budgets::dl1::TAG_ENTRY`) of physical line `line_idx`, without
    /// mutating anything.
    ///
    /// An address-tag or valid bit, or the dirty bit of a dirty line, means
    /// the line can no longer be found (or its write-back is lost or
    /// misdirected): [`Cache::invalidate_line`] applies it. Replacement
    /// bits are performance-only. Setting a clean line's dirty bit only
    /// makes the eventual write-back rewrite identical data; it is
    /// decoded `Benign` and never applied, which no trial can observe,
    /// since a `Benign` landing is classified Masked without stepping the
    /// core again.
    pub fn decode_tag(&self, line_idx: u64, bit: u64) -> TagInject {
        use budgets::dl1::{ADDR_TAG, DIRTY, TAG_ENTRY, VALID};
        let dirty_bit = ADDR_TAG + VALID;
        let Some(line) = self.lines.get(line_idx as usize).filter(|l| l.valid) else {
            return TagInject::Empty;
        };
        let b = bit % TAG_ENTRY;
        if b >= dirty_bit + DIRTY || (b == dirty_bit && !line.dirty) {
            TagInject::Benign
        } else if line.dirty {
            TagInject::DirtyLost
        } else {
            TagInject::CleanInvalidate
        }
    }

    /// Invalidate physical line `line` (a decoded tag strike). A dirty
    /// line's words lose their only good copy: their addresses go to the
    /// poison spill.
    pub fn invalidate_line(&mut self, line: u32) {
        let li = line as usize;
        let assoc = self.cfg.assoc as u64;
        let index_bits = self.index_mask.count_ones();
        let base = ((self.lines[li].tag << index_bits) | (line as u64 / assoc)) << self.offset_bits;
        let was_dirty = self.lines[li].dirty;
        self.lines[li].valid = false;
        self.lines[li].dirty = false;
        let wbase = self.word_base(li);
        for ws in &mut self.words[wbase..wbase + self.words_per_line] {
            ws.set_poisoned(false);
        }
        if was_dirty {
            for w in 0..self.words_per_line {
                self.poison_spill.push(base + 8 * w as u64);
            }
        }
    }

    /// The cache's associativity (for mapping a flat line index to its
    /// set: `set = line / assoc`).
    pub fn assoc(&self) -> u32 {
        self.cfg.assoc
    }

    /// Drain the word addresses whose good copy was lost (see
    /// `poison_spill`).
    pub fn drain_poison_spill(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.poison_spill)
    }

    /// Mark words of the (just-filled) line containing `addr` poisoned when
    /// their backing-memory copy is stale.
    pub fn poison_words_from(&mut self, addr: u64, stale: &std::collections::HashSet<u64>) {
        if stale.is_empty() {
            return;
        }
        let set = self.index_of(addr);
        let tag = self.tag_of(addr);
        let index_bits = self.index_mask.count_ones();
        let offset_bits = self.offset_bits;
        if let Some(li) = self.find_line(set, tag) {
            let base = ((self.lines[li].tag << index_bits) | set as u64) << offset_bits;
            let wbase = self.word_base(li);
            for (w, ws) in self.words[wbase..wbase + self.words_per_line]
                .iter_mut()
                .enumerate()
            {
                if stale.contains(&(base + 8 * w as u64)) {
                    ws.set_poisoned(true);
                }
            }
        }
    }

    /// Whether any resident word is poisoned (residual-corruption check).
    pub fn has_poison(&self) -> bool {
        self.lines.iter().enumerate().any(|(li, l)| {
            l.valid
                && self.words[li * self.words_per_line..(li + 1) * self.words_per_line]
                    .iter()
                    .any(|w| w.poisoned())
        })
    }

    /// Probe without updating state or accounting (used by PDG's miss
    /// predictor training and by tests).
    pub fn would_hit(&self, addr: u64) -> bool {
        self.find_line(self.index_of(addr), self.tag_of(addr))
            .is_some()
    }

    /// Start a measurement window at `now`: clamp every resident line's
    /// interval timestamps so residency accrued during warm-up is not
    /// banked into the measurement.
    pub fn reset_epoch(&mut self, now: u64) {
        for (li, line) in self.lines.iter_mut().enumerate() {
            if line.valid {
                line.tag_last = line.tag_last.max(now);
                let wbase = li * self.words_per_line;
                for ws in &mut self.words[wbase..wbase + self.words_per_line] {
                    ws.set_last_event(ws.last_event().max(now));
                }
            }
        }
    }

    /// Bank the final ACE intervals of still-resident dirty state at the end
    /// of simulation (`now`), as if everything dirty were written back.
    pub fn finalize(&mut self, now: u64, engine: &mut AvfEngine) {
        let (data_target, tag_target) = (self.data_target, self.tag_target);
        for (li, line) in self.lines.iter_mut().enumerate() {
            if !line.valid || !line.dirty {
                continue;
            }
            let wbase = li * self.words_per_line;
            for ws in &mut self.words[wbase..wbase + self.words_per_line] {
                if now > ws.last_event() {
                    if let Some(t) = data_target {
                        engine.bank(t, line.owner, 64, now - ws.last_event());
                    }
                    ws.set_last_event(now);
                }
            }
            if let Some(t) = tag_target {
                if now > line.tag_last {
                    engine.bank(t, line.owner, budgets::dl1::TAG_ENTRY, now - line.tag_last);
                    line.tag_last = now;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_core::AvfEngine;
    use sim_model::MachineConfig;

    fn dl1() -> (Cache, AvfEngine) {
        let cfg = MachineConfig::ispass07_baseline().dl1;
        let c = Cache::new(
            "dl1",
            cfg,
            Some(StructureId::Dl1Data),
            Some(StructureId::Dl1Tag),
        );
        let mut e = AvfEngine::new(1);
        c.configure_avf(&mut e);
        (c, e)
    }

    const T0: ThreadId = ThreadId(0);

    #[test]
    fn miss_then_hit() {
        let (mut c, mut e) = dl1();
        let r = c.access(T0, 0x1000, 8, AccessKind::Read, 0, &mut e);
        assert!(!r.hit);
        let r = c.access(T0, 0x1000, 8, AccessKind::Read, 5, &mut e);
        assert!(r.hit);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_line_different_words_share_a_line() {
        let (mut c, mut e) = dl1();
        c.access(T0, 0x1000, 8, AccessKind::Read, 0, &mut e);
        let r = c.access(T0, 0x1038, 8, AccessKind::Read, 1, &mut e);
        assert!(r.hit, "0x1038 is in the same 64-byte line as 0x1000");
    }

    #[test]
    fn lru_evicts_oldest() {
        let (mut c, mut e) = dl1();
        let sets = c.config().num_sets();
        let stride = sets * 64; // same set, different tags
                                // Fill all 4 ways of set 0, then touch way 0 to refresh it.
        for i in 0..4u64 {
            c.access(T0, i * stride, 8, AccessKind::Read, i, &mut e);
        }
        c.access(T0, 0, 8, AccessKind::Read, 10, &mut e);
        // A 5th line evicts the LRU line (tag 1), not tag 0.
        c.access(T0, 4 * stride, 8, AccessKind::Read, 11, &mut e);
        assert!(c.would_hit(0));
        assert!(!c.would_hit(stride));
    }

    #[test]
    fn read_interval_is_ace_write_interval_is_not() {
        let (mut c, mut e) = dl1();
        // Fill at t=0, read at t=100: one word ACE for 100 cycles.
        c.access(T0, 0x2000, 8, AccessKind::Read, 0, &mut e);
        c.access(T0, 0x2000, 8, AccessKind::Read, 100, &mut e);
        let ace = e.tracker(StructureId::Dl1Data).total_ace_bit_cycles();
        assert_eq!(ace, 64 * 100);

        // Overwriting after another 100 cycles banks nothing more for data.
        c.access(T0, 0x2000, 8, AccessKind::Write, 200, &mut e);
        let ace2 = e.tracker(StructureId::Dl1Data).total_ace_bit_cycles();
        assert_eq!(ace2, ace);
    }

    #[test]
    fn dirty_data_is_ace_until_writeback() {
        let (mut c, mut e) = dl1();
        c.access(T0, 0x3000, 8, AccessKind::Write, 0, &mut e);
        let before = e.tracker(StructureId::Dl1Data).total_ace_bit_cycles();
        // Evict by filling the same set with 4 more tags.
        let stride = c.config().num_sets() * 64;
        for i in 1..=4u64 {
            c.access(T0, 0x3000 + i * stride, 8, AccessKind::Read, 50, &mut e);
        }
        let after = e.tracker(StructureId::Dl1Data).total_ace_bit_cycles();
        // The full line is written back, so all 8 words' tails are ACE.
        assert_eq!(after - before, 8 * 64 * 50, "full line ACE until writeback");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_banks_no_data_tail() {
        let (mut c, mut e) = dl1();
        c.access(T0, 0x4000, 8, AccessKind::Read, 0, &mut e);
        let before = e.tracker(StructureId::Dl1Data).total_ace_bit_cycles();
        let stride = c.config().num_sets() * 64;
        for i in 1..=4u64 {
            c.access(T0, 0x4000 + i * stride, 8, AccessKind::Read, 80, &mut e);
        }
        let after = e.tracker(StructureId::Dl1Data).total_ace_bit_cycles();
        assert_eq!(after, before, "unread-then-evicted data is un-ACE");
    }

    #[test]
    fn tag_ace_accrues_between_hits_of_a_line() {
        let (mut c, mut e) = dl1();
        c.access(T0, 0x5000, 8, AccessKind::Read, 0, &mut e);
        // A lookup of the same set but a different line does not exercise
        // this line's tag interval under the per-line model.
        let stride = c.config().num_sets() * 64;
        c.access(T0, 0x5000 + stride, 8, AccessKind::Read, 20, &mut e);
        assert_eq!(e.tracker(StructureId::Dl1Tag).total_ace_bit_cycles(), 0);
        // A hit on the line itself banks fill -> hit.
        c.access(T0, 0x5000, 8, AccessKind::Read, 40, &mut e);
        let tag_ace = e.tracker(StructureId::Dl1Tag).total_ace_bit_cycles();
        assert_eq!(tag_ace, budgets::dl1::TAG_ENTRY as u128 * 40);
    }

    #[test]
    fn finalize_banks_dirty_tails() {
        let (mut c, mut e) = dl1();
        c.access(T0, 0x6000, 8, AccessKind::Write, 0, &mut e);
        c.finalize(1000, &mut e);
        let data_ace = e.tracker(StructureId::Dl1Data).total_ace_bit_cycles();
        // Finalize treats the dirty line as written back whole: all 8
        // words' tails are ACE.
        assert_eq!(data_ace, 8 * 64 * 1000);
        // finalize is idempotent
        c.finalize(1000, &mut e);
        assert_eq!(
            e.tracker(StructureId::Dl1Data).total_ace_bit_cycles(),
            data_ace
        );
    }

    #[test]
    fn narrow_access_touches_one_word() {
        let (mut c, mut e) = dl1();
        c.access(T0, 0x7000, 1, AccessKind::Read, 0, &mut e);
        c.access(T0, 0x7000, 1, AccessKind::Read, 10, &mut e);
        assert_eq!(
            e.tracker(StructureId::Dl1Data).total_ace_bit_cycles(),
            64 * 10,
            "only the containing word is tracked"
        );
    }

    #[test]
    fn unaligned_access_spanning_words() {
        let (c, _) = dl1();
        // 8 bytes starting at offset 4 touch words 0 and 1.
        assert_eq!(c.word_range(0x7004, 8), (0, 1));
        assert_eq!(c.word_range(0x7000, 8), (0, 0));
        assert_eq!(c.word_range(0x7038, 8), (7, 7));
    }

    #[test]
    fn word_state_packs_into_eight_bytes() {
        assert_eq!(std::mem::size_of::<WordState>(), 8);
    }

    #[test]
    fn word_state_cycle_and_poison_are_independent() {
        for cycle in [0, 12_345, 1 << 62, (1 << 63) - 1] {
            let mut ws = WordState::default();
            ws.set_last_event(cycle / 2);
            ws.set_poisoned(true);
            assert_eq!(ws.last_event(), cycle / 2, "poisoning keeps the cycle");
            ws.set_last_event(cycle);
            assert!(ws.poisoned(), "advancing the cycle keeps the poison");
            assert_eq!(ws.last_event(), cycle);
            ws.set_poisoned(false);
            assert_eq!(ws.last_event(), cycle, "healing keeps the cycle");
            assert!(!ws.poisoned());
        }
    }

    #[test]
    fn write_heals_a_poisoned_word() {
        let (mut c, mut e) = dl1();
        let r = c.access(T0, 0x8000, 8, AccessKind::Read, 0, &mut e);
        assert!(!r.hit);
        let li = c.find_line(c.index_of(0x8000), c.tag_of(0x8000)).unwrap();
        c.poison_word(li as u32, 0);
        assert!(c.has_poison());
        assert!(
            c.access(T0, 0x8000, 8, AccessKind::Read, 10, &mut e)
                .poisoned
        );
        c.access(T0, 0x8000, 8, AccessKind::Write, 20, &mut e);
        assert!(!c.has_poison(), "the overwrite heals the word");
        assert!(
            !c.access(T0, 0x8000, 8, AccessKind::Read, 30, &mut e)
                .poisoned
        );
    }

    #[test]
    fn il1_without_targets_banks_nothing() {
        let cfg = MachineConfig::ispass07_baseline().il1;
        let mut c = Cache::new("il1", cfg, None, None);
        let mut e = AvfEngine::new(1);
        c.access(T0, 0x100, 4, AccessKind::Read, 0, &mut e);
        c.access(T0, 0x100, 4, AccessKind::Read, 50, &mut e);
        for s in StructureId::ALL {
            assert_eq!(e.tracker(s).total_ace_bit_cycles(), 0);
        }
    }
}
