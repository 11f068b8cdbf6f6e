//! Shared execution resources: physical register pools (with AVF interval
//! tracking), the issue queue, and functional units.

use avf_core::{budgets, AvfEngine, StructureId};
use sim_model::{OpClass, PhysReg, ThreadId};

// ---------------------------------------------------------------------------
// Physical register free list + ACE lifetime tracking
// ---------------------------------------------------------------------------

/// A free list over one physical register pool.
#[derive(Debug, Clone)]
pub struct FreeList {
    free: Vec<PhysReg>,
    pool_size: u32,
}

impl FreeList {
    /// A pool of `size` registers, all initially free.
    pub fn new(size: u32) -> FreeList {
        FreeList {
            free: (0..size).rev().map(|i| PhysReg(i as u16)).collect(),
            pool_size: size,
        }
    }

    /// Allocate a register, if any is free.
    #[inline]
    pub fn alloc(&mut self) -> Option<PhysReg> {
        self.free.pop()
    }

    /// Return a register to the pool.
    ///
    /// # Panics
    /// Panics (debug builds) on double-free.
    pub fn free(&mut self, r: PhysReg) {
        debug_assert!(
            !self.free.contains(&r),
            "double free of physical register {r}"
        );
        debug_assert!((r.index() as u32) < self.pool_size);
        self.free.push(r);
    }

    /// Number of currently free registers.
    #[inline]
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

/// ACE lifetime tracking for one physical register pool.
///
/// Following Section 4.2 of the paper: a register is un-ACE from rename
/// until write-back ("registers remain in an allocated state without
/// holding valid data until the write back stage"), ACE from write-back to
/// its last read (if the value is architecturally live), and un-ACE from
/// the last read until it is freed.
#[derive(Debug, Clone)]
pub struct RegTracker {
    write_time: Vec<u64>,
    last_read: Vec<u64>,
    written: Vec<bool>,
    value_ace: Vec<bool>,
    owner: Vec<ThreadId>,
}

impl RegTracker {
    /// Tracking state for a pool of `size` registers.
    pub fn new(size: u32) -> RegTracker {
        let n = size as usize;
        RegTracker {
            write_time: vec![0; n],
            last_read: vec![0; n],
            written: vec![false; n],
            value_ace: vec![false; n],
            owner: vec![ThreadId(0); n],
        }
    }

    /// A register was allocated at rename by `thread`.
    #[inline]
    pub fn on_alloc(&mut self, r: PhysReg, thread: ThreadId) {
        let i = r.index();
        self.write_time[i] = 0;
        self.last_read[i] = 0;
        self.written[i] = false;
        self.value_ace[i] = false;
        self.owner[i] = thread;
    }

    /// The producing instruction wrote the register at `now`; `value_ace`
    /// is false for dynamically dead or wrong-path values.
    #[inline]
    pub fn on_write(&mut self, r: PhysReg, now: u64, value_ace: bool) {
        let i = r.index();
        self.write_time[i] = now;
        self.written[i] = true;
        self.value_ace[i] = value_ace;
    }

    /// A (correct-path) consumer read the register at `now`.
    #[inline]
    pub fn on_read(&mut self, r: PhysReg, now: u64) {
        let i = r.index();
        self.last_read[i] = self.last_read[i].max(now);
    }

    /// The producing instruction was squashed: whatever was or will be
    /// written is not architecturally live.
    #[inline]
    pub fn on_squash(&mut self, r: PhysReg) {
        self.value_ace[r.index()] = false;
    }

    /// The register is being freed: bank its ACE interval (write → last
    /// read) into the register-file tracker.
    pub fn on_free(&mut self, r: PhysReg, engine: &mut AvfEngine) {
        let i = r.index();
        if self.written[i] && self.value_ace[i] && self.last_read[i] > self.write_time[i] {
            engine.bank(
                StructureId::RegFile,
                self.owner[i],
                budgets::regfile::ENTRY,
                self.last_read[i] - self.write_time[i],
            );
        }
        self.written[i] = false;
        self.value_ace[i] = false;
    }

    /// Whether the register's value has been produced (scoreboard bit).
    #[inline]
    pub fn is_ready(&self, r: PhysReg) -> bool {
        self.written[r.index()]
    }

    /// Start a measurement window at `now`: clamp live registers' write
    /// and read timestamps so warm-up residency is excluded.
    pub fn reset_epoch(&mut self, now: u64) {
        for i in 0..self.write_time.len() {
            if self.written[i] {
                self.write_time[i] = self.write_time[i].max(now);
                self.last_read[i] = self.last_read[i].max(self.write_time[i]);
            }
        }
    }

    /// Bank the ACE intervals of registers still live at the end of
    /// simulation (long-lived globals are never freed during the run and
    /// would otherwise be invisible to the accounting).
    pub fn finalize(&mut self, engine: &mut AvfEngine) {
        for i in 0..self.write_time.len() {
            if self.written[i] && self.value_ace[i] && self.last_read[i] > self.write_time[i] {
                engine.bank(
                    StructureId::RegFile,
                    self.owner[i],
                    budgets::regfile::ENTRY,
                    self.last_read[i] - self.write_time[i],
                );
                self.written[i] = false;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Issue queue
// ---------------------------------------------------------------------------

/// One issue-queue entry (the payload lives in the owning thread's ROB
/// slab; the IQ holds a reference by `(thread, ftag)` plus the slab index
/// for O(1) payload access and an age stamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqEntry {
    /// Owning thread.
    pub thread: ThreadId,
    /// The instruction's per-thread fetch tag.
    pub ftag: u64,
    /// Index of the instruction's slot in the owning thread's ROB slab.
    pub slot: u32,
    /// Global dispatch order stamp (age priority for select).
    pub age: u64,
}

/// The shared issue queue.
///
/// `entries` is maintained oldest-first at all times: insertions append
/// with a strictly increasing age stamp and removals shift rather than
/// swap, so the select order is available as a slice with no per-cycle
/// snapshot-and-sort. The queue is small (tens of entries), making the
/// shifting removal cheaper than the allocation it replaces.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    entries: Vec<IqEntry>,
    capacity: usize,
    age_counter: u64,
}

impl IssueQueue {
    /// An IQ with `capacity` shared entries.
    pub fn new(capacity: u32) -> IssueQueue {
        IssueQueue {
            entries: Vec::with_capacity(capacity as usize),
            capacity: capacity as usize,
            age_counter: 0,
        }
    }

    /// Whether an entry can be inserted.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the IQ is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a dispatched instruction and return its entry.
    ///
    /// # Panics
    /// Panics if the IQ is full (callers must check [`IssueQueue::has_space`]).
    pub fn insert(&mut self, thread: ThreadId, ftag: u64, slot: u32) -> IqEntry {
        assert!(self.has_space(), "issue queue overflow");
        self.age_counter += 1;
        let e = IqEntry {
            thread,
            ftag,
            slot,
            age: self.age_counter,
        };
        self.entries.push(e);
        e
    }

    /// Remove a specific entry (on squash). Returns whether it was
    /// present. Shifts rather than swaps to preserve age order.
    pub fn remove(&mut self, thread: ThreadId, ftag: u64) -> bool {
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| e.thread == thread && e.ftag == ftag)
        {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Remove `e` (on issue), found by binary search on its age stamp.
    /// Shifts rather than swaps to preserve age order.
    ///
    /// # Panics
    /// Panics if `e` is not in the queue.
    pub fn remove_entry(&mut self, e: IqEntry) {
        let pos = self
            .entries
            .binary_search_by_key(&e.age, |x| x.age)
            .expect("issued entry not in the IQ");
        debug_assert_eq!(self.entries[pos], e);
        self.entries.remove(pos);
    }

    /// The entries oldest-first (the select order), allocation-free.
    #[inline]
    pub fn entries(&self) -> &[IqEntry] {
        debug_assert!(self.entries.windows(2).all(|w| w[0].age < w[1].age));
        &self.entries
    }

    /// Snapshot of entries sorted oldest-first (the select order). Prefer
    /// [`IssueQueue::entries`] on hot paths; this allocates.
    pub fn by_age(&self) -> Vec<IqEntry> {
        self.entries.clone()
    }
}

// ---------------------------------------------------------------------------
// Wakeup-driven select
// ---------------------------------------------------------------------------

/// End of a waiter list (and of the free list).
const NIL: u32 = u32::MAX;

/// One IQ entry waiting on a register, linked to the next waiter.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    entry: IqEntry,
    next: u32,
}

/// Which issue-queue entries select has to look at.
///
/// `ready` holds, oldest-first, every IQ entry whose sources are all
/// written. It may also hold a few entries whose source register went
/// unwritten again after they were filed (only a corrupted source tag can
/// do that); select re-checks each entry and moves those back to waiting.
/// Every other entry waits on one unwritten source register, in an
/// intrusive list threaded through a shared node pool from that
/// register's head slot, so filing and waking never allocate once the
/// pool has reached its high-water size. Waiter records are not removed
/// when their entry issues or is squashed: the writeback that wakes them
/// checks each one against its slab slot and drops the stale ones.
///
/// This is derived state: it is a function of the IQ, the slab and the
/// scoreboard, so it stays out of `SmtCore::state_digest`.
#[derive(Debug, Clone)]
pub(crate) struct Wakeup {
    /// Ready entries, strictly ascending by age.
    pub(crate) ready: Vec<IqEntry>,
    /// Head node of each register's waiter list: int registers first,
    /// then fp registers from `fp_base`.
    heads: Vec<u32>,
    fp_base: usize,
    nodes: Vec<Waiter>,
    /// Head of the free-node list, linked through `Waiter::next`.
    free: u32,
    /// Ready entries select found unready and moved back to waiting.
    #[cfg(debug_assertions)]
    pub(crate) demotions: u64,
}

impl Wakeup {
    /// Empty lists for an IQ of `iq_entries` over the two register pools.
    pub(crate) fn new(iq_entries: u32, int_regs: u32, fp_regs: u32) -> Wakeup {
        Wakeup {
            ready: Vec::with_capacity(iq_entries as usize),
            heads: vec![NIL; (int_regs + fp_regs) as usize],
            fp_base: int_regs as usize,
            // Live records never outnumber the IQ; stale ones (their entry
            // was squashed, or re-filed after a source-tag strike) linger
            // until their register is next written. Saturated 4-context
            // mixes peak near 2.5x the IQ, well inside one spare record per
            // physical register.
            nodes: Vec::with_capacity((iq_entries + int_regs + fp_regs) as usize),
            free: NIL,
            #[cfg(debug_assertions)]
            demotions: 0,
        }
    }

    fn head(&mut self, fp: bool, reg: PhysReg) -> &mut u32 {
        let base = if fp { self.fp_base } else { 0 };
        &mut self.heads[base + reg.index()]
    }

    /// File `e`: onto the ready list when `unready` is `None`, else onto
    /// the waiter list of the unwritten source register it names.
    #[inline]
    pub(crate) fn file(&mut self, e: IqEntry, unready: Option<(bool, PhysReg)>) {
        match unready {
            None => {
                // Almost always the youngest entry (dispatch); a woken
                // entry lands in age order. An entry filed twice (a
                // source-tag strike can leave a stale waiter record) is
                // listed once.
                let i = self.ready.partition_point(|r| r.age < e.age);
                if self.ready.get(i).is_none_or(|r| r.age != e.age) {
                    self.ready.insert(i, e);
                }
            }
            Some((fp, reg)) => self.wait(fp, reg, e),
        }
    }

    /// Move `e`, a ready entry that select found unready, back to waiting
    /// on register `reg` of the given pool.
    pub(crate) fn demote(&mut self, fp: bool, reg: PhysReg, e: IqEntry) {
        #[cfg(debug_assertions)]
        {
            self.demotions += 1;
        }
        self.wait(fp, reg, e);
    }

    /// Make `e` wait on register `reg` of the given pool.
    fn wait(&mut self, fp: bool, reg: PhysReg, e: IqEntry) {
        let next = *self.head(fp, reg);
        let node = Waiter { entry: e, next };
        let i = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        *self.head(fp, reg) = i;
    }

    /// Detach the waiter list of register `reg` (it was just written) and
    /// return its first node for [`Wakeup::release`].
    pub(crate) fn detach(&mut self, fp: bool, reg: PhysReg) -> u32 {
        std::mem::replace(self.head(fp, reg), NIL)
    }

    /// Return node `i` of a detached list to the pool and yield its entry
    /// with the next node, or `None` at the end of the list.
    pub(crate) fn release(&mut self, i: u32) -> Option<(IqEntry, u32)> {
        let node = self.nodes.get_mut(i as usize)?;
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = i;
        Some((node.entry, next))
    }

    /// Drop thread `thread`'s ready entries younger than `boundary`
    /// (they were squashed).
    pub(crate) fn squash(&mut self, thread: ThreadId, boundary: u64) {
        self.ready
            .retain(|e| e.thread != thread || e.ftag <= boundary);
    }
}

// ---------------------------------------------------------------------------
// Functional units
// ---------------------------------------------------------------------------

/// The functional-unit pools of Table 1, with per-unit busy tracking so
/// unpipelined dividers block subsequent ops.
#[derive(Debug, Clone)]
pub struct FuPool {
    int_alu: Vec<u64>,
    int_mul_div: Vec<u64>,
    load_store: Vec<u64>,
    fp_alu: Vec<u64>,
    fp_mul_div: Vec<u64>,
    cfg: sim_model::FunctionalUnitConfig,
}

impl FuPool {
    /// Build the pools described by `cfg`.
    pub fn new(cfg: &sim_model::FunctionalUnitConfig) -> FuPool {
        FuPool {
            int_alu: vec![0; cfg.int_alu as usize],
            int_mul_div: vec![0; cfg.int_mul_div as usize],
            load_store: vec![0; cfg.load_store as usize],
            fp_alu: vec![0; cfg.fp_alu as usize],
            fp_mul_div: vec![0; cfg.fp_mul_div as usize],
            cfg: *cfg,
        }
    }

    /// Total number of units (the FU AVF bit denominator is
    /// `total_units() * budgets::fu::ENTRY`).
    pub fn total_units(&self) -> u64 {
        (self.int_alu.len()
            + self.int_mul_div.len()
            + self.load_store.len()
            + self.fp_alu.len()
            + self.fp_mul_div.len()) as u64
    }

    /// Execution latency of `op` on its unit (excluding cache time for
    /// memory ops — the port is held one AGU cycle).
    pub fn latency(&self, op: OpClass) -> u64 {
        match op {
            OpClass::IntAlu | OpClass::Branch => 1,
            OpClass::IntMul => self.cfg.int_mul_latency as u64,
            OpClass::IntDiv => self.cfg.int_div_latency as u64,
            OpClass::FpAlu => self.cfg.fp_alu_latency as u64,
            OpClass::FpMul => self.cfg.fp_mul_latency as u64,
            OpClass::FpDiv => self.cfg.fp_div_latency as u64,
            OpClass::Load | OpClass::Store => 1,
            OpClass::Nop => 0,
        }
    }

    fn pool_for(&mut self, op: OpClass) -> &mut Vec<u64> {
        match op {
            OpClass::IntAlu | OpClass::Branch => &mut self.int_alu,
            OpClass::IntMul | OpClass::IntDiv => &mut self.int_mul_div,
            OpClass::Load | OpClass::Store => &mut self.load_store,
            OpClass::FpAlu => &mut self.fp_alu,
            OpClass::FpMul | OpClass::FpDiv => &mut self.fp_mul_div,
            OpClass::Nop => unreachable!("NOPs never execute"),
        }
    }

    /// Occupancy an `op` imposes on its unit: pipelined units accept a new
    /// op every cycle; unpipelined dividers are busy for the full latency.
    fn busy_time(&self, op: OpClass) -> u64 {
        match op {
            OpClass::IntDiv | OpClass::FpDiv => self.latency(op),
            OpClass::Nop => 0,
            _ => 1,
        }
    }

    /// Try to start `op` at cycle `now`. Returns `true` if a unit accepted
    /// it.
    #[inline]
    pub fn try_issue(&mut self, op: OpClass, now: u64) -> bool {
        let busy = self.busy_time(op);
        let pool = self.pool_for(op);
        if let Some(unit) = pool.iter_mut().find(|b| **b <= now) {
            *unit = now + busy;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::MachineConfig;

    #[test]
    fn free_list_conserves_registers() {
        let mut f = FreeList::new(8);
        assert_eq!(f.available(), 8);
        let a = f.alloc().unwrap();
        let b = f.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(f.available(), 6);
        f.free(a);
        f.free(b);
        assert_eq!(f.available(), 8);
    }

    #[test]
    fn free_list_exhausts() {
        let mut f = FreeList::new(2);
        assert!(f.alloc().is_some());
        assert!(f.alloc().is_some());
        assert!(f.alloc().is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn free_list_catches_double_free() {
        let mut f = FreeList::new(2);
        let a = f.alloc().unwrap();
        f.free(a);
        f.free(a);
    }

    #[test]
    fn reg_tracker_banks_write_to_last_read() {
        let mut t = RegTracker::new(4);
        let mut e = AvfEngine::new(1);
        e.set_total_bits(StructureId::RegFile, 4 * 64);
        let r = PhysReg(2);
        t.on_alloc(r, ThreadId(0));
        assert!(!t.is_ready(r));
        t.on_write(r, 100, true);
        assert!(t.is_ready(r));
        t.on_read(r, 130);
        t.on_read(r, 120); // out-of-order read does not shrink the interval
        t.on_free(r, &mut e);
        assert_eq!(
            e.tracker(StructureId::RegFile).total_ace_bit_cycles(),
            64 * 30
        );
    }

    #[test]
    fn reg_tracker_dead_values_bank_nothing() {
        let mut t = RegTracker::new(4);
        let mut e = AvfEngine::new(1);
        e.set_total_bits(StructureId::RegFile, 4 * 64);
        let r = PhysReg(1);
        t.on_alloc(r, ThreadId(0));
        t.on_write(r, 10, false); // dyn-dead value
        t.on_read(r, 50);
        t.on_free(r, &mut e);
        assert_eq!(e.tracker(StructureId::RegFile).total_ace_bit_cycles(), 0);
    }

    #[test]
    fn reg_tracker_squash_marks_unace() {
        let mut t = RegTracker::new(4);
        let mut e = AvfEngine::new(1);
        e.set_total_bits(StructureId::RegFile, 4 * 64);
        let r = PhysReg(0);
        t.on_alloc(r, ThreadId(0));
        t.on_write(r, 10, true);
        t.on_read(r, 99);
        t.on_squash(r);
        t.on_free(r, &mut e);
        assert_eq!(e.tracker(StructureId::RegFile).total_ace_bit_cycles(), 0);
    }

    #[test]
    fn iq_age_order_and_capacity() {
        let mut q = IssueQueue::new(2);
        q.insert(ThreadId(0), 5, 0);
        q.insert(ThreadId(1), 3, 0);
        assert!(!q.has_space());
        let order = q.by_age();
        assert_eq!(order[0].thread, ThreadId(0));
        assert!(q.remove(ThreadId(0), 5));
        assert!(!q.remove(ThreadId(0), 5));
        assert!(q.has_space());
    }

    #[test]
    fn iq_remove_entry_keeps_age_order() {
        let mut q = IssueQueue::new(3);
        let a = q.insert(ThreadId(0), 5, 0);
        let b = q.insert(ThreadId(1), 3, 1);
        let c = q.insert(ThreadId(0), 6, 2);
        q.remove_entry(b);
        assert_eq!(q.entries(), &[a, c]);
    }

    #[test]
    fn wakeup_files_wakes_and_lists_each_entry_once() {
        let mut q = IssueQueue::new(4);
        let mut w = Wakeup::new(4, 8, 8);
        let old = q.insert(ThreadId(0), 1, 0);
        let young = q.insert(ThreadId(1), 1, 1);
        w.file(young, None);
        w.file(old, Some((true, PhysReg(3))));
        w.file(old, Some((false, PhysReg(3))));
        assert_eq!(w.ready, [young]);
        // The int register 3 wakes only its own waiter, which lands
        // ahead of the younger ready entry.
        let mut i = w.detach(false, PhysReg(3));
        let mut woken = Vec::new();
        while let Some((e, next)) = w.release(i) {
            woken.push(e);
            i = next;
        }
        assert_eq!(woken, [old]);
        w.file(old, None);
        assert_eq!(w.ready, [old, young]);
        // A stale record filing the same entry again lists it once.
        let i = w.detach(true, PhysReg(3));
        let (e, next) = w.release(i).expect("one waiter");
        assert!(w.release(next).is_none());
        w.file(e, None);
        assert_eq!(w.ready, [old, young]);
        w.squash(ThreadId(1), 0);
        assert_eq!(w.ready, [old]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn iq_overflow_panics() {
        let mut q = IssueQueue::new(1);
        q.insert(ThreadId(0), 1, 0);
        q.insert(ThreadId(0), 2, 0);
    }

    #[test]
    fn fu_pipelined_units_accept_every_cycle() {
        let cfg = MachineConfig::ispass07_baseline().fus;
        let mut fus = FuPool::new(&cfg);
        for _ in 0..cfg.int_alu {
            assert!(fus.try_issue(OpClass::IntAlu, 10));
        }
        assert!(!fus.try_issue(OpClass::IntAlu, 10), "all 8 ALUs taken");
        assert!(
            fus.try_issue(OpClass::IntAlu, 11),
            "pipelined: free next cycle"
        );
    }

    #[test]
    fn fu_divider_blocks_for_full_latency() {
        let cfg = MachineConfig::ispass07_baseline().fus;
        let mut fus = FuPool::new(&cfg);
        for _ in 0..cfg.int_mul_div {
            assert!(fus.try_issue(OpClass::IntDiv, 0));
        }
        assert!(!fus.try_issue(OpClass::IntDiv, 1));
        assert!(
            !fus.try_issue(OpClass::IntMul, 1),
            "muls share the divider units"
        );
        assert!(fus.try_issue(OpClass::IntDiv, cfg.int_div_latency as u64));
    }

    #[test]
    fn fu_latencies_match_config() {
        let cfg = MachineConfig::ispass07_baseline().fus;
        let fus = FuPool::new(&cfg);
        assert_eq!(fus.latency(OpClass::IntAlu), 1);
        assert_eq!(fus.latency(OpClass::IntMul), cfg.int_mul_latency as u64);
        assert_eq!(fus.latency(OpClass::FpDiv), cfg.fp_div_latency as u64);
        assert_eq!(fus.total_units(), 28);
    }
}
