//! In-flight instruction bookkeeping.

use sim_model::{Inst, PhysReg};

/// Lifecycle stage of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Dispatched; waiting in the issue queue (or, for NOPs, already
    /// complete).
    Waiting,
    /// Issued to a functional unit; executing.
    Issued,
    /// Finished executing; eligible to commit when it reaches the ROB head.
    Done,
}

/// An instruction in the front-end pipe (fetched, not yet dispatched).
#[derive(Debug, Clone, Copy)]
pub struct FrontEndInst {
    /// The micro-op.
    pub inst: Inst,
    /// Per-thread fetch-order tag (total order incl. wrong path).
    pub ftag: u64,
    /// Earliest cycle it may dispatch (front-end depth).
    pub ready_at: u64,
    /// PDG: this load was predicted to miss the DL1 at fetch.
    pub predicted_miss: bool,
    /// PSTALL: this load was predicted to miss the L2 at fetch.
    pub predicted_l2_miss: bool,
}

/// A reorder-buffer slot: one in-flight instruction and every timestamp and
/// flag the deferred AVF classification needs.
///
/// `Slot` is `Copy` (every field is a scalar): the slab-based ROB moves
/// slots in and out by fixed-size copy, never via the heap.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// The micro-op.
    pub inst: Inst,
    /// Per-thread fetch-order tag.
    pub ftag: u64,
    /// Lifecycle stage.
    pub state: SlotState,
    /// Cycle dispatched into ROB/IQ/LSQ.
    pub dispatched_at: u64,
    /// Cycle issued from the IQ (0 until issued).
    pub issued_at: u64,
    /// Cycle execution completed (0 until done).
    pub completed_at: u64,
    /// Cycles the op held its functional unit (0 for NOPs).
    pub exec_latency: u64,
    /// Whether the op currently occupies an IQ entry.
    pub in_iq: bool,
    /// Whether the op occupies an LSQ entry.
    pub in_lsq: bool,
    /// Renamed source physical registers (paired with pool class of src).
    pub srcs_phys: [Option<PhysReg>; 2],
    /// Newly allocated destination physical register.
    pub dest_phys: Option<PhysReg>,
    /// Previous mapping of the destination architectural register.
    pub old_phys: Option<PhysReg>,
    /// Branch known (at fetch) to have been mispredicted.
    pub mispredicted: bool,
    /// Load counted in the thread's outstanding-L1-miss counter.
    pub counted_l1: bool,
    /// Load counted in the thread's outstanding-L2-miss counter.
    pub counted_l2: bool,
    /// Load counted in the thread's PDG predicted-miss counter.
    pub counted_pred: bool,
    /// Load counted in the thread's PSTALL predicted-L2-miss counter.
    pub counted_pred_l2: bool,
    /// Fault injection: this instruction consumed or produced a corrupt
    /// value (its result, if any, is corrupt).
    pub tainted: bool,
}

impl Slot {
    /// A freshly dispatched slot.
    pub fn new(fe: FrontEndInst, now: u64) -> Slot {
        Slot {
            inst: fe.inst,
            ftag: fe.ftag,
            state: SlotState::Waiting,
            dispatched_at: now,
            issued_at: 0,
            completed_at: 0,
            exec_latency: 0,
            in_iq: false,
            in_lsq: false,
            srcs_phys: [None, None],
            dest_phys: None,
            old_phys: None,
            mispredicted: false,
            counted_l1: false,
            counted_l2: false,
            counted_pred: fe.predicted_miss,
            counted_pred_l2: fe.predicted_l2_miss,
            tainted: false,
        }
    }

    /// The renamed source operands in source order, each as
    /// `(is_fp, phys)`: which register pool the physical tag indexes, and
    /// the tag itself.
    #[inline]
    pub fn srcs(&self) -> [Option<(bool, PhysReg)>; 2] {
        [0, 1].map(|i| {
            self.srcs_phys[i].map(|p| {
                let arch = self.inst.srcs[i].expect("phys src without arch src");
                (arch.is_fp(), p)
            })
        })
    }

    /// Cycles this slot has occupied the ROB as of `now`.
    pub fn rob_residency(&self, now: u64) -> u64 {
        now.saturating_sub(self.dispatched_at)
    }

    /// Cycles this slot occupied the IQ (dispatch to issue; to `now` if
    /// still waiting).
    pub fn iq_residency(&self, now: u64) -> u64 {
        if self.issued_at > 0 {
            self.issued_at - self.dispatched_at
        } else {
            now.saturating_sub(self.dispatched_at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::SeqNum;

    fn fe(ftag: u64, fetched: u64) -> FrontEndInst {
        FrontEndInst {
            inst: Inst::nop(0x100, SeqNum(ftag)),
            ftag,
            ready_at: fetched + 5,
            predicted_miss: false,
            predicted_l2_miss: false,
        }
    }

    #[test]
    fn residency_computations() {
        let mut s = Slot::new(fe(1, 10), 15);
        assert_eq!(s.rob_residency(35), 20);
        assert_eq!(s.iq_residency(25), 10, "unissued counts to now");
        s.issued_at = 22;
        assert_eq!(s.iq_residency(99), 7);
    }

    #[test]
    fn residency_is_zero_at_dispatch_cycle() {
        let s = Slot::new(fe(0, 0), 5);
        assert_eq!(s.rob_residency(5), 0);
        assert_eq!(s.rob_residency(4), 0, "saturating, never negative");
    }
}
