//! Statistical fault-injection hooks: single-bit fault descriptions, the
//! immediate landing outcome of a strike, and the retired-instruction
//! records the campaign runner diffs against a golden run.
//!
//! The ACE analysis (the paper's method) *infers* vulnerability from
//! lifetime accounting; these hooks let `sim-inject` *measure* it by
//! flipping one bit mid-simulation and watching what retires. The core
//! models corruption symbolically: a struck value is marked *tainted*
//! rather than numerically altered, and taint propagates along true
//! dataflow — through register reads, loads of poisoned cache words, and
//! stores — exactly the paths the ACE model reasons about. Fields whose
//! corruption the simulator cannot meaningfully propagate (opcodes,
//! scheduling status, LSQ control) are conservatively classified as
//! *detected* at injection time, the hardware-detectable-error (DUE)
//! proxy.

use sim_model::{MachineConfig, OpClass};

/// The microarchitectural array a fault strikes. Entry/bit layouts follow
/// `avf_core::budgets`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// Issue-queue entry (64-bit layout: opcode, source tags, dest tag,
    /// immediate, status).
    Iq,
    /// Reorder-buffer entry (80-bit layout: PC, dest arch/phys, old phys,
    /// status, opcode, branch state). Entries are numbered
    /// `thread * rob_entries_per_thread + index`.
    Rob,
    /// Load/store queue *tag* entry (48-bit layout: address + control),
    /// numbered `thread * lsq_entries_per_thread + index`.
    LsqTag,
    /// A physical register (64 data bits), numbered across the integer
    /// pool then the floating-point pool.
    RegFile,
    /// A functional-unit latch (two 64-bit operand latches + 16 control
    /// bits), numbered over the machine's functional units.
    Fu,
    /// A DL1 data word: entry is the physical line (`set * assoc + way`),
    /// bit selects the 64-bit word and bit within it.
    Dl1Data,
    /// A DL1 tag entry (address tag, valid, dirty, LRU bits).
    Dl1Tag,
    /// A data-TLB entry (any of its 56 bits: the entry is lost).
    Dtlb,
    /// An instruction-TLB entry.
    Itlb,
}

impl FaultTarget {
    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultTarget::Iq => "IQ",
            FaultTarget::Rob => "ROB",
            FaultTarget::LsqTag => "LSQ_tag",
            FaultTarget::RegFile => "RegFile",
            FaultTarget::Fu => "FU",
            FaultTarget::Dl1Data => "DL1_data",
            FaultTarget::Dl1Tag => "DL1_tag",
            FaultTarget::Dtlb => "DTLB",
            FaultTarget::Itlb => "ITLB",
        }
    }
}

/// One single-bit fault: flip `bit` of physical `entry` in `target` at the
/// moment [`SmtCore::inject_fault`](crate::SmtCore::inject_fault) is
/// called.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The struck array.
    pub target: FaultTarget,
    /// Physical entry index (uniform over the array, occupied or not).
    pub entry: u64,
    /// Bit within the entry's budgeted layout.
    pub bit: u64,
}

/// What a strike did at the instant of injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Landing {
    /// The struck entry held no instruction / no valid state: the fault is
    /// masked by emptiness.
    Empty,
    /// The entry was occupied but the struck field is architecturally idle
    /// for it (e.g. the branch field of a non-branch, a dead instruction's
    /// PC): masked by construction, no need to run further.
    Benign,
    /// State was corrupted; the outcome depends on propagation — the trial
    /// must run to completion and be diffed against the golden run.
    Injected,
    /// The strike hit control state whose corruption a real pipeline traps
    /// on or wedges over (opcode, scheduling status, LSQ control): counted
    /// as a detectable error without running further.
    Detected,
}

/// Physical entry count of `target` on machine `cfg`: the entry sampling
/// space, occupied or not.
/// [`SmtCore::decode_fault`](crate::SmtCore::decode_fault) decodes any
/// entry at or past it as [`Strike::Empty`].
pub fn target_entries(target: FaultTarget, cfg: &MachineConfig) -> u64 {
    match target {
        FaultTarget::Iq => cfg.iq_entries as u64,
        FaultTarget::Rob => cfg.contexts as u64 * cfg.rob_entries_per_thread as u64,
        FaultTarget::LsqTag => cfg.contexts as u64 * cfg.lsq_entries_per_thread as u64,
        FaultTarget::RegFile => cfg.int_phys_regs as u64 + cfg.fp_phys_regs as u64,
        FaultTarget::Fu => {
            let f = &cfg.fus;
            (f.int_alu + f.int_mul_div + f.load_store + f.fp_alu + f.fp_mul_div) as u64
        }
        FaultTarget::Dl1Data | FaultTarget::Dl1Tag => cfg.dl1.num_lines(),
        FaultTarget::Dtlb => cfg.dtlb.entries as u64,
        FaultTarget::Itlb => cfg.itlb.entries as u64,
    }
}

/// A fault resolved against the core's current state by
/// [`SmtCore::decode_fault`]: what the strike lands on and the mutation
/// injecting it makes. Decoding is read-only.
/// [`SmtCore::inject_fault`] applies the decoded strike and the lane
/// engine ([`LaneBatch::activate`](crate::LaneBatch::activate)) matches
/// on it, so injection and lane classification agree by construction.
///
/// [`SmtCore::decode_fault`]: crate::SmtCore::decode_fault
/// [`SmtCore::inject_fault`]: crate::SmtCore::inject_fault
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strike {
    /// No occupant, or an entry outside the array: applies nothing.
    Empty,
    /// An architecturally idle field: applies nothing.
    Benign,
    /// Control state a real pipeline traps on or wedges over: sets the
    /// core's detected flag.
    Detected,
    /// Taints slot `(thread, slab)`, after applying `rewrite` to it.
    Taint {
        /// Owning thread.
        thread: u8,
        /// Slab index of the struck slot in that thread's ROB slab.
        slab: u32,
        /// The struck field, when injection rewrites it.
        rewrite: Option<Rewrite>,
        /// A later pipeline decision reads the rewritten field, so the
        /// strike may change timing and a lane must fork. Conservative:
        /// the scalar fork is exact even when the rewrite turns out to be
        /// timing-neutral.
        feeds_timing: bool,
    },
    /// Poisons one physical register.
    PoisonReg {
        /// Floating-point pool (`false` = integer pool).
        fp: bool,
        /// Register index within its pool.
        reg: u16,
    },
    /// Poisons one word of a valid DL1 line.
    Dl1Word {
        /// Flat physical DL1 line index (`set * assoc + way`).
        line: u32,
        /// Word within the line.
        word: u8,
    },
    /// Invalidates a valid DL1 line; a dirty one loses its only good copy.
    Dl1Line {
        /// Flat physical DL1 line index.
        line: u32,
        /// The line was dirty.
        dirty: bool,
    },
    /// Invalidates one valid TLB entry.
    Tlb {
        /// Instruction TLB (`false` = data TLB).
        itlb: bool,
        /// Flat entry index (`set * assoc + way`).
        entry: u32,
    },
}

/// A field of a struck slot that injection rewrites before tainting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rewrite {
    /// Source operand `src` now names physical register `reg`.
    SrcTag {
        /// Source operand index.
        src: u8,
        /// The register the flipped tag names.
        reg: u16,
    },
    /// The effective address is xored with this mask.
    MemAddr(u64),
    /// The recorded PC is xored with this mask.
    Pc(u64),
}

impl Strike {
    /// The landing [`SmtCore::inject_fault`] reports for this strike.
    ///
    /// [`SmtCore::inject_fault`]: crate::SmtCore::inject_fault
    pub fn landing(self) -> Landing {
        match self {
            Strike::Empty => Landing::Empty,
            Strike::Benign => Landing::Benign,
            Strike::Detected => Landing::Detected,
            _ => Landing::Injected,
        }
    }
}

/// One retired instruction as recorded by the commit log: the fields an
/// architectural-output diff can observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredInst {
    /// Committing thread.
    pub thread: u8,
    /// Instruction PC.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Effective address for memory ops (0 otherwise).
    pub mem_addr: u64,
    /// The retired result was corrupt (taint reached commit) — a silent
    /// data corruption even if the visible fields match.
    pub tainted: bool,
}

/// Per-core fault bookkeeping: which physical registers hold corrupt
/// values, whether a detectable fault fired, and the optional commit log.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Integer physical registers holding corrupt values.
    pub(crate) int_poison: Vec<bool>,
    /// Floating-point physical registers holding corrupt values.
    pub(crate) fp_poison: Vec<bool>,
    /// A control-state strike classified as detectable landed.
    pub(crate) detected: bool,
    /// Instructions that retired with corrupt results.
    pub(crate) corrupt_retired: u64,
    /// Retired-instruction stream, recorded when enabled.
    pub(crate) commit_log: Option<Vec<RetiredInst>>,
}

impl FaultState {
    pub(crate) fn new(int_regs: u32, fp_regs: u32) -> FaultState {
        FaultState {
            int_poison: vec![false; int_regs as usize],
            fp_poison: vec![false; fp_regs as usize],
            detected: false,
            corrupt_retired: 0,
            commit_log: None,
        }
    }

    /// The poison table for one register class.
    pub(crate) fn poison(&mut self, fp: bool) -> &mut Vec<bool> {
        if fp {
            &mut self.fp_poison
        } else {
            &mut self.int_poison
        }
    }

    /// Any register still holding a corrupt, unconsumed value?
    pub(crate) fn any_poison(&self) -> bool {
        self.int_poison.iter().chain(&self.fp_poison).any(|&p| p)
    }
}
