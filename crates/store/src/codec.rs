//! `Codec` — the deterministic encode/decode contract — and its
//! implementations for every stored domain type.
//!
//! # Invariants
//!
//! * **Canonical**: encoding is a pure function of the value. No maps,
//!   no platform-dependent widths, no uninitialized padding. The store
//!   hashes encodings, so two equal values must always produce the same
//!   bytes.
//! * **Round-trip byte identity**: `encode(decode(encode(v))) ==
//!   encode(v)` for every value, including boundary values (the property
//!   tests in `tests/roundtrip.rs` enforce this for every stored type).
//! * **Fail-closed**: decoders reject out-of-range enum tags, truncated
//!   bodies and trailing bytes rather than guessing.
//!
//! Tags `1..=31` are reserved for persisted objects (fsck must be able to
//! decode everything it finds in a store); tags `100+` are transient
//! worker-protocol frames that never reach disk.

use crate::record::{parse_frame, CodecError};
use crate::wire::{Decoder, Encoder, WireError};
use avf_core::{AvfReport, SfiPoint, StructureAvf, StructureId};
use sim_inject::{CampaignConfig, Outcome, TargetSummary, TrialPath, TrialRecord};
use sim_model::OpClass;
use sim_pipeline::{FaultTarget, Landing, RetiredInst, SimBudget};

/// A type with a canonical, versioned binary encoding.
pub trait Codec: Sized {
    /// Record type tag, unique across every stored and framed type.
    const TAG: u16;
    /// Human-readable type name (fsck and error reporting).
    const NAME: &'static str;
    /// Append the canonical body encoding of `self`.
    fn encode_body(&self, e: &mut Encoder);
    /// Decode a body produced by [`Codec::encode_body`].
    fn decode_body(d: &mut Decoder<'_>) -> Result<Self, WireError>;
}

// ---------------------------------------------------------------------
// Enum codecs (nested; one byte each, explicit both ways)
// ---------------------------------------------------------------------

/// Encode a [`FaultTarget`].
pub fn put_fault_target(e: &mut Encoder, t: FaultTarget) {
    e.put_u8(match t {
        FaultTarget::Iq => 0,
        FaultTarget::Rob => 1,
        FaultTarget::LsqTag => 2,
        FaultTarget::RegFile => 3,
        FaultTarget::Fu => 4,
        FaultTarget::Dl1Data => 5,
        FaultTarget::Dl1Tag => 6,
        FaultTarget::Dtlb => 7,
        FaultTarget::Itlb => 8,
    });
}

/// Decode a [`FaultTarget`].
pub fn get_fault_target(d: &mut Decoder<'_>) -> Result<FaultTarget, WireError> {
    Ok(match d.get_u8()? {
        0 => FaultTarget::Iq,
        1 => FaultTarget::Rob,
        2 => FaultTarget::LsqTag,
        3 => FaultTarget::RegFile,
        4 => FaultTarget::Fu,
        5 => FaultTarget::Dl1Data,
        6 => FaultTarget::Dl1Tag,
        7 => FaultTarget::Dtlb,
        8 => FaultTarget::Itlb,
        v => {
            return Err(WireError::BadEnum {
                ty: "FaultTarget",
                value: v as u64,
            })
        }
    })
}

/// Encode a [`Landing`].
pub fn put_landing(e: &mut Encoder, l: Landing) {
    e.put_u8(match l {
        Landing::Empty => 0,
        Landing::Benign => 1,
        Landing::Injected => 2,
        Landing::Detected => 3,
    });
}

/// Decode a [`Landing`].
pub fn get_landing(d: &mut Decoder<'_>) -> Result<Landing, WireError> {
    Ok(match d.get_u8()? {
        0 => Landing::Empty,
        1 => Landing::Benign,
        2 => Landing::Injected,
        3 => Landing::Detected,
        v => {
            return Err(WireError::BadEnum {
                ty: "Landing",
                value: v as u64,
            })
        }
    })
}

/// Encode an [`Outcome`].
pub fn put_outcome(e: &mut Encoder, o: Outcome) {
    e.put_u8(match o {
        Outcome::Masked => 0,
        Outcome::Latent => 1,
        Outcome::Sdc => 2,
        Outcome::Detected => 3,
    });
}

/// Decode an [`Outcome`].
pub fn get_outcome(d: &mut Decoder<'_>) -> Result<Outcome, WireError> {
    Ok(match d.get_u8()? {
        0 => Outcome::Masked,
        1 => Outcome::Latent,
        2 => Outcome::Sdc,
        3 => Outcome::Detected,
        v => {
            return Err(WireError::BadEnum {
                ty: "Outcome",
                value: v as u64,
            })
        }
    })
}

/// Encode a [`StructureId`].
pub fn put_structure(e: &mut Encoder, s: StructureId) {
    e.put_u8(match s {
        StructureId::Iq => 0,
        StructureId::Fu => 1,
        StructureId::RegFile => 2,
        StructureId::Dl1Data => 3,
        StructureId::Dl1Tag => 4,
        StructureId::Dtlb => 5,
        StructureId::Itlb => 6,
        StructureId::Rob => 7,
        StructureId::LsqData => 8,
        StructureId::LsqTag => 9,
        StructureId::Il1Data => 10,
        StructureId::Il1Tag => 11,
        StructureId::L2Data => 12,
        StructureId::L2Tag => 13,
    });
}

/// Decode a [`StructureId`].
pub fn get_structure(d: &mut Decoder<'_>) -> Result<StructureId, WireError> {
    Ok(match d.get_u8()? {
        0 => StructureId::Iq,
        1 => StructureId::Fu,
        2 => StructureId::RegFile,
        3 => StructureId::Dl1Data,
        4 => StructureId::Dl1Tag,
        5 => StructureId::Dtlb,
        6 => StructureId::Itlb,
        7 => StructureId::Rob,
        8 => StructureId::LsqData,
        9 => StructureId::LsqTag,
        10 => StructureId::Il1Data,
        11 => StructureId::Il1Tag,
        12 => StructureId::L2Data,
        13 => StructureId::L2Tag,
        v => {
            return Err(WireError::BadEnum {
                ty: "StructureId",
                value: v as u64,
            })
        }
    })
}

/// Encode an [`OpClass`].
pub fn put_op(e: &mut Encoder, o: OpClass) {
    e.put_u8(match o {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::IntDiv => 2,
        OpClass::FpAlu => 3,
        OpClass::FpMul => 4,
        OpClass::FpDiv => 5,
        OpClass::Load => 6,
        OpClass::Store => 7,
        OpClass::Branch => 8,
        OpClass::Nop => 9,
    });
}

/// Decode an [`OpClass`].
pub fn get_op(d: &mut Decoder<'_>) -> Result<OpClass, WireError> {
    Ok(match d.get_u8()? {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::IntDiv,
        3 => OpClass::FpAlu,
        4 => OpClass::FpMul,
        5 => OpClass::FpDiv,
        6 => OpClass::Load,
        7 => OpClass::Store,
        8 => OpClass::Branch,
        9 => OpClass::Nop,
        v => {
            return Err(WireError::BadEnum {
                ty: "OpClass",
                value: v as u64,
            })
        }
    })
}

// ---------------------------------------------------------------------
// Struct codecs
// ---------------------------------------------------------------------

impl Codec for TrialRecord {
    const TAG: u16 = 1;
    const NAME: &'static str = "TrialRecord";

    fn encode_body(&self, e: &mut Encoder) {
        put_fault_target(e, self.target);
        e.put_usize(self.trial);
        e.put_u64(self.entry);
        e.put_u64(self.bit);
        e.put_u64(self.cycle);
        put_landing(e, self.landing);
        put_outcome(e, self.outcome);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<TrialRecord, WireError> {
        Ok(TrialRecord {
            target: get_fault_target(d)?,
            trial: d.get_usize()?,
            entry: d.get_u64()?,
            bit: d.get_u64()?,
            cycle: d.get_u64()?,
            landing: get_landing(d)?,
            outcome: get_outcome(d)?,
        })
    }
}

impl Codec for SimBudget {
    const TAG: u16 = 2;
    const NAME: &'static str = "SimBudget";

    fn encode_body(&self, e: &mut Encoder) {
        e.put_u64(self.warmup_instructions);
        e.put_u64(self.total_instructions);
        e.put_u64(self.max_cycles);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<SimBudget, WireError> {
        Ok(SimBudget {
            warmup_instructions: d.get_u64()?,
            total_instructions: d.get_u64()?,
            max_cycles: d.get_u64()?,
        })
    }
}

impl Codec for CampaignConfig {
    const TAG: u16 = 3;
    const NAME: &'static str = "CampaignConfig";

    fn encode_body(&self, e: &mut Encoder) {
        e.put_usize(self.trials_per_structure);
        e.put_u64(self.seed);
        e.put_usize(self.workers);
        self.budget.encode_body(e);
        e.put_u64(self.hang_cycles);
        e.put_usize(self.checkpoints);
        // The trial path rides as the two bools the golden run depends
        // on; `Scalar` and every `Batched` width encode like the default.
        e.put_bool(self.path == TrialPath::ReplayFromZero);
        e.put_bool(self.progress);
        e.put_bool(self.path != TrialPath::CycleByCycle);
        e.put_usize(self.targets.len());
        for &t in &self.targets {
            put_fault_target(e, t);
        }
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<CampaignConfig, WireError> {
        let trials_per_structure = d.get_usize()?;
        let seed = d.get_u64()?;
        let workers = d.get_usize()?;
        let budget = SimBudget::decode_body(d)?;
        let hang_cycles = d.get_u64()?;
        let checkpoints = d.get_usize()?;
        let replay_from_zero = d.get_bool()?;
        let progress = d.get_bool()?;
        let fast_forward = d.get_bool()?;
        // Lane width and `Scalar` never change a record, so they stay off
        // the wire and out of job identity; decoded specs batch.
        let path = match (replay_from_zero, fast_forward) {
            (false, true) => TrialPath::default(),
            (true, true) => TrialPath::ReplayFromZero,
            (false, false) => TrialPath::CycleByCycle,
            // No path replays from zero cycle by cycle; the tag packs the
            // pair as `replay_from_zero << 1 | fast_forward`.
            (true, false) => {
                return Err(WireError::BadEnum {
                    ty: "TrialPath",
                    value: 0b10,
                })
            }
        };
        let n = d.get_usize()?;
        let mut targets = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            targets.push(get_fault_target(d)?);
        }
        Ok(CampaignConfig {
            trials_per_structure,
            seed,
            workers,
            budget,
            hang_cycles,
            checkpoints,
            progress,
            path,
            targets,
        })
    }
}

impl Codec for SfiPoint {
    const TAG: u16 = 4;
    const NAME: &'static str = "SfiPoint";

    fn encode_body(&self, e: &mut Encoder) {
        put_structure(e, self.structure);
        e.put_u64(self.trials);
        e.put_u64(self.failures);
        e.put_f64(self.point);
        e.put_f64(self.lo);
        e.put_f64(self.hi);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<SfiPoint, WireError> {
        Ok(SfiPoint {
            structure: get_structure(d)?,
            trials: d.get_u64()?,
            failures: d.get_u64()?,
            point: d.get_f64()?,
            lo: d.get_f64()?,
            hi: d.get_f64()?,
        })
    }
}

impl Codec for TargetSummary {
    const TAG: u16 = 5;
    const NAME: &'static str = "TargetSummary";

    fn encode_body(&self, e: &mut Encoder) {
        put_fault_target(e, self.target);
        e.put_u64(self.trials);
        e.put_u64(self.masked);
        e.put_u64(self.latent);
        e.put_u64(self.sdc);
        e.put_u64(self.detected);
        self.sfi.encode_body(e);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<TargetSummary, WireError> {
        Ok(TargetSummary {
            target: get_fault_target(d)?,
            trials: d.get_u64()?,
            masked: d.get_u64()?,
            latent: d.get_u64()?,
            sdc: d.get_u64()?,
            detected: d.get_u64()?,
            sfi: SfiPoint::decode_body(d)?,
        })
    }
}

impl Codec for RetiredInst {
    const TAG: u16 = 6;
    const NAME: &'static str = "RetiredInst";

    fn encode_body(&self, e: &mut Encoder) {
        e.put_u8(self.thread);
        e.put_u64(self.pc);
        put_op(e, self.op);
        e.put_u64(self.mem_addr);
        e.put_bool(self.tainted);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<RetiredInst, WireError> {
        Ok(RetiredInst {
            thread: d.get_u8()?,
            pc: d.get_u64()?,
            op: get_op(d)?,
            mem_addr: d.get_u64()?,
            tainted: d.get_bool()?,
        })
    }
}

impl Codec for sim_inject::GoldenRun {
    const TAG: u16 = 7;
    const NAME: &'static str = "GoldenRun";

    fn encode_body(&self, e: &mut Encoder) {
        e.put_u64(self.start);
        e.put_u64(self.end);
        e.put_u64(self.target_committed);
        e.put_usize(self.per_thread.len());
        for stream in &self.per_thread {
            e.put_usize(stream.len());
            for r in stream {
                r.encode_body(e);
            }
        }
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<sim_inject::GoldenRun, WireError> {
        let start = d.get_u64()?;
        let end = d.get_u64()?;
        let target_committed = d.get_u64()?;
        let threads = d.get_usize()?;
        let mut per_thread = Vec::with_capacity(threads.min(64));
        for _ in 0..threads {
            let n = d.get_usize()?;
            let mut stream = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                stream.push(RetiredInst::decode_body(d)?);
            }
            per_thread.push(stream);
        }
        Ok(sim_inject::GoldenRun {
            start,
            end,
            target_committed,
            per_thread,
        })
    }
}

impl Codec for StructureAvf {
    const TAG: u16 = 8;
    const NAME: &'static str = "StructureAvf";

    fn encode_body(&self, e: &mut Encoder) {
        put_structure(e, self.structure);
        e.put_f64(self.avf);
        e.put_usize(self.per_thread.len());
        for &v in &self.per_thread {
            e.put_f64(v);
        }
        e.put_f64(self.utilization);
        e.put_u64(self.total_bits);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<StructureAvf, WireError> {
        let structure = get_structure(d)?;
        let avf = d.get_f64()?;
        let n = d.get_usize()?;
        let mut per_thread = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            per_thread.push(d.get_f64()?);
        }
        Ok(StructureAvf {
            structure,
            avf,
            per_thread,
            utilization: d.get_f64()?,
            total_bits: d.get_u64()?,
        })
    }
}

impl Codec for AvfReport {
    const TAG: u16 = 9;
    const NAME: &'static str = "AvfReport";

    fn encode_body(&self, e: &mut Encoder) {
        e.put_u64(self.cycles());
        e.put_usize(self.committed().len());
        for &c in self.committed() {
            e.put_u64(c);
        }
        e.put_usize(self.structures().len());
        for s in self.structures() {
            s.encode_body(e);
        }
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<AvfReport, WireError> {
        let cycles = d.get_u64()?;
        let n = d.get_usize()?;
        let mut committed = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            committed.push(d.get_u64()?);
        }
        let n = d.get_usize()?;
        let mut structures = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            structures.push(StructureAvf::decode_body(d)?);
        }
        Ok(AvfReport::new(cycles, committed, structures))
    }
}

/// Validate a record's framing and fully decode its body as whichever
/// persisted type its tag names. Returns the type's name; any unknown
/// tag, framing violation or body mismatch is an error — this is fsck's
/// fail-closed object check.
pub fn fsck_decode(bytes: &[u8]) -> Result<&'static str, CodecError> {
    fn check<T: Codec>(body: &[u8]) -> Result<&'static str, CodecError> {
        let mut d = Decoder::new(body);
        T::decode_body(&mut d)?;
        d.finish()?;
        Ok(T::NAME)
    }
    let frame = parse_frame(bytes)?;
    match frame.tag {
        TrialRecord::TAG => check::<TrialRecord>(frame.body),
        SimBudget::TAG => check::<SimBudget>(frame.body),
        CampaignConfig::TAG => check::<CampaignConfig>(frame.body),
        SfiPoint::TAG => check::<SfiPoint>(frame.body),
        TargetSummary::TAG => check::<TargetSummary>(frame.body),
        RetiredInst::TAG => check::<RetiredInst>(frame.body),
        sim_inject::GoldenRun::TAG => check::<sim_inject::GoldenRun>(frame.body),
        StructureAvf::TAG => check::<StructureAvf>(frame.body),
        AvfReport::TAG => check::<AvfReport>(frame.body),
        crate::snapshot::CoreSnapshot::TAG => check::<crate::snapshot::CoreSnapshot>(frame.body),
        crate::snapshot::GoldenFingerprint::TAG => {
            check::<crate::snapshot::GoldenFingerprint>(frame.body)
        }
        crate::campaign::JobSpec::TAG => check::<crate::campaign::JobSpec>(frame.body),
        crate::campaign::ChunkRecord::TAG => check::<crate::campaign::ChunkRecord>(frame.body),
        crate::campaign::JobResultRecord::TAG => {
            check::<crate::campaign::JobResultRecord>(frame.body)
        }
        t => Err(CodecError::UnknownTag(t)),
    }
}
