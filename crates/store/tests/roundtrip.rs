//! Codec round-trip property tests: for every stored type,
//! `encode(decode(encode(v))) == encode(v)` — byte identity, not just
//! value equality — including boundary values and empty campaigns.

use avf_core::{AvfReport, SfiPoint, StructureAvf, StructureId};
use sim_inject::{CampaignConfig, GoldenRun, Outcome, TargetSummary, TrialPath, TrialRecord};
use sim_model::OpClass;
use sim_pipeline::{FaultTarget, Landing, RetiredInst, SimBudget};
use sim_store::{
    decode_record, encode_record, fnv1a64, fsck_decode, ChunkRecord, Codec, CodecError,
    CoreSnapshot, GoldenFingerprint, JobResultRecord, JobSpec, ObjectId, WireError,
};

/// The property: a record decodes, re-encodes to the same bytes, and
/// passes the fsck full-decode check under its own tag.
fn assert_roundtrip<T: Codec>(value: &T) {
    let bytes = encode_record(value);
    assert_eq!(bytes, encode_record(value), "{}: encoding is pure", T::NAME);
    let decoded: T = decode_record(&bytes).unwrap_or_else(|e| panic!("{} decode: {e}", T::NAME));
    assert_eq!(
        bytes,
        encode_record(&decoded),
        "{}: re-encode is byte-identical",
        T::NAME
    );
    assert_eq!(fsck_decode(&bytes).unwrap(), T::NAME);
}

const ALL_TARGETS: [FaultTarget; 9] = [
    FaultTarget::Iq,
    FaultTarget::Rob,
    FaultTarget::LsqTag,
    FaultTarget::RegFile,
    FaultTarget::Fu,
    FaultTarget::Dl1Data,
    FaultTarget::Dl1Tag,
    FaultTarget::Dtlb,
    FaultTarget::Itlb,
];

const ALL_STRUCTURES: [StructureId; 14] = [
    StructureId::Iq,
    StructureId::Fu,
    StructureId::RegFile,
    StructureId::Dl1Data,
    StructureId::Dl1Tag,
    StructureId::Dtlb,
    StructureId::Itlb,
    StructureId::Rob,
    StructureId::LsqData,
    StructureId::LsqTag,
    StructureId::Il1Data,
    StructureId::Il1Tag,
    StructureId::L2Data,
    StructureId::L2Tag,
];

const ALL_OPS: [OpClass; 10] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::FpAlu,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::Load,
    OpClass::Store,
    OpClass::Branch,
    OpClass::Nop,
];

fn trial(target: FaultTarget, trial: usize, landing: Landing, outcome: Outcome) -> TrialRecord {
    TrialRecord {
        target,
        trial,
        entry: u64::MAX,
        bit: 0,
        cycle: 1 << 40,
        landing,
        outcome,
    }
}

fn sfi_point(structure: StructureId, point: f64) -> SfiPoint {
    SfiPoint {
        structure,
        trials: u64::MAX,
        failures: 0,
        point,
        lo: f64::NEG_INFINITY,
        hi: f64::NAN,
    }
}

#[test]
fn trial_record_every_enum_combination() {
    for &target in &ALL_TARGETS {
        for landing in [
            Landing::Empty,
            Landing::Benign,
            Landing::Injected,
            Landing::Detected,
        ] {
            for outcome in [
                Outcome::Masked,
                Outcome::Latent,
                Outcome::Sdc,
                Outcome::Detected,
            ] {
                assert_roundtrip(&trial(target, usize::MAX, landing, outcome));
            }
        }
    }
}

#[test]
fn sim_budget_boundaries() {
    assert_roundtrip(&SimBudget {
        warmup_instructions: 0,
        total_instructions: u64::MAX,
        max_cycles: 0,
    });
}

#[test]
fn campaign_config_full_and_empty() {
    let full = CampaignConfig {
        trials_per_structure: usize::MAX,
        seed: u64::MAX,
        workers: 0,
        budget: SimBudget {
            warmup_instructions: 1,
            total_instructions: 2,
            max_cycles: 3,
        },
        hang_cycles: u64::MAX,
        checkpoints: 0,
        progress: false,
        path: TrialPath::ReplayFromZero,
        targets: ALL_TARGETS.to_vec(),
    };
    assert_roundtrip(&full);
    // An empty campaign (no targets) is not runnable, but it must still
    // round trip: the codec never guesses.
    let empty = CampaignConfig {
        targets: Vec::new(),
        trials_per_structure: 0,
        ..full
    };
    assert_roundtrip(&empty);
}

#[test]
fn sfi_point_nonfinite_floats_are_bit_exact() {
    for &s in &ALL_STRUCTURES {
        assert_roundtrip(&sfi_point(s, -0.0));
    }
    // NaN payload survival: decode then re-encode must preserve the bits
    // even though NaN != NaN.
    let p = sfi_point(StructureId::Iq, f64::NAN);
    let bytes = encode_record(&p);
    let back: SfiPoint = decode_record(&bytes).unwrap();
    assert!(back.point.is_nan());
    assert_eq!(bytes, encode_record(&back));
}

#[test]
fn target_summary_roundtrips() {
    assert_roundtrip(&TargetSummary {
        target: FaultTarget::Dtlb,
        trials: u64::MAX,
        masked: 1,
        latent: 2,
        sdc: 3,
        detected: 4,
        sfi: sfi_point(StructureId::Dtlb, 0.25),
    });
}

#[test]
fn retired_inst_every_op() {
    for &op in &ALL_OPS {
        assert_roundtrip(&RetiredInst {
            thread: u8::MAX,
            pc: u64::MAX,
            op,
            mem_addr: 0,
            tainted: true,
        });
    }
}

fn golden(threads: usize, insts_per_thread: usize) -> GoldenRun {
    GoldenRun {
        start: 100,
        end: u64::MAX,
        target_committed: 42,
        per_thread: (0..threads)
            .map(|t| {
                (0..insts_per_thread)
                    .map(|i| RetiredInst {
                        thread: t as u8,
                        pc: 0x400000 + (i as u64) * 4,
                        op: ALL_OPS[i % ALL_OPS.len()],
                        mem_addr: i as u64,
                        tainted: i % 3 == 0,
                    })
                    .collect()
            })
            .collect(),
    }
}

#[test]
fn golden_run_empty_and_populated() {
    assert_roundtrip(&golden(0, 0));
    assert_roundtrip(&golden(4, 0));
    assert_roundtrip(&golden(2, 17));
}

#[test]
fn avf_report_empty_and_populated() {
    assert_roundtrip(&AvfReport::new(0, Vec::new(), Vec::new()));
    let structures = ALL_STRUCTURES
        .iter()
        .map(|&structure| StructureAvf {
            structure,
            avf: 0.125,
            per_thread: vec![0.0, -0.0, 1.0],
            utilization: f64::MAX,
            total_bits: u64::MAX,
        })
        .collect();
    assert_roundtrip(&AvfReport::new(u64::MAX, vec![0, u64::MAX], structures));
}

#[test]
fn snapshot_types_roundtrip() {
    assert_roundtrip(&CoreSnapshot {
        cycle: u64::MAX,
        digest: 0,
    });
    assert_roundtrip(&GoldenFingerprint {
        golden: golden(2, 5),
        checkpoints: vec![
            CoreSnapshot {
                cycle: 0,
                digest: u64::MAX,
            },
            CoreSnapshot {
                cycle: u64::MAX,
                digest: 1,
            },
        ],
    });
    // Oracle path: no checkpoints at all.
    assert_roundtrip(&GoldenFingerprint {
        golden: golden(0, 0),
        checkpoints: Vec::new(),
    });
}

fn spec(targets: Vec<FaultTarget>, trials: usize) -> JobSpec {
    JobSpec {
        name: "round-trip — unicode names welcome".to_string(),
        workload: "2T-MIX-A".to_string(),
        cfg: CampaignConfig {
            trials_per_structure: trials,
            seed: 7,
            workers: 2,
            budget: SimBudget {
                warmup_instructions: 10,
                total_instructions: 20,
                max_cycles: 30,
            },
            hang_cycles: 1000,
            checkpoints: 4,
            progress: false,
            path: TrialPath::Scalar,
            targets,
        },
        chunk_trials: 32,
    }
}

#[test]
fn job_records_roundtrip_including_empty_campaign() {
    let full = spec(ALL_TARGETS.to_vec(), 100);
    assert_roundtrip(&full);
    let empty = spec(Vec::new(), 0);
    assert_roundtrip(&empty);
    // Identity is content-addressed: same spec, same id; any change, new id.
    assert_eq!(full.id(), spec(ALL_TARGETS.to_vec(), 100).id());
    assert_ne!(full.id(), spec(ALL_TARGETS.to_vec(), 101).id());

    let job = full.id();
    assert_roundtrip(&ChunkRecord {
        job,
        index: 0,
        start: 0,
        records: Vec::new(),
    });
    assert_roundtrip(&ChunkRecord {
        job,
        index: usize::MAX,
        start: usize::MAX,
        records: vec![
            trial(FaultTarget::Iq, 0, Landing::Injected, Outcome::Sdc),
            trial(FaultTarget::Fu, 1, Landing::Empty, Outcome::Masked),
        ],
    });
    assert_roundtrip(&JobResultRecord {
        job,
        records: Vec::new(),
        per_target: Vec::new(),
        report: AvfReport::new(0, Vec::new(), Vec::new()),
    });
    assert_roundtrip(&JobResultRecord {
        job,
        records: vec![trial(FaultTarget::Rob, 3, Landing::Benign, Outcome::Latent)],
        per_target: vec![TargetSummary {
            target: FaultTarget::Rob,
            trials: 1,
            masked: 0,
            latent: 1,
            sdc: 0,
            detected: 0,
            sfi: sfi_point(StructureId::Rob, 0.0),
        }],
        report: AvfReport::new(9, vec![4, 5], Vec::new()),
    });
}

/// A spec built the way the CLIs build one: `CampaignConfig::new`, with
/// only the machine-dependent worker count fixed.
fn pinned_spec(path: TrialPath) -> JobSpec {
    let mut cfg = CampaignConfig::new(
        10,
        12,
        SimBudget {
            warmup_instructions: 2_000,
            total_instructions: 6_000,
            max_cycles: 1_000_000,
        },
    );
    cfg.workers = 2;
    cfg.path = path;
    JobSpec {
        name: "pin".to_string(),
        workload: "2T-MIX-A".to_string(),
        cfg,
        chunk_trials: 3,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn trial_path_encoding_keeps_job_identity() {
    // Bytes and ids that earlier builds stored for these specs: a job
    // must keep hashing to the same id, or resume would miss its chunks.
    let default = pinned_spec(TrialPath::default());
    let expected = [
        "53494d5301000c0076000000030000000000000070696e080000000000000032",
        "542d4d49582d410a000000000000000c000000000000000200000000000000d0",
        "07000000000000701700000000000040420f0000000000204e0000000000000c",
        "0000000000000000000108000000000000000001020304050607030000000000",
        "0000689bbe0fb3b8f810",
    ]
    .concat();
    assert_eq!(hex(&encode_record(&default)), expected);
    assert_eq!(
        default.id().to_hex(),
        "e71b909d27b5e57c5e867276ffe0299b2e978a1dfa8345bb7d4f6d6f78a4521e"
    );
    assert_eq!(
        pinned_spec(TrialPath::ReplayFromZero).id().to_hex(),
        "fac1677362082376a8a37fc504d4e1f93960bf6dd6bc0749d3cfe11c206d4da5"
    );
    assert_eq!(
        pinned_spec(TrialPath::CycleByCycle).id().to_hex(),
        "27cdda8ac335158def9ee20f4cb3154a03ce31c7068f9ae1a8abd28ac49434a1"
    );
    // The lane oracle and any lane width are off the wire.
    for path in [TrialPath::Scalar, TrialPath::Batched { lanes: 8 }] {
        assert_eq!(pinned_spec(path).id(), default.id(), "{path:?}");
    }
}

#[test]
fn trial_path_roundtrips_and_the_invalid_pair_fails_closed() {
    for (path, decodes_to) in [
        (TrialPath::default(), TrialPath::default()),
        (TrialPath::Batched { lanes: 1 }, TrialPath::default()),
        (TrialPath::Scalar, TrialPath::default()),
        (TrialPath::CycleByCycle, TrialPath::CycleByCycle),
        (TrialPath::ReplayFromZero, TrialPath::ReplayFromZero),
    ] {
        let spec = pinned_spec(path);
        assert_roundtrip(&spec);
        let decoded: JobSpec = decode_record(&encode_record(&spec)).expect("decodes");
        assert_eq!(decoded.cfg.path, decodes_to, "{path:?}");
    }

    // Replay from zero with fast-forward off is no path. Build that byte
    // pair from the replay-from-zero record by clearing the byte where
    // the cycle-by-cycle record differs from the default one, then
    // re-checksum so only the body is at fault.
    let default = encode_record(&pinned_spec(TrialPath::default()));
    let cycle_by_cycle = encode_record(&pinned_spec(TrialPath::CycleByCycle));
    let fast_forward_at = default
        .iter()
        .zip(&cycle_by_cycle)
        .position(|(a, b)| a != b)
        .expect("the two paths encode differently");
    assert!(
        fast_forward_at < default.len() - 8,
        "the flag precedes the checksum"
    );
    let mut bytes = encode_record(&pinned_spec(TrialPath::ReplayFromZero));
    assert_eq!(bytes[fast_forward_at], 1);
    bytes[fast_forward_at] = 0;
    let sum_at = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..sum_at]).to_le_bytes();
    bytes[sum_at..].copy_from_slice(&sum);
    assert!(matches!(
        decode_record::<JobSpec>(&bytes),
        Err(CodecError::Body(WireError::BadEnum {
            ty: "TrialPath",
            ..
        }))
    ));
}

#[test]
fn wrong_tag_and_unknown_tag_fail_closed() {
    let bytes = encode_record(&CoreSnapshot {
        cycle: 1,
        digest: 2,
    });
    // Same body length as another two-u64 type would have, but the tag
    // says CoreSnapshot — decoding as anything else must refuse.
    assert!(matches!(
        decode_record::<SimBudget>(&bytes),
        Err(CodecError::WrongTag { .. })
    ));
    // A record with a tag nothing owns: flip the tag bytes in the header
    // and fix up the checksum so only the tag is wrong.
    let mut forged = bytes.clone();
    forged[6] = 0xFE;
    forged[7] = 0x7F;
    let sum_at = forged.len() - 8;
    let sum = sim_store::fnv1a64(&forged[..sum_at]);
    forged[sum_at..].copy_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        fsck_decode(&forged),
        Err(CodecError::UnknownTag(0x7FFE))
    ));
}

#[test]
fn object_ids_are_stable_across_runs() {
    // Pin one encoding end to end: if any codec or framing byte changes,
    // this fails and FORMAT_VERSION must be bumped.
    let id = ObjectId::of(&encode_record(&CoreSnapshot {
        cycle: 1,
        digest: 2,
    }));
    assert_eq!(
        id.to_hex(),
        ObjectId::of(&encode_record(&CoreSnapshot {
            cycle: 1,
            digest: 2
        }))
        .to_hex()
    );
}
