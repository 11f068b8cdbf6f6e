//! The strike decoder at every field boundary.
//!
//! `SmtCore::decode_fault` is the one place a fault is resolved to the
//! field it hits; `inject_fault` applies the decoded strike and the lane
//! engine matches on it. The sampled agreement test in
//! `sim-inject` draws bits uniformly and rarely lands on a field edge, so
//! this suite walks the first and last bit of every budgeted field of
//! every entry on warm two-thread machines, and checks that decoding is
//! read-only, that injection lands exactly where the decoder said, and
//! that `Empty`/`Benign` strikes apply nothing. Entries outside an array
//! decode `Empty` on every target instead of indexing past its end.

use avf_core::budgets;
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::{target_entries, Fault, FaultTarget, Landing, SmtCore, Strike};
use sim_workload::{profile, TraceGenerator};

const TARGETS: [FaultTarget; 9] = [
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

fn warm_smt2(policy: FetchPolicyKind, cycles: u64) -> SmtCore {
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(2)
        .with_fetch_policy(policy);
    let gens = ["bzip2", "mcf"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("known benchmark"), i as u64 + 1))
        .collect();
    let mut core = SmtCore::new(cfg, gens);
    while core.cycle() < cycles {
        core.step_fast_bounded(cycles);
    }
    // Stop on a cycle where a functional unit is busy, so the walk covers
    // FU latches too.
    let fu0 = Fault {
        target: FaultTarget::Fu,
        entry: 0,
        bit: 0,
    };
    while core.decode_fault(&fu0) == Strike::Empty {
        assert!(core.cycle() < cycles + 10_000, "no FU ever busy");
        core.step();
    }
    core
}

/// The first and last bit of each field of a layout given as field widths.
fn field_edges(widths: &[u64]) -> Vec<u64> {
    let mut start = 0;
    let mut edges = Vec::new();
    for &w in widths {
        edges.extend([start, start + w - 1]);
        start += w;
    }
    edges
}

/// Decode `fault` on `core`, inject it, and check the three properties.
/// Returns whether the strike mutated anything (landed past `Benign`).
fn check(core: &mut SmtCore, fault: Fault) -> bool {
    let digest = core.state_digest();
    let strike = core.decode_fault(&fault);
    assert_eq!(core.state_digest(), digest, "decode mutated {fault:?}");
    let landing = core.inject_fault(&fault);
    assert_eq!(landing, strike.landing(), "{fault:?} decoded as {strike:?}");
    let idle = matches!(landing, Landing::Empty | Landing::Benign);
    if idle {
        assert_eq!(
            core.state_digest(),
            digest,
            "{landing:?} strike applied {fault:?}"
        );
    }
    !idle
}

/// Check a group of strikes on one entry. Strikes that decode idle on
/// `core` run against it directly; the rest run in order on one clone,
/// so later strikes see the earlier ones' mutations (agreement must hold
/// on any state).
fn check_entry(core: &mut SmtCore, faults: &[Fault]) {
    let mutating: Vec<Fault> = faults
        .iter()
        .copied()
        .filter(|f| !matches!(core.decode_fault(f), Strike::Empty | Strike::Benign))
        .collect();
    for &f in faults.iter().filter(|f| !mutating.contains(f)) {
        assert!(!check(core, f), "idle strike mutated: {f:?}");
    }
    if !mutating.is_empty() {
        let mut struck = core.clone();
        for &f in &mutating {
            check(&mut struck, f);
        }
    }
}

/// Walk every field edge of every entry; returns how many entries of
/// each walked array (IQ, ROB, LSQ, FU, DL1 data, DL1 tag) were occupied.
fn walk_field_edges(core: &mut SmtCore) -> [u64; 6] {
    let cfg = core.config().clone();
    let layouts = [
        (
            FaultTarget::Iq,
            field_edges(&{
                use budgets::iq::*;
                [OPCODE, SRC_TAG, SRC_TAG, DEST_TAG, IMMEDIATE, STATUS]
            }),
        ),
        (
            FaultTarget::Rob,
            field_edges(&{
                use budgets::rob::*;
                [PC, DEST_ARCH, DEST_PHYS, OLD_PHYS, STATUS, OPCODE, BRANCH]
            }),
        ),
        (
            FaultTarget::LsqTag,
            field_edges(&[budgets::lsq::ADDR, budgets::lsq::CTRL]),
        ),
        (
            FaultTarget::Fu,
            field_edges(&[budgets::fu::OPERANDS, budgets::fu::CTRL]),
        ),
        (
            FaultTarget::Dl1Data,
            field_edges(&vec![budgets::dl1::WORD; cfg.dl1.line_bytes as usize / 8]),
        ),
    ];
    let mut occupied = [0u64; 6];
    for (k, (target, bits)) in layouts.iter().enumerate() {
        for entry in 0..target_entries(*target, &cfg) {
            let faults: Vec<Fault> = bits
                .iter()
                .map(|&bit| Fault {
                    target: *target,
                    entry,
                    bit,
                })
                .collect();
            if core.decode_fault(&faults[0]) != Strike::Empty {
                occupied[k] += 1;
            }
            check_entry(core, &faults);
        }
    }
    // DL1 tags: idle bits first (replacement state, then the dirty bit,
    // which is idle on a clean line); then the bits that invalidate. Only
    // the first invalidation lands, so the order of those rotates with the
    // line to exercise each one across the array.
    let tag = {
        use budgets::dl1::*;
        field_edges(&[ADDR_TAG, VALID, DIRTY, LRU])
    };
    let (invalidating, idle) = tag.split_at(3);
    let dirty_bit = budgets::dl1::ADDR_TAG + budgets::dl1::VALID;
    for line in 0..target_entries(FaultTarget::Dl1Tag, &cfg) {
        let at = |bit| Fault {
            target: FaultTarget::Dl1Tag,
            entry: line,
            bit,
        };
        let decoded: Vec<Strike> = invalidating
            .iter()
            .map(|&b| core.decode_fault(&at(b)))
            .collect();
        if decoded[0] == Strike::Empty {
            continue;
        }
        occupied[5] += 1;
        // Every address-tag and valid bit loses the same line.
        assert!(
            decoded
                .iter()
                .all(|s| *s == decoded[0] && matches!(s, Strike::Dl1Line { .. })),
            "line {line}: {decoded:?}"
        );
        let dirty = matches!(decoded[0], Strike::Dl1Line { dirty: true, .. });
        assert_eq!(
            core.decode_fault(&at(dirty_bit)),
            if dirty { decoded[0] } else { Strike::Benign },
            "line {line} dirty bit"
        );
        let mut order: Vec<u64> = idle.to_vec();
        let r = line as usize % invalidating.len();
        order.extend(invalidating[r..].iter().chain(&invalidating[..r]));
        check_entry(core, &order.iter().map(|&b| at(b)).collect::<Vec<_>>());
    }
    occupied
}

#[test]
fn decode_is_read_only_and_lands_where_injection_does_at_every_field_edge() {
    let mut occupied = [0u64; 6];
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::Flush] {
        for cycles in [2_500, 5_000, 7_500] {
            let counts = walk_field_edges(&mut warm_smt2(policy, cycles));
            for (n, c) in occupied.iter_mut().zip(counts) {
                *n += c;
            }
        }
    }
    // An array that was never occupied was never really walked.
    assert!(occupied.iter().all(|&n| n > 0), "{occupied:?}");
}

#[test]
fn out_of_range_entries_are_empty_on_every_target() {
    let mut core = warm_smt2(FetchPolicyKind::Icount, 4_000);
    let digest = core.state_digest();
    let cfg = core.config().clone();
    for target in TARGETS {
        for entry in [target_entries(target, &cfg), u64::MAX] {
            let fault = Fault {
                target,
                entry,
                bit: u64::MAX,
            };
            assert_eq!(core.decode_fault(&fault), Strike::Empty, "{fault:?}");
            assert_eq!(core.inject_fault(&fault), Landing::Empty, "{fault:?}");
            assert_eq!(core.state_digest(), digest, "{fault:?}");
        }
    }
}
