//! The fork-correctness invariant of the lane-batch engine, separate
//! from the end-to-end campaign equivalence suite: a `LaneBatch`'s
//! follower at an arbitrary cycle must be byte-equal to a never-batched
//! scalar core cloned from the same checkpoint and stepped to the same
//! cycle — even when the batch carries armed lanes, and regardless of the
//! bound sequences either side stepped with. This is what makes lazy
//! divergence forking exact: a forking lane decodes its strike on the
//! follower, and its deferred scalar tail restores the checkpoint and
//! steps to the same cycle, so it injects into exactly that state.

use sim_model::rng::splitmix64;
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::{Fault, FaultTarget, LaneBatch, SmtCore, Strike};
use sim_workload::{profile, TraceGenerator};

fn smt2() -> SmtCore {
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(2)
        .with_fetch_policy(FetchPolicyKind::Icount);
    let gens = ["bzip2", "mcf"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("known benchmark"), i as u64 + 1))
        .collect();
    SmtCore::new(cfg, gens)
}

/// Step a scalar core to `target` the way the trial runner does.
fn step_to(core: &mut SmtCore, target: u64) {
    while core.cycle() < target {
        core.step_fast_bounded(target);
    }
}

/// Find a metadata strike (taint or poison) on the checkpoint so the
/// batch has a genuinely armed lane when it forks.
fn find_metadata_strike(core: &SmtCore) -> Strike {
    for target in [FaultTarget::RegFile, FaultTarget::Rob, FaultTarget::Iq] {
        for entry in 0..64u64 {
            for bit in [0u64, 20, 40] {
                let strike = core.decode_fault(&Fault { target, entry, bit });
                if matches!(
                    strike,
                    Strike::Taint {
                        feeds_timing: false,
                        ..
                    } | Strike::PoisonReg { .. }
                ) {
                    return strike;
                }
            }
        }
    }
    panic!("no metadata strike found on a warm machine");
}

#[test]
fn follower_at_a_fork_is_byte_equal_to_a_never_batched_scalar_run() {
    // Checkpoint a messy mid-flight machine, then stop the follower at
    // pseudo-random fork cycles and hold it to a scalar clone of the
    // same checkpoint stepped to the same cycle.
    let mut golden = smt2();
    step_to(&mut golden, 4_000);
    let checkpoint = golden.clone();

    let mut seed = 0x1A7EF0_u64;
    for trial in 0..6 {
        let fork_at = checkpoint.cycle() + 1 + splitmix64(&mut seed) % 5_000;

        // Batched side: two lanes ride the follower (one armed with a real
        // metadata strike so the event feed is on), then lane 1 "diverges"
        // at fork_at.
        let mut batch = LaneBatch::new(checkpoint.clone(), 2);
        batch.activate(0, find_metadata_strike(batch.follower()));
        batch.step_bounded(fork_at, u64::MAX);
        assert_eq!(batch.cycle(), fork_at, "trial {trial}");

        // Scalar side: never batched, never instrumented.
        let mut scalar = checkpoint.clone();
        step_to(&mut scalar, fork_at);

        let follower = batch.follower();
        assert_eq!(
            follower.state_digest(),
            scalar.state_digest(),
            "follower at fork cycle {fork_at} diverged from the scalar clone (trial {trial})"
        );
        assert_eq!(follower.dump_state(), scalar.dump_state(), "trial {trial}");

        // And both keep stepping bit-identically afterwards — with
        // *different* bound sequences, per the fast-forward invariant.
        let further = fork_at + 3_000;
        batch.step_bounded(further, u64::MAX);
        while scalar.cycle() < further {
            let bound = (scalar.cycle() + 1 + splitmix64(&mut seed) % 700).min(further);
            scalar.step_fast_bounded(bound);
        }
        let follower = batch.follower();
        assert_eq!(follower.cycle(), scalar.cycle(), "trial {trial}");
        assert_eq!(
            follower.total_committed(),
            scalar.total_committed(),
            "trial {trial}"
        );
        assert_eq!(
            follower.state_digest(),
            scalar.state_digest(),
            "post-fork stepping diverged (trial {trial})"
        );
    }
}

#[test]
fn armed_event_feed_never_perturbs_the_follower() {
    // Instrumentation neutrality: a follower with every lane armed must
    // trace the exact same history as an untouched clone.
    let mut golden = smt2();
    step_to(&mut golden, 4_000);

    let mut batch = LaneBatch::new(golden.clone(), 8);
    let strike = find_metadata_strike(batch.follower());
    for lane in 0..8 {
        batch.activate(lane, strike);
    }
    let mut plain = golden.clone();

    let mut seed = 0xBEEF_u64;
    for _ in 0..5 {
        let target = batch.cycle() + 500 + splitmix64(&mut seed) % 2_000;
        batch.step_bounded(target, u64::MAX);
        step_to(&mut plain, target);
        assert_eq!(batch.cycle(), plain.cycle());
        assert_eq!(batch.total_committed(), plain.total_committed());
        assert_eq!(
            batch.follower().state_digest(),
            plain.state_digest(),
            "armed feed perturbed the follower at cycle {target}"
        );
    }
}
