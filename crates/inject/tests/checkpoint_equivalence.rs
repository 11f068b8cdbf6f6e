//! The checkpointed trial path must be outcome-for-outcome identical to
//! the replay-from-zero oracle — at every worker count, and trial by
//! trial, not just in aggregate.
//!
//! `TrialPath::ReplayFromZero` keeps the slow path alive precisely so
//! this test can hold the fast path to it. The golden capture itself
//! is held to a two-pass reference (warm up, run the window; warm up
//! again, step to each checkpoint), so stores fingerprinted before the
//! single-warm-up capture still resume — whichever thread captures each
//! snapshot on demand. Snapshots carry no commit log: trials restored
//! from one diff against the golden streams from its log base.

use sim_inject::*;
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::RetiredInst;
use sim_pipeline::{Fault, FaultTarget, SimBudget, SmtCore};
use sim_store::{encode_record, CoreSnapshot, GoldenFingerprint};
use sim_workload::{profile, TraceGenerator};

fn core_with(policy: FetchPolicyKind) -> SmtCore {
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(2)
        .with_fetch_policy(policy);
    let gens = ["bzip2", "mcf"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("profiled"), i as u64 + 7))
        .collect();
    SmtCore::new(cfg, gens)
}

fn factory() -> SmtCore {
    core_with(FetchPolicyKind::Icount)
}

fn budget() -> SimBudget {
    SimBudget::total_instructions(2_500).with_warmup(1_000)
}

/// The oracle is `ReplayFromZero`; the fast side is the scalar
/// checkpointed path (the lane engine has its own proofs).
fn campaign(workers: usize, path: TrialPath) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(5, 0xBADC0DE, budget());
    cfg.workers = workers;
    cfg.path = path;
    cfg
}

#[test]
fn checkpointed_campaign_matches_replay_from_zero_at_1_2_and_4_workers() {
    let oracle = run_campaign(factory, &campaign(1, TrialPath::ReplayFromZero))
        .expect("oracle campaign runs");
    for workers in [1usize, 2, 4] {
        let fast =
            run_campaign(factory, &campaign(workers, TrialPath::Scalar)).expect("campaign runs");
        assert_eq!(oracle.window, fast.window, "{workers} workers");
        assert_eq!(
            oracle.records, fast.records,
            "checkpointed records diverged from the oracle at {workers} workers"
        );
        assert_eq!(oracle.per_target, fast.per_target, "{workers} workers");
    }
    // And the library defaults (checkpointed, lane-batched) end to end.
    let default = run_campaign(factory, &CampaignConfig::new(5, 0xBADC0DE, budget()))
        .expect("default campaign runs");
    assert_eq!(oracle.window, default.window);
    assert_eq!(
        oracle.records, default.records,
        "default-config records diverged from the oracle"
    );
    assert_eq!(oracle.per_target, default.per_target);
}

#[test]
fn every_checkpoint_restores_to_the_oracle_outcome() {
    // Hold individual trials to the oracle across the whole window so each
    // checkpoint (not just the frequently-sampled ones) is exercised: walk
    // cycles spanning all K segments with a fixed fault.
    let k = 6;
    let (checkpointed, _) =
        run_golden_checkpointed(&factory, budget(), k).expect("checkpointed golden runs");
    let golden = run_golden(&factory, budget()).expect("golden runs");
    assert_eq!(golden.start, checkpointed.golden.start);
    assert_eq!(golden.end, checkpointed.golden.end);
    assert_eq!(golden.per_thread, checkpointed.golden.per_thread);

    let cycles_of = checkpointed.checkpoint_cycles();
    assert_eq!(
        cycles_of.len(),
        k,
        "window is long enough for distinct checkpoints"
    );
    assert_eq!(
        cycles_of[0], golden.start,
        "first checkpoint sits at window start"
    );
    assert!(
        cycles_of.windows(2).all(|w| w[0] < w[1]),
        "sorted ascending"
    );

    let fault = Fault {
        target: FaultTarget::Rob,
        entry: 3,
        bit: 17,
    };
    let span = golden.end - golden.start;
    for i in 0..(2 * k as u64) {
        let cycle = golden.start + span * i / (2 * k as u64);
        let slow = run_trial(&factory, budget(), &golden, fault, cycle, 20_000)
            .expect("in-window cycle runs");
        let fast = run_trial_checkpointed(&checkpointed, fault, cycle, 20_000)
            .expect("in-window cycle runs");
        assert_eq!(slow, fast, "trial at cycle {cycle} diverged");
    }

    // Sampled trials on every target, each held to the oracle. They must
    // include an SDC and an early-exit Masked trial restored from a
    // snapshot past the window start — one whose log base is non-zero,
    // so both verdict paths diff against an offset golden stream.
    let mut cfg = CampaignConfig::new(5, 0xBADC0DE, budget());
    cfg.checkpoints = k;
    cfg.path = TrialPath::Scalar;
    let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("campaign prepares");
    let ckpt = prepared.checkpointed_golden().expect("checkpointed path");
    assert_eq!(ckpt.checkpoint_cycles(), cycles_of);
    // A snapshot's log base sums to the golden retirements before it.
    let log_base: Vec<u64> = {
        let committed: Vec<u64> = ckpt.snapshots().map(|(_, c)| c.total_committed()).collect();
        committed.iter().map(|c| c - committed[0]).collect()
    };
    let (mut sdc, mut early_masked) = (0, 0);
    for i in 0..prepared.total_trials() {
        let s = prepared.sample(i);
        let exec = prepared.run_index(&factory, i);
        let slow = run_trial(
            &factory,
            budget(),
            &golden,
            s.fault,
            s.cycle,
            cfg.hang_cycles,
        )
        .expect("sampled cycle is in the window");
        assert_eq!(
            (exec.record.landing, exec.record.outcome),
            slow,
            "trial {i} diverged"
        );
        let restored = s.cycle - exec.restore_distance.expect("restored from a snapshot");
        let slot = cycles_of
            .binary_search(&restored)
            .expect("a checkpoint cycle");
        if log_base[slot] > 0 {
            sdc += usize::from(exec.record.outcome == Outcome::Sdc);
            early_masked += usize::from(exec.early_exit && exec.record.outcome == Outcome::Masked);
        }
    }
    assert!(sdc > 0, "an SDC restored past the window start");
    assert!(
        early_masked > 0,
        "an early-exit Masked trial restored past the window start"
    );
}

#[test]
fn snapshots_are_log_free_and_prepare_captures_only_the_window_start() {
    let k = 12;
    let mut cfg = CampaignConfig::new(1, 0, budget());
    cfg.checkpoints = k;
    let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("campaign prepares");
    let ckpt = prepared.checkpointed_golden().expect("checkpointed path");
    assert_eq!(
        ckpt.filled_checkpoints(),
        1,
        "prepare captures checkpoint 0 only"
    );
    let (direct, _) = run_golden_checkpointed(&factory, budget(), k).expect("golden runs");
    assert_eq!(direct.filled_checkpoints(), 1);

    let empty: &[RetiredInst] = &[];
    for (cycle, core) in ckpt.snapshots() {
        assert_eq!(core.commit_log(), Some(empty), "snapshot at cycle {cycle}");
    }
    assert_eq!(
        ckpt.filled_checkpoints(),
        k,
        "snapshots() captures the rest"
    );
}

#[test]
fn pool_captured_snapshots_match_the_two_pass_reference_at_2_and_4_workers() {
    let k = 12;
    let reference = two_pass_capture(&factory, budget(), k as u64);
    // Four lanes a batch, so batches restore from many checkpoints.
    let mut cfg = CampaignConfig::new(5, 0xBADC0DE, budget());
    cfg.checkpoints = k;
    cfg.path = TrialPath::Batched { lanes: 4 };
    let eager = PreparedCampaign::prepare(&factory, &cfg).expect("campaign prepares");
    let fingerprint = GoldenFingerprint::of(&eager);
    assert_eq!(fingerprint.checkpoints, reference.checkpoints);
    let total = eager.total_trials();
    let (expected, _, _) = run_trials_batched_full(&eager, &factory, 0, total, 1);

    for workers in [2usize, 4] {
        let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("campaign prepares");
        let (execs, _, _) = run_trials_batched_full(&prepared, &factory, 0, total, workers);
        assert_eq!(execs, expected, "{workers} workers");
        let ckpt = prepared.checkpointed_golden().expect("checkpointed path");
        assert!(
            ckpt.filled_checkpoints() > 1,
            "{workers} workers: pool threads captured later snapshots"
        );
        let snapshots: Vec<CoreSnapshot> = ckpt
            .snapshots()
            .map(|(cycle, core)| CoreSnapshot {
                cycle,
                digest: core.state_digest(),
            })
            .collect();
        assert_eq!(snapshots, reference.checkpoints, "{workers} workers");
        assert_eq!(snapshots, fingerprint.checkpoints, "{workers} workers");
    }
}

#[test]
fn concurrent_trials_capture_on_demand_and_match_the_oracle() {
    let k = 6;
    let (checkpointed, _) =
        run_golden_checkpointed(&factory, budget(), k).expect("checkpointed golden runs");
    let golden = run_golden(&factory, budget()).expect("golden runs");
    let fault = Fault {
        target: FaultTarget::Rob,
        entry: 3,
        bit: 17,
    };
    // One trial a checkpoint, a few cycles past it, spawned last
    // checkpoint first; the barrier releases every trial at once, so they
    // race for the capture core and for slots still being filled.
    let cycles: Vec<u64> = checkpointed
        .checkpoint_cycles()
        .iter()
        .rev()
        .map(|c| c + 3)
        .collect();
    let start = std::sync::Barrier::new(cycles.len());
    let fast: Vec<_> = std::thread::scope(|scope| {
        let trials: Vec<_> = cycles
            .iter()
            .map(|&cycle| {
                let (checkpointed, start) = (&checkpointed, &start);
                scope.spawn(move || {
                    start.wait();
                    run_trial_checkpointed(checkpointed, fault, cycle, 20_000)
                })
            })
            .collect();
        trials
            .into_iter()
            .map(|t| t.join().expect("trial thread"))
            .collect()
    });
    assert_eq!(checkpointed.filled_checkpoints(), k);
    for (&cycle, fast) in cycles.iter().zip(fast) {
        let slow = run_trial(&factory, budget(), &golden, fault, cycle, 20_000);
        assert_eq!(slow, fast, "trial at cycle {cycle} diverged");
    }
}

#[test]
fn checkpointed_trials_reject_out_of_window_cycles_like_the_oracle() {
    let (checkpointed, _) =
        run_golden_checkpointed(&factory, budget(), 4).expect("checkpointed golden runs");
    let fault = Fault {
        target: FaultTarget::Iq,
        entry: 0,
        bit: 0,
    };
    let end = checkpointed.golden.end;
    let start = checkpointed.golden.start;
    for bad in [end, end + 10_000, start.wrapping_sub(1)] {
        let err = run_trial_checkpointed(&checkpointed, fault, bad, 20_000)
            .expect_err("out-of-window cycle must be rejected");
        assert!(
            matches!(err, InjectError::CycleOutOfRange { cycle, .. } if cycle == bad),
            "got {err:?}"
        );
    }
}

#[test]
fn a_single_checkpoint_still_covers_the_whole_window() {
    // K = 1 degenerates to "one snapshot at window start" — strictly the
    // old replay minus warmup. It must still be exact.
    let (checkpointed, _) =
        run_golden_checkpointed(&factory, budget(), 1).expect("checkpointed golden runs");
    assert_eq!(
        checkpointed.checkpoint_cycles(),
        vec![checkpointed.golden.start]
    );
    let golden = run_golden(&factory, budget()).expect("golden runs");
    let fault = Fault {
        target: FaultTarget::RegFile,
        entry: 11,
        bit: 4,
    };
    let late = golden.end - 1;
    let slow = run_trial(&factory, budget(), &golden, fault, late, 20_000).expect("runs");
    let fast = run_trial_checkpointed(&checkpointed, fault, late, 20_000).expect("runs");
    assert_eq!(slow, fast);
}

/// The reference capture: warm up and run the window to learn
/// `[start, end)` and the retired streams, then warm up a second core and
/// step it to `start + span·i/k`, recording each distinct cycle with its
/// state digest.
fn two_pass_capture<F: Fn() -> SmtCore>(
    factory: &F,
    budget: SimBudget,
    k: u64,
) -> GoldenFingerprint {
    let mut core = warmed_core(factory, budget);
    let start = core.cycle();
    let target_committed = core.total_committed() + budget.total_instructions;
    while core.total_committed() < target_committed && core.cycle() < budget.max_cycles {
        core.step_fast_bounded(budget.max_cycles);
    }
    assert!(
        core.total_committed() >= target_committed,
        "golden completes"
    );
    let end = core.cycle();
    let mut per_thread = vec![Vec::new(); core.config().contexts];
    for r in core.take_commit_log().expect("log was enabled") {
        per_thread[r.thread as usize].push(r);
    }

    let mut core = warmed_core(factory, budget);
    let span = end - start;
    let mut checkpoints: Vec<CoreSnapshot> = Vec::new();
    for i in 0..k {
        let at = start + span * i / k;
        if checkpoints.last().is_some_and(|c| c.cycle == at) {
            continue;
        }
        while core.cycle() < at {
            core.step_fast_bounded(at);
        }
        checkpoints.push(CoreSnapshot {
            cycle: core.cycle(),
            digest: core.state_digest(),
        });
    }
    GoldenFingerprint {
        golden: GoldenRun {
            start,
            end,
            target_committed,
            per_thread,
        },
        checkpoints,
    }
}

#[test]
fn single_warmup_capture_matches_the_two_pass_reference() {
    // A window of about a dozen cycles, so K can exceed it while the
    // capture holds only that many machine clones (each is megabytes).
    let tiny = SimBudget::total_instructions(8).with_warmup(1_000);
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::Flush] {
        let factory = move || core_with(policy);
        let window = {
            let g = two_pass_capture(&factory, tiny, 1).golden;
            g.end - g.start
        };
        for (budget, k) in [(budget(), 1), (budget(), 12), (tiny, window + 5)] {
            let label = format!("{policy:?}, K = {k}");
            let reference = two_pass_capture(&factory, budget, k);
            let (captured, _) =
                run_golden_checkpointed(&factory, budget, k as usize).expect("golden runs");
            let snapshots: Vec<CoreSnapshot> = captured
                .snapshots()
                .map(|(cycle, core)| CoreSnapshot {
                    cycle,
                    digest: core.state_digest(),
                })
                .collect();
            assert_eq!(
                snapshots, reference.checkpoints,
                "{label}: checkpoint cycles and state digests"
            );
            if k > window {
                assert_eq!(
                    snapshots.len() as u64,
                    window,
                    "{label}: one snapshot per window cycle"
                );
            }
            assert_eq!(
                encode_record(&captured.golden),
                encode_record(&reference.golden),
                "{label}: golden run encoding"
            );

            // A store fingerprinted from the reference capture still
            // accepts a campaign prepared by the single-warm-up path.
            let mut cfg = CampaignConfig::new(1, 0, budget);
            cfg.checkpoints = k as usize;
            let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("campaign prepares");
            reference
                .verify(&prepared)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}
