//! The checkpointed trial path must be outcome-for-outcome identical to
//! the replay-from-zero oracle — at every worker count, and trial by
//! trial, not just in aggregate.
//!
//! `TrialPath::ReplayFromZero` keeps the slow path alive precisely so
//! this test can hold the fast path to it. The golden capture itself is
//! held to an independent reference (a second warmed core stepping the
//! window and recording cycle, state digest and log base at each commit
//! milestone, and a further warmed core stepped to each of those cycles),
//! and a fingerprint written under the earlier evenly spaced
//! cycle plan must still verify against it. Snapshots carry no commit
//! log: trials restored from one diff against the golden streams from its
//! log base.

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

/// A factory under `policy` with fast-forward on or off.
fn factory_with(policy: FetchPolicyKind, fast_forward: bool) -> impl Fn() -> SmtCore {
    move || {
        let mut core = core_with(policy);
        core.set_fast_forward(fast_forward);
        core
    }
}

/// The campaign path whose cores step like `factory_with(_, fast_forward)`.
fn path_for(fast_forward: bool) -> TrialPath {
    if fast_forward {
        TrialPath::Batched { lanes: 4 }
    } else {
        TrialPath::CycleByCycle
    }
}

/// What the golden pass must capture, found independently of it.
struct Reference {
    golden: GoldenRun,
    checkpoints: Vec<CoreSnapshot>,
    log_bases: Vec<Vec<usize>>,
}

impl Reference {
    fn fingerprint(&self) -> GoldenFingerprint {
        GoldenFingerprint {
            golden: self.golden.clone(),
            checkpoints: self.checkpoints.clone(),
        }
    }
}

/// The reference capture: a freshly warmed core steps the window once,
/// never taking its commit log until the end. After each step that raises
/// the number of reached milestones `⌊N·i/K⌋` (K clamped to
/// `MAX_CHECKPOINTS` and to N), it records the cycle, the state digest,
/// and per thread the log entries so far; a step that reaches the commit
/// target records nothing.
fn milestone_reference<F: Fn() -> SmtCore>(factory: &F, budget: SimBudget, k: usize) -> Reference {
    let n = budget.total_instructions;
    let k = (k.clamp(1, MAX_CHECKPOINTS) as u64).min(n);
    let mut core = warmed_core(factory, budget);
    let (start, base) = (core.cycle(), core.total_committed());
    let contexts = core.config().contexts;
    let (mut checkpoints, mut log_bases, mut reached) = (Vec::new(), Vec::new(), 0);
    while core.total_committed() - base < n {
        let done = core.total_committed() - base;
        let now = (0..k).filter(|&i| n * i / k <= done).count();
        if now > reached {
            reached = now;
            checkpoints.push(CoreSnapshot {
                cycle: core.cycle(),
                digest: core.state_digest(),
            });
            let mut log_base = vec![0; contexts];
            for r in core.commit_log().expect("log was enabled") {
                log_base[r.thread as usize] += 1;
            }
            log_bases.push(log_base);
        }
        core.step_fast_bounded(budget.max_cycles);
    }
    let mut per_thread = vec![Vec::new(); contexts];
    for r in core.take_commit_log().expect("log was enabled") {
        per_thread[r.thread as usize].push(r);
    }
    let golden = GoldenRun {
        start,
        end: core.cycle(),
        target_committed: base + n,
        per_thread,
    };
    Reference {
        golden,
        checkpoints,
        log_bases,
    }
}

/// `(cycle, digest)` of each snapshot `ckpt` holds.
fn digests(ckpt: &CheckpointedGolden<TraceGenerator>) -> Vec<CoreSnapshot> {
    ckpt.snapshots()
        .map(|(cycle, core)| CoreSnapshot {
            cycle,
            digest: core.state_digest(),
        })
        .collect()
}

/// The plans the capture tests run under: K = 1, the default, K past the
/// cap, and a 40-instruction window with one milestone per instruction,
/// so several fall in one step. The flag marks the tiny window.
fn plans() -> [(bool, SimBudget, usize); 4] {
    let tiny = SimBudget::total_instructions(40).with_warmup(1_000);
    [
        (false, budget(), 1),
        (false, budget(), DEFAULT_CHECKPOINTS),
        (false, budget(), usize::MAX),
        (true, tiny, 40),
    ]
}

#[test]
fn milestone_snapshots_match_an_independent_reference() {
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::Flush] {
        for fast_forward in [true, false] {
            let factory = factory_with(policy, fast_forward);
            let plain = run_golden(&factory, budget()).expect("golden runs");
            for (is_tiny, budget, k) in plans() {
                let label = format!("{policy:?}, fast-forward {fast_forward}, K = {k}");
                let reference = milestone_reference(&factory, budget, k);
                let (captured, _) =
                    run_golden_checkpointed(&factory, budget, k).expect("golden runs");
                assert_eq!(
                    digests(&captured),
                    reference.checkpoints,
                    "{label}: checkpoint cycles and state digests"
                );
                let log_bases: Vec<Vec<usize>> =
                    captured.log_bases().map(<[usize]>::to_vec).collect();
                assert_eq!(log_bases, reference.log_bases, "{label}: log bases");
                assert_eq!(
                    encode_record(&captured.golden),
                    encode_record(&reference.golden),
                    "{label}: golden run encoding"
                );
                if !is_tiny {
                    assert_eq!(
                        encode_record(&captured.golden),
                        encode_record(&plain),
                        "{label}: golden streams equal run_golden's"
                    );
                }
                let cycles = captured.checkpoint_cycles();
                assert_eq!(cycles[0], captured.golden.start, "{label}: window start");
                assert!(
                    cycles.windows(2).all(|w| w[0] < w[1]),
                    "{label}: one snapshot per cycle"
                );
                assert!(
                    *cycles.last().unwrap() < captured.golden.end,
                    "{label}: no snapshot at or past the window end"
                );
                let planned = k.min(MAX_CHECKPOINTS) as u64;
                if is_tiny {
                    assert!(
                        (cycles.len() as u64) < planned,
                        "{label}: milestones sharing a step share a snapshot"
                    );
                } else {
                    assert_eq!(cycles.len() as u64, planned, "{label}: K snapshots");
                }
            }
        }
    }
}

#[test]
fn snapshots_are_log_free_and_prepare_captures_every_planned_snapshot() {
    let empty: &[RetiredInst] = &[];
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::Flush] {
        for fast_forward in [true, false] {
            let factory = factory_with(policy, fast_forward);
            for (_, budget, k) in plans() {
                let label = format!("{policy:?}, fast-forward {fast_forward}, K = {k}");
                let reference = milestone_reference(&factory, budget, k);
                // `prepare` returns with every snapshot captured and
                // log-free, and the reference fingerprint verifies.
                let mut cfg = CampaignConfig::new(1, 0, budget);
                cfg.checkpoints = k;
                cfg.path = path_for(fast_forward);
                let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepares");
                let ckpt = prepared.checkpointed_golden().expect("checkpointed path");
                assert_eq!(digests(ckpt), reference.checkpoints, "{label}: prepared");
                for (cycle, core) in ckpt.snapshots() {
                    assert_eq!(core.commit_log(), Some(empty), "{label}: cycle {cycle}");
                }
                reference
                    .fingerprint()
                    .verify(&prepared)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
            }
        }
    }
}

/// The two-pass reference capture: a first warmed core steps the window
/// to learn `[start, end)`, the retired streams and the milestone cycles
/// ([`milestone_reference`]); a second, freshly warmed core is then
/// stepped to each of those cycles and digested there.
fn two_pass_capture<F: Fn() -> SmtCore>(
    factory: &F,
    budget: SimBudget,
    k: usize,
) -> GoldenFingerprint {
    let first = milestone_reference(factory, budget, k);
    let mut core = warmed_core(factory, budget);
    let checkpoints = first
        .checkpoints
        .iter()
        .map(|c| {
            while core.cycle() < c.cycle {
                core.step_fast_bounded(c.cycle);
            }
            CoreSnapshot {
                cycle: core.cycle(),
                digest: core.state_digest(),
            }
        })
        .collect();
    GoldenFingerprint {
        golden: first.golden,
        checkpoints,
    }
}

#[test]
fn single_warmup_capture_matches_the_two_pass_reference() {
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::Flush] {
        for fast_forward in [true, false] {
            let factory = factory_with(policy, fast_forward);
            for (_, budget, k) in plans() {
                let label = format!("{policy:?}, fast-forward {fast_forward}, K = {k}");
                let reference = two_pass_capture(&factory, budget, k);
                let (captured, _) =
                    run_golden_checkpointed(&factory, budget, k).expect("golden runs");
                assert_eq!(
                    digests(&captured),
                    reference.checkpoints,
                    "{label}: checkpoint cycles and state digests"
                );
                assert_eq!(
                    encode_record(&captured.golden),
                    encode_record(&reference.golden),
                    "{label}: golden run encoding"
                );

                // A store fingerprinted from the two-pass capture accepts
                // a campaign prepared by the single-warm-up path.
                let mut cfg = CampaignConfig::new(1, 0, budget);
                cfg.checkpoints = k;
                cfg.path = path_for(fast_forward);
                let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepares");
                reference
                    .verify(&prepared)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
            }
        }
    }
}

#[test]
fn trials_match_the_milestone_reference_at_1_2_and_4_workers() {
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::Flush] {
        for fast_forward in [true, false] {
            let label = format!("{policy:?}, fast-forward {fast_forward}");
            let factory = factory_with(policy, fast_forward);
            let reference = milestone_reference(&factory, budget(), 12);
            // Four lanes a batch, so batches restore from many checkpoints.
            let mut cfg = CampaignConfig::new(3, 0xBADC0DE, budget());
            cfg.path = path_for(fast_forward);
            let mut expected = None;
            for workers in [1usize, 2, 4] {
                let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepares");
                let total = prepared.total_trials();
                let (execs, _, _) = run_trials_batched_full(&prepared, &factory, 0, total, workers);
                let expected = expected.get_or_insert_with(|| execs.clone());
                assert_eq!(&execs, expected, "{label}, {workers} workers");
                assert_eq!(
                    GoldenFingerprint::of(&prepared).checkpoints,
                    reference.checkpoints,
                    "{label}, {workers} workers: snapshot cycles and digests"
                );
            }
        }
    }
}

#[test]
fn concurrent_trials_share_the_snapshots_and_match_the_oracle() {
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
    // all restore from the shared snapshots together.
    let cycles: Vec<u64> = checkpointed
        .checkpoint_cycles()
        .iter()
        .rev()
        .map(|c| c + 3)
        .collect();
    assert_eq!(cycles.len(), k);
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

/// A fingerprint under the earlier cycle plan: a freshly warmed core
/// stepped to `start + span·i/k` for each `i < k`, recording each
/// distinct cycle with its state digest, over `golden`'s window.
fn evenly_spaced_fingerprint<F: Fn() -> SmtCore>(
    factory: &F,
    budget: SimBudget,
    golden: &GoldenRun,
    k: u64,
) -> GoldenFingerprint {
    let mut core = warmed_core(factory, budget);
    let span = golden.end - golden.start;
    let mut checkpoints: Vec<CoreSnapshot> = Vec::new();
    for i in 0..k.min(span) {
        let at = golden.start + span * i / k.min(span);
        while core.cycle() < at {
            core.step_fast_bounded(at);
        }
        checkpoints.push(CoreSnapshot {
            cycle: core.cycle(),
            digest: core.state_digest(),
        });
    }
    GoldenFingerprint {
        golden: golden.clone(),
        checkpoints,
    }
}

#[test]
fn fingerprints_from_the_evenly_spaced_plan_still_verify() {
    let tiny = SimBudget::total_instructions(40).with_warmup(1_000);
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::Flush] {
        for fast_forward in [true, false] {
            let factory = factory_with(policy, fast_forward);
            // The default plan, and one old snapshot per window cycle.
            for (budget, k) in [(budget(), 12), (tiny, u64::MAX)] {
                let label = format!("{policy:?}, fast-forward {fast_forward}, K = {k}");
                let mut cfg = CampaignConfig::new(1, 0, budget);
                cfg.checkpoints = 12;
                cfg.path = path_for(fast_forward);
                let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepares");
                let planned = prepared
                    .checkpointed_golden()
                    .expect("checkpointed path")
                    .checkpoint_cycles();
                let old = evenly_spaced_fingerprint(&factory, budget, prepared.golden(), k);
                let off_plan: Vec<usize> = (0..old.checkpoints.len())
                    .filter(|&i| !planned.contains(&old.checkpoints[i].cycle))
                    .collect();
                assert!(!off_plan.is_empty(), "{label}: the plans differ");
                old.verify(&prepared)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));

                // A flipped digest off the new plan fails closed, naming
                // its cycle.
                let mut flipped = old.clone();
                let bad = &mut flipped.checkpoints[off_plan[off_plan.len() / 2]];
                bad.digest ^= 1;
                let cycle = bad.cycle;
                let err = flipped.verify(&prepared).expect_err("flipped digest");
                assert!(
                    err.contains("golden divergence") && err.contains(&format!("cycle {cycle} ")),
                    "{label}: {err}"
                );

                // A stored cycle outside the window is a divergence too.
                let mut outside = old.clone();
                outside.checkpoints.last_mut().unwrap().cycle = prepared.golden().end;
                let err = outside
                    .verify(&prepared)
                    .expect_err("cycle past the window");
                assert!(err.contains("outside the rebuilt window"), "{label}: {err}");
            }
        }
    }
}
