//! The lane-parallel batched trial engine must be bit-identical to the
//! scalar per-trial oracle — record for record, at lanes = 1/4/8/64 and
//! workers = 1/2/4, and the read-only strike decoder must agree with the
//! real injection's landing on every sampled strike.
//!
//! `TrialPath::Scalar` keeps the scalar path alive precisely so this test
//! can hold the batched path to it (the same pattern as the checkpoint
//! and fast-forward equivalence proofs).

use sim_inject::*;
use sim_model::MachineConfig;
use sim_pipeline::{Landing, SimBudget, SmtCore, Strike};
use sim_workload::{profile, TraceGenerator};

fn factory() -> SmtCore {
    let cfg = MachineConfig::ispass07_baseline().with_contexts(2);
    let gens = ["bzip2", "mcf"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("profiled"), i as u64 + 7))
        .collect();
    SmtCore::new(cfg, gens)
}

fn budget() -> SimBudget {
    SimBudget::total_instructions(2_500).with_warmup(1_000)
}

fn campaign(workers: usize, path: TrialPath) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(5, 0xBADC0DE, budget());
    cfg.workers = workers;
    cfg.path = path;
    cfg
}

#[test]
fn batched_campaign_matches_scalar_oracle_at_every_lane_and_worker_count() {
    let oracle =
        run_campaign(factory, &campaign(1, TrialPath::Scalar)).expect("scalar campaign runs");
    for lanes in [1usize, 4, 8, 64] {
        for workers in [1usize, 2, 4] {
            let batched = run_campaign(factory, &campaign(workers, TrialPath::Batched { lanes }))
                .expect("batched campaign runs");
            assert_eq!(
                oracle.window, batched.window,
                "{lanes} lanes, {workers} workers"
            );
            assert_eq!(
                oracle.records, batched.records,
                "batched records diverged from the scalar oracle at \
                 {lanes} lanes, {workers} workers"
            );
            assert_eq!(
                oracle.per_target, batched.per_target,
                "{lanes} lanes, {workers} workers"
            );
        }
    }
}

#[test]
fn batched_trial_range_matches_scalar_execs_including_metrics() {
    // run_trials_batched_full is the executor over one trial range: hold a
    // chunk's worth of TrialExecs (records *and* the early-exit /
    // restore-distance diagnostics) to the scalar path, over an offset
    // range so the start/len plumbing is exercised too.
    let cfg = campaign(1, TrialPath::Batched { lanes: 4 });
    let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepare");
    let total = prepared.total_trials();
    let (start, len) = (3, total - 5);
    let scalar: Vec<TrialExec> = (0..len)
        .map(|i| prepared.run_index(&factory, start + i))
        .collect();
    for workers in [1usize, 2, 4] {
        let (batched, _, lane_stats) =
            run_trials_batched_full(&prepared, &factory, start, len, workers);
        assert_eq!(scalar, batched, "{workers} workers");
        assert!(lane_stats.is_some(), "{workers} workers: range ran batched");
    }
}

#[test]
fn fork_tails_are_their_own_pool_jobs_and_match_run_index() {
    // IQ and ROB strikes fork most often (renamed source tags and
    // pre-issue addresses feed timing), and a full four-context memory mix
    // keeps both queues occupied. Every forking trial leaves its batch and
    // runs as one pool job of the tail phase, so the pool sees one job per
    // batch plus one per executed tail, and the tally folds in job order
    // whatever the worker count.
    let factory = || {
        let cfg = MachineConfig::ispass07_baseline().with_contexts(4);
        let gens = ["mcf", "equake", "vpr", "swim"]
            .iter()
            .enumerate()
            .map(|(i, p)| TraceGenerator::new(profile(p).expect("profiled"), i as u64 + 3))
            .collect();
        SmtCore::new(cfg, gens)
    };
    let budget = SimBudget::total_instructions(6_000).with_warmup(2_000);
    let mut cfg = CampaignConfig::new(24, 0xF02C, budget);
    cfg.targets = vec![FaultTarget::Iq, FaultTarget::Rob];
    for lanes in [4usize, 64] {
        cfg.path = TrialPath::Batched { lanes };
        let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepare");
        let len = prepared.total_trials();
        let scalar: Vec<TrialExec> = (0..len).map(|i| prepared.run_index(&factory, i)).collect();
        let mut first: Option<LaneStats> = None;
        for workers in [1usize, 2, 4] {
            let (execs, pool, lane_stats) =
                run_trials_batched_full(&prepared, &factory, 0, len, workers);
            assert_eq!(scalar, execs, "{lanes} lanes, {workers} workers");
            let lane_stats = lane_stats.expect("range ran batched");
            let forked = lane_stats.totals().forked;
            assert!(forked > 0, "{lanes} lanes: the campaign must fork");
            assert_eq!(
                pool.total_jobs(),
                len.div_ceil(lanes) as u64 + forked,
                "{lanes} lanes, {workers} workers: one job per batch and per tail"
            );
            match &first {
                None => first = Some(lane_stats),
                Some(s) => assert_eq!(s, &lane_stats, "{lanes} lanes, {workers} workers"),
            }
        }
    }
}

#[test]
fn executor_on_a_replay_from_zero_campaign_matches_run_index() {
    // No checkpoints exist on the replay-from-zero path, so the executor
    // runs its scalar branch, which must match per-index execution.
    let cfg = campaign(1, TrialPath::ReplayFromZero);
    let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepare");
    let total = prepared.total_trials();
    let scalar: Vec<TrialExec> = (0..total)
        .map(|i| prepared.run_index(&factory, i))
        .collect();
    let (execs, _, lane_stats) = run_trials_batched_full(&prepared, &factory, 0, total, 2);
    assert_eq!(scalar, execs);
    assert!(lane_stats.is_none(), "the oracle path never batches");
}

#[test]
fn probe_agrees_with_injection_on_every_sampled_strike() {
    // For every trial the campaign would sample, step a scalar core to the
    // injection cycle, decode (read-only), then inject for real: the
    // decoded strike must predict the landing exactly, and every class
    // the lane engine rides must land Injected.
    let cfg = campaign(1, TrialPath::Scalar);
    let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepare");
    let ckpt = prepared.checkpointed_golden().expect("checkpointed path");
    let mut checked = 0u64;
    for i in 0..prepared.total_trials() {
        let s = prepared.sample(i);
        let mut core = ckpt
            .snapshots()
            .filter(|(c, _)| *c <= s.cycle)
            .last()
            .expect("snapshot at or before cycle")
            .1
            .clone();
        while core.cycle() < s.cycle {
            core.step_fast_bounded(s.cycle);
        }
        let digest_before = core.state_digest();
        let strike = core.decode_fault(&s.fault);
        assert_eq!(
            core.state_digest(),
            digest_before,
            "decode mutated state for {:?}",
            s.fault
        );
        let landing = core.inject_fault(&s.fault);
        assert_eq!(landing, strike.landing(), "{:?}", s.fault);
        match strike {
            Strike::Empty => assert_eq!(landing, Landing::Empty, "{:?}", s.fault),
            Strike::Benign => assert_eq!(landing, Landing::Benign, "{:?}", s.fault),
            Strike::Detected => assert_eq!(landing, Landing::Detected, "{:?}", s.fault),
            // Metadata strikes ride the follower's taint/poison masks.
            Strike::Taint {
                feeds_timing: false,
                ..
            }
            | Strike::PoisonReg { .. } => {
                assert_eq!(landing, Landing::Injected, "{:?}", s.fault);
            }
            // The resident classes claim a strike on *valid* cache/TLB
            // state: injection must land (Injected), never find the slot
            // empty or the field idle.
            Strike::Dl1Word { .. } | Strike::Dl1Line { .. } | Strike::Tlb { .. } => {
                assert_eq!(landing, Landing::Injected, "{:?}", s.fault);
            }
            // Forks to the scalar path, which handles any landing.
            Strike::Taint {
                feeds_timing: true, ..
            } => {}
        }
        checked += 1;
    }
    assert_eq!(checked, prepared.total_trials() as u64);
}
