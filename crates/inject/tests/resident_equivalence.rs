//! Cache/TLB resident-resolution equivalence: campaigns over *only* the
//! memory-hierarchy targets — the strikes PR 7 always forked — must stay
//! bit-identical to the scalar per-trial oracle now that resident strikes
//! ride the shared follower under consumption-feed watches, at
//! lanes = 1/8/64 and workers = 1/2/4. Also pins the batch boundary at
//! exactly 64 and 65 trials (one full lane mask, and one trial past it)
//! and that the engine actually exercises the new resolution class
//! (otherwise this file would prove nothing).

use sim_inject::*;
use sim_model::MachineConfig;
use sim_pipeline::{SimBudget, SmtCore};
use sim_workload::{profile, TraceGenerator};

/// A cache-heavy pairing so DL1/TLB state is busy in the window: mcf's
/// pointer chasing misses hard, gcc brings branchy reuse.
fn factory() -> SmtCore {
    let cfg = MachineConfig::ispass07_baseline().with_contexts(2);
    let gens = ["mcf", "gcc"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("profiled"), i as u64 + 11))
        .collect();
    SmtCore::new(cfg, gens)
}

fn budget() -> SimBudget {
    SimBudget::total_instructions(2_500).with_warmup(1_000)
}

fn mem_targets() -> Vec<FaultTarget> {
    vec![
        FaultTarget::Dl1Data,
        FaultTarget::Dl1Tag,
        FaultTarget::Dtlb,
        FaultTarget::Itlb,
    ]
}

fn campaign(trials: usize, workers: usize, path: TrialPath) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(trials, 0x5EED5 + trials as u64, budget());
    cfg.workers = workers;
    cfg.path = path;
    cfg.targets = mem_targets();
    cfg
}

#[test]
fn resident_campaign_matches_scalar_oracle_at_every_lane_and_worker_count() {
    let oracle =
        run_campaign(factory, &campaign(8, 1, TrialPath::Scalar)).expect("scalar campaign runs");
    for lanes in [1usize, 8, 64] {
        for workers in [1usize, 2, 4] {
            let batched =
                run_campaign(factory, &campaign(8, workers, TrialPath::Batched { lanes }))
                    .expect("batched campaign runs");
            assert_eq!(
                oracle.records, batched.records,
                "cache/TLB records diverged from the scalar oracle at \
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
fn resident_watches_actually_resolve_without_forking() {
    // The equivalence above would hold vacuously if every cache/TLB strike
    // still forked; require that a meaningful share resolved on the
    // follower (resident) and that the tally tiles the campaign exactly.
    let cfg = campaign(16, 2, TrialPath::Batched { lanes: 64 });
    let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepare");
    let total = prepared.total_trials();
    let (_, _, stats) = run_trials_batched_full(&prepared, &factory, 0, total, cfg.workers);
    let stats = stats.expect("batched campaigns report lane stats");
    let totals = stats.totals();
    assert_eq!(
        totals.trials(),
        total as u64,
        "lane classification must cover every trial exactly once"
    );
    assert!(
        totals.resident > 0,
        "no cache/TLB strike resolved resident: the consumption feed is dead ({totals:?})"
    );
    for target in mem_targets() {
        assert!(
            stats.for_target(target).is_some(),
            "{target:?} executed trials but has no tally"
        );
    }
}

#[test]
fn batch_boundary_at_exactly_64_and_65_trials() {
    // 64 trials of one target fill one lane mask exactly; 65 force a
    // second batch with a single lane. Both must match the scalar oracle
    // record for record (single checkpoint, so trials share one snapshot
    // bucket and the chunking is exercised, not the snapshot spread).
    for trials in [64usize, 65] {
        let mut scalar = CampaignConfig::new(trials, 0xB0DA + trials as u64, budget());
        scalar.workers = 1;
        scalar.path = TrialPath::Scalar;
        scalar.checkpoints = 1;
        scalar.targets = vec![FaultTarget::Dl1Data];
        let mut batched = scalar.clone();
        batched.path = TrialPath::Batched { lanes: 64 };
        batched.workers = 2;
        let oracle = run_campaign(factory, &scalar).expect("scalar campaign runs");
        let lanes = run_campaign(factory, &batched).expect("batched campaign runs");
        assert_eq!(
            oracle.records, lanes.records,
            "{trials}-trial campaign diverged at the 64-lane batch boundary"
        );
    }
}
