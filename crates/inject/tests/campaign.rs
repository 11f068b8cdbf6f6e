//! Campaign-level guarantees: seed determinism independent of worker
//! count, outcome bookkeeping, and clean rejection of out-of-window
//! injection cycles.

use sim_inject::*;
use sim_model::MachineConfig;
use sim_pipeline::{Fault, FaultTarget, SimBudget, SmtCore};
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

fn small_campaign(workers: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(6, 0xC0FFEE, budget());
    cfg.workers = workers;
    cfg
}

#[test]
fn same_seed_same_outcome_table_for_any_worker_count() {
    let serial = run_campaign(factory, &small_campaign(1)).expect("campaign runs");
    let parallel = run_campaign(factory, &small_campaign(4)).expect("campaign runs");
    assert_eq!(serial.window, parallel.window);
    assert_eq!(
        serial.records, parallel.records,
        "records must be bit-identical at 1 and 4 workers"
    );
    assert_eq!(serial.per_target, parallel.per_target);
}

#[test]
fn outcome_counts_sum_to_trial_count() {
    let r = run_campaign(factory, &small_campaign(4)).expect("campaign runs");
    assert_eq!(r.records.len(), 8 * 6, "8 default targets x 6 trials");
    for t in &r.per_target {
        assert_eq!(
            t.masked + t.latent + t.sdc + t.detected,
            t.trials,
            "{:?}: outcomes must partition the trials",
            t.target
        );
        assert_eq!(t.sfi.failures, t.sdc + t.detected);
        assert_eq!(t.sfi.trials, t.trials);
        assert!(t.sfi.lo <= t.sfi.point && t.sfi.point <= t.sfi.hi);
    }
    // Records are grouped by target in campaign order.
    for (ti, t) in r.per_target.iter().enumerate() {
        assert!(r.records[ti * 6..(ti + 1) * 6]
            .iter()
            .all(|rec| rec.target == t.target));
    }
}

#[test]
fn injection_past_simulation_end_is_rejected_cleanly() {
    let golden = run_golden(&factory, budget()).expect("golden runs");
    let fault = Fault {
        target: FaultTarget::Rob,
        entry: 0,
        bit: 0,
    };
    for bad in [
        golden.end,
        golden.end + 10_000,
        golden.start.wrapping_sub(1),
    ] {
        let err = run_trial(&factory, budget(), &golden, fault, bad, 20_000)
            .expect_err("out-of-window cycle must be rejected");
        assert!(
            matches!(err, InjectError::CycleOutOfRange { cycle, .. } if cycle == bad),
            "got {err:?}"
        );
    }
    // A cycle inside the window is accepted.
    run_trial(&factory, budget(), &golden, fault, golden.start, 20_000)
        .expect("in-window cycle runs");
}

#[test]
fn golden_run_is_reproducible_and_within_budget() {
    let a = run_golden(&factory, budget()).expect("golden runs");
    let b = run_golden(&factory, budget()).expect("golden runs");
    assert_eq!(a.start, b.start);
    assert_eq!(a.end, b.end);
    assert_eq!(a.per_thread, b.per_thread);
    let total: usize = a.per_thread.iter().map(Vec::len).sum();
    assert!(total as u64 >= 2_500, "window must cover the budget");
    // Golden retirements are never tainted.
    assert!(a.per_thread.iter().flatten().all(|r| !r.tainted));
}

#[test]
fn degenerate_campaigns_are_rejected() {
    let mut no_targets = small_campaign(1);
    no_targets.targets.clear();
    assert_eq!(
        run_campaign(factory, &no_targets).unwrap_err(),
        InjectError::NoTargets
    );
    let mut zero = small_campaign(1);
    zero.trials_per_structure = 0;
    assert_eq!(
        run_campaign(factory, &zero).unwrap_err(),
        InjectError::ZeroTrials
    );
}

/// A 2-context core with small caches over a short window, so a campaign
/// holding many snapshots keeps each one small.
fn small_machine_factory() -> SmtCore {
    let mut cfg = MachineConfig::ispass07_baseline().with_contexts(2);
    cfg.il1.size_bytes = 4 * 1024;
    cfg.dl1.size_bytes = 8 * 1024;
    cfg.l2.size_bytes = 64 * 1024;
    let gens = ["bzip2", "eon"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("profiled"), i as u64 + 7))
        .collect();
    SmtCore::new(cfg, gens)
}

/// This process's peak resident set (`VmHWM`) in MiB, where `/proc` has it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[test]
fn hostile_checkpoint_count_plans_exactly_the_cap() {
    let mut hostile = CampaignConfig::new(
        4,
        0xC0FFEE,
        SimBudget::total_instructions(600).with_warmup(200),
    );
    hostile.targets = vec![FaultTarget::Iq, FaultTarget::Rob];
    hostile.checkpoints = usize::MAX;
    let prepared = PreparedCampaign::prepare(&small_machine_factory, &hostile)
        .expect("prepare plans a capped schedule");
    let golden = prepared.golden();
    let planned = prepared
        .checkpointed_golden()
        .expect("checkpointed path")
        .checkpoint_cycles();
    // 600 / 64 commits between milestones is more than one step can
    // retire, so every milestone gets its own snapshot.
    assert_eq!(planned.len(), MAX_CHECKPOINTS, "the plan stops at the cap");
    assert!(
        planned.len() < (golden.end - golden.start) as usize,
        "the window has more cycles than the cap"
    );
    let mut capped = hostile.clone();
    capped.checkpoints = MAX_CHECKPOINTS;
    assert_eq!(
        run_campaign(small_machine_factory, &hostile)
            .expect("campaign runs")
            .records,
        run_campaign(small_machine_factory, &capped)
            .expect("campaign runs")
            .records,
    );
    if let Some(mib) = peak_rss_mib() {
        eprintln!("hostile checkpoint count: peak RSS {mib:.1} MiB (whole test process)");
    }
}
