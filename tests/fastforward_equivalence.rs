//! Idle-cycle fast-forward vs. the cycle-by-cycle oracle.
//!
//! The fast-forward clock (`SmtCore::step_fast_bounded`) jumps over
//! provably quiescent spans instead of stepping them one cycle at a time.
//! The optimization's contract is *bit-identical observable history*: the
//! `AvfReport`, committed-instruction counts, telemetry windows, trace
//! events and SFI campaign records must all match a run with
//! fast-forwarding disabled (`set_fast_forward(false)`, or
//! `TrialPath::CycleByCycle` for campaigns). These tests diff the
//! two paths over memory-bound and compute-bound mixes, multiple fetch
//! policies, and 1/2/4 campaign workers.

use sim_inject::{run_campaign, CampaignConfig, TrialPath};
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::{SimBudget, SmtCore};
use sim_workload::{table2, SmtWorkload};
use smt_avf::runner::workload_generators;

fn workload(name: &str) -> SmtWorkload {
    table2()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("{name} not in Table 2"))
}

fn core_for(w: &SmtWorkload, policy: FetchPolicyKind, fast: bool) -> SmtCore {
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(w.contexts)
        .with_fetch_policy(policy);
    let mut core = SmtCore::new(cfg, workload_generators(w).expect("table 2 profiles"));
    core.set_fast_forward(fast);
    core
}

/// One fast/slow pair over a workload × policy, diffed on every
/// observable surface at once.
fn assert_equivalent(w: &SmtWorkload, policy: FetchPolicyKind, budget: SimBudget) {
    let mut fast = core_for(w, policy, true);
    let mut slow = core_for(w, policy, false);
    assert!(fast.fast_forward() && !slow.fast_forward());
    for core in [&mut fast, &mut slow] {
        core.enable_telemetry(512);
        #[cfg(feature = "trace")]
        core.enable_tracing(sim_pipeline::TraceConfig {
            capacity: 1 << 14,
            sample_interval: 64,
        });
    }
    let rf = fast.run(budget);
    let rs = slow.run(budget);
    let ctx = format!("{} / {policy:?}", w.name);
    assert_eq!(rf, rs, "SimResult diverged: {ctx}");
    assert_eq!(fast.cycle(), slow.cycle(), "final cycle diverged: {ctx}");
    assert_eq!(
        fast.total_committed(),
        slow.total_committed(),
        "commit count diverged: {ctx}"
    );
    assert_eq!(
        fast.take_telemetry(),
        slow.take_telemetry(),
        "telemetry windows diverged: {ctx}"
    );
    #[cfg(feature = "trace")]
    assert_eq!(
        fast.take_trace(),
        slow.take_trace(),
        "trace events diverged: {ctx}"
    );
}

#[test]
fn memory_bound_mix_is_bit_identical() {
    // The richest skipping opportunity: every thread stalled on L2 misses
    // for long spans. ICOUNT and FLUSH exercise different squash paths.
    let w = workload("4T-MEM-A");
    let budget = SimBudget::total_instructions(8_000).with_warmup(2_000);
    assert_equivalent(&w, FetchPolicyKind::Icount, budget);
    assert_equivalent(&w, FetchPolicyKind::Flush, budget);
}

#[test]
fn mixed_and_cpu_bound_mixes_are_bit_identical() {
    // Few quiescent spans — the predicate must stay conservative without
    // ever mis-skipping.
    let budget = SimBudget::total_instructions(8_000).with_warmup(2_000);
    assert_equivalent(&workload("4T-MIX-A"), FetchPolicyKind::Icount, budget);
    assert_equivalent(&workload("2T-CPU-A"), FetchPolicyKind::Flush, budget);
}

#[test]
fn sfi_campaign_records_are_identical_at_1_2_4_workers() {
    // Fault injections, hang verdicts and convergence checks all bound
    // the clock jumps, so SFI campaign records must be bit-identical with
    // fast-forwarding on or off — at every worker count. The oracle side
    // is the cycle-by-cycle scalar path; the fast side runs the library
    // defaults (fast-forward on, lane-batched).
    let w = workload("2T-MIX-A");
    let cfg = MachineConfig::ispass07_baseline().with_contexts(w.contexts);
    let gens = workload_generators(&w).expect("table 2 profiles");
    let factory = move || SmtCore::new(cfg.clone(), gens.clone());

    let budget = SimBudget::total_instructions(2_500).with_warmup(1_000);
    let campaign = |workers: usize, fast: bool| {
        let mut c = CampaignConfig::new(5, 0xFA57_F0D0, budget);
        c.workers = workers;
        if !fast {
            c.path = TrialPath::CycleByCycle;
        }
        run_campaign(&factory, &c).expect("campaign runs")
    };

    let oracle = campaign(1, false);
    for workers in [1, 2, 4] {
        let fast = campaign(workers, true);
        assert_eq!(
            oracle.window, fast.window,
            "golden window diverged at {workers} workers"
        );
        assert_eq!(
            oracle.records, fast.records,
            "SFI records diverged at {workers} workers"
        );
        assert_eq!(
            oracle.per_target, fast.per_target,
            "outcome tallies diverged at {workers} workers"
        );
    }
}
