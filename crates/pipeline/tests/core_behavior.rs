//! Behavioral tests of the SMT core: progress, squash/replay correctness,
//! policy effects, and the Section 5 extension features.

use avf_core::StructureId;
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::{SimBudget, SimResult, SmtCore};
use sim_workload::{profile, TraceGenerator};

fn gens(programs: &[&str]) -> Vec<TraceGenerator> {
    programs
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("known benchmark"), i as u64 + 1))
        .collect()
}

fn run(cfg: MachineConfig, programs: &[&str], n: u64) -> SimResult {
    let mut core = SmtCore::new(cfg, gens(programs));
    core.run(SimBudget::total_instructions(n).with_warmup(n / 2))
}

#[test]
fn superscalar_cpu_workload_reaches_sane_ipc() {
    // Gshare needs a few hundred thousand instructions to converge (it is
    // warming 2K counters × history contexts), as on real hardware.
    let mut core = SmtCore::new(MachineConfig::ispass07_baseline(), gens(&["bzip2"]));
    let r = core.run(SimBudget::total_instructions(100_000).with_warmup(300_000));
    assert!(
        r.ipc() > 1.2 && r.ipc() < 8.0,
        "bzip2 ST IPC out of range: {}",
        r.ipc()
    );
    assert!(r.threads[0].mispredict_rate < 0.25);
    assert!(r.dl1_miss_rate < 0.25);
}

#[test]
fn memory_workload_is_memory_bound() {
    let r = run(MachineConfig::ispass07_baseline(), &["mcf"], 8_000);
    assert!(r.ipc() < 0.5, "mcf should crawl: IPC {}", r.ipc());
    assert!(r.l2_miss_rate > 0.2, "mcf should miss the L2 often");
}

#[test]
fn smt_throughput_exceeds_best_single_thread() {
    let progs = ["bzip2", "eon", "gcc", "perlbmk"];
    let smt = run(
        MachineConfig::ispass07_baseline().with_contexts(4),
        &progs,
        40_000,
    );
    let best_st = progs
        .iter()
        .map(|p| run(MachineConfig::ispass07_baseline(), &[p], 10_000).ipc())
        .fold(0.0_f64, f64::max);
    assert!(smt.ipc() > best_st);
}

#[test]
fn wrong_path_work_exists_but_never_commits() {
    let r = run(MachineConfig::ispass07_baseline(), &["gcc"], 20_000);
    // gcc mispredicts, so wrong-path micro-ops must have been fetched and
    // squashed...
    assert!(r.threads[0].wrong_path_fetched > 0);
    assert!(r.threads[0].squashed > 0);
    // ...and the committed count matches the budget exactly as measured.
    assert!(r.report.total_committed() >= 20_000);
}

#[test]
fn flush_policy_squashes_and_replays_correctly() {
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(2)
        .with_fetch_policy(FetchPolicyKind::Flush);
    let r = run(cfg, &["mcf", "swim"], 10_000);
    // FLUSH squashes massively on memory-bound threads...
    assert!(
        r.threads.iter().map(|t| t.squashed).sum::<u64>() > 1_000,
        "FLUSH should squash plenty of work"
    );
    // ...yet the run still commits its full measured budget (replay works).
    assert!(r.report.total_committed() >= 10_000);
}

#[test]
fn flush_from_offender_variant_also_makes_progress() {
    let mut cfg = MachineConfig::ispass07_baseline()
        .with_contexts(2)
        .with_fetch_policy(FetchPolicyKind::Flush);
    cfg.flush_from_offender = true;
    let r = run(cfg, &["mcf", "swim"], 8_000);
    assert!(r.report.total_committed() >= 8_000);
}

#[test]
fn pstall_extension_runs_and_gates_earlier_than_stall() {
    let progs = ["mcf", "equake", "vpr", "swim"];
    let stall = run(
        MachineConfig::ispass07_baseline()
            .with_contexts(4)
            .with_fetch_policy(FetchPolicyKind::Stall),
        &progs,
        20_000,
    );
    let pstall = run(
        MachineConfig::ispass07_baseline()
            .with_contexts(4)
            .with_fetch_policy(FetchPolicyKind::PredictiveStall),
        &progs,
        20_000,
    );
    assert!(pstall.report.total_committed() >= 20_000);
    // Gating earlier keeps more long-latency ACE bits out of the pipeline:
    // PSTALL's IQ AVF should not exceed STALL's by much.
    let s = stall.report.structure(StructureId::Iq).avf;
    let p = pstall.report.structure(StructureId::Iq).avf;
    assert!(
        p < s * 1.15,
        "PSTALL IQ AVF ({p:.3}) should be at or below STALL's ({s:.3})"
    );
}

#[test]
fn static_iq_partitioning_caps_per_thread_occupancy() {
    let progs = ["mcf", "bzip2"];
    let mut cfg = MachineConfig::ispass07_baseline().with_contexts(2);
    cfg.iq_partitioned = true;
    let part = run(cfg, &progs, 16_000);
    let shared = run(
        MachineConfig::ispass07_baseline().with_contexts(2),
        &progs,
        16_000,
    );
    // With partitioning, the memory-bound thread cannot clog the whole IQ:
    // its IQ AVF contribution drops relative to free sharing.
    let mcf_part = part.report.structure(StructureId::Iq).per_thread[0];
    let mcf_shared = shared.report.structure(StructureId::Iq).per_thread[0];
    assert!(
        mcf_part < mcf_shared,
        "partitioning should cap mcf's IQ occupancy: {mcf_part:.3} !< {mcf_shared:.3}"
    );
    assert!(part.report.total_committed() >= 16_000);
}

#[test]
fn raft_extension_reduces_iq_vulnerability_on_mixed_workloads() {
    // Needs warm predictors: the quota-throttling signal is noise until
    // the MEM threads' IQ residency pattern stabilizes.
    let progs = ["bzip2", "eon", "mcf", "vpr"];
    let budget = SimBudget::total_instructions(60_000).with_warmup(60_000);
    let run_policy = |policy| {
        let cfg = MachineConfig::ispass07_baseline()
            .with_contexts(4)
            .with_fetch_policy(policy);
        let mut core = SmtCore::new(cfg, gens(&progs));
        core.run(budget)
    };
    let icount = run_policy(FetchPolicyKind::Icount);
    let raft = run_policy(FetchPolicyKind::VulnerabilityAware);
    let a = icount.report.structure(StructureId::Iq).avf;
    let b = raft.report.structure(StructureId::Iq).avf;
    assert!(
        b < a,
        "RAFT should lower IQ AVF vs ICOUNT on a MIX workload: {b:.3} !< {a:.3}"
    );
    assert!(
        raft.ipc() > icount.ipc() * 0.9,
        "RAFT should not sacrifice throughput: {:.2} vs {:.2}",
        raft.ipc(),
        icount.ipc()
    );
    assert!(raft.report.total_committed() >= 60_000);
}

#[test]
fn eight_context_machine_runs_every_policy() {
    let progs = [
        "mcf", "twolf", "swim", "lucas", "equake", "applu", "vpr", "mgrid",
    ];
    for policy in FetchPolicyKind::STUDIED
        .into_iter()
        .chain(FetchPolicyKind::EXTENSIONS)
    {
        let cfg = MachineConfig::ispass07_baseline()
            .with_contexts(8)
            .with_fetch_policy(policy);
        let r = run(cfg, &progs, 16_000);
        assert!(
            r.report.total_committed() >= 16_000,
            "{policy:?} failed to make progress"
        );
    }
}

#[test]
fn recorded_traces_drive_the_core_through_the_inst_source_trait() {
    use sim_workload::RecordedTrace;
    let mut g1 = TraceGenerator::new(profile("bzip2").unwrap(), 1);
    let mut g2 = TraceGenerator::new(profile("twolf").unwrap(), 2);
    let traces = vec![
        RecordedTrace::record(&mut g1, 5_000),
        RecordedTrace::record(&mut g2, 5_000),
    ];
    let cfg = MachineConfig::ispass07_baseline().with_contexts(2);
    let mut core: SmtCore<RecordedTrace> = SmtCore::new(cfg, traces);
    let r = core.run(SimBudget::total_instructions(20_000).with_warmup(10_000));
    assert!(r.report.total_committed() >= 20_000);
    assert!(r.ipc() > 0.1);
    assert_eq!(r.threads[0].name, "bzip2");
    assert_eq!(r.threads[1].name, "twolf");
}

#[test]
fn replaying_a_recording_is_deterministic() {
    use sim_workload::RecordedTrace;
    let run = || {
        let mut g = TraceGenerator::new(profile("eon").unwrap(), 4);
        let trace = RecordedTrace::record(&mut g, 3_000);
        let cfg = MachineConfig::ispass07_baseline();
        let mut core: SmtCore<RecordedTrace> = SmtCore::new(cfg, vec![trace]);
        core.run(SimBudget::total_instructions(9_000))
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn step_and_introspection_api() {
    let cfg = MachineConfig::ispass07_baseline();
    let mut core = SmtCore::new(cfg, gens(&["eon"]));
    assert_eq!(core.cycle(), 0);
    for _ in 0..500 {
        core.step();
    }
    assert_eq!(core.cycle(), 500);
    assert!(core.total_committed() > 0, "500 cycles should commit work");
    assert_eq!(core.config().contexts, 1);
}

#[test]
#[should_panic(expected = "need exactly one trace per context")]
fn mismatched_thread_count_is_rejected() {
    let cfg = MachineConfig::ispass07_baseline().with_contexts(2);
    let _ = SmtCore::new(cfg, gens(&["bzip2"]));
}

#[test]
#[should_panic(expected = "physical register pools too small")]
fn undersized_register_pool_is_rejected() {
    let mut cfg = MachineConfig::ispass07_baseline().with_contexts(8);
    cfg.int_phys_regs = 200; // < 8 * 32 + 8
    let _ = SmtCore::new(cfg, gens(&["bzip2"; 8]));
}
