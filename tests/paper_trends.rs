//! End-to-end checks of the paper's headline directional results at a
//! reduced scale. These are the "shape" guarantees EXPERIMENTS.md records
//! at full scale.

use smt_avf::experiments::{policy_key, Runs};
use smt_avf::prelude::*;
use std::sync::Mutex;

fn scale() -> ExperimentScale {
    ExperimentScale::quick()
}

/// The quick-scale table every `mix_avg` call shares, so each distinct
/// simulation runs once per test binary.
static RUNS: Mutex<Option<Runs>> = Mutex::new(None);

fn mix_avg(contexts: usize, mix: &str, s: StructureId) -> f64 {
    let keys: Vec<_> = table2()
        .into_iter()
        .filter(|w| w.contexts == contexts && w.mix.to_string() == mix)
        .map(|w| policy_key(&w, FetchPolicyKind::Icount, scale()))
        .collect();
    let runs = RUNS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_or_insert_with(|| Runs::new(scale()))
        .results(&keys)
        .unwrap();
    runs.iter().map(|r| r.report.structure(s).avf).sum::<f64>() / runs.len() as f64
}

#[test]
fn memory_bound_workloads_raise_iq_vulnerability() {
    // Paper, Figure 1: "memory-bound workloads increase the AVF ... of the
    // IQ" (+58% reported).
    let cpu = mix_avg(4, "CPU", StructureId::Iq);
    let mem = mix_avg(4, "MEM", StructureId::Iq);
    assert!(
        mem > cpu * 1.1,
        "MEM IQ AVF ({mem:.3}) should clearly exceed CPU ({cpu:.3})"
    );
}

#[test]
fn memory_bound_workloads_lower_fu_and_dl1_data_vulnerability() {
    // Paper, Figure 1: "the AVFs of the function unit and the DL1 data
    // array are reduced in MEM workloads".
    let fu_cpu = mix_avg(4, "CPU", StructureId::Fu);
    let fu_mem = mix_avg(4, "MEM", StructureId::Fu);
    assert!(fu_mem < fu_cpu, "FU: MEM {fu_mem:.3} !< CPU {fu_cpu:.3}");
    let d_cpu = mix_avg(4, "CPU", StructureId::Dl1Data);
    let d_mem = mix_avg(4, "MEM", StructureId::Dl1Data);
    assert!(d_mem < d_cpu, "DL1 data: MEM {d_mem:.3} !< CPU {d_cpu:.3}");
}

#[test]
fn dl1_tag_is_more_vulnerable_than_dl1_data() {
    // Paper, Figure 1: "the DL1 tag exhibits a higher vulnerability than
    // the DL1 data array".
    for mix in ["CPU", "MIX", "MEM"] {
        let tag = mix_avg(4, mix, StructureId::Dl1Tag);
        let data = mix_avg(4, mix, StructureId::Dl1Data);
        assert!(tag > data, "{mix}: tag {tag:.3} !> data {data:.3}");
    }
}

#[test]
fn shared_iq_vulnerability_grows_with_thread_count() {
    // Paper, Figure 5: "shared structures such as the IQ show a steady
    // increase in AVF as more threads are added".
    for mix in ["CPU", "MEM"] {
        let two = mix_avg(2, mix, StructureId::Iq);
        let eight = mix_avg(8, mix, StructureId::Iq);
        assert!(
            eight > two,
            "{mix}: IQ AVF at 8T ({eight:.3}) !> 2T ({two:.3})"
        );
    }
}

#[test]
fn register_file_vulnerability_rises_from_2_to_4_contexts() {
    // Paper, Figure 5: "the AVF of the register file increases rapidly
    // from 2-context to 4-context workloads".
    for mix in ["CPU", "MEM"] {
        let two = mix_avg(2, mix, StructureId::RegFile);
        let four = mix_avg(4, mix, StructureId::RegFile);
        assert!(
            four > two,
            "{mix}: Reg AVF at 4T ({four:.3}) !> 2T ({two:.3})"
        );
    }
}

#[test]
fn flush_reduces_iq_rob_lsq_and_raises_fu_dl1_on_mem() {
    // Paper, Section 4.3: FLUSH collapses IQ/ROB/LSQ AVF ("only about 50%
    // of the AVF under other fetch policies") and can increase FU / data
    // cache AVF.
    let w = table2().into_iter().find(|w| w.name == "4T-MEM-A").unwrap();
    let icount = run_workload(&w, FetchPolicyKind::Icount, scale().budget(4)).unwrap();
    let flush = run_workload(&w, FetchPolicyKind::Flush, scale().budget(4)).unwrap();
    for s in [StructureId::Iq, StructureId::Rob, StructureId::LsqTag] {
        let a = icount.report.structure(s).avf;
        let b = flush.report.structure(s).avf;
        assert!(b < a, "{s}: FLUSH {b:.3} !< ICOUNT {a:.3}");
    }
}

#[test]
fn smt_outperforms_sequential_execution_in_throughput() {
    // The premise of the study: SMT delivers higher throughput than the
    // same threads run back-to-back.
    let w = table2().into_iter().find(|w| w.name == "4T-CPU-A").unwrap();
    let smt = run_workload(&w, FetchPolicyKind::Icount, scale().budget(4)).unwrap();
    let st_ipcs: Vec<f64> = w
        .programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            run_single_thread(p, smt_avf::workload_seed(&w, i), scale().budget(1))
                .unwrap()
                .ipc()
        })
        .collect();
    let best_st = st_ipcs.iter().cloned().fold(0.0_f64, f64::max);
    assert!(
        smt.ipc() > best_st,
        "SMT IPC ({:.2}) should exceed any single thread ({best_st:.2})",
        smt.ipc()
    );
}

#[test]
fn stall_never_starves_all_threads() {
    // STALL "always allows at least one thread to continue fetching": the
    // all-MEM 8-thread workload must still make progress.
    let w = table2().into_iter().find(|w| w.name == "8T-MEM-A").unwrap();
    let r = run_workload(&w, FetchPolicyKind::Stall, scale().budget(8)).unwrap();
    assert!(r.report.total_committed() > 0);
    assert!(r.ipc() > 0.01);
}
