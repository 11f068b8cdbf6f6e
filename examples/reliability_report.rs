//! Whole-processor reliability report: overall bit-weighted AVF, FIT and
//! MTTF estimation (paper Section 2's weighted-sum method), and the
//! windowed AVF time series that shows phase behavior.
//!
//! ```sh
//! cargo run --release --example reliability_report
//! ```

use avf_core::{fit_estimate, overall_avf, StructureId};
use smt_avf::prelude::*;
use smt_avf::workload_seed;

fn main() {
    let workload = table2()
        .into_iter()
        .find(|w| w.name == "2T-MIX-A")
        .expect("Table 2 contains 2T-MIX-A");
    let cfg = MachineConfig::ispass07_baseline().with_contexts(2);
    let gens = workload
        .programs
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).unwrap(), workload_seed(&workload, i)))
        .collect();
    let mut core = SmtCore::new(cfg, gens);
    core.enable_telemetry(20_000);
    let result = core.run(SimBudget::total_instructions(200_000).with_warmup(100_000));

    println!("workload {} — IPC {:.2}\n", workload.name, result.ipc());

    // Whole-processor estimate at a typical mid-2000s raw rate.
    let raw_fit_per_bit = 0.001;
    println!(
        "overall bit-weighted AVF: {:.2}%",
        overall_avf(&result.report) * 100.0
    );
    let est = fit_estimate(&result.report, raw_fit_per_bit);
    println!(
        "estimated FIT @ {raw_fit_per_bit} FIT/bit: {:.1}  (MTTF ≈ {:.0} years)",
        est.total_fit,
        est.mttf_hours / (24.0 * 365.0)
    );
    println!("\nper-structure FIT contributions:");
    let mut by_fit = est.per_structure.clone();
    by_fit.sort_by(|a, b| b.fit.partial_cmp(&a.fit).unwrap());
    for s in by_fit.iter().take(5) {
        println!("  {:<9} {:>8.2} FIT", s.structure.label(), s.fit);
    }

    // Phase behavior: IQ AVF over time.
    if let Some(windows) = core.take_telemetry() {
        println!("\nIQ AVF phase behavior ({} windows):", windows.len());
        for p in windows.iter().take(20) {
            let v = p.structure_avf(StructureId::Iq);
            let bar = "#".repeat((v * 60.0) as usize);
            println!(
                "  [{:>8}..{:>8}] {:>5.1}% {bar}",
                p.start_cycle,
                p.end_cycle,
                v * 100.0
            );
        }
    }
}
