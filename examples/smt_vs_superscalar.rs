//! SMT vs. superscalar: replay each thread of an SMT workload alone, for
//! exactly the work it completed under SMT, and compare per-thread and
//! aggregate vulnerability (the Figure 3/4 experiment).
//!
//! ```sh
//! cargo run --release --example smt_vs_superscalar
//! ```

use smt_avf::experiments::{smt_thread_avf, st_comparisons, Runs};
use smt_avf::prelude::*;

fn main() {
    let workload = table2()
        .into_iter()
        .find(|w| w.name == "4T-CPU-A")
        .expect("Table 2 contains 4T-CPU-A");
    let scale = ExperimentScale {
        warmup_per_thread: 30_000,
        measure_per_thread: 50_000,
    };
    println!(
        "Comparing {} threads alone vs. concurrently...\n",
        workload.name
    );
    let c = st_comparisons(&mut Runs::new(scale), &[workload])
        .expect("table2 programs are profiled")
        .remove(0);

    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9}",
        "thread", "IQ ST", "IQ SMT", "ROB ST", "ROB SMT"
    );
    for (i, prog) in c.workload.programs.iter().enumerate() {
        println!(
            "{:<12} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            format!("{prog}[{i}]"),
            c.st[i].report.structure(StructureId::Iq).avf * 100.0,
            smt_thread_avf(&c.smt, StructureId::Iq, i) * 100.0,
            c.st[i].report.structure(StructureId::Rob).avf * 100.0,
            smt_thread_avf(&c.smt, StructureId::Rob, i) * 100.0,
        );
    }
    let weighted_iq: f64 = {
        let work: Vec<f64> = (0..4).map(|i| c.smt.report.committed()[i] as f64).collect();
        let total: f64 = work.iter().sum();
        (0..4)
            .map(|i| c.st[i].report.structure(StructureId::Iq).avf * work[i] / total)
            .sum()
    };
    println!(
        "\naggregate IQ AVF: sequential (work-weighted) {:.2}%  vs  SMT {:.2}%",
        weighted_iq * 100.0,
        c.smt.report.structure(StructureId::Iq).avf * 100.0
    );
    println!(
        "\nExpected shape (paper, Section 4.1): each *individual* thread is\n\
         less vulnerable under SMT (it holds fewer resources), while the\n\
         *aggregate* SMT vulnerability exceeds sequential execution."
    );
}
