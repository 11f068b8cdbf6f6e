//! One bench per registry experiment: the cost of regenerating it from
//! scratch at a micro scale, on a fresh run table per sample (the `all`
//! binary produces the full-scale numbers).

use smt_avf::experiments::Runs;
use smt_avf_bench::timing::bench_case;
use smt_avf_bench::{bench_scale, EXPERIMENTS};
use std::hint::black_box;

fn main() {
    for e in EXPERIMENTS {
        // Tables render without simulating; the figures are far heavier.
        let samples = if e.name.starts_with("table") { 20 } else { 5 };
        bench_case("experiments", e.name, samples, || {
            black_box((e.run)(&mut Runs::new(bench_scale())).expect("experiment failed"))
        });
    }
}
