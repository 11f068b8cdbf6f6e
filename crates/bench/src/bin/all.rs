//! Regenerate every table and figure in sequence (the EXPERIMENTS.md
//! source of truth), or one named experiment: `all fig1`, `all table2`,
//! ... (see `smt_avf_bench::EXPERIMENTS`). Set `SMT_AVF_SCALE=paper` for
//! the longest runs.

fn main() {
    let t0 = std::time::Instant::now();
    let runs = match std::env::args().nth(1) {
        Some(name) => smt_avf_bench::run_experiments(&[&name]),
        None => smt_avf_bench::run_experiments(&smt_avf_bench::all()),
    };
    eprintln!(
        "total wall time: {:.1}s, {} simulations",
        t0.elapsed().as_secs_f64(),
        runs.simulations()
    );
}
