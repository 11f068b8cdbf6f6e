//! Regenerate every table and figure in sequence (the EXPERIMENTS.md
//! source of truth), or one named experiment: `all fig1`, `all table2`,
//! ... (see `smt_avf_bench::EXPERIMENTS`). Set `SMT_AVF_SCALE=paper` for
//! the longest runs.
use smt_avf::experiments as ex;

fn main() {
    if let Some(name) = std::env::args().nth(1) {
        smt_avf_bench::run_experiment(&name);
        return;
    }
    let scale = smt_avf_bench::scale_from_env();
    let t0 = std::time::Instant::now();
    println!("{}", ex::table1());
    println!("{}", ex::table2_listing());
    println!("{}", ex::figure1(scale).expect("experiment failed"));
    println!("{}", ex::figure2(scale).expect("experiment failed"));
    for t in ex::figure3(scale).expect("experiment failed") {
        println!("{t}");
    }
    for t in ex::figure4(scale).expect("experiment failed") {
        println!("{t}");
    }
    let (a, b) = ex::figure5(scale).expect("experiment failed");
    println!("{a}\n{b}");
    // Share one policy sweep between Figures 6, 7 and 8.
    let sweep = ex::policy_sweep(&[4, 8], scale).expect("experiment failed");
    for t in ex::fig6::figure6_from(&sweep) {
        println!("{t}");
    }
    println!("{}", ex::fig7::figure7_from(&sweep));
    let (a, b) = ex::fig8::figure8_from(&sweep, scale).expect("experiment failed");
    println!("{a}\n{b}");
    println!("{}", ex::extensions(scale).expect("experiment failed"));
    smt_avf_bench::maybe_trace(scale);
    eprintln!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}
