//! Sharing one run table never changes what an experiment prints: every
//! registry experiment renders byte-identical output on a fresh table and
//! after every other experiment on one shared table. A run key that
//! ignored part of the run input (a seed, the budget, `iq_partitioned`)
//! would hand one experiment another's results and fail here.

use smt_avf::experiments::Runs;
use smt_avf_bench::{bench_scale, EXPERIMENTS};

#[test]
fn every_experiment_renders_the_same_on_a_fresh_and_a_shared_table() {
    let scale = bench_scale();
    let mut shared = Runs::new(scale);
    for e in EXPERIMENTS {
        (e.run)(&mut shared).expect("experiment runs");
    }
    let simulated = shared.simulations();
    for e in EXPERIMENTS {
        let fresh = (e.run)(&mut Runs::new(scale)).expect("experiment runs");
        let after_all = (e.run)(&mut shared).expect("experiment runs");
        assert_eq!(after_all, fresh, "{} after every other experiment", e.name);
    }
    assert_eq!(
        shared.simulations(),
        simulated,
        "a full table answers every request without simulating"
    );
}
