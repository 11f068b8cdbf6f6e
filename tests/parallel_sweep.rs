//! The run table's worker pool must be a pure speedup: for a fixed seed
//! the merged results — including every `AvfReport` — are bit-identical
//! to the serial (1-worker) reference at any worker count. And the table
//! keys on the whole run input, so it never answers one run with another.

use smt_avf::experiments::{policy_key, Runs};
use smt_avf::prelude::*;

fn mix(name: &str) -> SmtWorkload {
    table2().into_iter().find(|w| w.name == name).unwrap()
}

#[test]
fn parallel_sweep_matches_serial_at_any_worker_count() {
    // Two mixes (CPU-bound and memory-bound) under two policies: enough
    // jobs that 2 and 4 workers genuinely interleave completions.
    let jobs: Vec<(SmtWorkload, FetchPolicyKind)> = [mix("2T-CPU-A"), mix("2T-MEM-A")]
        .into_iter()
        .flat_map(|w| {
            [
                (w.clone(), FetchPolicyKind::Icount),
                (w, FetchPolicyKind::Flush),
            ]
        })
        .collect();
    let scale = ExperimentScale::quick();
    let keys: Vec<_> = jobs
        .iter()
        .map(|(w, policy)| policy_key(w, *policy, scale))
        .collect();
    let sweep = |workers| Runs::with_workers(scale, workers).results(&keys).unwrap();

    let serial = sweep(1);
    assert_eq!(serial.len(), jobs.len());

    for workers in [2, 4] {
        let parallel = sweep(workers);
        assert_eq!(parallel.len(), serial.len(), "{workers} workers");
        for ((s, p), (w, policy)) in serial.iter().zip(&parallel).zip(&jobs) {
            assert_eq!(
                (s.policy, p.policy),
                (*policy, *policy),
                "{workers} workers"
            );
            // Bit-identical runs: same cycle count, same per-thread stats,
            // and the same AvfReport down to every residency-derived field.
            assert_eq!(
                s.cycles, p.cycles,
                "{}/{policy:?} at {workers} workers",
                w.name
            );
            assert_eq!(
                s.threads, p.threads,
                "{}/{policy:?} at {workers} workers",
                w.name
            );
            assert_eq!(
                s.report, p.report,
                "{}/{policy:?} at {workers} workers",
                w.name
            );
        }
    }
}

#[test]
fn runs_key_on_the_full_run_input() {
    // Keys differing only in `iq_partitioned`, one seed or the budget
    // are distinct runs, and every answer equals a direct simulation.
    let scale = ExperimentScale {
        warmup_per_thread: 1_000,
        measure_per_thread: 2_000,
    };
    let base = policy_key(&mix("2T-MIX-A"), FetchPolicyKind::Icount, scale);
    let mut partitioned = base.clone();
    partitioned.cfg.iq_partitioned = true;
    let mut reseeded = base.clone();
    reseeded.contexts[1].1 += 1;
    let mut longer = base.clone();
    longer.budget = scale.budget(3);
    let keys = [base.clone(), partitioned, reseeded, longer, base];
    let mut runs = Runs::with_workers(scale, 2);
    let results = runs.results(&keys).unwrap();
    assert_eq!(runs.simulations(), 4);
    for (key, result) in keys.iter().zip(&results) {
        assert_eq!(result, &key.run().unwrap());
    }
    assert_eq!(results[0], results[4]);
    assert_eq!(runs.results(&keys).unwrap(), results);
    assert_eq!(
        runs.simulations(),
        4,
        "a repeated request simulates nothing"
    );
}
