//! The trial executor over sets of ranges: `run_trials` on any ascending,
//! disjoint set of chunk ranges — contiguous, or with the holes a resume
//! leaves — must return exactly the execs the per-chunk calls return, and
//! the records `run_campaign` produces for those trials, on every trial
//! path. Batches span the ranges of one call, so this is what lets a
//! stored job's stream compute a whole claim of chunks in one follower
//! walk without moving a byte.

use sim_inject::*;
use sim_model::MachineConfig;
use sim_pipeline::{SimBudget, SmtCore};
use sim_workload::{profile, TraceGenerator};
use std::ops::Range;

fn factory() -> SmtCore {
    let cfg = MachineConfig::ispass07_baseline().with_contexts(2);
    let gens = ["bzip2", "mcf"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("profiled"), i as u64 + 7))
        .collect();
    SmtCore::new(cfg, gens)
}

/// `trials` per target on IQ, ROB and the register file.
fn campaign(trials: usize, budget: SimBudget, path: TrialPath) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(trials, 0x0C4A_15E7, budget);
    cfg.targets = vec![FaultTarget::Iq, FaultTarget::Rob, FaultTarget::RegFile];
    cfg.workers = 2;
    cfg.path = path;
    cfg
}

/// Chunk `i` of `total` trials in chunks of `per` (the last may be short).
fn chunk(i: usize, per: usize, total: usize) -> Range<usize> {
    i * per..((i + 1) * per).min(total)
}

/// Hold every chunk set in `sets` to per-chunk calls and to the campaign.
fn check(cfg: &CampaignConfig, per: usize, sets: &[&[usize]]) {
    let label = format!("{:?}", cfg.path);
    let reference = run_campaign(factory, cfg).expect("campaign runs").records;
    let prepared = PreparedCampaign::prepare(&factory, cfg).expect("prepare");
    let total = prepared.total_trials();
    assert_eq!(reference.len(), total);
    let chunks = total.div_ceil(per);
    let per_chunk: Vec<Vec<TrialExec>> = (0..chunks)
        .map(|i| {
            let r = chunk(i, per, total);
            run_trials_batched_full(&prepared, &factory, r.start, r.len(), cfg.workers).0
        })
        .collect();
    for &set in sets {
        let ranges: Vec<Range<usize>> = set.iter().map(|&i| chunk(i, per, total)).collect();
        let (execs, _, lane_stats) = run_trials(&prepared, &factory, &ranges, cfg.workers);
        assert_eq!(
            lane_stats.is_some(),
            cfg.path.lanes().is_some() && !set.is_empty(),
            "{label} {set:?}: only a batched, nonempty set tallies lanes"
        );
        let expected: Vec<TrialExec> = set.iter().flat_map(|&i| per_chunk[i].clone()).collect();
        assert_eq!(execs, expected, "{label} {set:?}: per-chunk execs");
        let records: Vec<TrialRecord> = ranges
            .iter()
            .flat_map(|r| reference[r.clone()].iter().copied())
            .collect();
        let got: Vec<TrialRecord> = execs.iter().map(|e| e.record).collect();
        assert_eq!(got, records, "{label} {set:?}: campaign records");
    }
}

#[test]
fn range_sets_match_per_chunk_calls_and_the_campaign_on_every_path() {
    // 3 × 10 = 30 trials in chunks of 4: seven of 4, then one of 2.
    let budget = SimBudget::total_instructions(2_500).with_warmup(1_000);
    let sets: &[&[usize]] = &[
        &[0, 1, 2, 3, 4, 5, 6, 7],
        &[2, 3, 4],
        &[0, 2, 3, 5, 7],
        &[1, 6],
        &[7],
        &[],
    ];
    for path in [
        TrialPath::default(),
        TrialPath::Batched { lanes: 4 },
        TrialPath::Scalar,
        TrialPath::CycleByCycle,
    ] {
        check(&campaign(10, budget, path), 4, sets);
    }
}

#[test]
fn range_sets_match_on_the_replay_from_zero_oracle() {
    // Slow path, small budget: 3 × 3 = 9 trials in chunks of 2.
    let budget = SimBudget::total_instructions(1_200).with_warmup(500);
    let sets: &[&[usize]] = &[&[0, 1, 2, 3, 4], &[0, 2, 4], &[3]];
    check(&campaign(3, budget, TrialPath::ReplayFromZero), 2, sets);
}

#[test]
#[should_panic(expected = "must ascend")]
fn overlapping_ranges_are_refused() {
    let budget = SimBudget::total_instructions(1_200).with_warmup(500);
    let cfg = campaign(2, budget, TrialPath::default());
    let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepare");
    run_trials(&prepared, &factory, &[0..3, 2..4], 1);
}
