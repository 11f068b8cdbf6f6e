//! A decoded job spec's worker count never sizes a thread pool past the
//! host: `run_chunks` clamps it, and the records do not depend on it.

use sim_inject::{CampaignConfig, PreparedCampaign, TrialPath};
use sim_model::MachineConfig;
use sim_pipeline::{FaultTarget, SimBudget, SmtCore};
use sim_store::{run_chunks, ChunkPlan, ObjectId};
use sim_workload::{profile, TraceGenerator};

fn factory() -> SmtCore {
    let cfg = MachineConfig::ispass07_baseline().with_contexts(2);
    let gens = ["bzip2", "mcf"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("profiled"), i as u64 + 7))
        .collect();
    SmtCore::new(cfg, gens)
}

#[test]
fn hostile_worker_count_is_clamped_to_host_parallelism() {
    // Scalar trials are one pool job each, so an unclamped pool starts one
    // thread per trial; eight trials keep even that to a handful.
    let budget = SimBudget::total_instructions(2_500).with_warmup(1_000);
    let mut cfg = CampaignConfig::new(4, 0xC0FFEE, budget);
    cfg.targets = vec![FaultTarget::Iq, FaultTarget::Rob];
    cfg.path = TrialPath::Scalar;
    let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("campaign prepares");
    let plan = ChunkPlan {
        index: 0,
        start: 0,
        len: prepared.total_trials(),
    };
    assert_eq!(plan.len, 8);
    let job = ObjectId::of(b"chunk-workers");
    let serial = run_chunks(&prepared, &factory, job, &[plan], 1);
    sim_trace::metrics::set_enabled(true);
    let hostile = run_chunks(&prepared, &factory, job, &[plan], usize::MAX);
    sim_trace::metrics::set_enabled(false);
    assert_eq!(hostile, serial, "records are worker-count-invariant");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = sim_trace::metrics::global().gauge("campaign.workers").get();
    assert_eq!(workers, host.min(plan.len) as i64, "pool sized by the host");
}
