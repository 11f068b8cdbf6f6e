//! The stored-job driver against fake in-memory shards, next to the
//! parent's own compute stream: an honest shard publishes the bytes an
//! unsharded run does, a reply for the wrong chunk slot fails the job
//! before that reply or a result is published, and a shard whose greeting
//! carries another golden fingerprint fails the job before any stream is
//! handed a single chunk.

mod common;

use common::TempStore;
use sim_inject::{CampaignConfig, PreparedCampaign};
use sim_model::MachineConfig;
use sim_pipeline::{FaultTarget, SimBudget, SmtCore};
use sim_store::campaign::result_ref;
use sim_store::{
    run_campaign_stored, run_chunk, CampaignStoreError, ChunkPlan, ChunkRecord, GoldenFingerprint,
    JobSpec, Shard, Shards, Store,
};
use sim_workload::{profile, TraceGenerator};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn factory() -> SmtCore {
    let cfg = MachineConfig::ispass07_baseline().with_contexts(2);
    let gens = ["bzip2", "mcf"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("profiled"), i as u64 + 7))
        .collect();
    SmtCore::new(cfg, gens)
}

/// Eight trials in chunks of 3, 3 and 2.
fn spec() -> JobSpec {
    let budget = SimBudget::total_instructions(2_500).with_warmup(1_000);
    let mut cfg = CampaignConfig::new(4, 0x5EED, budget);
    cfg.targets = vec![FaultTarget::Iq, FaultTarget::Rob];
    cfg.workers = 1;
    JobSpec {
        name: "fake-shards".to_string(),
        workload: "2T bzip2+mcf".to_string(),
        cfg,
        chunk_trials: 3,
    }
}

fn fresh_store(tag: &str) -> TempStore {
    common::fresh_store("shards", tag)
}

#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    WrongSlot,
    WrongGreeting,
}

/// A shard computing chunks on the calling thread from a shared prepared
/// campaign, lying in the way `fault` says. `tasks` counts the chunks
/// every shard was asked for.
struct Fake {
    prepared: Arc<PreparedCampaign<TraceGenerator>>,
    spec: JobSpec,
    fault: Fault,
    tasks: Arc<AtomicUsize>,
}

impl Shard for Fake {
    fn greet(&mut self) -> Result<GoldenFingerprint, String> {
        let mut fingerprint = GoldenFingerprint::of(&self.prepared);
        if self.fault == Fault::WrongGreeting {
            fingerprint.checkpoints[0].digest ^= 1;
        }
        Ok(fingerprint)
    }

    fn run(&mut self, plan: ChunkPlan) -> Result<ChunkRecord, String> {
        self.tasks.fetch_add(1, Ordering::Relaxed);
        let mut chunk = run_chunk(&self.prepared, &factory, self.spec.id(), plan, 1);
        if self.fault == Fault::WrongSlot {
            chunk.index += 1;
        }
        Ok(chunk)
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// Run the job into a fresh store on two compute streams: the parent and
/// one fake shard.
fn run_sharded(
    tag: &str,
    fault: Fault,
) -> (
    TempStore,
    Result<sim_store::StoredOutcome, CampaignStoreError>,
    usize,
) {
    let spec = spec();
    let prepared = Arc::new(PreparedCampaign::prepare(&factory, &spec.cfg).expect("prepares"));
    let tasks = Arc::new(AtomicUsize::new(0));
    let spawn = |_| {
        Ok(Box::new(Fake {
            prepared: prepared.clone(),
            spec: spec.clone(),
            fault,
            tasks: tasks.clone(),
        }) as Box<dyn Shard>)
    };
    let store = fresh_store(tag);
    let shards = Shards {
        procs: 2,
        spawn: &spawn,
    };
    let outcome = run_campaign_stored(&store, &spec, &factory, Some(shards));
    let tasks = tasks.load(Ordering::Relaxed);
    (store, outcome, tasks)
}

/// The job run in process alone, the reference every sharded run must
/// publish the bytes of.
fn unsharded(tag: &str) -> (TempStore, sim_store::StoredOutcome) {
    let store = fresh_store(tag);
    let outcome = run_campaign_stored(&store, &spec(), &factory, None).expect("in-process run");
    (store, outcome)
}

/// The bytes of every chunk the job published, by ref name.
fn chunks(store: &Store) -> BTreeMap<String, Vec<u8>> {
    let job = spec().id();
    store
        .refs(&format!("jobs/{job}/chunks/"))
        .unwrap()
        .into_iter()
        .map(|(name, id)| (name, store.get(&id).unwrap()))
        .collect()
}

/// Refs the job published under `jobs/<id>/chunks/` and its result ref.
fn published(store: &Store) -> (usize, bool) {
    let job = spec().id();
    let chunks = store.refs(&format!("jobs/{job}/chunks/")).unwrap().len();
    let result = store.get_ref(&result_ref(&job)).unwrap().is_some();
    (chunks, result)
}

#[test]
fn an_honest_shard_publishes_the_unsharded_result_bytes() {
    let spec = spec();
    let (local, alone) = unsharded("local");
    let (sharded, outcome, tasks) = run_sharded("honest", Fault::None);
    let outcome = outcome.expect("sharded run");
    // Accepting the greeting assigned the shard its first chunk; how many
    // more it claims next to the parent depends on scheduling.
    assert!(tasks >= 1, "every started shard computes a chunk");
    assert_eq!(
        (
            outcome.resumed_chunks,
            outcome.computed_chunks,
            outcome.computed_trials
        ),
        (0, 3, 8)
    );
    assert_eq!(outcome.window, alone.window);
    let bytes = |store: &Store| {
        let id = store.get_ref(&result_ref(&spec.id())).unwrap().unwrap();
        store.get(&id).unwrap()
    };
    assert_eq!(bytes(&sharded), bytes(&local));
}

#[test]
fn a_reply_for_the_wrong_slot_fails_closed_and_publishes_nothing() {
    let (local, _) = unsharded("wrong-slot-local");
    let (store, outcome, _) = run_sharded("wrong-slot", Fault::WrongSlot);
    match outcome {
        Err(CampaignStoreError::Diverged(msg)) => assert!(msg.contains("chunk "), "{msg}"),
        other => panic!("expected Diverged, got {other:?}"),
    }
    assert!(!published(&store).1, "a failed job publishes no result");
    // The parent's stream may have published chunks before the lie was
    // caught; nothing of the lying shard's reached the store.
    let honest = chunks(&local);
    for (name, bytes) in chunks(&store) {
        assert_eq!(Some(&bytes), honest.get(&name), "{name}");
    }
}

#[test]
fn a_diverged_greeting_fails_before_any_task_is_sent() {
    let (store, outcome, tasks) = run_sharded("wrong-greeting", Fault::WrongGreeting);
    match outcome {
        Err(CampaignStoreError::Diverged(msg)) => {
            assert!(msg.contains("different golden state"), "{msg}")
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
    assert_eq!(tasks, 0, "no chunk may reach a diverged shard");
    assert_eq!(published(&store), (0, false));
}
