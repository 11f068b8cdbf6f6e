//! The stored-job driver against fake in-memory shards: an honest shard
//! publishes the bytes an unsharded run does, a reply for the wrong chunk
//! slot fails the job before it is published, and a shard whose greeting
//! carries another golden fingerprint fails the job before it is sent a
//! single chunk.

use sim_inject::{CampaignConfig, PreparedCampaign};
use sim_model::MachineConfig;
use sim_pipeline::{FaultTarget, SimBudget, SmtCore};
use sim_store::campaign::result_ref;
use sim_store::{
    run_campaign_stored, run_chunk, CampaignStoreError, ChunkPlan, ChunkRecord, GoldenFingerprint,
    JobSpec, Shard, Shards, Store,
};
use sim_workload::{profile, TraceGenerator};
use std::path::PathBuf;
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

/// A fresh store under the temp dir, deleted again when dropped.
struct TempStore(PathBuf, Store);

impl std::ops::Deref for TempStore {
    type Target = Store;

    fn deref(&self) -> &Store {
        &self.1
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fresh_store(tag: &str) -> TempStore {
    let dir = std::env::temp_dir().join(format!("sim-store-shards-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open store");
    TempStore(dir, store)
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

/// Run the job into a fresh store over two fake shards.
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
    let local = fresh_store("local");
    let alone = run_campaign_stored(&local, &spec, &factory, None).expect("in-process run");
    let (sharded, outcome, tasks) = run_sharded("honest", Fault::None);
    let outcome = outcome.expect("sharded run");
    assert_eq!(tasks, 3, "one task per chunk");
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
    let (store, outcome, _) = run_sharded("wrong-slot", Fault::WrongSlot);
    match outcome {
        Err(CampaignStoreError::Diverged(msg)) => assert!(msg.contains("chunk "), "{msg}"),
        other => panic!("expected Diverged, got {other:?}"),
    }
    assert_eq!(published(&store), (0, false));
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
