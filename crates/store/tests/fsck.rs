//! fsck fail-closed tests: a store with any corrupt, truncated,
//! misnamed, undecodable, or dangling entry is reported dirty, and
//! pinpoints each damaged path.

use sim_inject::{CampaignConfig, TrialPath, TrialRecord};
use sim_pipeline::{FaultTarget, Landing, SimBudget};
mod common;

use common::TempStore;
use sim_store::{encode_record, ChunkRecord, CoreSnapshot, JobSpec, ObjectId, Store};
use std::fs;

fn fresh_store(tag: &str) -> TempStore {
    common::fresh_store("fsck", tag)
}

fn sample_spec() -> JobSpec {
    JobSpec {
        name: "fsck".to_string(),
        workload: "2T-MIX-A".to_string(),
        cfg: CampaignConfig {
            trials_per_structure: 2,
            seed: 1,
            workers: 1,
            budget: SimBudget {
                warmup_instructions: 1,
                total_instructions: 2,
                max_cycles: 3,
            },
            hang_cycles: 10,
            checkpoints: 1,
            progress: false,
            path: TrialPath::CycleByCycle,
            targets: vec![FaultTarget::Iq],
        },
        chunk_trials: 2,
    }
}

/// Populate a store with a few healthy objects + refs and return their ids.
fn populate(store: &Store) -> Vec<ObjectId> {
    let spec = sample_spec();
    let job = spec.id();
    let chunk = ChunkRecord {
        job,
        index: 0,
        start: 0,
        records: vec![TrialRecord {
            target: FaultTarget::Iq,
            trial: 0,
            entry: 3,
            bit: 5,
            cycle: 100,
            landing: Landing::Injected,
            outcome: sim_inject::Outcome::Masked,
        }],
    };
    let snap = CoreSnapshot {
        cycle: 9,
        digest: 0xDEAD,
    };
    let ids: Vec<ObjectId> = [
        encode_record(&spec),
        encode_record(&chunk),
        encode_record(&snap),
    ]
    .iter()
    .map(|b| store.put(b).unwrap())
    .collect();
    store.set_ref("jobs/abc/spec", &ids[0]).unwrap();
    store.set_ref("jobs/abc/chunks/000000", &ids[1]).unwrap();
    ids
}

#[test]
fn clean_store_is_clean() {
    let store = fresh_store("clean");
    populate(&store);
    let report = store.fsck().unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.objects_ok, 3);
    assert_eq!(report.refs_ok, 2);
}

#[test]
fn flipped_bit_truncation_and_dangles_are_each_reported() {
    let store = fresh_store("dirty");
    let root = &store.root;
    let ids = populate(&store);
    let path_of = |id: &ObjectId| {
        let hex = id.to_hex();
        root.join("objects").join(&hex[..2]).join(&hex[2..])
    };

    // Flip one bit in the middle of an object body.
    let p = path_of(&ids[0]);
    let mut bytes = fs::read(&p).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&p, &bytes).unwrap();

    // Truncate another object mid-record.
    let p = path_of(&ids[1]);
    let bytes = fs::read(&p).unwrap();
    fs::write(&p, &bytes[..bytes.len() - 3]).unwrap();

    // A ref that points at an object nobody stored.
    let ghost = ObjectId::of(b"never stored");
    store.set_ref("jobs/abc/result", &ghost).unwrap();

    // An object file whose name is not a content address.
    fs::write(root.join("objects").join("zz"), b"junk").unwrap();

    let report = store.fsck().unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.objects_ok, 1, "only the untouched object survives");
    assert_eq!(
        report.errors.len(),
        4,
        "flip + truncation + dangle + bad name: {:#?}",
        report.errors
    );
    // The two content violations must blame the exact files.
    for id in &ids[..2] {
        assert!(
            report.errors.iter().any(|e| e.path == path_of(id)),
            "no finding names {}",
            path_of(id).display()
        );
    }
}

#[test]
fn corrupt_object_fails_closed_on_direct_read_too() {
    let store = fresh_store("read");
    let root = &store.root;
    let ids = populate(&store);
    let hex = ids[2].to_hex();
    let p = root.join("objects").join(&hex[..2]).join(&hex[2..]);
    let mut bytes = fs::read(&p).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 1;
    fs::write(&p, &bytes).unwrap();
    assert!(
        store.get(&ids[2]).is_err(),
        "a store must never return bytes that do not hash to their key"
    );
}
