//! Test stores under the temp dir that remove themselves when dropped,
//! also when the test that made them panics.

use sim_store::Store;
use std::path::PathBuf;

/// A fresh store at `root`, deleted again when dropped.
pub struct TempStore {
    pub root: PathBuf,
    store: Store,
}

impl std::ops::Deref for TempStore {
    type Target = Store;

    fn deref(&self) -> &Store {
        &self.store
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// An empty store at `sim-store-<kind>-<pid>-<tag>` under the temp dir.
pub fn fresh_store(kind: &str, tag: &str) -> TempStore {
    let root = std::env::temp_dir().join(format!("sim-store-{kind}-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::open(&root).expect("open store");
    TempStore { root, store }
}
