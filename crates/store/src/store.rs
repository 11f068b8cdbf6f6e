//! Content-addressed on-disk store with a single canonical writer.
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   LOCK               writer lock: pid of the canonical writer
//!   tmp/               staging area for atomic publishes
//!   objects/ab/<hex>   immutable records, keyed by SHA-256 of their bytes
//!   refs/<name>        mutable names -> object ids (hex, one line)
//! ```
//!
//! # Invariants
//!
//! * **Content addressing**: an object's key is the SHA-256 of its
//!   canonical encoding. Objects are immutable; writing the same bytes
//!   twice is a no-op, and `get` re-hashes what it read, so a corrupt or
//!   substituted object can never be returned as the real one.
//! * **Atomic publish**: every write (object or ref) goes to `tmp/` and
//!   is `rename(2)`d into place after an fsync, so readers — and a
//!   resumed writer after `kill -9` — observe either the complete record
//!   or nothing.
//! * **Single canonical writer**: mutation requires the `LOCK` file. A
//!   lock left behind by a dead process (liveness checked via
//!   `/proc/<pid>`) is taken over; a live holder or an unverifiable one
//!   fails closed.
//! * **Fail closed**: `fsck` re-hashes and fully decodes every object and
//!   resolves every ref; any violation is reported and the store is not
//!   to be trusted until repaired by deleting the damaged campaign.

use crate::codec::fsck_decode;
use crate::sha256::sha256;
use crate::wire::{Decoder, Encoder, WireError};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The SHA-256 content address of a stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub [u8; 32]);

impl ObjectId {
    /// The id of `bytes`: their SHA-256 digest.
    pub fn of(bytes: &[u8]) -> ObjectId {
        ObjectId(sha256(bytes))
    }

    /// Lowercase hex form (64 characters).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parse the 64-character lowercase hex form.
    pub fn from_hex(s: &str) -> Option<ObjectId> {
        let s = s.trim();
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            if chunk[0].is_ascii_uppercase() || chunk[1].is_ascii_uppercase() {
                return None; // one canonical spelling only
            }
            out[i] = (hi * 16 + lo) as u8;
        }
        Some(ObjectId(out))
    }

    /// Append to a wire encoding (fixed 32 bytes, no length prefix).
    pub fn put(&self, e: &mut Encoder) {
        e.put_raw(&self.0);
    }

    /// Read from a wire encoding.
    pub fn get(d: &mut Decoder<'_>) -> Result<ObjectId, WireError> {
        Ok(ObjectId(d.get_raw(32)?.try_into().expect("32 bytes")))
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A store operation failure.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed.
    Io {
        /// What the store was doing.
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// An object's bytes do not hash to its key, or a ref does not parse.
    Corrupt {
        /// The damaged path.
        path: PathBuf,
        /// Why it is rejected.
        reason: String,
    },
    /// A requested object is not in the store.
    Missing(ObjectId),
    /// A ref name contains path traversal or disallowed characters.
    BadRefName(String),
    /// The writer lock is held by a live (or unverifiable) process.
    Locked {
        /// Pid recorded in the lock file, if it parsed.
        pid: Option<u32>,
        /// Why takeover was refused.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt store entry {}: {reason}", path.display())
            }
            StoreError::Missing(id) => write!(f, "object {id} is not in the store"),
            StoreError::BadRefName(n) => write!(f, "invalid ref name {n:?}"),
            StoreError::Locked { pid, reason } => match pid {
                Some(p) => write!(f, "store is locked by pid {p}: {reason}"),
                None => write!(f, "store is locked: {reason}"),
            },
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// Held by the single canonical writer; the `LOCK` file is removed on
/// drop. A `kill -9` leaves the file behind — the next writer verifies
/// the recorded pid is dead before taking over.
#[derive(Debug)]
pub struct WriterLock {
    path: PathBuf,
}

impl Drop for WriterLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// One fsck finding: a path and what is wrong with it.
#[derive(Debug, Clone)]
pub struct FsckError {
    /// The damaged path.
    pub path: PathBuf,
    /// Why the entry is rejected.
    pub reason: String,
}

impl fmt::Display for FsckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.reason)
    }
}

/// The result of a full store walk.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Objects that re-hashed and fully decoded.
    pub objects_ok: usize,
    /// Refs that resolved to a healthy object.
    pub refs_ok: usize,
    /// Every violation found. Any entry means the store must not be
    /// trusted (fail closed).
    pub errors: Vec<FsckError>,
}

impl FsckReport {
    /// Whether the store is clean.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// What one [`Store::gc`] pass kept and removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Objects a ref reaches (kept).
    pub live_objects: usize,
    /// Unreferenced objects deleted.
    pub removed_objects: usize,
    /// Bytes reclaimed (objects + staging files).
    pub reclaimed_bytes: u64,
    /// Staging leftovers deleted from `tmp/`.
    pub tmp_removed: usize,
}

/// A content-addressed store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    tmp_seq: AtomicU64,
}

impl Store {
    /// Open (creating if absent) a store at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        for dir in [
            root.clone(),
            root.join("tmp"),
            root.join("objects"),
            root.join("refs"),
        ] {
            fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        }
        Ok(Store {
            root,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn object_path(&self, id: &ObjectId) -> PathBuf {
        let hex = id.to_hex();
        self.root.join("objects").join(&hex[..2]).join(&hex[2..])
    }

    fn ref_path(&self, name: &str) -> Result<PathBuf, StoreError> {
        let ok = !name.is_empty()
            && !name.starts_with('/')
            && !name.ends_with('/')
            && !name.split('/').any(|seg| {
                seg.is_empty()
                    || seg == "."
                    || seg == ".."
                    || !seg
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_')
            });
        if !ok {
            return Err(StoreError::BadRefName(name.to_string()));
        }
        Ok(self.root.join("refs").join(name))
    }

    /// Write `bytes` to a staging file, fsync, and atomically rename to
    /// `dest`. Readers and crash-resumed writers see all or nothing.
    ///
    /// When process metrics are enabled ([`sim_trace::metrics::enabled`]),
    /// the publish and its fsync are timed into the global registry —
    /// observability only, never on the bytes path (one relaxed load when
    /// off).
    fn publish(&self, bytes: &[u8], dest: &Path) -> Result<(), StoreError> {
        use sim_trace::metrics;
        let timed = metrics::enabled();
        let t_publish = timed.then(std::time::Instant::now);
        let tmp = self.root.join("tmp").join(format!(
            "{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if let Some(parent) = dest.parent() {
            fs::create_dir_all(parent).map_err(|e| io_err("create dir", parent, e))?;
        }
        {
            let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
            f.write_all(bytes).map_err(|e| io_err("write", &tmp, e))?;
            let t_fsync = timed.then(std::time::Instant::now);
            f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
            if let Some(t) = t_fsync {
                metrics::global()
                    .histogram("store.fsync_us")
                    .observe(metrics::micros_since(t));
            }
        }
        fs::rename(&tmp, dest).map_err(|e| io_err("rename into place", dest, e))?;
        // Make the rename itself durable. Failure to sync the directory is
        // not failure to publish, so this is best-effort.
        if let Some(parent) = dest.parent() {
            if let Ok(d) = fs::File::open(parent) {
                let _ = d.sync_all();
            }
        }
        if let Some(t) = t_publish {
            let g = metrics::global();
            g.histogram("store.publish_us")
                .observe(metrics::micros_since(t));
            g.counter("store.publishes").inc();
            g.counter("store.published_bytes").add(bytes.len() as u64);
        }
        Ok(())
    }

    /// Store `bytes`, returning their content address. Idempotent: the
    /// object may already exist, in which case nothing is written.
    pub fn put(&self, bytes: &[u8]) -> Result<ObjectId, StoreError> {
        let id = ObjectId::of(bytes);
        let dest = self.object_path(&id);
        if !dest.exists() {
            self.publish(bytes, &dest)?;
        }
        Ok(id)
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: &ObjectId) -> bool {
        self.object_path(id).exists()
    }

    /// Read the object at `id`, re-verifying its content address.
    pub fn get(&self, id: &ObjectId) -> Result<Vec<u8>, StoreError> {
        let path = self.object_path(id);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::Missing(*id))
            }
            Err(e) => return Err(io_err("read", &path, e)),
        };
        if ObjectId::of(&bytes) != *id {
            return Err(StoreError::Corrupt {
                path,
                reason: format!("bytes hash to {}, not their key", ObjectId::of(&bytes)),
            });
        }
        Ok(bytes)
    }

    /// Point `name` at `id` (atomic replace).
    pub fn set_ref(&self, name: &str, id: &ObjectId) -> Result<(), StoreError> {
        let path = self.ref_path(name)?;
        self.publish(format!("{}\n", id.to_hex()).as_bytes(), &path)
    }

    /// Resolve `name`, or `None` if it does not exist.
    pub fn get_ref(&self, name: &str) -> Result<Option<ObjectId>, StoreError> {
        let path = self.ref_path(name)?;
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("read", &path, e)),
        };
        match ObjectId::from_hex(&text) {
            Some(id) => Ok(Some(id)),
            None => Err(StoreError::Corrupt {
                path,
                reason: "ref does not hold a 64-hex object id".to_string(),
            }),
        }
    }

    /// All refs under `prefix` (empty prefix = all), sorted by name.
    pub fn refs(&self, prefix: &str) -> Result<Vec<(String, ObjectId)>, StoreError> {
        let base = self.root.join("refs");
        let mut out = Vec::new();
        let mut stack = vec![base.clone()];
        while let Some(dir) = stack.pop() {
            let entries = match fs::read_dir(&dir) {
                Ok(e) => e,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err("read dir", &dir, e)),
            };
            for entry in entries {
                let entry = entry.map_err(|e| io_err("read dir", &dir, e))?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                let name = path
                    .strip_prefix(&base)
                    .expect("under refs/")
                    .to_string_lossy()
                    .replace('\\', "/");
                if !name.starts_with(prefix) {
                    continue;
                }
                match self.get_ref(&name)? {
                    Some(id) => out.push((name, id)),
                    None => unreachable!("listed ref exists"),
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Acquire the single-writer lock, taking over a lock left behind by
    /// a provably dead process. Fails closed when the holder is alive or
    /// its liveness cannot be established.
    pub fn lock(&self) -> Result<WriterLock, StoreError> {
        let path = self.root.join("LOCK");
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", std::process::id());
                    let _ = f.sync_all();
                    return Ok(WriterLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let pid: Option<u32> = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse().ok());
                    let holder_dead = match pid {
                        Some(p) if Path::new("/proc").is_dir() => {
                            !Path::new(&format!("/proc/{p}")).exists()
                        }
                        _ => false,
                    };
                    if holder_dead && attempt == 0 {
                        // Stale lock from a killed writer: take it over.
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    return Err(StoreError::Locked {
                        pid,
                        reason: if pid.is_none() {
                            "lock file holds no pid; remove it manually if no writer is running"
                                .to_string()
                        } else if !Path::new("/proc").is_dir() {
                            "cannot verify holder liveness without /proc; remove the LOCK file \
                             manually if no writer is running"
                                .to_string()
                        } else {
                            "holder is alive".to_string()
                        },
                    });
                }
                Err(e) => return Err(io_err("create lock", &path, e)),
            }
        }
        unreachable!("loop returns on every path after the retry")
    }

    /// Walk the whole store: re-hash and fully decode every object,
    /// resolve every ref. Every violation lands in the report; the store
    /// is only trustworthy when [`FsckReport::is_clean`].
    pub fn fsck(&self) -> Result<FsckReport, StoreError> {
        let mut report = FsckReport::default();
        let objects = self.root.join("objects");
        let mut stack = vec![objects.clone()];
        while let Some(dir) = stack.pop() {
            let entries = match fs::read_dir(&dir) {
                Ok(e) => e,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err("read dir", &dir, e)),
            };
            for entry in entries {
                let entry = entry.map_err(|e| io_err("read dir", &dir, e))?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                let rel = path.strip_prefix(&objects).expect("under objects/");
                let hex: String = rel.to_string_lossy().replace(['/', '\\'], "");
                let id = match ObjectId::from_hex(&hex) {
                    Some(id) => id,
                    None => {
                        report.errors.push(FsckError {
                            path,
                            reason: "file name is not a 64-hex object id".to_string(),
                        });
                        continue;
                    }
                };
                let bytes = match fs::read(&path) {
                    Ok(b) => b,
                    Err(e) => {
                        report.errors.push(FsckError {
                            path,
                            reason: format!("unreadable: {e}"),
                        });
                        continue;
                    }
                };
                if ObjectId::of(&bytes) != id {
                    report.errors.push(FsckError {
                        path,
                        reason: format!("bytes hash to {}, not their key", ObjectId::of(&bytes)),
                    });
                    continue;
                }
                if let Err(e) = fsck_decode(&bytes) {
                    report.errors.push(FsckError {
                        path,
                        reason: format!("record does not decode: {e}"),
                    });
                    continue;
                }
                report.objects_ok += 1;
            }
        }
        for (name, id) in self.refs("")? {
            if self.contains(&id) {
                report.refs_ok += 1;
            } else {
                report.errors.push(FsckError {
                    path: self.root.join("refs").join(&name),
                    reason: format!("dangles: object {id} is missing"),
                });
            }
        }
        Ok(report)
    }

    /// Garbage-collect the store: remove every object no ref points at,
    /// plus staging leftovers under `tmp/` (orphaned by killed writers).
    ///
    /// Fail closed: gc takes the writer lock and runs a full [`fsck`]
    /// first — any fsck error aborts the collection untouched, because
    /// deleting from a store that cannot be fully validated risks turning
    /// recoverable corruption into data loss. Reachability is exactly the
    /// ref targets (objects never point at other objects in this layout),
    /// so gc after a crash+resume removes only superseded or orphaned
    /// bytes and no reachable byte changes (covered by the service test).
    ///
    /// [`fsck`]: Store::fsck
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let _lock = self.lock()?;
        let fsck = self.fsck()?;
        if !fsck.is_clean() {
            return Err(StoreError::Corrupt {
                path: self.root.clone(),
                reason: format!(
                    "gc refused: fsck found {} error(s); fail closed — repair \
                     (delete the damaged campaign) before collecting garbage",
                    fsck.errors.len()
                ),
            });
        }
        let reachable: std::collections::HashSet<ObjectId> =
            self.refs("")?.into_iter().map(|(_, id)| id).collect();
        let mut report = GcReport::default();
        let objects = self.root.join("objects");
        let mut stack = vec![objects.clone()];
        while let Some(dir) = stack.pop() {
            let entries = match fs::read_dir(&dir) {
                Ok(e) => e,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err("read dir", &dir, e)),
            };
            for entry in entries {
                let entry = entry.map_err(|e| io_err("read dir", &dir, e))?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                let rel = path.strip_prefix(&objects).expect("under objects/");
                let hex: String = rel.to_string_lossy().replace(['/', '\\'], "");
                let id = ObjectId::from_hex(&hex).expect("fsck validated object names");
                if reachable.contains(&id) {
                    report.live_objects += 1;
                    continue;
                }
                let bytes = entry
                    .metadata()
                    .map_err(|e| io_err("stat", &path, e))?
                    .len();
                fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
                report.removed_objects += 1;
                report.reclaimed_bytes += bytes;
            }
        }
        let tmp = self.root.join("tmp");
        let entries = match fs::read_dir(&tmp) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(report);
            }
            Err(e) => return Err(io_err("read dir", &tmp, e)),
        };
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir", &tmp, e))?;
            let path = entry.path();
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
            report.tmp_removed += 1;
            report.reclaimed_bytes += bytes;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store under the temp dir that removes itself when dropped, also
    /// when the test panics.
    struct TmpStore(Store);

    impl std::ops::Deref for TmpStore {
        type Target = Store;

        fn deref(&self) -> &Store {
            &self.0
        }
    }

    impl Drop for TmpStore {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(self.0.root());
        }
    }

    fn tmp_store(tag: &str) -> TmpStore {
        let dir = std::env::temp_dir().join(format!("sim-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TmpStore(Store::open(dir).unwrap())
    }

    #[test]
    fn put_get_round_trips_and_verifies() {
        let s = tmp_store("putget");
        let id = s.put(b"hello").unwrap();
        assert_eq!(s.get(&id).unwrap(), b"hello");
        assert!(s.contains(&id));
        // Idempotent re-put.
        assert_eq!(s.put(b"hello").unwrap(), id);
        // Corruption is detected on read.
        fs::write(s.object_path(&id), b"hell0").unwrap();
        assert!(matches!(s.get(&id), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn refs_round_trip_and_reject_traversal() {
        let s = tmp_store("refs");
        let id = s.put(b"x").unwrap();
        s.set_ref("jobs/abc/spec", &id).unwrap();
        assert_eq!(s.get_ref("jobs/abc/spec").unwrap(), Some(id));
        assert_eq!(s.get_ref("jobs/missing").unwrap(), None);
        assert_eq!(s.refs("jobs/").unwrap().len(), 1);
        for bad in ["../oops", "a//b", "/abs", "a/../b", "sp ace", ""] {
            assert!(matches!(
                s.set_ref(bad, &id),
                Err(StoreError::BadRefName(_))
            ));
        }
    }

    #[test]
    fn lock_excludes_live_and_takes_over_dead() {
        let s = tmp_store("lock");
        let lock = s.lock().unwrap();
        assert!(matches!(s.lock(), Err(StoreError::Locked { .. })));
        drop(lock);
        // A stale lock from a pid that no longer runs is taken over.
        fs::write(s.root().join("LOCK"), "999999999\n").unwrap();
        let lock = s.lock().unwrap();
        drop(lock);
        assert!(!s.root().join("LOCK").exists());
    }

    #[test]
    fn gc_removes_only_unreachable_and_fails_closed() {
        use crate::record::encode_record;
        use crate::snapshot::CoreSnapshot;
        let s = tmp_store("gc");
        let live_bytes = encode_record(&CoreSnapshot {
            cycle: 1,
            digest: 2,
        });
        let dead_bytes = encode_record(&CoreSnapshot {
            cycle: 3,
            digest: 4,
        });
        let live = s.put(&live_bytes).unwrap();
        s.set_ref("keep/it", &live).unwrap();
        let dead = s.put(&dead_bytes).unwrap();
        fs::write(s.root().join("tmp").join("123-0"), b"leftover").unwrap();
        let report = s.gc().unwrap();
        assert_eq!(report.live_objects, 1);
        assert_eq!(report.removed_objects, 1);
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.reclaimed_bytes, dead_bytes.len() as u64 + 8);
        assert!(s.contains(&live) && !s.contains(&dead));
        assert_eq!(s.get(&live).unwrap(), live_bytes);
        // The lock is released afterwards; a clean second pass is a no-op.
        let again = s.gc().unwrap();
        assert_eq!(again.removed_objects, 0);
        assert_eq!(again.tmp_removed, 0);
        // Fail closed: any fsck error refuses collection outright.
        let mut corrupt = live_bytes.clone();
        corrupt[0] ^= 1;
        fs::write(s.object_path(&live), &corrupt).unwrap();
        assert!(matches!(s.gc(), Err(StoreError::Corrupt { .. })));
        assert!(
            s.object_path(&live).exists(),
            "gc must not delete anything from an unvalidated store"
        );
    }

    #[test]
    fn object_id_hex_round_trips() {
        let id = ObjectId::of(b"abc");
        assert_eq!(ObjectId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(ObjectId::from_hex("zz"), None);
        assert_eq!(ObjectId::from_hex(&id.to_hex().to_uppercase()), None);
    }
}
