//! sim-store: deterministic snapshot codec and content-addressed campaign
//! store (DESIGN.md §5h).
//!
//! Three layers, bottom up:
//!
//! * [`wire`] + [`record`] + [`codec`] — a hand-rolled, zero-dependency
//!   binary format: fixed-width little-endian scalars, explicit lengths,
//!   versioned self-checking record frames, and canonical encoders for
//!   every persisted domain type. Round-trip byte identity
//!   (`encode(decode(encode(v))) == encode(v)`) is a hard invariant.
//! * [`store`] — a content-addressed object store (`SHA-256(encoding)` is
//!   the key) with atomic tempfile-rename publishes, a single-writer
//!   lock, named refs, and a fail-closed [`Store::fsck`].
//! * [`snapshot`] + [`campaign`] — golden-run fingerprints and
//!   chunk-grained persisted campaigns: a job killed at any point resumes
//!   from its published chunks and finishes with bytes identical to an
//!   uninterrupted run.

#![warn(missing_docs)]

pub mod campaign;
pub mod codec;
pub mod record;
pub mod sha256;
pub mod snapshot;
pub mod store;
pub mod wire;

pub use campaign::{
    load_result, plan_chunks, run_campaign_stored, run_chunk, CampaignStoreError, ChunkPlan,
    ChunkRecord, JobResultRecord, JobSpec, Shard, Shards, StoredOutcome, DEFAULT_CHUNK_TRIALS,
};
pub use codec::{fsck_decode, Codec};
pub use record::{decode_record, encode_record, fnv1a64, CodecError, FORMAT_VERSION, MAGIC};
pub use sha256::sha256;
pub use snapshot::{CoreSnapshot, GoldenFingerprint};
pub use store::{FsckError, FsckReport, GcReport, ObjectId, Store, StoreError, WriterLock};
pub use wire::{Decoder, Encoder, WireError};
