//! Parent <-> worker-process protocol: length-prefixed `sim-store`
//! records over stdin/stdout.
//!
//! Every frame is a `u32` little-endian byte count followed by one
//! framed, checksummed record (the same codec the store persists — tags
//! 100+ are transient protocol types that never reach disk). The
//! conversation:
//!
//! ```text
//! parent -> worker   JobSpec           (once, on startup)
//! worker -> parent   WorkerReady       (golden fingerprint; parent fails
//!                                       closed unless it matches its own)
//! parent -> worker   WorkerTask        (one claim: its chunk plans)  \
//! worker -> parent   WorkerChunk       (first completed chunk)       |  repeated
//!   ...                                                              |  per claim
//! worker -> parent   WorkerChunk       (last completed chunk)        /
//! parent closes stdin -> worker exits 0
//! ```
//!
//! A claim is up to one lane batch of consecutive chunks of the job's
//! plan; the worker computes it in one executor call and answers one
//! `WorkerChunk` per plan, in the task's order. The worker checks every
//! task against its own job (`sim_store::check_claim`) and exits with an
//! error on one it could not have been sent. The worker never touches
//! the store; only the parent — the single canonical writer — persists
//! chunks. A worker that dies mid-claim surfaces as a read error in the
//! parent, which aborts the job rather than publish a partial shard.
//!
//! Every frame is read through [`read_frame`], which sizes no allocation
//! from a length field: the frame's bytes grow as they arrive, and the
//! record decoders bound every count they read.

use sim_store::{
    decode_record, encode_record, ChunkPlan, ChunkRecord, Codec, Decoder, Encoder,
    GoldenFingerprint, WireError,
};
use std::io::{Read, Write};

/// Cap on a single protocol frame; anything larger is a corrupt length
/// prefix, not a real record.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Worker greeting: proof of which golden state it rebuilt.
#[derive(Debug, Clone)]
pub struct WorkerReady {
    /// Fingerprint of the campaign the worker prepared.
    pub fingerprint: GoldenFingerprint,
}

impl Codec for WorkerReady {
    const TAG: u16 = 100;
    const NAME: &'static str = "WorkerReady";

    fn encode_body(&self, e: &mut Encoder) {
        self.fingerprint.encode_body(e);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<WorkerReady, WireError> {
        Ok(WorkerReady {
            fingerprint: GoldenFingerprint::decode_body(d)?,
        })
    }
}

/// One claim assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTask {
    /// The claim's chunks, ascending.
    pub plans: Vec<ChunkPlan>,
}

impl Codec for WorkerTask {
    const TAG: u16 = 101;
    const NAME: &'static str = "WorkerTask";

    fn encode_body(&self, e: &mut Encoder) {
        e.put_usize(self.plans.len());
        for plan in &self.plans {
            e.put_usize(plan.index);
            e.put_usize(plan.start);
            e.put_usize(plan.len);
        }
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<WorkerTask, WireError> {
        // The count is unchecked input: grow as plans decode, so a bogus
        // count ends at the first missing byte, never in an allocation.
        let n = d.get_usize()?;
        let mut plans = Vec::new();
        for _ in 0..n {
            plans.push(ChunkPlan {
                index: d.get_usize()?,
                start: d.get_usize()?,
                len: d.get_usize()?,
            });
        }
        Ok(WorkerTask { plans })
    }
}

/// One completed chunk, travelling back to the parent.
#[derive(Debug, Clone)]
pub struct WorkerChunk {
    /// The chunk, exactly as the parent will persist it.
    pub chunk: ChunkRecord,
}

impl Codec for WorkerChunk {
    const TAG: u16 = 102;
    const NAME: &'static str = "WorkerChunk";

    fn encode_body(&self, e: &mut Encoder) {
        self.chunk.encode_body(e);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<WorkerChunk, WireError> {
        Ok(WorkerChunk {
            chunk: ChunkRecord::decode_body(d)?,
        })
    }
}

/// Write one framed record.
pub fn write_frame<T: Codec, W: Write>(w: &mut W, value: &T) -> std::io::Result<()> {
    let bytes = encode_record(value);
    let len = u32::try_from(bytes.len()).expect("frame < 4 GiB");
    assert!(len <= MAX_FRAME, "{} frame of {len} bytes", T::NAME);
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&bytes)?;
    w.flush()
}

/// Read one framed record of type `T`. `Ok(None)` on clean EOF at a frame
/// boundary; any mid-frame truncation or decode failure is an error. The
/// buffer grows with the bytes that arrive, so a length prefix (capped at
/// [`MAX_FRAME`]) never sizes an allocation by itself.
pub fn read_frame<T: Codec, R: Read>(r: &mut R) -> std::io::Result<Option<T>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::other(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut bytes = Vec::new();
    r.take(u64::from(len)).read_to_end(&mut bytes)?;
    if bytes.len() != len as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("{} frame cut at {} of {len} bytes", T::NAME, bytes.len()),
        ));
    }
    decode_record::<T>(&bytes)
        .map(Some)
        .map_err(|e| std::io::Error::other(format!("{} frame: {e}", T::NAME)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_inject::{GoldenRun, Landing, Outcome, TrialRecord};
    use sim_model::{OpClass, SimRng};
    use sim_pipeline::{FaultTarget, RetiredInst};
    use sim_store::record::{fnv1a64, HEADER_LEN, TRAILER_LEN};
    use sim_store::{CoreSnapshot, ObjectId};

    fn plan(index: usize) -> ChunkPlan {
        ChunkPlan {
            index,
            start: index * 32,
            len: 32,
        }
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let task = WorkerTask {
            plans: vec![plan(3), plan(4), plan(5)],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &task).unwrap();
        let mut r = &buf[..];
        let got: WorkerTask = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(got, task);
        assert!(read_frame::<WorkerTask, _>(&mut r).unwrap().is_none());
        // Mid-frame truncation is an error, not EOF.
        let mut r = &buf[..buf.len() - 1];
        assert!(read_frame::<WorkerTask, _>(&mut r).is_err());
    }

    /// One valid wire frame (length prefix included) of each protocol type
    /// a peer decodes.
    fn frames() -> [Vec<u8>; 3] {
        let inst = |thread: u8, pc: u64, op| RetiredInst {
            thread,
            pc,
            op,
            mem_addr: pc * 8,
            tainted: false,
        };
        let ready = WorkerReady {
            fingerprint: GoldenFingerprint {
                golden: GoldenRun {
                    start: 1_000,
                    end: 4_000,
                    target_committed: 3,
                    per_thread: vec![
                        vec![inst(0, 0x40, OpClass::IntAlu), inst(0, 0x44, OpClass::Load)],
                        vec![inst(1, 0x80, OpClass::Branch)],
                    ],
                },
                checkpoints: vec![
                    CoreSnapshot {
                        cycle: 1_000,
                        digest: 0xDEAD_BEEF,
                    },
                    CoreSnapshot {
                        cycle: 2_500,
                        digest: 7,
                    },
                ],
            },
        };
        let task = WorkerTask {
            plans: vec![plan(0), plan(1)],
        };
        let record = |trial| TrialRecord {
            target: FaultTarget::Iq,
            trial,
            entry: 5,
            bit: 9,
            cycle: 1_234,
            landing: Landing::Injected,
            outcome: Outcome::Sdc,
        };
        let chunk = WorkerChunk {
            chunk: ChunkRecord {
                job: ObjectId::of(b"mutation"),
                index: 1,
                start: 32,
                records: vec![record(0), record(1), record(2)],
            },
        };
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        write_frame(&mut out[0], &ready).unwrap();
        write_frame(&mut out[1], &task).unwrap();
        write_frame(&mut out[2], &chunk).unwrap();
        out
    }

    /// Rewrite the frame's length prefix, record length and checksum to
    /// fit its (mutated) body, so the mutation reaches the body decoder
    /// instead of stopping at the framing checks.
    fn reseal(frame: &mut [u8]) {
        let record_len = frame.len() - 4;
        let body_len = record_len - HEADER_LEN - TRAILER_LEN;
        frame[..4].copy_from_slice(&(record_len as u32).to_le_bytes());
        frame[12..16].copy_from_slice(&(body_len as u32).to_le_bytes());
        let sum_at = frame.len() - TRAILER_LEN;
        let sum = fnv1a64(&frame[4..sum_at]);
        frame[sum_at..].copy_from_slice(&sum.to_le_bytes());
    }

    /// Feed `bytes` to the reader of protocol type `kind`; it must return,
    /// `Ok` or `Err`, and a decoded task must pass or fail the claim check
    /// the same way.
    fn read_any(kind: usize, bytes: &[u8], spec: &sim_store::JobSpec) {
        let mut r = bytes;
        match kind {
            0 => drop(read_frame::<WorkerReady, _>(&mut r)),
            1 => {
                if let Ok(Some(task)) = read_frame::<WorkerTask, _>(&mut r) {
                    let _ = sim_store::check_claim(spec, &task.plans);
                }
            }
            _ => drop(read_frame::<WorkerChunk, _>(&mut r)),
        }
    }

    #[test]
    fn mutated_worker_frames_decode_or_fail_without_panicking() {
        let budget = sim_pipeline::SimBudget::total_instructions(100);
        let spec = sim_store::JobSpec {
            name: "mutation".to_string(),
            workload: "none".to_string(),
            cfg: sim_inject::CampaignConfig::new(16, 1, budget),
            chunk_trials: 32,
        };
        let mut rng = SimRng::seed_from_u64(0x5EED_F4A3);
        let frames = frames();
        // A fixed budget per frame type and mutation kind.
        for (kind, valid) in frames.iter().enumerate() {
            let mut r = &valid[..];
            assert!(
                matches!(read_frame::<WorkerTask, _>(&mut r), Ok(Some(_))) == (kind == 1),
                "frame {kind} must be valid only as its own type"
            );
            for round in 0..1_500 {
                let mut bytes = valid.clone();
                let body = 4 + HEADER_LEN..bytes.len() - TRAILER_LEN;
                match round % 5 {
                    // Raw bit flips anywhere: framing checks catch most.
                    0 => {
                        for _ in 0..rng.range_usize(1, 4) {
                            let at = rng.range_usize(0, bytes.len());
                            bytes[at] ^= 1 << rng.range_usize(0, 8);
                        }
                    }
                    // Bit flips in the body, resealed: the body decoder
                    // sees them.
                    1 => {
                        for _ in 0..rng.range_usize(1, 4) {
                            let at = rng.range_usize(body.start, body.end);
                            bytes[at] ^= 1 << rng.range_usize(0, 8);
                        }
                        reseal(&mut bytes);
                    }
                    // Truncation, raw or resealed.
                    2 => {
                        let cut = rng.range_usize(0, bytes.len());
                        bytes.truncate(cut);
                        if rng.gen_bool(0.5) && cut >= body.start + TRAILER_LEN {
                            reseal(&mut bytes);
                        }
                    }
                    // An inflated count or length inside the body: any
                    // aligned or unaligned u64 blown up, resealed.
                    3 => {
                        let at = rng.range_usize(
                            body.start,
                            body.end.saturating_sub(8).max(body.start + 1),
                        );
                        let huge = match rng.range_usize(0, 3) {
                            0 => u64::MAX,
                            1 => 1 << rng.range_usize(16, 63),
                            _ => u64::from(u32::MAX),
                        };
                        let end = (at + 8).min(body.end);
                        bytes[at..end].copy_from_slice(&huge.to_le_bytes()[..end - at]);
                        reseal(&mut bytes);
                    }
                    // An inflated frame length prefix, up to past the cap.
                    _ => {
                        let len = rng.range_u64(bytes.len() as u64, u64::from(MAX_FRAME) + 2);
                        bytes[..4].copy_from_slice(&(len as u32).to_le_bytes());
                    }
                }
                read_any(kind, &bytes, &spec);
            }
        }
    }
}
