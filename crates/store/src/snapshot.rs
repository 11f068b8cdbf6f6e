//! Snapshot fingerprints: persisting the golden run as a *recipe plus
//! digest* rather than raw machine state.
//!
//! A full `SmtCore` image is neither stable across code changes nor
//! reachable from outside the pipeline crate, and persisting one would
//! freeze every private field into the on-disk format. The simulator is
//! instead a pure function of its construction (the same property the
//! in-memory checkpoint path already relies on), so a stored job
//! re-*derives* the golden state by replaying the deterministic warmup,
//! and the store keeps just enough to prove the derivation landed on the
//! same machine: the golden window itself and a [`CoreSnapshot`]
//! (cycle + [`state digest`]) per checkpoint. On resume the rebuilt
//! golden is compared against the stored fingerprint and any divergence
//! fails closed — a changed binary, workload or seed cannot silently
//! continue a campaign it would not reproduce.
//!
//! [`state digest`]: sim_pipeline::SmtCore::state_digest

use crate::codec::Codec;
use crate::record::encode_record;
use crate::wire::{Decoder, Encoder, WireError};
use sim_inject::{GoldenRun, PreparedCampaign};
use sim_pipeline::SmtCore;
use sim_workload::InstSource;

/// The identity of one golden checkpoint: where it sits and the state
/// digest of the machine captured there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSnapshot {
    /// Cycle the snapshot was captured at.
    pub cycle: u64,
    /// [`SmtCore::state_digest`] of the captured machine.
    ///
    /// [`SmtCore::state_digest`]: sim_pipeline::SmtCore::state_digest
    pub digest: u64,
}

impl Codec for CoreSnapshot {
    const TAG: u16 = 10;
    const NAME: &'static str = "CoreSnapshot";

    fn encode_body(&self, e: &mut Encoder) {
        e.put_u64(self.cycle);
        e.put_u64(self.digest);
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<CoreSnapshot, WireError> {
        Ok(CoreSnapshot {
            cycle: d.get_u64()?,
            digest: d.get_u64()?,
        })
    }
}

/// Everything needed to prove a rebuilt golden run is *the* golden run a
/// stored campaign was started against.
#[derive(Debug, Clone)]
pub struct GoldenFingerprint {
    /// The golden window and retired streams (the diff reference).
    pub golden: GoldenRun,
    /// Per-checkpoint identities, ascending by cycle. Empty on the
    /// replay-from-zero oracle path, which captures no snapshots.
    pub checkpoints: Vec<CoreSnapshot>,
}

impl Codec for GoldenFingerprint {
    const TAG: u16 = 11;
    const NAME: &'static str = "GoldenFingerprint";

    fn encode_body(&self, e: &mut Encoder) {
        self.golden.encode_body(e);
        e.put_usize(self.checkpoints.len());
        for c in &self.checkpoints {
            c.encode_body(e);
        }
    }

    fn decode_body(d: &mut Decoder<'_>) -> Result<GoldenFingerprint, WireError> {
        let golden = GoldenRun::decode_body(d)?;
        let n = d.get_usize()?;
        let mut checkpoints = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            checkpoints.push(CoreSnapshot::decode_body(d)?);
        }
        Ok(GoldenFingerprint {
            golden,
            checkpoints,
        })
    }
}

impl GoldenFingerprint {
    /// Fingerprint a freshly prepared campaign: its golden window and the
    /// `(cycle, digest)` of every snapshot, all captured by `prepare`.
    pub fn of<S: InstSource + Clone>(prepared: &PreparedCampaign<S>) -> GoldenFingerprint {
        let checkpoints = match prepared.checkpointed_golden() {
            Some(c) => c
                .snapshots()
                .map(|(cycle, core)| CoreSnapshot {
                    cycle,
                    digest: core.state_digest(),
                })
                .collect(),
            None => Vec::new(),
        };
        GoldenFingerprint {
            golden: prepared.golden().clone(),
            checkpoints,
        }
    }

    /// Check that `prepared` rebuilt exactly the golden state this
    /// fingerprint was taken from. `Err` carries a human-readable account
    /// of the first divergence — callers must treat it as fatal (fail
    /// closed), never as something to repair.
    ///
    /// The golden window must be byte-identical, and each stored
    /// `(cycle, digest)` must match the rebuilt golden machine at that
    /// cycle. At a cycle the rebuild captured, that is its snapshot. At
    /// any other cycle — a fingerprint written under an earlier checkpoint
    /// plan — a clone of the nearest earlier snapshot is stepped to the
    /// cycle and digested, so old stores resume without re-fingerprinting.
    /// Stored cycles must ascend inside the window `[start, end)`, and a
    /// checkpointed rebuild needs at least one of them.
    pub fn verify<S: InstSource + Clone>(
        &self,
        prepared: &PreparedCampaign<S>,
    ) -> Result<(), String> {
        // The window (start/end/streams) must be byte-identical; the
        // canonical encoding *is* the equality we promise.
        let rebuilt = prepared.golden();
        if encode_record(rebuilt) != encode_record(&self.golden) {
            return Err(format!(
                "golden divergence: stored window [{}, {}) target {} does not match \
                 rebuilt window [{}, {}) target {}",
                self.golden.start,
                self.golden.end,
                self.golden.target_committed,
                rebuilt.start,
                rebuilt.end,
                rebuilt.target_committed,
            ));
        }
        let snapshots: Vec<(u64, &SmtCore<S>)> = prepared
            .checkpointed_golden()
            .map(|c| c.snapshots().collect())
            .unwrap_or_default();
        if self.checkpoints.is_empty() != snapshots.is_empty() {
            return Err(format!(
                "golden divergence: stored job has {} checkpoints, rebuild produced {}",
                self.checkpoints.len(),
                snapshots.len()
            ));
        }
        // A clone stepped forward from a snapshot, reused while the stored
        // cycles stay ahead of it: one old fingerprint costs at most one
        // window of stepping however many cycles it lists.
        let mut stepped: Option<SmtCore<S>> = None;
        let mut after = None;
        for stored in &self.checkpoints {
            let cycle = stored.cycle;
            if !(rebuilt.start..rebuilt.end).contains(&cycle) || after >= Some(cycle) {
                return Err(format!(
                    "golden divergence: stored checkpoint at cycle {cycle} is out of order or \
                     outside the rebuilt window [{}, {})",
                    rebuilt.start, rebuilt.end
                ));
            }
            after = Some(cycle);
            let (at, snapshot) = snapshots[snapshots.partition_point(|&(c, _)| c <= cycle) - 1];
            let digest = if at == cycle {
                snapshot.state_digest()
            } else {
                let core = match &mut stepped {
                    Some(core) if core.cycle() >= at => core,
                    _ => stepped.insert(snapshot.clone()),
                };
                while core.cycle() < cycle {
                    core.step_fast_bounded(cycle);
                }
                core.state_digest()
            };
            if digest != stored.digest {
                return Err(format!(
                    "golden divergence: stored checkpoint at cycle {cycle} digest {:#018x}, \
                     rebuild produced digest {digest:#018x}",
                    stored.digest
                ));
            }
        }
        Ok(())
    }
}
