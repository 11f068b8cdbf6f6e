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
    /// Fingerprint a freshly prepared campaign. Digesting every
    /// checkpoint captures each snapshot the campaign has not captured
    /// yet (preparation captures only the window-start one).
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
    pub fn verify<S: InstSource + Clone>(
        &self,
        prepared: &PreparedCampaign<S>,
    ) -> Result<(), String> {
        let rebuilt = GoldenFingerprint::of(prepared);
        if rebuilt.checkpoints != self.checkpoints {
            if rebuilt.checkpoints.len() != self.checkpoints.len() {
                return Err(format!(
                    "golden divergence: stored job has {} checkpoints, rebuild produced {}",
                    self.checkpoints.len(),
                    rebuilt.checkpoints.len()
                ));
            }
            for (stored, now) in self.checkpoints.iter().zip(&rebuilt.checkpoints) {
                if stored != now {
                    return Err(format!(
                        "golden divergence: stored checkpoint at cycle {} digest {:#018x}, \
                         rebuild produced cycle {} digest {:#018x}",
                        stored.cycle, stored.digest, now.cycle, now.digest
                    ));
                }
            }
        }
        // The window (start/end/streams) must be byte-identical too; the
        // canonical encoding *is* the equality we promise.
        if encode_record(&rebuilt.golden) != encode_record(&self.golden) {
            return Err(format!(
                "golden divergence: stored window [{}, {}) target {} does not match \
                 rebuilt window [{}, {}) target {}",
                self.golden.start,
                self.golden.end,
                self.golden.target_committed,
                rebuilt.golden.start,
                rebuilt.golden.end,
                rebuilt.golden.target_committed,
            ));
        }
        Ok(())
    }
}
