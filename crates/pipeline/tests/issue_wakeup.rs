//! Issue-queue source-tag strikes, pinned to a reference digest.
//!
//! Select visits only the IQ entries whose sources are all written; every
//! other entry waits on one unwritten source register until a writeback
//! wakes it. A corrupted source tag is the one way an entry's readiness
//! changes outside dispatch and writeback, so this suite walks IQ
//! `SRC_TAG` strikes over a 4T-MEM-A ICOUNT window, runs each trial out,
//! and folds every trial's landing, outcome, final cycle and state digest
//! into one number. `REFERENCE` is that number as produced by the
//! full-IQ-scan select the wakeup lists replaced.
//!
//! The walk is checked to cover a tag that names a register nobody
//! writes (the thread wedges and the trial ends as a hang), a tag that
//! names an unwritten register a later op writes (the entry is woken by
//! another op's writeback and retires), and, in debug builds, a ready
//! entry that select moves back to waiting.

use avf_core::budgets::iq::{OPCODE, SRC_TAG};
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::{Fault, FaultTarget, RetiredInst, Rewrite, SmtCore, Strike};
use sim_workload::{profile, table2, TraceGenerator};

/// Cycles stepped before the checkpoint the walk starts from.
const WARMUP_CYCLES: u64 = 20_000;
/// Golden window length after the checkpoint.
const WINDOW_CYCLES: u64 = 5_000;
/// Strikes in the walk, one every `STRIDE` cycles.
const STRIKES: u64 = 96;
const STRIDE: u64 = 41;
/// Cycles without a commit from the struck thread before a trial counts
/// as hung, checked every `WATCHDOG_STEP` cycles.
const HANG_CYCLES: u64 = 2_000;
const WATCHDOG_STEP: u64 = 256;

/// Digest of the walk, recorded with the full-IQ-scan select.
const REFERENCE: u64 = 0xc2a8_6512_edfb_240d;

fn mem_a() -> SmtCore {
    let mix = table2()
        .into_iter()
        .find(|w| w.name == "4T-MEM-A")
        .expect("4T-MEM-A is a Table 2 mix");
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(mix.programs.len())
        .with_fetch_policy(FetchPolicyKind::Icount);
    let gens = mix
        .programs
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("known benchmark"), i as u64 + 1))
        .collect();
    SmtCore::new(cfg, gens)
}

fn step_to(core: &mut SmtCore, target: u64) {
    while core.cycle() < target {
        core.step_fast_bounded(target);
    }
}

/// The fault-free window: per-thread retired streams and the commit
/// count every trial runs to.
struct Golden {
    per_thread: Vec<Vec<RetiredInst>>,
    target: u64,
    end: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Masked,
    Latent,
    Sdc,
    Hang,
}

/// Run a core struck in thread `thread` to the golden commit target and
/// classify it the way an SFI campaign does. The other contexts keep
/// committing around a wedged thread, so the watchdog is per thread: the
/// trial is a hang (detected by timeout) once the struck thread retires
/// nothing for `HANG_CYCLES`.
fn run_out(core: &mut SmtCore, golden: &Golden, thread: u8) -> Outcome {
    let cap = golden.end + WINDOW_CYCLES;
    let mut seen = 0;
    let mut progress_at = core.cycle();
    while core.total_committed() < golden.target {
        let log = core.commit_log().expect("log enabled");
        if log[seen..].iter().any(|r| r.thread == thread) {
            progress_at = core.cycle();
        }
        seen = log.len();
        if core.cycle() >= cap || core.cycle() - progress_at > HANG_CYCLES {
            return Outcome::Hang;
        }
        core.step_fast_bounded(cap.min(core.cycle() + WATCHDOG_STEP));
    }
    if core.corrupt_retired() > 0 {
        return Outcome::Sdc;
    }
    let mut per_thread = vec![Vec::new(); golden.per_thread.len()];
    for r in core.commit_log().expect("log enabled") {
        per_thread[r.thread as usize].push(*r);
    }
    for (trial, gold) in per_thread.iter().zip(&golden.per_thread) {
        let n = trial.len().min(gold.len());
        if trial[..n] != gold[..n] {
            return Outcome::Sdc;
        }
    }
    if core.residual_corruption() {
        Outcome::Latent
    } else {
        Outcome::Masked
    }
}

/// Whether physical register `reg` of the given pool holds a written
/// value: the register-file decoder treats unwritten registers as empty.
fn written(core: &SmtCore, fp: bool, reg: u16) -> bool {
    let base = if fp {
        core.config().int_phys_regs as u64
    } else {
        0
    };
    let probe = Fault {
        target: FaultTarget::RegFile,
        entry: base + reg as u64,
        bit: 0,
    };
    core.decode_fault(&probe) != Strike::Empty
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn source_tag_strikes_match_the_full_scan_reference() {
    let mut checkpoint = mem_a();
    step_to(&mut checkpoint, WARMUP_CYCLES);
    checkpoint.enable_commit_log();

    let mut gold_core = checkpoint.clone();
    let end = checkpoint.cycle() + WINDOW_CYCLES;
    step_to(&mut gold_core, end);
    let mut per_thread = vec![Vec::new(); checkpoint.config().contexts];
    for r in gold_core.commit_log().expect("log enabled") {
        per_thread[r.thread as usize].push(*r);
    }
    let golden = Golden {
        per_thread,
        target: gold_core.total_committed(),
        end,
    };

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut injected, mut hung_unwritten, mut woken_unwritten) = (0, 0, 0);
    let mut walker = checkpoint.clone();
    for k in 0..STRIKES {
        step_to(&mut walker, checkpoint.cycle() + 1 + k * STRIDE);
        let fault = Fault {
            target: FaultTarget::Iq,
            entry: (k * 29 + 7) % checkpoint.config().iq_entries as u64,
            bit: OPCODE + (k % 2) * SRC_TAG + (k / 2) % SRC_TAG,
        };
        let strike = walker.decode_fault(&fault);
        let mut core = walker.clone();
        let landing = core.inject_fault(&fault);
        assert_eq!(landing, strike.landing(), "strike {k}");
        let outcome = match strike {
            Strike::Empty | Strike::Benign => Outcome::Masked,
            Strike::Taint {
                rewrite: Some(Rewrite::SrcTag { reg, .. }),
                thread,
                ..
            } => {
                injected += 1;
                // The strike does not say which pool the tag indexes, so
                // "unwritten" means unwritten in both.
                let unwritten = !written(&walker, false, reg) && !written(&walker, true, reg);
                let outcome = run_out(&mut core, &golden, thread);
                if unwritten && outcome == Outcome::Hang {
                    hung_unwritten += 1;
                }
                // The struck op retired (tainted), so the register it
                // waited on was written after the strike.
                if unwritten && core.corrupt_retired() > 0 {
                    woken_unwritten += 1;
                }
                outcome
            }
            _ => panic!("IQ source-tag strike {k} decoded as {strike:?}"),
        };
        fnv(&mut digest, k);
        fnv(&mut digest, landing as u64);
        fnv(&mut digest, outcome as u64);
        fnv(&mut digest, core.cycle());
        fnv(&mut digest, core.state_digest());
    }
    eprintln!(
        "{injected} of {STRIKES} strikes injected: {hung_unwritten} hung on an unwritten \
         register, {woken_unwritten} woken by a later writeback; digest {digest:#018x}"
    );
    assert!(
        hung_unwritten > 0,
        "no strike wedged on an unwritten register"
    );
    assert!(
        woken_unwritten > 0,
        "no strike woke through a later writeback"
    );
    assert_eq!(
        digest, REFERENCE,
        "IQ source-tag trials diverged from the reference"
    );
}

/// A strike that re-points a ready entry's source at an unwritten
/// register leaves the entry on the ready list; the next select must find
/// it unready and move it back to waiting. Found by striking every source
/// tag bit pattern of every IQ entry on successive cycles until one does;
/// the debug-only oracle in `issue` checks the lists after the demotion.
#[cfg(debug_assertions)]
#[test]
fn select_demotes_a_ready_entry_whose_source_went_unwritten() {
    let mut core = mem_a();
    step_to(&mut core, WARMUP_CYCLES);
    let iq = core.config().iq_entries as u64;
    for _ in 0..64 {
        for entry in 0..iq {
            for bit in [0, 3, 6, 9, SRC_TAG, SRC_TAG + 3, SRC_TAG + 6, SRC_TAG + 9] {
                let fault = Fault {
                    target: FaultTarget::Iq,
                    entry,
                    bit: OPCODE + bit,
                };
                if !matches!(core.decode_fault(&fault), Strike::Taint { .. }) {
                    continue;
                }
                let mut struck = core.clone();
                struck.inject_fault(&fault);
                struck.step();
                if struck.ready_demotions() > 0 {
                    for _ in 0..2_000 {
                        struck.step();
                    }
                    return;
                }
            }
        }
        core.step();
    }
    panic!("no source-tag strike demoted a ready entry in 64 cycles");
}
