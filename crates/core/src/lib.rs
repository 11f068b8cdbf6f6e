#![warn(missing_docs)]
//! # avf-core — Architectural Vulnerability Factor analysis engine
//!
//! The primary contribution of the ISPASS 2007 paper reproduced by this
//! workspace: a microarchitecture-level soft-error vulnerability analysis
//! framework for SMT architectures.
//!
//! A hardware structure's **AVF** is the probability that a transient fault
//! in that structure corrupts the final program output. Following Mukherjee
//! et al., we classify the processor state bits each structure holds into
//! **ACE** bits (required for Architecturally Correct Execution) and un-ACE
//! bits, and compute
//!
//! ```text
//! AVF = Σ ACE-bit residency cycles / (structure bits × total cycles)
//! ```
//!
//! The framework extends the single-thread method to SMT by attributing
//! every banked ACE interval to the hardware thread that produced it, so
//! both aggregate and per-thread vulnerability can be reported (Section 3 of
//! the paper).
//!
//! The crate provides:
//!
//! * [`StructureId`] — the microarchitecture structures under study;
//! * [`budgets`] — per-entry bit budgets splitting entries into fields;
//! * [`classify`] — ACE-bit classification of dynamic instructions at
//!   deallocation time (commit / squash / NOP / dynamically dead);
//! * [`AvfEngine`] / [`ResidencyTracker`] — banked interval accounting with
//!   per-thread attribution;
//! * [`AvfReport`] — the per-structure, per-thread vulnerability profile of
//!   a run, plus performance counters;
//! * [`metrics`] — IPC, MITF-style reliability efficiency (IPC/AVF),
//!   weighted speedup and harmonic-mean fairness metrics (Figures 2, 4, 7,
//!   8 of the paper).
//!
//! ```
//! use avf_core::{AvfEngine, StructureId};
//! use sim_model::ThreadId;
//!
//! let mut engine = AvfEngine::new(2);
//! engine.set_total_bits(StructureId::Iq, 96 * 64);
//! // Bank 64 ACE bits that sat in the issue queue for 10 cycles on T0.
//! engine.bank(StructureId::Iq, ThreadId(0), 64, 10);
//! let report = engine.finish(100, &[500, 400]);
//! assert!(report.structure(StructureId::Iq).avf > 0.0);
//! ```

pub mod budgets;
pub mod classify;
pub mod compare;
pub mod engine;
pub mod fit;
pub mod metrics;
pub mod report;
pub mod structure;
pub mod telemetry;

pub use classify::{lifecycle_ace_bits, DeallocKind};
pub use compare::{compare, render, wilson_interval, ComparisonRow, SfiPoint};
pub use engine::{AvfEngine, ResidencyTracker};
pub use fit::{fit_estimate, overall_avf, FitEstimate};
pub use report::{AvfReport, StructureAvf};
pub use structure::StructureId;
pub use telemetry::{window_ace_sum, AvfWindow, TelemetryRecorder};
