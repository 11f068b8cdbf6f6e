#![warn(missing_docs)]
//! # sim-pipeline — the reliability-instrumented SMT out-of-order core
//!
//! A cycle-level simultaneous-multithreading processor model in the style
//! of M-Sim (the simulator the paper extends): an 8-wide out-of-order core
//! with
//!
//! * **shared** resources — issue queue, physical register pools,
//!   functional units, caches/TLBs, fetch/issue/commit bandwidth — and
//! * **per-thread** resources — reorder buffer, load/store queue, rename
//!   map, branch predictor, program counter,
//!
//! exactly the sharing split the paper's Section 3 describes. Every
//! structure is instrumented for ACE-bit residency: classification is
//! deferred until an entry's final outcome (commit vs. squash) is known,
//! then banked into an [`avf_core::AvfEngine`] with per-thread attribution.
//!
//! The core is trace-driven by [`sim_workload::TraceGenerator`] streams,
//! models wrong-path fetch after branch mispredictions (synthesized un-ACE
//! micro-ops), and implements the FLUSH fetch policy's squash-and-replay
//! semantics.
//!
//! ```no_run
//! use sim_model::MachineConfig;
//! use sim_pipeline::{SimBudget, SmtCore};
//! use sim_workload::{profile, TraceGenerator};
//!
//! let cfg = MachineConfig::ispass07_baseline().with_contexts(2);
//! let threads = vec![
//!     TraceGenerator::new(profile("bzip2").unwrap(), 1),
//!     TraceGenerator::new(profile("mcf").unwrap(), 2),
//! ];
//! let mut core = SmtCore::new(cfg, threads);
//! let result = core.run(SimBudget::total_instructions(100_000));
//! println!("{}", result.report);
//! ```

pub mod core;
pub mod inject;
pub mod lanes;
pub mod resources;
pub mod result;
pub mod slot;
pub mod thread;
#[cfg(feature = "trace")]
pub mod tracer;

pub use crate::core::{SimBudget, SmtCore};
pub use inject::{target_entries, Fault, FaultTarget, Landing, RetiredInst, Rewrite, Strike};
pub use lanes::LaneBatch;
pub use result::SimResult;
#[cfg(feature = "trace")]
pub use tracer::{TraceConfig, Tracer};
