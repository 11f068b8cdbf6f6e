#![warn(missing_docs)]
//! # smt-avf — reliability-aware SMT simulation framework
//!
//! A from-scratch Rust reproduction of *"An Analysis of Microarchitecture
//! Vulnerability to Soft Errors on Simultaneous Multithreaded
//! Architectures"* (Zhang, Fu, Li, Fortes — ISPASS 2007): a cycle-level
//! SMT processor simulator with Architectural Vulnerability Factor (AVF)
//! analysis of every major microarchitecture structure, plus the complete
//! experiment harness regenerating the paper's tables and figures.
//!
//! The workspace layers:
//!
//! * [`sim_model`] — instruction model and the Table 1 machine configuration
//! * [`avf_core`] — the AVF analysis engine (ACE classification, banked
//!   residency accounting, per-thread attribution, reliability metrics)
//! * [`sim_mem`] — caches and TLBs with tag/data ACE interval tracking
//! * [`sim_frontend`] — branch predictors and the six fetch policies
//! * [`sim_workload`] — synthetic SPEC CPU 2000-like workload generators
//!   and the Table 2 workload sets
//! * [`sim_pipeline`] — the 8-wide SMT out-of-order core
//! * this crate — experiment runners for every table and figure
//!
//! ## Quickstart
//!
//! ```
//! use smt_avf::prelude::*;
//!
//! // Run a 2-thread CPU-bound workload under the ICOUNT fetch policy.
//! let workload = table2().into_iter().find(|w| w.name == "2T-CPU-A").unwrap();
//! let result = run_workload(&workload, FetchPolicyKind::Icount, quick_budget(2)).unwrap();
//! assert!(result.ipc() > 0.5);
//! let iq = result.report.structure(StructureId::Iq);
//! assert!(iq.avf > 0.0 && iq.avf < 1.0);
//! ```

pub mod experiments;
pub mod runner;
pub mod scale;
pub mod table;

pub use runner::{
    run_single_thread, run_workload, run_workload_observed, workload_seed, ObservedRun, Observers,
    RunError, RunKey, TraceSettings,
};
pub use scale::ExperimentScale;
pub use table::Table;

/// Convenience re-exports for examples and downstream tools.
pub mod prelude {
    pub use crate::experiments;
    pub use crate::experiments::campaign::{
        default_campaign, validate_workload, SfiValidation, ValidationError,
    };
    pub use crate::runner::{
        run_single_thread, run_workload, run_workload_observed, ObservedRun, Observers, RunError,
        TraceSettings,
    };
    pub use crate::scale::ExperimentScale;
    pub use crate::table::Table;
    pub use avf_core::{metrics, AvfReport, StructureId};
    pub use sim_model::{FetchPolicyKind, MachineConfig, ThreadId};
    pub use sim_pipeline::{SimBudget, SimResult, SmtCore};
    pub use sim_workload::{all_profiles, profile, table2, SmtWorkload, TraceGenerator};

    /// A small budget suitable for doctests and smoke runs.
    pub fn quick_budget(contexts: usize) -> SimBudget {
        SimBudget::total_instructions(8_000 * contexts as u64).with_warmup(8_000 * contexts as u64)
    }
}
