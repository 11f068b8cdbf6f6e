//! SFI-vs-ACE cross-validation: run a statistical fault-injection
//! campaign and the ACE analysis over the *same* workload, machine and
//! measurement window, and compare the two vulnerability estimates
//! (DESIGN.md §5c).
//!
//! The expected relationship is one-sided: the ACE-derived AVF is a
//! conservative upper bound, so for every structure it should sit at or
//! above the SFI estimate's lower confidence bound. A `VIOLATED` row in
//! the rendered table means the ACE model under-counted somewhere.

use crate::runner::{workload_generators, RunError};
use crate::scale::ExperimentScale;
use avf_core::{compare, ComparisonRow};
use sim_inject::{run_campaign, CampaignConfig, CampaignResult, InjectError, TargetSummary};
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::SmtCore;
use sim_store::{JobSpec, Store, DEFAULT_CHUNK_TRIALS};
use sim_workload::{table2, SmtWorkload};
use std::path::Path;

/// An error raised while cross-validating a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// The workload's cores could not be built (an unknown program).
    Run(RunError),
    /// The fault-injection campaign failed.
    Inject(InjectError),
    /// The campaign store refused the run (corruption, lock contention,
    /// or a resume whose golden state diverged).
    Store(String),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Run(e) => write!(f, "workload: {e}"),
            ValidationError::Inject(e) => write!(f, "injection campaign failed: {e}"),
            ValidationError::Store(e) => write!(f, "campaign store: {e}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<RunError> for ValidationError {
    fn from(e: RunError) -> ValidationError {
        ValidationError::Run(e)
    }
}

impl From<InjectError> for ValidationError {
    fn from(e: InjectError) -> ValidationError {
        ValidationError::Inject(e)
    }
}

/// The outcome of one cross-validation: the campaign with its ACE report,
/// and the paired comparison rows.
#[derive(Debug)]
pub struct SfiValidation {
    /// The validated workload.
    pub workload: SmtWorkload,
    /// The completed injection campaign. Its `ace` is the ACE report of
    /// the golden window: the report an uninjected reference run of the
    /// same budget produces.
    pub campaign: CampaignResult,
    /// Per-structure SFI estimate paired with its ACE AVF.
    pub rows: Vec<ComparisonRow>,
}

impl SfiValidation {
    /// Does `ACE AVF >= SFI lower bound` hold for every structure?
    pub fn bound_holds(&self) -> bool {
        self.rows.iter().all(|r| r.bound_holds)
    }

    /// The comparison as an aligned text table.
    pub fn render(&self) -> String {
        avf_core::render(&self.rows)
    }
}

/// Look up a Table 2 workload by name.
pub fn resolve_workload(name: &str) -> Result<SmtWorkload, String> {
    table2()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            format!(
                "unknown workload '{name}'; Table 2 defines: {}",
                table2()
                    .iter()
                    .map(|w| w.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

/// The campaign's outcome tally over every target, as one line without
/// its newline: `outcomes: M masked, L latent, S SDC, D detected`.
pub fn outcome_tally(per_target: &[TargetSummary]) -> String {
    let sum = |f: fn(&TargetSummary) -> u64| per_target.iter().map(f).sum::<u64>();
    format!(
        "outcomes: {} masked, {} latent, {} SDC, {} detected",
        sum(|t| t.masked),
        sum(|t| t.latent),
        sum(|t| t.sdc),
        sum(|t| t.detected)
    )
}

/// The standard campaign configuration for `workload`: `trials` injections
/// per structure into the default target set, with the measurement window
/// sized by `scale` exactly like the ACE experiments.
pub fn default_campaign(
    workload: &SmtWorkload,
    trials: usize,
    seed: u64,
    scale: ExperimentScale,
) -> CampaignConfig {
    CampaignConfig::new(trials, seed, scale.budget(workload.contexts))
}

/// The core factory every SFI campaign of `workload` runs on, in process
/// or in a `sim-serve` job: the Table 1 baseline under ICOUNT, sized for
/// the workload, which is the machine the ACE experiments use. Profiles
/// are resolved up front, so the returned closure cannot fail.
pub fn campaign_factory(
    workload: &SmtWorkload,
) -> Result<impl Fn() -> SmtCore + Sync + '_, RunError> {
    workload_generators(workload)?;
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(workload.contexts)
        .with_fetch_policy(FetchPolicyKind::Icount);
    Ok(move || {
        SmtCore::new(
            cfg.clone(),
            workload_generators(workload).expect("profiles resolved above"),
        )
    })
}

/// Cross-validate one workload under ICOUNT: run the injection campaign,
/// whose golden window is the ACE reference, then pair the estimates.
pub fn validate_workload(
    workload: &SmtWorkload,
    campaign: &CampaignConfig,
) -> Result<SfiValidation, ValidationError> {
    let result = run_campaign(campaign_factory(workload)?, campaign)?;
    let rows = compare(&result.ace, &result.sfi_points());
    Ok(SfiValidation {
        workload: workload.clone(),
        campaign: result,
        rows,
    })
}

/// The job spec `validate_avf --store` submits for `workload` +
/// `campaign`: shared between the CLI and the service so both name (and
/// therefore resume) the same job.
pub fn stored_job_spec(
    workload: &SmtWorkload,
    campaign: &CampaignConfig,
    chunk_trials: usize,
) -> JobSpec {
    JobSpec {
        name: format!("validate-{}", workload.name),
        workload: workload.name.clone(),
        cfg: campaign.clone(),
        chunk_trials: if chunk_trials == 0 {
            DEFAULT_CHUNK_TRIALS
        } else {
            chunk_trials
        },
    }
}

/// [`validate_workload`], persisted: run the campaign through the
/// content-addressed store at `store_dir`, chunk by chunk, resuming any
/// chunks a previous (possibly killed) run already published. The
/// returned validation is byte-identical to an uninterrupted
/// [`validate_workload`] of the same configuration. Campaign diagnostics
/// (`sim_inject::render_metrics`) cover only the chunks this run computed.
///
/// With `require_existing` (the CLI's `--resume`), the store must already
/// hold state for this exact job — a typo'd flag resulting in a fresh
/// job id fails loudly instead of silently recomputing from scratch.
pub fn validate_workload_stored(
    workload: &SmtWorkload,
    campaign: &CampaignConfig,
    store_dir: &Path,
    chunk_trials: usize,
    require_existing: bool,
) -> Result<SfiValidation, ValidationError> {
    let factory = campaign_factory(workload)?;
    let store = Store::open(store_dir).map_err(|e| ValidationError::Store(e.to_string()))?;
    let spec = stored_job_spec(workload, campaign, chunk_trials);
    let job = spec.id();
    if require_existing {
        let existing = store
            .refs(&format!("jobs/{job}/"))
            .map_err(|e| ValidationError::Store(e.to_string()))?;
        if existing.is_empty() {
            return Err(ValidationError::Store(format!(
                "--resume: store has no state for job {job} (name {}); \
                 a resumed run must match the original workload, trials, seed, \
                 scale, checkpoints and chunk size exactly",
                spec.name
            )));
        }
    }
    // The result carries the ACE report: the prepared golden's, or the
    // stored one when the job had already finished.
    let outcome = sim_store::run_campaign_stored(&store, &spec, &factory, None)
        .map_err(|e| ValidationError::Store(e.to_string()))?;
    let result = CampaignResult {
        records: outcome.result.records,
        window: outcome.window,
        per_target: outcome.result.per_target,
        ace: outcome.result.report,
    };
    let rows = compare(&result.ace, &result.sfi_points());
    Ok(SfiValidation {
        workload: workload.clone(),
        campaign: result,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_inject::FaultTarget;

    #[test]
    fn validation_pairs_every_target() {
        let w = table2().into_iter().find(|w| w.name == "2T-MIX-A").unwrap();
        let mut cc = default_campaign(
            &w,
            4,
            9,
            ExperimentScale {
                warmup_per_thread: 1_000,
                measure_per_thread: 1_500,
            },
        );
        cc.targets = vec![FaultTarget::Iq, FaultTarget::RegFile];
        let v = validate_workload(&w, &cc).unwrap();
        assert_eq!(v.rows.len(), 2);
        assert_eq!(v.campaign.records.len(), 8);
        assert!(v.campaign.ace.total_committed() > 0);
        let text = v.render();
        assert!(text.contains("IQ") && text.contains("Reg"));
    }

    #[test]
    fn unknown_program_is_a_run_error() {
        let mut w = table2().into_iter().find(|w| w.contexts == 2).unwrap();
        w.programs[0] = "bogus";
        let cc = default_campaign(&w, 1, 1, ExperimentScale::quick());
        let err = validate_workload(&w, &cc).unwrap_err();
        assert!(matches!(err, ValidationError::Run(_)));
    }
}
