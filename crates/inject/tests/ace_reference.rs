//! The golden window is the campaign's ACE reference: the report a
//! prepared campaign closes out on its discovery pass equals the report
//! of an uninjected reference run of the same machine, workload and
//! budget ([`RunKey::run`]), on every Table 2 mix and every trial path.
//! That equality is what lets the SFI-vs-ACE comparison, `validate_avf`
//! and every stored job take the ACE report from the golden pass instead
//! of simulating the window a second time.

use sim_inject::{run_campaign, CampaignConfig, FaultTarget, PreparedCampaign, TrialPath};
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_workload::table2;
use smt_avf::runner::RunKey;
use smt_avf::ExperimentScale;

const PATHS: [TrialPath; 4] = [
    TrialPath::Batched { lanes: 64 },
    TrialPath::Scalar,
    TrialPath::CycleByCycle,
    TrialPath::ReplayFromZero,
];

#[test]
fn golden_window_report_equals_the_reference_run_on_every_mix_and_path() {
    let mixes = table2();
    assert_eq!(mixes.len(), 15, "Table 2 defines 15 mixes");
    let results = sim_exec::try_par_map(&mixes, 2, |w| -> Result<(), String> {
        let machine = MachineConfig::ispass07_baseline()
            .with_contexts(w.contexts)
            .with_fetch_policy(FetchPolicyKind::Icount);
        let budget = ExperimentScale::quick().budget(w.contexts);
        let key = RunKey::workload(machine, w, budget);
        let reference = key.run().map_err(|e| e.to_string())?.report;
        let factory = || key.core().expect("Table 2 programs are profiled");
        for path in PATHS {
            let mut cfg = CampaignConfig::new(1, 3, budget);
            cfg.path = path;
            cfg.workers = 1;
            cfg.targets = vec![FaultTarget::Iq];
            let prepared = PreparedCampaign::prepare(&factory, &cfg).map_err(|e| e.to_string())?;
            if *prepared.ace_report() != reference {
                return Err(format!("{} on {path:?}: prepared report differs", w.name));
            }
            if path == TrialPath::default() {
                let result = run_campaign(factory, &cfg).map_err(|e| e.to_string())?;
                if result.ace != reference {
                    return Err(format!("{}: run_campaign report differs", w.name));
                }
            }
        }
        Ok(())
    });
    results.expect("every mix and path reports the reference run's AVFs");
}
