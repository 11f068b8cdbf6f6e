//! Workload characterization — the paper's Section 3 categorization step.
//!
//! "We first categorize a SPEC benchmark into CPU intensive (CPU) or memory
//! intensive (MEM) based on its IPC and cache miss rate after performing a
//! simulation of 100M instructions from the selected execution point."
//!
//! This experiment runs every profiled benchmark alone on the baseline
//! machine and reports IPC, DL1/L2 miss rates and branch misprediction —
//! both a sanity check that each synthetic profile lands in its declared
//! class and the data a user needs to calibrate new profiles.

use super::Runs;
use crate::runner::{RunError, RunKey};
use crate::table::Table;
use sim_workload::{all_profiles, WorkloadClass};

/// One benchmark's measured single-thread characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    /// Benchmark name.
    pub name: &'static str,
    /// Declared class (CPU or MEM intensive).
    pub class: WorkloadClass,
    /// Measured single-thread IPC.
    pub ipc: f64,
    /// Measured DL1 miss rate.
    pub dl1_miss_rate: f64,
    /// Measured L2 miss rate.
    pub l2_miss_rate: f64,
    /// Measured branch misprediction rate.
    pub mispredict_rate: f64,
}

impl Characterization {
    /// Apply the paper's categorization rule to the measured numbers:
    /// memory-intensive means low IPC together with substantial L2 miss
    /// traffic.
    pub fn measured_class(&self) -> WorkloadClass {
        if self.ipc < 1.0 && self.l2_miss_rate > 0.10 {
            WorkloadClass::Mem
        } else {
            WorkloadClass::Cpu
        }
    }
}

/// Characterize every profiled benchmark, in `all_profiles()` order.
pub fn characterize_all(runs: &mut Runs) -> Result<Vec<Characterization>, RunError> {
    let profiles = all_profiles();
    let budget = runs.scale().budget(1);
    let keys: Vec<RunKey> = profiles
        .iter()
        .map(|p| RunKey::single_thread(p.name, 0xC0FFEE, budget))
        .collect();
    Ok(profiles
        .iter()
        .zip(runs.results(&keys)?)
        .map(|(p, r)| Characterization {
            name: p.name,
            class: p.class,
            ipc: r.ipc(),
            dl1_miss_rate: r.dl1_miss_rate,
            l2_miss_rate: r.l2_miss_rate,
            mispredict_rate: r.threads[0].mispredict_rate,
        })
        .collect())
}

/// The characterization table (sorted CPU class first, then by name).
pub fn characterize(runs: &mut Runs) -> Result<Table, RunError> {
    let mut rows = characterize_all(runs)?;
    rows.sort_by_key(|c| (c.class != WorkloadClass::Cpu, c.name));
    let mut t = Table::new(
        "Workload characterization — single-thread IPC and miss rates (Section 3 method)",
        &["IPC", "DL1 miss", "L2 miss", "mispredict"],
    )
    .decimals(3);
    for c in rows {
        t.push(
            format!("{} ({})", c.name, c.class),
            vec![c.ipc, c.dl1_miss_rate, c.l2_miss_rate, c.mispredict_rate],
        );
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn every_profile_lands_in_its_declared_class() {
        // Classification needs warm predictors and caches: cold-start L2
        // miss rates mislabel even compute-bound programs.
        let scale = ExperimentScale {
            warmup_per_thread: 150_000,
            measure_per_thread: 60_000,
        };
        let rows = characterize_all(&mut Runs::new(scale)).unwrap();
        assert_eq!(rows.len(), all_profiles().len());
        for c in &rows {
            assert_eq!(
                c.measured_class(),
                c.class,
                "{}: declared {} but measured IPC={:.2} l2miss={:.2}",
                c.name,
                c.class,
                c.ipc,
                c.l2_miss_rate
            );
        }
    }

    #[test]
    fn cpu_class_is_faster_than_mem_class_on_average() {
        let rows = Runs::shared_quick(characterize_all).unwrap();
        let avg = |class: WorkloadClass| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|c| c.class == class)
                .map(|c| c.ipc)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(avg(WorkloadClass::Cpu) > 2.0 * avg(WorkloadClass::Mem));
    }
}
