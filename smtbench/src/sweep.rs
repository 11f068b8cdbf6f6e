//! `ace-sweep`: the Figures 6–8 sweep path. A `sim_exec` pool runs
//! `SmtCore::run` over the six 4-context Table 2 mixes under ICOUNT and
//! under FLUSH. The cycle loop does nearly all of the work.

use crate::check::{hash_sim, Output};
use crate::ledger::{Scope, Tracer};
use crate::{median, sys, Opts, Pass, Workload};
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::{SimBudget, SimResult, SmtCore};
use sim_workload::{profile, table2, BenchmarkProfile, SmtWorkload, TraceGenerator};
use smt_avf::workload_seed;
use std::collections::BTreeMap;
use std::time::Instant;

/// The six 4-context Table 2 mixes: CPU mixes rarely stall, so they
/// bypass idle-cycle fast-forward; MEM mixes overflow the modelled caches
/// and depend on it.
pub const MIXES: [&str; 6] = [
    "4T-CPU-A", "4T-CPU-B", "4T-MIX-A", "4T-MIX-B", "4T-MEM-A", "4T-MEM-B",
];

/// ICOUNT is the paper's baseline; FLUSH adds squash-and-replay.
const POLICIES: [FetchPolicyKind; 2] = [FetchPolicyKind::Icount, FetchPolicyKind::Flush];

/// One simulation's inputs.
pub struct Unit {
    pub mix: &'static str,
    pub workload: SmtWorkload,
    policy: FetchPolicyKind,
    cfg: MachineConfig,
    programs: Vec<(BenchmarkProfile, u64)>,
}

impl Unit {
    /// Resolve `mix`'s programs and seeds for input variant `v`: variant 0
    /// is the repository's own seeding, the others perturb it.
    pub fn new(mix: &'static str, policy: FetchPolicyKind, v: u64) -> Result<Unit, String> {
        let w = table2()
            .into_iter()
            .find(|w| w.name == mix)
            .ok_or_else(|| format!("{mix} is not a Table 2 workload"))?;
        let programs = w
            .programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let prof = profile(p).ok_or_else(|| format!("{p} has no profile"))?;
                Ok((
                    prof,
                    workload_seed(&w, i) ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cfg = MachineConfig::ispass07_baseline()
            .with_contexts(w.contexts)
            .with_fetch_policy(policy);
        Ok(Unit {
            mix,
            workload: w,
            policy,
            cfg,
            programs,
        })
    }

    /// The per-context instruction generators.
    pub fn generators(&self) -> Vec<TraceGenerator> {
        self.programs
            .iter()
            .map(|(p, seed)| TraceGenerator::new(p.clone(), *seed))
            .collect()
    }

    /// A fresh core for this unit.
    pub fn core(&self) -> SmtCore {
        self.core_from(self.generators())
    }

    /// A core for this unit over already-built generators.
    pub fn core_from(&self, gens: Vec<TraceGenerator>) -> SmtCore {
        SmtCore::new(self.cfg.clone(), gens)
    }

    /// The unit's name in pins and outputs.
    pub fn name(&self) -> String {
        format!("{}.{:?}", self.mix, self.policy)
    }
}

/// What a traced unit saw inside the cycle loop.
#[derive(Default, Clone, Copy)]
struct Obs {
    generators_us: f64,
    core_new_us: f64,
    warmup_s: f64,
    window_s: f64,
    window_cycles: u64,
    window_insts: u64,
    cycles: u64,
    calls: u64,
}

struct UnitOut {
    secs: f64,
    committed: u64,
    result: SimResult,
    obs: Obs,
}

/// Step with `step_fast_bounded` while `keep_going` holds, counting calls:
/// the loop `SmtCore::run` runs, so the history is bit-identical.
fn step_while(core: &mut SmtCore, max_cycles: u64, keep_going: impl Fn(&SmtCore) -> bool) -> u64 {
    let mut calls = 0;
    while keep_going(core) && core.cycle() < max_cycles {
        core.step_fast_bounded(max_cycles);
        calls += 1;
    }
    calls
}

/// Run one unit. Traced, the run is split into warm-up, measurement
/// window and report spans by driving the same step loop `SmtCore::run`
/// drives, then letting a zero-instruction `run` produce the report.
fn run_unit(u: &Unit, budget: SimBudget, tracer: &Tracer, scope: Scope, traced: bool) -> UnitOut {
    let t0 = Instant::now();
    let mut obs = Obs::default();
    let gens = tracer.span(scope, "sim-workload", |_| u.generators());
    obs.generators_us = t0.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let mut core = tracer.span(scope, "sim-pipeline", |_| u.core_from(gens));
    obs.core_new_us = t.elapsed().as_secs_f64() * 1e6;
    let result = if traced {
        let t = Instant::now();
        obs.calls += tracer.span(scope, "sim-pipeline", |_| {
            let n = step_while(&mut core, budget.max_cycles, |c| {
                c.total_committed() < budget.warmup_instructions
            });
            core.reset_measurement();
            n
        });
        obs.warmup_s = t.elapsed().as_secs_f64();
        let (c0, i0) = (core.cycle(), core.total_committed());
        let target = i0 + budget.total_instructions;
        let t = Instant::now();
        obs.calls += tracer.span(scope, "sim-pipeline", |_| {
            step_while(&mut core, budget.max_cycles, |c| {
                c.total_committed() < target
            })
        });
        obs.window_s = t.elapsed().as_secs_f64();
        obs.window_cycles = core.cycle() - c0;
        obs.window_insts = core.total_committed() - i0;
        obs.cycles = core.cycle();
        tracer.span(scope, "sim-pipeline", |_| {
            core.run(SimBudget::total_instructions(0))
        })
    } else {
        tracer.span(scope, "sim-pipeline", |_| core.run(budget))
    };
    UnitOut {
        secs: t0.elapsed().as_secs_f64(),
        committed: core.total_committed(),
        result,
        obs,
    }
}

/// Per-mix sums over traced units.
#[derive(Default)]
struct MixObs {
    units: f64,
    warmup_s: f64,
    window_s: f64,
    window_cycles: f64,
    window_insts: f64,
    cycles: f64,
    calls: f64,
    dl1: f64,
    l2: f64,
}

pub struct Sweep {
    units: Vec<Unit>,
    budget: SimBudget,
    workers: usize,
    mixes: BTreeMap<&'static str, MixObs>,
    generators_us: Vec<f64>,
    core_new_us: Vec<f64>,
    pool_cpu: f64,
    pool_wall: f64,
    jobs_ratio: Vec<f64>,
}

impl Workload for Sweep {
    const NAME: &'static str = "ace-sweep";

    fn setup(opts: &Opts) -> Result<Sweep, String> {
        let mut units = Vec::new();
        for mix in MIXES {
            for policy in POLICIES {
                let u = Unit::new(mix, policy, opts.variant())?;
                // Build once so a bad input fails here, not in a worker.
                drop(u.core());
                units.push(u);
            }
        }
        Ok(Sweep {
            units,
            budget: opts.scale.experiment().budget(4),
            workers: opts.workers,
            mixes: BTreeMap::new(),
            generators_us: Vec::new(),
            core_new_us: Vec::new(),
            pool_cpu: 0.0,
            pool_wall: 0.0,
            jobs_ratio: Vec::new(),
        })
    }

    fn pass(&mut self, tracer: &Tracer) -> Result<Pass, String> {
        let traced = tracer.is_on();
        let t0 = Instant::now();
        let cpu0 = sys::cpu_seconds();
        let (outs, pool) = tracer.span(tracer.root(), "sim-exec", |scope| {
            let unit_scope = scope.parallel(self.workers);
            sim_exec::run_indexed_stats(self.units.len(), self.workers, |i| {
                let out = run_unit(&self.units[i], self.budget, tracer, unit_scope, traced);
                let hash = tracer.span(unit_scope, "bench", |_| hash_sim(&out.result));
                (out, hash)
            })
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut pass = Pass {
            wall,
            ..Pass::default()
        };
        for (u, (out, hash)) in self.units.iter().zip(outs) {
            pass.unit_secs.push(out.secs);
            pass.work += 1.0;
            pass.committed += out.committed as f64;
            let o: Output = (u.name(), Ok(hash));
            pass.outputs.push(o);
            if traced {
                let m = self.mixes.entry(u.mix).or_default();
                m.units += 1.0;
                m.warmup_s += out.obs.warmup_s;
                m.window_s += out.obs.window_s;
                m.window_cycles += out.obs.window_cycles as f64;
                m.window_insts += out.obs.window_insts as f64;
                m.cycles += out.obs.cycles as f64;
                m.calls += out.obs.calls as f64;
                m.dl1 += out.result.dl1_miss_rate;
                m.l2 += out.result.l2_miss_rate;
                self.generators_us.push(out.obs.generators_us);
                self.core_new_us.push(out.obs.core_new_us);
            }
        }
        if traced {
            self.pool_cpu += sys::cpu_seconds() - cpu0;
            self.pool_wall += wall;
            let jobs = &pool.per_worker_jobs;
            let mean = jobs.iter().sum::<u64>() as f64 / jobs.len() as f64;
            self.jobs_ratio
                .push(*jobs.iter().max().unwrap_or(&0) as f64 / mean);
        }
        Ok(pass)
    }

    fn layers(&mut self, plain: &[Pass]) -> Result<BTreeMap<String, f64>, String> {
        let mut m = BTreeMap::new();
        let rates: Vec<f64> = plain.iter().map(|p| p.committed / p.wall / 1e6).collect();
        m.insert("pipeline.sim_minst_per_s".into(), median(&rates));
        m.insert("workload.generators_us".into(), median(&self.generators_us));
        m.insert("pipeline.core_new_us".into(), median(&self.core_new_us));
        for (mix, o) in &self.mixes {
            m.insert(format!("pipeline.warmup_s.{mix}"), o.warmup_s / o.units);
            m.insert(format!("pipeline.window_s.{mix}"), o.window_s / o.units);
            m.insert(
                format!("pipeline.ns_per_cycle.{mix}"),
                o.window_s / o.window_cycles * 1e9,
            );
            m.insert(
                format!("pipeline.ns_per_inst.{mix}"),
                o.window_s / o.window_insts * 1e9,
            );
            m.insert(
                format!("pipeline.ff_skip_frac.{mix}"),
                1.0 - o.calls / o.cycles,
            );
            m.insert(format!("mem.dl1_miss_rate.{mix}"), o.dl1 / o.units);
            m.insert(format!("mem.l2_miss_rate.{mix}"), o.l2 / o.units);
        }
        m.insert(
            "exec.busy_frac".into(),
            self.pool_cpu / (self.workers as f64 * self.pool_wall),
        );
        m.insert("exec.jobs_max_over_mean".into(), median(&self.jobs_ratio));
        Ok(m)
    }
}
