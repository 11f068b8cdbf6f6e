//! `sfi-campaign`: in-process `run_campaign` on 2T-MIX-A and 4T-MEM-A.
//! Golden capture, snapshot clone and restore, and trial execution
//! dominate; the store is not involved.

use crate::check::hash_campaign;
use crate::ledger::Tracer;
use crate::sweep::Unit;
use crate::{median, sys, Opts, Pass, Scale, Workload};
use sim_inject::{
    run_campaign, run_trials_batched_full, summarize, CampaignConfig, FaultTarget, Landing,
    LaneClassCounts, PreparedCampaign,
};
use sim_model::FetchPolicyKind;
use sim_pipeline::{SimBudget, SmtCore};
use smt_avf::experiments::campaign::default_campaign;
use std::collections::BTreeMap;
use std::time::Instant;

/// The two mixes differ by about an order of magnitude in restore
/// distance and in their share of cache and TLB strikes.
pub const MIXES: [&str; 2] = ["2T-MIX-A", "4T-MEM-A"];

/// The library's default target set, in campaign order.
pub fn targets() -> Vec<FaultTarget> {
    CampaignConfig::new(1, 0, SimBudget::total_instructions(1)).targets
}

/// The campaigns' master seed.
const CAMPAIGN_SEED: u64 = 12;

struct Mix {
    unit: Unit,
    cfg: CampaignConfig,
}

/// Sums over traced passes.
#[derive(Default)]
struct Obs {
    passes: f64,
    prepare_s: BTreeMap<&'static str, f64>,
    clone_us: BTreeMap<&'static str, Vec<f64>>,
    restore: BTreeMap<&'static str, (f64, f64)>,
    trial_s: BTreeMap<&'static str, f64>,
    early_exits: f64,
    injected: f64,
    lanes: LaneClassCounts,
    pool_cpu: f64,
    pool_wall: f64,
    jobs: Vec<u64>,
    generators_us: Vec<f64>,
    core_new_us: Vec<f64>,
}

pub struct Campaign {
    mixes: Vec<Mix>,
    workers: usize,
    obs: Obs,
}

impl Campaign {
    fn traced_unit(&mut self, i: usize, tracer: &Tracer) -> Result<(usize, String), String> {
        let root = tracer.root();
        let Mix { unit, cfg } = &self.mixes[i];
        let factory = || unit.core();
        let obs = &mut self.obs;
        let t = Instant::now();
        let gens = tracer.span(root, "sim-workload", |_| unit.generators());
        obs.generators_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let core = tracer.span(root, "sim-pipeline", |_| unit.core_from(gens));
        obs.core_new_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(core);

        let t = Instant::now();
        let prepared = tracer
            .span(root, "sim-inject", |_| {
                PreparedCampaign::prepare(&factory, cfg)
            })
            .map_err(|e| e.to_string())?;
        *obs.prepare_s.entry(unit.mix).or_default() += t.elapsed().as_secs_f64();

        let clone_us = tracer.span(root, "sim-inject", |_| {
            let snaps: Vec<_> = prepared
                .checkpointed_golden()
                .map(|g| g.snapshots().map(|(_, core)| core).collect())
                .unwrap_or_default();
            let core = snaps.get(snaps.len() / 2)?;
            let t = Instant::now();
            let copy = std::hint::black_box(SmtCore::clone(core));
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(copy);
            Some(us)
        });
        if let Some(us) = clone_us {
            obs.clone_us.entry(unit.mix).or_default().push(us);
        }

        let per = cfg.trials_per_structure;
        let mut execs = Vec::with_capacity(prepared.total_trials());
        for (ti, target) in cfg.targets.iter().enumerate() {
            let t = Instant::now();
            let cpu0 = sys::cpu_seconds();
            let (part, pool, lanes) = tracer.span(root, "sim-exec", |scope| {
                let r = run_trials_batched_full(&prepared, &factory, ti * per, per, self.workers);
                let busy = sys::cpu_seconds() - cpu0;
                tracer.record(scope.parallel(self.workers), "sim-inject", busy);
                r
            });
            let wall = t.elapsed().as_secs_f64();
            obs.pool_cpu += sys::cpu_seconds() - cpu0;
            obs.pool_wall += wall;
            *obs.trial_s.entry(target.label()).or_default() += wall;
            obs.jobs
                .resize(obs.jobs.len().max(pool.per_worker_jobs.len()), 0);
            for (w, n) in pool.per_worker_jobs.iter().enumerate() {
                obs.jobs[w] += n;
            }
            if let Some(l) = lanes {
                let t = l.totals();
                let o = &mut obs.lanes;
                o.prechecked += t.prechecked;
                o.batched += t.batched;
                o.resident += t.resident;
                o.forked += t.forked;
                o.reconverged += t.reconverged;
                o.deduped += t.deduped;
            }
            execs.extend(part);
        }
        let restore = obs.restore.entry(unit.mix).or_default();
        for e in &execs {
            if let Some(d) = e.restore_distance {
                restore.0 += d as f64;
                restore.1 += 1.0;
            }
            if e.record.landing == Landing::Injected {
                obs.injected += 1.0;
                obs.early_exits += f64::from(u8::from(e.early_exit));
            }
        }
        let out = tracer.span(root, "bench", |_| {
            let records: Vec<_> = execs.iter().map(|e| e.record).collect();
            let per_target = summarize(&cfg.targets, per, &records);
            (records.len(), hash_campaign(&records, &per_target))
        });
        tracer.span(root, "sim-inject", |_| drop(prepared));
        Ok(out)
    }
}

impl Workload for Campaign {
    const NAME: &'static str = "sfi-campaign";

    fn setup(opts: &Opts) -> Result<Campaign, String> {
        let trials = match opts.scale {
            Scale::Full => 10,
            Scale::Toy => 1,
        };
        // Which trials run, and on which golden window, sets most of a
        // pass's cost: at these sizes another fault sample or workload seed
        // moves a pass by 10-15%. So the inputs are fixed and the seed only
        // picks the order the two campaigns run in.
        let mut order = MIXES;
        if opts.variant() % 2 == 1 {
            order.reverse();
        }
        let mut mixes = Vec::new();
        for mix in order {
            let unit = Unit::new(mix, FetchPolicyKind::Icount, 0)?;
            drop(unit.core());
            let scale = opts.scale.experiment();
            let mut cfg = default_campaign(&unit.workload, trials, CAMPAIGN_SEED, scale);
            cfg.workers = opts.workers;
            mixes.push(Mix { unit, cfg });
        }
        Ok(Campaign {
            mixes,
            workers: opts.workers,
            obs: Obs::default(),
        })
    }

    fn pass(&mut self, tracer: &Tracer) -> Result<Pass, String> {
        let t0 = Instant::now();
        let mut pass = Pass::default();
        for i in 0..self.mixes.len() {
            let t = Instant::now();
            let name = self.mixes[i].unit.mix.to_string();
            let out = if tracer.is_on() {
                self.traced_unit(i, tracer)
            } else {
                let Mix { unit, cfg } = &self.mixes[i];
                run_campaign(|| unit.core(), cfg)
                    .map(|r| (r.records.len(), hash_campaign(&r.records, &r.per_target)))
                    .map_err(|e| e.to_string())
            };
            pass.unit_secs.push(t.elapsed().as_secs_f64());
            pass.work += out.as_ref().map_or(0, |(trials, _)| *trials) as f64;
            pass.outputs.push((name, out.map(|(_, hash)| hash)));
        }
        if tracer.is_on() {
            self.obs.passes += 1.0;
        }
        pass.wall = t0.elapsed().as_secs_f64();
        Ok(pass)
    }

    fn layers(&mut self, plain: &[Pass]) -> Result<BTreeMap<String, f64>, String> {
        let o = &self.obs;
        let n = o.passes.max(1.0);
        let mut m = BTreeMap::new();
        let rates: Vec<f64> = plain.iter().map(|p| p.work / p.wall).collect();
        m.insert("inject.trials_per_s".into(), median(&rates));
        m.insert("workload.generators_us".into(), median(&o.generators_us));
        m.insert("pipeline.core_new_us".into(), median(&o.core_new_us));
        for (mix, s) in &o.prepare_s {
            m.insert(format!("inject.prepare_s.{mix}"), s / n);
        }
        for (mix, v) in &o.clone_us {
            m.insert(format!("inject.snapshot_clone_us.{mix}"), median(v));
        }
        for (mix, (sum, count)) in &o.restore {
            m.insert(
                format!("inject.restore_distance_mean_cycles.{mix}"),
                sum / count,
            );
        }
        for (t, s) in &o.trial_s {
            m.insert(format!("inject.trial_s.{t}"), s / n);
        }
        m.insert("inject.early_exit_frac".into(), o.early_exits / o.injected);
        let l = &o.lanes;
        m.insert("inject.fork_rate".into(), l.fork_rate());
        for (k, v) in [
            ("prechecked", l.prechecked),
            ("batched", l.batched),
            ("resident", l.resident),
            ("forked", l.forked),
            ("deduped", l.deduped),
        ] {
            m.insert(format!("inject.lane.{k}"), v as f64 / n);
        }
        m.insert(
            "exec.busy_frac".into(),
            o.pool_cpu / (self.workers as f64 * o.pool_wall),
        );
        let mean = o.jobs.iter().sum::<u64>() as f64 / o.jobs.len().max(1) as f64;
        let max = o.jobs.iter().copied().max().unwrap_or(0) as f64;
        m.insert("exec.jobs_max_over_mean".into(), max / mean);
        Ok(m)
    }
}
