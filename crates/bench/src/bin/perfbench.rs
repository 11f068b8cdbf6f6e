//! perfbench — the performance-trajectory recorder.
//!
//! Measures three things and writes them to `BENCH_pipeline.json`:
//!
//! 1. **Steady-state `step()` throughput** — simulated cycles per wall
//!    second of the 4-thread `4T-MIX-A` workload under ICOUNT, after a
//!    warm-up long enough that the cycle loop is allocation-free.
//! 2. **Sweep wall clock** — the quick 2-context policy sweep run at 1, 2
//!    and 4 workers on the `sim_exec` pool, asserting the merged reports
//!    are bit-identical to the serial reference before timing is trusted.
//! 3. **SFI campaign wall clock** — a quick-scale fault-injection campaign
//!    timed on the replay-from-zero oracle path and on the checkpointed
//!    path, asserting record-for-record identical results before the
//!    speedup is trusted.
//! 4. **Tracing overhead** — the step() loop re-timed with a live ring
//!    sink, ≥3 repetitions per configuration with the median reported
//!    (single-shot deltas at this scale sit inside scheduler noise and
//!    once produced a nonsense negative overhead); deltas under the noise
//!    floor are clamped to zero and flagged. Full runs assert the
//!    overhead stays under 5% (the compiled-out path has no hooks at all,
//!    so 0% by construction).
//! 5. **Idle-cycle fast-forward** — end-to-end `run()` wall clock per
//!    workload mix with the fast-forward clock off (cycle-by-cycle
//!    oracle) and on, asserting the two `SimResult`s bit-identical before
//!    the speedup is trusted. Memory-bound mixes show the largest
//!    multiple; full runs assert ≥1.5x on `4T-MEM-A`.
//! 6. **Lane-parallel batched SFI** — the same checkpointed campaign
//!    timed scalar (`TrialPath::Scalar`, one core per trial) and batched
//!    (64 lanes, trials riding a shared follower with lazy forking),
//!    asserting record-for-record identical results first. Both runs use
//!    one worker so the ratio isolates the lane engine from pool scaling;
//!    full runs assert ≥1.5x.
//!
//! The JSON also records the machine context that makes parallel numbers
//! interpretable: `std::thread::available_parallelism()`.
//!
//! The baseline constants below were measured at the pre-optimization
//! commit on the same machine, so the JSON records the perf trajectory
//! (baseline → current) rather than a single point.
//!
//! Environment knobs (for CI smoke runs on tiny budgets):
//!
//! * `PERFBENCH_WARMUP_CYCLES` — warm-up steps before timing (default 50000)
//! * `PERFBENCH_CYCLES` — timed steps (default 500000)
//! * `PERFBENCH_SWEEP` — set to `0` to skip the sweep section entirely
//! * `PERFBENCH_TRACE` — set to `0` to skip the tracing-overhead section
//! * `PERFBENCH_SFI` — set to `0` to skip the SFI section entirely
//! * `PERFBENCH_SFI_TRIALS` — trials per structure for the SFI timing
//!   (default 50)
//! * `PERFBENCH_SERVICE` — set to `0` to skip the stored-campaign
//!   metrics-overhead section (it shares `PERFBENCH_SFI_TRIALS`)
//! * `PERFBENCH_LANES` — set to `0` to skip the lane-batch section
//!   (it shares `PERFBENCH_SFI_TRIALS`)
//! * `PERFBENCH_TRACE_REPS` — repetitions per tracing configuration
//!   (default 3, clamped to at least 3)
//! * `PERFBENCH_FF` — set to `0` to skip the fast-forward section
//! * `PERFBENCH_FF_SCALE` — `quick` for the CI smoke budget (default is
//!   the full experiment scale; the ≥1.5x assertion only arms at full
//!   scale, where timing noise cannot fake a regression)
//! * `PERFBENCH_OUT` — output path (default `BENCH_pipeline.json`)

use sim_inject::{
    run_campaign, run_trials_batched_full, summarize, LaneStats, PreparedCampaign, TrialPath,
};
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::SmtCore;
use sim_workload::{table2, SmtWorkload};
use smt_avf::experiments::campaign::{campaign_factory, default_campaign};
use smt_avf::experiments::{policy_key, Runs};
use smt_avf::runner::workload_generators;
use smt_avf::ExperimentScale;
use std::time::Instant;

/// Steady-state `step()` throughput at the seed commit (a889bd5), measured
/// with the default knobs on the reference machine, in simulated
/// cycles/sec.
const BASELINE_STEP_CPS: f64 = 290_757.0;

/// Serial wall clock of the quick 2-context policy sweep (36 runs) at the
/// same commit, in seconds.
const BASELINE_SWEEP_SECS: f64 = 6.32;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Simulated cycles/sec of `step()` on `workload`, after `warmup` steps.
/// With `traced`, a live ring sink captures pipeline events throughout —
/// the tracing-on overhead measurement (this build has the `trace` feature
/// on; the compiled-out NullSink path has no hooks at all to measure).
fn step_throughput(workload: &SmtWorkload, warmup: u64, timed: u64, traced: bool) -> f64 {
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(workload.contexts)
        .with_fetch_policy(FetchPolicyKind::Icount);
    let mut core = SmtCore::new(
        cfg,
        workload_generators(workload).expect("bundled workload"),
    );
    if traced {
        core.enable_tracing(sim_pipeline::TraceConfig::default());
    }
    for _ in 0..warmup {
        core.step();
    }
    let t0 = Instant::now();
    for _ in 0..timed {
        core.step();
    }
    timed as f64 / t0.elapsed().as_secs_f64()
}

/// Median of `reps` independent [`step_throughput`] measurements. One-shot
/// wall-clock deltas at this scale sit inside scheduler noise; the median
/// is robust to a single descheduled rep in either direction.
fn median_step_throughput(
    workload: &SmtWorkload,
    warmup: u64,
    timed: u64,
    traced: bool,
    reps: usize,
) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| step_throughput(workload, warmup, timed, traced))
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Deltas smaller than this are indistinguishable from run-to-run noise on
/// the reference machine; the trace section clamps them to zero instead of
/// reporting a meaningless (possibly negative) overhead.
const TRACE_NOISE_FLOOR_PCT: f64 = 1.5;

/// Time `run()` end-to-end on `workload` under ICOUNT with the
/// fast-forward clock off (the cycle-by-cycle oracle) and on, proving the
/// two results bit-identical before returning `(off_secs, on_secs)`.
fn fastforward_wallclock(w: &SmtWorkload, scale: ExperimentScale) -> (f64, f64) {
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(w.contexts)
        .with_fetch_policy(FetchPolicyKind::Icount);
    let budget = scale.budget(w.contexts);
    let run = |fast: bool| {
        let mut core = SmtCore::new(
            cfg.clone(),
            workload_generators(w).expect("bundled workload"),
        );
        core.set_fast_forward(fast);
        let t0 = Instant::now();
        let result = core.run(budget);
        (t0.elapsed().as_secs_f64(), result)
    };
    let (off_secs, off_result) = run(false);
    let (on_secs, on_result) = run(true);
    assert_eq!(
        off_result, on_result,
        "{}: fast-forward run diverged from the cycle-by-cycle oracle",
        w.name
    );
    (off_secs, on_secs)
}

/// Time one quick-scale SFI campaign on both replay paths and prove the
/// records identical before returning `(oracle_secs, checkpointed_secs)`.
///
/// Both runs use one worker so the ratio isolates the checkpointing win
/// from thread-pool scaling (which the `sweep` section already covers).
fn sfi_wallclock(trials: usize) -> (f64, f64, usize) {
    let w = table2()
        .into_iter()
        .find(|w| w.name == "2T-MIX-A")
        .expect("bundled workload");
    let factory = campaign_factory(&w).expect("bundled workload");
    let mut cc = default_campaign(&w, trials, 12, ExperimentScale::quick());
    cc.workers = 1;
    // Scalar trials on both sides: this section times checkpointing alone;
    // the `lanes` section times the lane engine.
    cc.path = TrialPath::ReplayFromZero;
    let t0 = Instant::now();
    let oracle = run_campaign(&factory, &cc).expect("oracle campaign");
    let oracle_secs = t0.elapsed().as_secs_f64();

    cc.path = TrialPath::Scalar;
    let t0 = Instant::now();
    let checkpointed = run_campaign(&factory, &cc).expect("checkpointed campaign");
    let checkpointed_secs = t0.elapsed().as_secs_f64();

    assert_eq!(
        oracle.window, checkpointed.window,
        "checkpointed campaign measured a different golden window"
    );
    assert_eq!(
        oracle.records, checkpointed.records,
        "checkpointed campaign diverged from the replay-from-zero oracle"
    );
    assert_eq!(oracle.per_target, checkpointed.per_target);
    (oracle_secs, checkpointed_secs, cc.checkpoints)
}

/// Lane width the batched side of [`lanes_wallclock`] runs at: the full
/// 64-bit mask width, so a 400-trial quick campaign needs only 7 batch
/// windows (follower stepping amortizes across more riders per window).
const LANE_WIDTH: usize = 64;

/// Time the full stored-campaign service path (spec/golden publish,
/// chunked trials, per-chunk publishes, result assembly with the golden
/// window's ACE report)
/// into fresh stores with the metrics registry off vs on, proving the two
/// stores byte-identical over `objects/` and `refs/` before returning the
/// `(off_secs, on_secs, p99_chunk_publish_us)` medians. This is the
/// metrics-overhead SLO measurement: observability must cost ≤5% of
/// service throughput and change nothing the store persists.
fn service_wallclock(trials: usize, reps: usize) -> (f64, f64, u64) {
    let w = table2()
        .into_iter()
        .find(|w| w.name == "2T-MIX-A")
        .expect("bundled workload");
    let factory = campaign_factory(&w).expect("bundled workload");
    let mut cc = default_campaign(&w, trials, 12, ExperimentScale::quick());
    cc.workers = 1;
    let spec = sim_store::JobSpec {
        name: format!("perfbench-service-t{trials}"),
        workload: w.name.clone(),
        cfg: cc,
        chunk_trials: (trials / 2).max(1),
    };

    let base = std::env::temp_dir().join(format!("perfbench-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let run_one = |dir: &std::path::Path, metrics_on: bool| -> f64 {
        sim_trace::metrics::set_enabled(metrics_on);
        let store = sim_store::Store::open(dir).expect("open bench store");
        let t0 = Instant::now();
        sim_store::run_campaign_stored(&store, &spec, &factory, None).expect("stored campaign");
        let secs = t0.elapsed().as_secs_f64();
        sim_trace::metrics::set_enabled(false);
        secs
    };

    // Alternate modes so slow drift (thermal, background load) hits both
    // sides equally; the median rep is what gets reported.
    let mut off = Vec::with_capacity(reps);
    let mut on = Vec::with_capacity(reps);
    for r in 0..reps.max(1) {
        off.push(run_one(&base.join(format!("off{r}")), false));
        on.push(run_one(&base.join(format!("on{r}")), true));
    }

    let tree = |dir: &std::path::Path| -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        let mut stack: Vec<std::path::PathBuf> = vec![dir.join("objects"), dir.join("refs")];
        while let Some(d) = stack.pop() {
            let Ok(rd) = std::fs::read_dir(&d) else {
                continue;
            };
            for entry in rd.filter_map(|e| e.ok()) {
                let p = entry.path();
                if p.is_dir() {
                    stack.push(p);
                } else {
                    let rel = p.strip_prefix(dir).unwrap().to_string_lossy().to_string();
                    out.push((rel, std::fs::read(&p).expect("read store file")));
                }
            }
        }
        out.sort();
        out
    };
    assert_eq!(
        tree(&base.join("off0")),
        tree(&base.join("on0")),
        "metrics changed persisted store bytes"
    );

    let p99_chunk_publish_us = sim_trace::metrics::global()
        .histogram("store.chunk_publish_us")
        .quantile(0.99);
    let _ = std::fs::remove_dir_all(&base);
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    (median(off), median(on), p99_chunk_publish_us)
}

/// Time the checkpointed SFI campaign on [`TrialPath::Scalar`] and
/// batched at [`LANE_WIDTH`] and prove the records identical before
/// returning `(scalar_secs, batched_secs, lane_stats)` — the stats, as
/// the trial executor returns them, carry the per-target fork rates the
/// benchmark JSON records.
///
/// One worker on both sides: the ratio measures the lane engine alone, not
/// pool scaling. The two dimensions compose — the batched executor hands
/// whole batches to the same `sim_exec` pool the scalar path uses.
fn lanes_wallclock(trials: usize) -> (f64, f64, LaneStats) {
    let w = table2()
        .into_iter()
        .find(|w| w.name == "2T-MIX-A")
        .expect("bundled workload");
    let factory = campaign_factory(&w).expect("bundled workload");
    let mut cc = default_campaign(&w, trials, 12, ExperimentScale::quick());
    cc.workers = 1;

    cc.path = TrialPath::Scalar;
    let t0 = Instant::now();
    let scalar = run_campaign(&factory, &cc).expect("scalar campaign");
    let scalar_secs = t0.elapsed().as_secs_f64();

    cc.path = TrialPath::Batched { lanes: LANE_WIDTH };
    let t0 = Instant::now();
    let prepared = PreparedCampaign::prepare(&factory, &cc).expect("batched campaign");
    let total = prepared.total_trials();
    let (execs, _, stats) = run_trials_batched_full(&prepared, &factory, 0, total, cc.workers);
    let batched_secs = t0.elapsed().as_secs_f64();

    let golden = prepared.golden();
    assert_eq!(
        scalar.window,
        (golden.start, golden.end),
        "batched campaign measured a different golden window"
    );
    let records: Vec<_> = execs.into_iter().map(|e| e.record).collect();
    assert_eq!(
        scalar.records, records,
        "lane-batched campaign diverged from the scalar oracle"
    );
    assert_eq!(
        scalar.per_target,
        summarize(&cc.targets, cc.trials_per_structure, &records)
    );
    let stats = stats.expect("batched campaigns report lane stats");
    assert_eq!(
        stats.totals().trials(),
        total as u64,
        "lane classification must cover every trial exactly once"
    );
    (scalar_secs, batched_secs, stats)
}

fn main() {
    let warmup = env_u64("PERFBENCH_WARMUP_CYCLES", 50_000);
    let timed = env_u64("PERFBENCH_CYCLES", 500_000);
    let run_sweep = env_u64("PERFBENCH_SWEEP", 1) != 0;
    let run_sfi = env_u64("PERFBENCH_SFI", 1) != 0;
    let sfi_trials = env_u64("PERFBENCH_SFI_TRIALS", 50) as usize;
    let out_path =
        std::env::var("PERFBENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".to_string());
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if parallelism == 1 {
        eprintln!(
            "WARNING: available_parallelism == 1 — the sweep/SFI sections will time \
             multi-worker runs on a single core. Per-worker \"speedups\" below 1.0 in \
             the JSON measure scheduling overhead on this machine, NOT a parallelism \
             regression; read them alongside the recorded available_parallelism."
        );
    }

    let w = table2()
        .into_iter()
        .find(|w| w.name == "4T-MIX-A")
        .expect("bundled workload");
    let cps = step_throughput(&w, warmup, timed, false);
    let step_speedup = cps / BASELINE_STEP_CPS;
    println!(
        "step: {cps:.0} simulated cycles/sec on {} ({timed} timed cycles) — \
         {step_speedup:.2}x the {BASELINE_STEP_CPS:.0} baseline",
        w.name
    );

    // Tracing overhead: the same timed loop with a live ring sink, ≥3 reps
    // per configuration with the median reported (a single rep once landed
    // at −2.5% "overhead" — pure scheduler noise). Deltas inside the noise
    // floor are clamped to zero and flagged rather than reported as a
    // nonsense negative. Full runs must stay under 5% overhead or the
    // "cheap enough to leave on" claim is dead.
    let mut trace_json = String::from("null");
    if env_u64("PERFBENCH_TRACE", 1) != 0 {
        let reps = env_u64("PERFBENCH_TRACE_REPS", 3).max(3) as usize;
        let off_cps = median_step_throughput(&w, warmup, timed, false, reps);
        let on_cps = median_step_throughput(&w, warmup, timed, true, reps);
        let raw_overhead_pct = (off_cps - on_cps) / off_cps * 100.0;
        let within_noise = raw_overhead_pct.abs() < TRACE_NOISE_FLOOR_PCT;
        let overhead_pct = if within_noise { 0.0 } else { raw_overhead_pct };
        let tc = sim_pipeline::TraceConfig::default();
        println!(
            "trace: {on_cps:.0} cycles/sec with ring sink on, median of {reps} reps \
             ({overhead_pct:+.2}% overhead{}, sample interval {}, ring capacity {})",
            if within_noise {
                format!(
                    ", raw {raw_overhead_pct:+.2}% within the {TRACE_NOISE_FLOOR_PCT}% noise floor"
                )
            } else {
                String::new()
            },
            tc.sample_interval,
            tc.capacity
        );
        if timed >= 500_000 {
            assert!(
                overhead_pct < 5.0,
                "tracing-on overhead {overhead_pct:.2}% breaches the 5% budget"
            );
        }
        trace_json = format!(
            "{{\n    \"off_cycles_per_sec\": {off_cps:.0},\n    \
             \"on_cycles_per_sec\": {on_cps:.0},\n    \
             \"reps\": {reps},\n    \
             \"overhead_pct\": {overhead_pct:.3},\n    \
             \"raw_overhead_pct\": {raw_overhead_pct:.3},\n    \
             \"within_noise_floor\": {within_noise},\n    \
             \"noise_floor_pct\": {TRACE_NOISE_FLOOR_PCT},\n    \
             \"sample_interval\": {},\n    \
             \"ring_capacity\": {}\n  }}",
            tc.sample_interval, tc.capacity
        );
    }

    // Idle-cycle fast-forward: end-to-end run() wall clock per workload
    // mix, oracle vs fast path, proven bit-identical before timing is
    // trusted. Memory-bound mixes spend most cycles fully stalled on
    // L2/memory, so they show the largest multiple.
    let mut fastforward_json = String::from("null");
    if env_u64("PERFBENCH_FF", 1) != 0 {
        let ff_quick = std::env::var("PERFBENCH_FF_SCALE").is_ok_and(|v| v.trim() == "quick");
        let ff_scale = if ff_quick {
            ExperimentScale::quick()
        } else {
            ExperimentScale::default_scale()
        };
        let mut mixes = Vec::new();
        for name in ["4T-MEM-A", "4T-MIX-A", "4T-CPU-A"] {
            let wl = table2()
                .into_iter()
                .find(|w| w.name == name)
                .expect("bundled workload");
            let (off_secs, on_secs) = fastforward_wallclock(&wl, ff_scale);
            let speedup = off_secs / on_secs;
            println!(
                "fastforward: {name} — oracle {off_secs:.2}s, fast-forward {on_secs:.2}s \
                 ({speedup:.2}x, bit-identical)"
            );
            if name == "4T-MEM-A" && !ff_quick {
                assert!(
                    speedup >= 1.5,
                    "fast-forward speedup {speedup:.2}x on {name} fell below the 1.5x floor"
                );
            }
            mixes.push(format!(
                "{{\"workload\": \"{name}\", \"oracle_secs\": {off_secs:.3}, \
                 \"fastforward_secs\": {on_secs:.3}, \"speedup\": {speedup:.3}, \
                 \"bit_identical_to_oracle\": true}}"
            ));
        }
        fastforward_json = format!(
            "{{\n    \"scale\": \"{}\",\n    \"policy\": \"ICOUNT\",\n    \
             \"per_workload\": [{}]\n  }}",
            if ff_quick { "quick" } else { "default" },
            mixes.join(", ")
        );
    }

    // Sweep at 1/2/4 workers. The serial run is the reference; the parallel
    // runs must merge bit-identical before their timings mean anything.
    let mut sweep_json = String::from("null");
    if run_sweep {
        let scale = ExperimentScale::quick();
        let keys: Vec<_> = table2()
            .into_iter()
            .filter(|w| w.contexts == 2)
            .flat_map(|w| FetchPolicyKind::STUDIED.map(|policy| policy_key(&w, policy, scale)))
            .collect();
        let mut timings = Vec::new();
        let mut reference = None;
        for workers in [1usize, 2, 4] {
            let t0 = Instant::now();
            let results = Runs::with_workers(scale, workers)
                .results(&keys)
                .expect("sweep failed");
            let secs = t0.elapsed().as_secs_f64();
            match &reference {
                None => reference = Some(results),
                Some(serial) => {
                    for ((s, p), key) in serial.iter().zip(&results).zip(&keys) {
                        assert_eq!(
                            (s.cycles, &s.report),
                            (p.cycles, &p.report),
                            "{:?} under {:?}: {workers}-worker sweep diverged from serial",
                            key.contexts,
                            key.cfg.fetch_policy
                        );
                    }
                }
            }
            println!(
                "sweep: {} runs in {secs:.2}s at {workers} workers",
                keys.len()
            );
            timings.push((workers, secs));
        }
        let serial_secs = timings[0].1;
        let per_worker = timings
            .iter()
            .map(|(workers, secs)| {
                format!(
                    "{{\"workers\": {workers}, \"secs\": {secs:.3}, \
                     \"speedup_vs_serial\": {:.3}}}",
                    serial_secs / secs
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        sweep_json = format!(
            "{{\n    \"jobs\": {},\n    \"scale\": \"quick\",\n    \
             \"baseline_serial_secs\": {BASELINE_SWEEP_SECS},\n    \
             \"serial_secs\": {serial_secs:.3},\n    \
             \"serial_speedup_vs_baseline\": {:.3},\n    \
             \"bit_identical_across_workers\": true,\n    \
             \"per_worker\": [{per_worker}]\n  }}",
            keys.len(),
            BASELINE_SWEEP_SECS / serial_secs,
        );
    }

    // SFI: the checkpointed campaign against the replay-from-zero oracle,
    // proven record-identical before the speedup is recorded.
    let mut sfi_json = String::from("null");
    if run_sfi && sfi_trials > 0 {
        let (oracle_secs, checkpointed_secs, k) = sfi_wallclock(sfi_trials);
        let sfi_speedup = oracle_secs / checkpointed_secs;
        println!(
            "sfi: {sfi_trials} trials/structure — replay-from-zero {oracle_secs:.2}s, \
             checkpointed {checkpointed_secs:.2}s ({sfi_speedup:.2}x, K={k})"
        );
        sfi_json = format!(
            "{{\n    \"workload\": \"2T-MIX-A\",\n    \"scale\": \"quick\",\n    \
             \"trials_per_structure\": {sfi_trials},\n    \
             \"checkpoints\": {k},\n    \
             \"baseline_replay_from_zero_secs\": {oracle_secs:.3},\n    \
             \"checkpointed_secs\": {checkpointed_secs:.3},\n    \
             \"speedup\": {sfi_speedup:.3},\n    \
             \"bit_identical_to_oracle\": true\n  }}"
        );
    }

    // Lane-parallel batched SFI: scalar vs 32-lane lockstep on the same
    // checkpointed campaign, proven record-identical before the speedup is
    // recorded. Full runs hold the ≥1.5x floor (quick CI budgets are too
    // noisy for a wall-clock assertion to mean anything).
    let mut lanes_json = String::from("null");
    if env_u64("PERFBENCH_LANES", 1) != 0 && sfi_trials > 0 {
        let (scalar_secs, batched_secs, lane_stats) = lanes_wallclock(sfi_trials);
        let lanes_speedup = scalar_secs / batched_secs;
        let totals = lane_stats.totals();
        println!(
            "lanes: {sfi_trials} trials/structure — scalar {scalar_secs:.2}s, \
             {LANE_WIDTH}-lane batched {batched_secs:.2}s ({lanes_speedup:.2}x, bit-identical, \
             fork rate {:.3}, reconverged {} of {} forks, {} deduped)",
            totals.fork_rate(),
            totals.reconverged,
            totals.forked,
            totals.deduped,
        );
        if sfi_trials >= 50 {
            assert!(
                lanes_speedup >= 1.5,
                "lane-batch speedup {lanes_speedup:.2}x fell below the 1.5x floor"
            );
        }
        // Per-target fork rates ride as flat keys (`bench_guard`'s section
        // parser stops at the first closing brace, so the section must
        // stay one level deep).
        let mut per_target_keys = String::new();
        for (target, c) in &lane_stats.per_target {
            per_target_keys.push_str(&format!(
                "    \"fork_rate_{}\": {:.4},\n    \"batched_fraction_{}\": {:.4},\n",
                target.label(),
                c.fork_rate(),
                target.label(),
                c.batched_fraction(),
            ));
        }
        lanes_json = format!(
            "{{\n    \"workload\": \"2T-MIX-A\",\n    \"scale\": \"quick\",\n    \
             \"trials_per_structure\": {sfi_trials},\n    \
             \"lane_width\": {LANE_WIDTH},\n    \
             \"scalar_secs\": {scalar_secs:.3},\n    \
             \"batched_secs\": {batched_secs:.3},\n    \
             \"speedup\": {lanes_speedup:.3},\n    \
             \"fork_rate\": {:.4},\n    \
             \"batched_fraction\": {:.4},\n    \
             \"forked\": {},\n    \
             \"reconverged\": {},\n    \
             \"deduped\": {},\n{per_target_keys}    \
             \"bit_identical_to_oracle\": true\n  }}",
            totals.fork_rate(),
            totals.batched_fraction(),
            totals.forked,
            totals.reconverged,
            totals.deduped,
        );
    }

    // Service: the stored-campaign path with the metrics registry off vs
    // on. Store bytes are proven identical inside `service_wallclock`;
    // full runs hold the ≤5% overhead SLO (quick budgets are too noisy).
    let mut service_json = String::from("null");
    if env_u64("PERFBENCH_SERVICE", 1) != 0 && sfi_trials > 0 {
        let reps = 3;
        let (off_secs, on_secs, p99_chunk_publish_us) = service_wallclock(sfi_trials, reps);
        let raw_overhead_pct = (on_secs - off_secs) / off_secs * 100.0;
        let within_noise_floor = raw_overhead_pct <= TRACE_NOISE_FLOOR_PCT;
        let overhead_pct = if within_noise_floor {
            0.0
        } else {
            raw_overhead_pct
        };
        println!(
            "service: {sfi_trials} trials/structure stored campaign — metrics off \
             {off_secs:.2}s, on {on_secs:.2}s ({overhead_pct:.2}% overhead, \
             p99 chunk publish {p99_chunk_publish_us} us, bit-identical stores)"
        );
        if sfi_trials >= 50 {
            assert!(
                overhead_pct <= 5.0,
                "metrics overhead {overhead_pct:.2}% exceeds the 5% service SLO"
            );
        }
        service_json = format!(
            "{{\n    \"workload\": \"2T-MIX-A\",\n    \"scale\": \"quick\",\n    \
             \"trials_per_structure\": {sfi_trials},\n    \
             \"reps\": {reps},\n    \
             \"metrics_off_secs\": {off_secs:.3},\n    \
             \"metrics_on_secs\": {on_secs:.3},\n    \
             \"raw_overhead_pct\": {raw_overhead_pct:.3},\n    \
             \"overhead_pct\": {overhead_pct:.3},\n    \
             \"noise_floor_pct\": {TRACE_NOISE_FLOOR_PCT},\n    \
             \"p99_chunk_publish_us\": {p99_chunk_publish_us},\n    \
             \"bit_identical\": true\n  }}"
        );
    }

    let json = format!(
        "{{\n  \"schema\": \"smt-avf/perfbench/v1\",\n  \"commit\": \"{}\",\n  \
         \"hardware\": {{\n    \"available_parallelism\": {parallelism}\n  }},\n  \
         \"config\": {{\n    \"workload\": \"{}\",\n    \"policy\": \"ICOUNT\",\n    \
         \"warmup_cycles\": {warmup},\n    \"timed_cycles\": {timed}\n  }},\n  \
         \"step\": {{\n    \"cycles_per_sec\": {cps:.0},\n    \
         \"baseline_cycles_per_sec\": {BASELINE_STEP_CPS},\n    \
         \"speedup_vs_baseline\": {step_speedup:.3}\n  }},\n  \
         \"trace\": {trace_json},\n  \
         \"fastforward\": {fastforward_json},\n  \
         \"sweep\": {sweep_json},\n  \
         \"sfi\": {sfi_json},\n  \
         \"lanes\": {lanes_json},\n  \
         \"service\": {service_json}\n}}\n",
        git_sha(),
        w.name,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
    println!("wrote {out_path}");
}
