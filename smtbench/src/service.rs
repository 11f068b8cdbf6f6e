//! `sfi-service`: a closed loop with one client driving the `sim-serve`
//! binary. The client submits a series of small quick-scale jobs into a
//! fresh store, sharded over worker processes; one job is killed by the
//! store's crash hook and resubmitted; then it reads every result back and
//! runs `fsck` once. The store's publish and read paths, worker framing
//! and each worker's extra golden pass carry much of the work here.

use crate::campaign::targets;
use crate::ledger::{Scope, Tracer};
use crate::sweep::Unit;
use crate::{median, Opts, Pass, Scale, Workload};
use sim_model::FetchPolicyKind;
use sim_store::campaign::{result_ref, ChunkRecord};
use sim_store::{decode_record, encode_record, sha256, ObjectId, Store};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Instant;

/// Where every run keeps its stores, relative to the checkout root.
const WORK_DIR: &str = ".smtbench-work";

/// Job workloads, cycled over the series.
const JOB_MIXES: [&str; 3] = ["2T-MIX-A", "2T-CPU-A", "2T-MEM-A"];

/// Registry values read from `sim-serve`'s metrics snapshots.
#[derive(Default)]
struct Registry {
    fsync_buckets: BTreeMap<u64, u64>,
    publishes: f64,
    bytes: f64,
    spawns: f64,
    submits: f64,
}

#[derive(Default)]
struct Obs {
    passes: f64,
    result_s: Vec<f64>,
    resume_s: Vec<f64>,
    fsck_s: Vec<f64>,
    store_mb: Vec<f64>,
    registry: Registry,
}

pub struct Service {
    exe: PathBuf,
    root: PathBuf,
    jobs: Vec<(String, &'static str, u64)>,
    trials: usize,
    chunk: usize,
    workers: usize,
    crash: bool,
    passes: usize,
    probe_store: Option<PathBuf>,
    obs: Obs,
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Only removes the shared parent when no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_child(cmd: &mut Command) -> Result<Output, String> {
    cmd.stdin(Stdio::null())
        .output()
        .map_err(|e| format!("running {cmd:?}: {e}"))
}

fn succeeded(out: Output, what: &str) -> Result<String, String> {
    if !out.status.success() {
        return Err(format!(
            "{what} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The body of metric `name` in a registry snapshot.
fn metric<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": {{");
    let start = json.find(&key)? + key.len();
    let mut depth = 1;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Integer field `field` of a metric body.
fn field(body: &str, field: &str) -> f64 {
    let key = format!("\"{field}\": ");
    body.find(&key)
        .map(|i| &body[i + key.len()..])
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Histogram buckets of a metric body as `(upper bound, count)`.
fn buckets(body: &str) -> Vec<(u64, u64)> {
    let Some(i) = body.find("\"buckets\": {") else {
        return Vec::new();
    };
    body[i + 12..]
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            let k = k.trim().trim_matches('"').parse().ok()?;
            let v = v.trim().trim_end_matches('}').trim().parse().ok()?;
            Some((k, v))
        })
        .collect()
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.filter_map(|e| e.ok())
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Service {
    fn serve(&self) -> Command {
        Command::new(&self.exe)
    }

    fn submit_cmd(&self, store: &Path, job: usize, procs: usize) -> Command {
        let (name, mix, seed) = &self.jobs[job];
        let mut c = self.serve();
        c.arg("submit").arg("--store").arg(store);
        for (k, v) in [
            ("--workload", mix.to_string()),
            ("--trials", self.trials.to_string()),
            ("--seed", seed.to_string()),
            ("--chunk", self.chunk.to_string()),
            ("--scale", "quick".to_string()),
            ("--workers", self.workers.to_string()),
            ("--name", name.clone()),
            ("--worker-procs", procs.to_string()),
        ] {
            c.arg(k).arg(v);
        }
        c.env_remove("SIM_STORE_CRASH_AFTER_CHUNKS");
        c
    }

    /// Submit `job` and return its id. Traced, the submit's store publish
    /// time and its workers' chunk time (from the child's metrics
    /// registry) become child spans.
    fn submit(
        &mut self,
        tracer: &Tracer,
        store: &Path,
        job: usize,
        procs: usize,
    ) -> Result<String, String> {
        let mut cmd = self.submit_cmd(store, job, procs);
        let registry = &mut self.obs.registry;
        let out = tracer.span(tracer.root(), "sim-serve", |scope| {
            let out = run_child(&mut cmd).and_then(|o| succeeded(o, "sim-serve submit"));
            if tracer.is_on() && out.is_ok() {
                read_registry(tracer, scope, store, procs, registry);
            }
            out
        })?;
        out.lines()
            .find_map(|l| l.strip_prefix("job "))
            .map(str::to_string)
            .ok_or_else(|| "sim-serve submit printed no job id".to_string())
    }

    fn result_id(store: &Path, job: &str) -> Result<String, String> {
        let store = Store::open(store).map_err(|e| e.to_string())?;
        let job = ObjectId::from_hex(job).ok_or("submit printed a malformed job id")?;
        store
            .get_ref(&result_ref(&job))
            .map_err(|e| e.to_string())?
            .map(|id| id.to_hex())
            .ok_or_else(|| "job has no published result".to_string())
    }

    /// Median seconds of `reps` runs of `f`.
    fn timed(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
        let mut v = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            f()?;
            v.push(t.elapsed().as_secs_f64());
        }
        Ok(median(&v))
    }

    /// In-process probes of the store layer over a finished pass's store:
    /// `Store::get`, the record codec, `Store::put` into a scratch store,
    /// and SHA-256.
    fn store_probes(&self, m: &mut BTreeMap<String, f64>) -> Result<(), String> {
        let Some(dir) = &self.probe_store else {
            return Ok(());
        };
        let store = Store::open(dir).map_err(|e| e.to_string())?;
        let scratch = Store::open(self.root.join("put-probe")).map_err(|e| e.to_string())?;
        let (mut get_us, mut put_us, mut enc_us, mut dec_us) = (vec![], vec![], vec![], vec![]);
        let mut bytes_all = Vec::new();
        for (name, id) in store.refs("jobs/").map_err(|e| e.to_string())? {
            let t = Instant::now();
            let bytes = store.get(&id).map_err(|e| e.to_string())?;
            get_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            scratch.put(&bytes).map_err(|e| e.to_string())?;
            put_us.push(t.elapsed().as_secs_f64() * 1e6);
            if name.contains("/chunks/") {
                let t = Instant::now();
                let chunk: ChunkRecord = decode_record(&bytes).map_err(|e| e.to_string())?;
                dec_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                let again = std::hint::black_box(encode_record(&chunk));
                enc_us.push(t.elapsed().as_secs_f64() * 1e6);
                if again != bytes {
                    return Err(format!("{name}: chunk does not re-encode to its bytes"));
                }
            }
            bytes_all.extend_from_slice(&bytes);
        }
        put_us.sort_by(f64::total_cmp);
        let p90 = put_us.get((put_us.len() * 9 / 10).min(put_us.len().saturating_sub(1)));
        m.insert("store.get_us.p50".into(), median(&get_us));
        m.insert("store.put_us.p50".into(), median(&put_us));
        m.insert("store.put_us.p90".into(), p90.copied().unwrap_or(0.0));
        m.insert("store.encode_us".into(), median(&enc_us));
        m.insert("store.decode_us".into(), median(&dec_us));
        // Hash enough bytes that the timer resolution does not matter.
        let reps = (64 << 20) / bytes_all.len().max(1) + 1;
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(sha256(std::hint::black_box(&bytes_all)));
        }
        let mb = (reps * bytes_all.len()) as f64 / 1e6;
        m.insert(
            "store.sha256_mb_per_s".into(),
            mb / t.elapsed().as_secs_f64(),
        );
        Ok(())
    }
}

/// Fold the submit's metrics snapshot into `registry` and turn its store
/// publish time and worker chunk time into child spans of `scope`.
fn read_registry(
    tracer: &Tracer,
    scope: Scope,
    store: &Path,
    procs: usize,
    registry: &mut Registry,
) {
    let Ok(json) = std::fs::read_to_string(store.join("metrics").join("submit.json")) else {
        return;
    };
    let get = |name: &str| metric(&json, name).unwrap_or("");
    let publish = get("store.publish_us");
    tracer.record(scope, "sim-store", field(publish, "sum") * 1e-6);
    let chunk_us = field(get("serve.worker.chunk_us"), "sum");
    tracer.record(scope.parallel(procs), "sim-inject", chunk_us * 1e-6);
    for (bound, n) in buckets(get("store.fsync_us")) {
        *registry.fsync_buckets.entry(bound).or_default() += n;
    }
    registry.publishes += field(get("store.publishes"), "value");
    registry.bytes += field(get("store.published_bytes"), "value");
    registry.spawns += field(get("serve.worker.spawns"), "value");
    registry.submits += 1.0;
}

impl Workload for Service {
    const NAME: &'static str = "sfi-service";

    fn setup(opts: &Opts) -> Result<Service, String> {
        // Absolute, because the crashing submission runs in another
        // directory.
        let exe = std::fs::canonicalize(&opts.sim_serve)
            .map_err(|e| format!("{}: {e}; build it first", opts.sim_serve.display()))?;
        let (jobs, trials, chunk) = match opts.scale {
            Scale::Full => (6, 6, 8),
            Scale::Toy => (2, 1, 2),
        };
        let root = std::env::current_dir()
            .map_err(|e| format!("current directory: {e}"))?
            .join(WORK_DIR)
            .join(std::process::id().to_string());
        let s = Service {
            exe,
            // A job's trials set most of its cost, so the jobs are fixed
            // and the seed picks the submission order and which job the
            // crash hook kills.
            jobs: (0..jobs)
                .map(|j| (j + opts.variant() as usize) % jobs)
                .map(|j| {
                    (
                        format!("bench-{j}"),
                        JOB_MIXES[j % JOB_MIXES.len()],
                        1000 + j as u64,
                    )
                })
                .collect(),
            root,
            trials,
            chunk,
            workers: opts.workers,
            crash: opts.pin_out.is_none(),
            passes: 0,
            probe_store: None,
            obs: Obs::default(),
        };
        // Resolve every job's workload and build its core once, as the
        // server will, so a bad input fails before anything is timed.
        for (_, mix, _) in &s.jobs {
            drop(Unit::new(mix, FetchPolicyKind::Icount, 0)?.core());
        }
        Ok(s)
    }

    fn pass(&mut self, tracer: &Tracer) -> Result<Pass, String> {
        let t0 = Instant::now();
        let root = tracer.root();
        self.passes += 1;
        std::fs::create_dir_all(&self.root).map_err(|e| format!("{}: {e}", self.root.display()))?;
        let store = self.root.join(format!("store-{}", self.passes));
        let mut pass = Pass::default();
        // Each job's result id, or why it has none; a failed step fails
        // that job's output check and the pass goes on.
        let mut ids: Vec<Result<String, String>> = Vec::with_capacity(self.jobs.len());
        for j in 0..self.jobs.len() {
            let t = Instant::now();
            if j == 0 && self.crash {
                // Killed in-process after its first chunk, like `kill -9`:
                // no worker processes outlive it.
                let mut cmd = self.submit_cmd(&store, j, 1);
                // Any core dump of the abort lands in the work directory.
                cmd.env("SIM_STORE_CRASH_AFTER_CHUNKS", "1")
                    .current_dir(&self.root);
                let killed = match tracer.span(root, "sim-serve", |_| run_child(&mut cmd)) {
                    Ok(out) if out.status.success() => {
                        Err("crash hook did not stop the job".into())
                    }
                    Ok(_) => Ok(()),
                    Err(e) => Err(e),
                };
                let t = Instant::now();
                let id = killed.and_then(|()| self.submit(tracer, &store, j, self.workers));
                if id.is_ok() {
                    self.obs.resume_s.push(t.elapsed().as_secs_f64());
                }
                ids.push(id);
            } else {
                ids.push(self.submit(tracer, &store, j, self.workers));
                pass.unit_secs.push(t.elapsed().as_secs_f64());
            }
            pass.work += (self.trials * targets().len()) as f64;
        }
        for id in ids.iter_mut() {
            let Ok(job) = id.clone() else { continue };
            let t = Instant::now();
            let mut cmd = self.serve();
            cmd.arg("result")
                .arg("--store")
                .arg(&store)
                .arg("--job")
                .arg(&job);
            let out = tracer.span(root, "sim-serve", |_| run_child(&mut cmd));
            match out.and_then(|o| succeeded(o, "sim-serve result")) {
                Ok(text) if text.lines().next() == Some(&format!("job {job}")) => {}
                Ok(_) => *id = Err(format!("sim-serve result printed the wrong job for {job}")),
                Err(e) => *id = Err(e),
            }
            if tracer.is_on() {
                self.obs.result_s.push(t.elapsed().as_secs_f64());
            }
        }
        let t = Instant::now();
        let mut cmd = self.serve();
        cmd.arg("fsck").arg("--store").arg(&store);
        let fsck = tracer.span(root, "sim-store", |_| run_child(&mut cmd));
        let fsck = fsck
            .and_then(|o| succeeded(o, "sim-serve fsck"))
            .map(|_| "clean".to_string());
        self.obs.fsck_s.push(t.elapsed().as_secs_f64());
        pass.outputs.push(("fsck".to_string(), fsck));
        tracer.span(root, "sim-store", |_| {
            for (j, id) in ids.into_iter().enumerate() {
                let out = id.and_then(|job| Self::result_id(&store, &job));
                // The campaign's thread count is part of a job's identity.
                let unit = format!("{}.w{}", self.jobs[j].0, self.workers);
                pass.outputs.push((unit, out));
            }
        });
        let mb = (dir_bytes(&store.join("objects")) + dir_bytes(&store.join("refs"))) as f64;
        self.obs.store_mb.push(mb / (1024.0 * 1024.0));
        tracer.span(root, "bench", |_| {
            if tracer.is_on() {
                // Keep the last traced store for the store-layer probes.
                if let Some(old) = self.probe_store.replace(store.clone()) {
                    let _ = std::fs::remove_dir_all(old);
                }
                Ok(())
            } else {
                std::fs::remove_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))
            }
        })?;
        if tracer.is_on() {
            self.obs.passes += 1.0;
        }
        pass.wall = t0.elapsed().as_secs_f64();
        Ok(pass)
    }

    fn layers(&mut self, plain: &[Pass]) -> Result<BTreeMap<String, f64>, String> {
        let mut m = BTreeMap::new();
        let rates: Vec<f64> = plain.iter().map(|p| p.work / p.wall).collect();
        m.insert("inject.trials_per_s".into(), median(&rates));
        let o = &self.obs;
        let n = o.passes.max(1.0);
        m.insert("serve.result_s".into(), median(&o.result_s));
        m.insert("serve.resume_s".into(), median(&o.resume_s));
        m.insert("store.fsck_s".into(), median(&o.fsck_s));
        m.insert("store.store_mb".into(), median(&o.store_mb));
        let r = &o.registry;
        m.insert("store.publishes".into(), r.publishes / n);
        m.insert("store.bytes_published".into(), r.bytes / n);
        m.insert(
            "serve.worker_spawns_per_job".into(),
            r.spawns / r.submits.max(1.0),
        );
        let total: u64 = r.fsync_buckets.values().sum();
        let mut seen = 0;
        for (bound, count) in &r.fsync_buckets {
            seen += count;
            if 2 * seen >= total {
                m.insert("store.fsync_us.p50".into(), *bound as f64);
                break;
            }
        }
        self.store_probes(&mut m)?;

        // Probes outside the ledgered passes.
        let none = self.root.join("none");
        let spawn = Self::timed(5, || {
            succeeded(
                run_child(self.serve().arg("metrics").arg("--store").arg(&none))?,
                "sim-serve metrics",
            )
            .map(drop)
        })?;
        m.insert("serve.spawn_s".into(), spawn);
        let mut k = 0;
        let mut job0 = |procs: usize| {
            k += 1;
            let store = self.root.join(format!("shard-probe-{k}"));
            let out = run_child(&mut self.submit_cmd(&store, 0, procs));
            let _ = std::fs::remove_dir_all(&store);
            succeeded(out?, "sim-serve submit").map(drop)
        };
        let mut sharded = Vec::new();
        let mut local = Vec::new();
        for _ in 0..2 {
            local.push(Self::timed(1, || job0(1))?);
            sharded.push(Self::timed(1, || job0(self.workers))?);
        }
        m.insert(
            "serve.shard_overhead_s".into(),
            median(&sharded) - median(&local),
        );
        let units: Vec<Unit> = JOB_MIXES
            .iter()
            .map(|mix| Unit::new(mix, FetchPolicyKind::Icount, 0))
            .collect::<Result<_, _>>()?;
        let mut gen_us = Vec::new();
        let mut core_us = Vec::new();
        for u in units.iter().cycle().take(3 * units.len()) {
            let t = Instant::now();
            let gens = u.generators();
            gen_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let core = std::hint::black_box(u.core_from(gens));
            core_us.push(t.elapsed().as_secs_f64() * 1e6);
            drop(core);
        }
        m.insert("workload.generators_us".into(), median(&gen_us));
        m.insert("pipeline.core_new_us".into(), median(&core_us));
        Ok(m)
    }
}
