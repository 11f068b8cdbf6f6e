#![warn(missing_docs)]
//! `sim-exec`: a deterministic scoped-thread worker pool for independent
//! simulation jobs.
//!
//! Every experiment sweep in the workspace — figure regenerations, policy
//! sweeps, fault-injection campaigns — has the same shape: `total`
//! independent jobs, each a pure function of its index, whose results must
//! be merged **in index order** so the output is bit-identical to a serial
//! run regardless of how many workers executed it.
//!
//! # Determinism contract
//!
//! [`run_indexed`] guarantees that for a fixed job function `f`:
//!
//! 1. every index in `0..total` is executed exactly once;
//! 2. the returned vector holds `f(i)` at position `i`;
//! 3. the result is identical for **any** worker count (including 1),
//!    because jobs never communicate and the merge is by index, never by
//!    completion order.
//!
//! Jobs must therefore not derive behavior from shared mutable state,
//! wall-clock time, or thread identity — the same rule the simulators
//! already obey (they are pure functions of their seeds).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count used by sweep drivers when the caller does not choose
/// one: the `SMT_AVF_WORKERS` environment variable if set and nonzero,
/// otherwise the machine's available parallelism. A request above the
/// available parallelism is clamped (with a one-line stderr notice):
/// oversubscribing pure-CPU simulation jobs only adds scheduling overhead
/// — on a single-core host, workers=2/4 measured 0.90–0.98× of workers=1.
/// Callers that pass an explicit count (sweep axes, tests) are unaffected.
pub fn worker_count() -> usize {
    let hw = default_parallelism();
    match std::env::var("SMT_AVF_WORKERS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 && n <= hw => n,
            Ok(n) if n > hw => {
                eprintln!(
                    "[sim-exec] SMT_AVF_WORKERS={n} exceeds available parallelism; \
                     clamping to {hw}"
                );
                hw
            }
            _ => hw,
        },
        Err(_) => hw,
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scheduling observability for one [`run_indexed_stats`] call. The stats
/// describe *how* the pool executed (load balance), never *what* it
/// computed — results are index-merged and identical for any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs executed by each worker, in worker-spawn order. The serial
    /// path reports a single entry holding every job. Entries sum to the
    /// job total; their spread is the pool's load-balance diagnostic.
    pub per_worker_jobs: Vec<u64>,
}

impl PoolStats {
    /// Total jobs executed across workers.
    pub fn total_jobs(&self) -> u64 {
        self.per_worker_jobs.iter().sum()
    }

    /// Add another call's tallies worker by worker, so a caller that
    /// runs several pool phases over the same workers reports them as
    /// one pool.
    pub fn merge(&mut self, other: &PoolStats) {
        let jobs = &mut self.per_worker_jobs;
        jobs.resize(jobs.len().max(other.per_worker_jobs.len()), 0);
        for (mine, theirs) in jobs.iter_mut().zip(&other.per_worker_jobs) {
            *mine += theirs;
        }
    }
}

/// Execute `f(0..total)` on `workers` scoped threads and return the results
/// in index order. See the module docs for the determinism contract.
///
/// `workers` is clamped to `[1, total]`; `workers == 1` degenerates to a
/// serial in-order loop on the calling thread (no threads spawned), which
/// is the reference order parallel runs are bit-identical to.
///
/// # Panics
/// Panics if any job panics (the panic is propagated once every worker has
/// stopped).
pub fn run_indexed<T, F>(total: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_stats(total, workers, f).0
}

/// [`run_indexed`] plus per-worker scheduling stats. Results carry the
/// same determinism contract; only the stats depend on scheduling.
pub fn run_indexed_stats<T, F>(total: usize, workers: usize, f: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if total == 0 {
        return (
            Vec::new(),
            PoolStats {
                per_worker_jobs: Vec::new(),
            },
        );
    }
    let workers = workers.clamp(1, total);
    if workers == 1 {
        return (
            (0..total).map(f).collect(),
            PoolStats {
                per_worker_jobs: vec![total as u64],
            },
        );
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..total).map(|_| None).collect());
    let mut per_worker_jobs = vec![0u64; workers];
    std::thread::scope(|scope| {
        let (next, results, f) = (&next, &results, &f);
        for jobs in per_worker_jobs.iter_mut() {
            // `move` takes this worker's `&mut` tally slot; the shared
            // state is captured as the references rebound above.
            scope.spawn(move || loop {
                // One index per claim: every job is a whole simulation or
                // lane batch, so the atomic add and merge lock are noise,
                // and a worker never holds jobs it has not started while
                // another worker idles.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                *jobs += 1;
                let r = f(i);
                results.lock().unwrap()[i] = Some(r);
            });
        }
    });
    let results = results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every index in 0..total was claimed exactly once"))
        .collect();
    (results, PoolStats { per_worker_jobs })
}

/// Map `f` over a slice on `workers` threads, preserving input order.
/// Convenience wrapper over [`run_indexed`].
pub fn par_map<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    run_indexed(items.len(), workers, |i| f(&items[i]))
}

/// Map a fallible `f` over a slice on `workers` threads; all jobs run to
/// completion, then the first error **in index order** (not completion
/// order) is returned, keeping error reporting deterministic too.
pub fn try_par_map<I, T, E, F>(items: &[I], workers: usize, f: F) -> Result<Vec<T>, E>
where
    I: Sync,
    T: Send,
    E: Send,
    F: Fn(&I) -> Result<T, E> + Sync,
{
    run_indexed(items.len(), workers, |i| f(&items[i]))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        let serial = run_indexed(37, 1, |i| i * i);
        for workers in [1, 2, 3, 4, 8, 64] {
            assert_eq!(run_indexed(37, workers, |i| i * i), serial, "{workers}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        run_indexed(100, 7, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn empty_and_single_totals() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_map_preserves_order() {
        let items = ["a", "bb", "ccc"];
        assert_eq!(par_map(&items, 2, |s| s.len()), vec![1, 2, 3]);
    }

    #[test]
    fn try_par_map_returns_first_error_by_index() {
        let items = [1u32, 2, 3, 4];
        let r: Result<Vec<u32>, u32> =
            try_par_map(&items, 4, |&x| if x % 2 == 0 { Err(x) } else { Ok(x) });
        assert_eq!(r, Err(2), "index order, not completion order");
        let ok: Result<Vec<u32>, u32> = try_par_map(&items, 2, |&x| Ok(x * 10));
        assert_eq!(ok.unwrap(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn pool_stats_account_for_every_job() {
        for (total, workers) in [(0usize, 4usize), (1, 4), (37, 1), (37, 3), (100, 8)] {
            let (results, stats) = run_indexed_stats(total, workers, |i| i);
            assert_eq!(results, (0..total).collect::<Vec<_>>());
            assert_eq!(stats.total_jobs(), total as u64, "{total}/{workers}");
            if total > 0 {
                assert_eq!(stats.per_worker_jobs.len(), workers.clamp(1, total));
            }
        }
    }

    /// With as many jobs as workers, every worker must get one: each job
    /// blocks until all of them have started, which only happens if no
    /// worker holds an unstarted job while another idles. A pool that
    /// hands out blocks of jobs times out here instead of hanging.
    #[test]
    fn pool_is_work_conserving() {
        use std::sync::Condvar;
        use std::time::Duration;
        for workers in [2usize, 4] {
            let started = (Mutex::new(0usize), Condvar::new());
            let (timed_out, stats) = run_indexed_stats(workers, workers, |_| {
                let (count, cv) = &started;
                let mut n = count.lock().unwrap();
                *n += 1;
                cv.notify_all();
                let (_n, wait) = cv
                    .wait_timeout_while(n, Duration::from_secs(30), |n| *n < workers)
                    .unwrap();
                wait.timed_out()
            });
            assert!(
                !timed_out.contains(&true),
                "{workers} workers: a job waited alone"
            );
            assert_eq!(stats.per_worker_jobs, vec![1; workers], "{workers} workers");
        }
    }

    #[test]
    fn serial_path_reports_one_worker() {
        let (_, stats) = run_indexed_stats(10, 1, |i| i);
        assert_eq!(stats.per_worker_jobs, vec![10]);
    }

    #[test]
    fn merge_adds_phases_worker_by_worker() {
        let (_, mut stats) = run_indexed_stats(10, 1, |i| i);
        let (_, other) = run_indexed_stats(4, 2, |i| i);
        stats.merge(&other);
        assert_eq!(stats.per_worker_jobs.len(), 2);
        assert_eq!(stats.total_jobs(), 14);
        assert_eq!(stats.per_worker_jobs[0], 10 + other.per_worker_jobs[0]);
    }
}
