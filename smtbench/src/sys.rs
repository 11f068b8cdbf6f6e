//! Host facts the benchmark reports: resident-set peaks, process CPU time,
//! core counts and the source revision.

use std::process::Command;

/// `struct rusage` on 64-bit Linux: two `timeval`s (user, system) and
/// fourteen `long` counters, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the layout the
    // kernel ABI defines for 64-bit Linux, and `who` is a valid selector.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    u
}

/// Largest resident set, in MiB, of this process or of any child process
/// it has waited for (and, through them, their waited-for descendants).
pub fn peak_rss_mb() -> f64 {
    let kib = rusage(RUSAGE_SELF).counters[0].max(rusage(RUSAGE_CHILDREN).counters[0]);
    kib as f64 / 1024.0
}

/// User plus system CPU seconds this process has consumed, all threads.
pub fn cpu_seconds() -> f64 {
    let u = rusage(RUSAGE_SELF);
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(u.utime) + secs(u.stime)
}

/// `std::thread::available_parallelism`, or 1 when it cannot be read.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Processors the `nproc` tool reports (affinity mask), falling back to
/// [`available_parallelism`] when the tool is missing.
pub fn nproc() -> usize {
    Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(available_parallelism)
}

/// The checked-out commit and whether the tree has local changes, or
/// `("unknown", None)` outside a git checkout.
pub fn revision() -> (String, Option<bool>) {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) => {
            let dirty =
                git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
            (head, dirty)
        }
        None => ("unknown".to_string(), None),
    }
}
