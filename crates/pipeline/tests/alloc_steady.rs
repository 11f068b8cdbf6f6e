//! Regression test: steady-state `SmtCore::step()` performs zero heap
//! allocations.
//!
//! A counting shim wraps the system allocator for this test binary. The
//! core is stepped long enough for every reusable buffer (scratch vectors,
//! ROB slab, event heap, trace-generator tables) to reach its high-water
//! capacity, then a measurement window of further steps must not allocate
//! at all. Deallocations are not counted: freeing is legal (nothing on the
//! hot path frees either, but the invariant being pinned is "no allocator
//! pressure in the cycle loop").

use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::SmtCore;
use sim_workload::{profile, TraceGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the counter is a relaxed
// atomic with no allocator interaction.
static TRAP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRAP.swap(false, Ordering::Relaxed) {
            eprintln!(
                "ALLOC {} bytes at:\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRAP.swap(false, Ordering::Relaxed) {
            eprintln!(
                "REALLOC {} -> {} bytes at:\n{}",
                layout.size(),
                new_size,
                std::backtrace::Backtrace::force_capture()
            );
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn steady_state_allocs(
    policy: FetchPolicyKind,
    programs: &[&str],
    warmup: u64,
    window: u64,
    traced: bool,
) -> u64 {
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(programs.len())
        .with_fetch_policy(policy);
    let gens = programs
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("known benchmark"), i as u64 + 1))
        .collect();
    let mut core = SmtCore::new(cfg, gens);
    #[cfg(feature = "trace")]
    if traced {
        // A small ring that wraps inside the window: both the fill and the
        // overwrite paths of the sink must be allocation-free.
        core.enable_tracing(sim_pipeline::TraceConfig {
            capacity: 1024,
            sample_interval: 64,
        });
    }
    #[cfg(not(feature = "trace"))]
    let _ = traced;
    for _ in 0..warmup {
        core.step();
    }
    let before = allocations();
    TRAP.store(true, Ordering::Relaxed);
    for _ in 0..window {
        core.step();
    }
    TRAP.store(false, Ordering::Relaxed);
    allocations() - before
}

// A single test function: the allocation counter is process-global, so two
// scenarios must not run on concurrent harness threads (one test's warmup
// would be charged to the other's measurement window).
#[test]
fn steady_state_step_is_allocation_free() {
    let icount = steady_state_allocs(
        FetchPolicyKind::Icount,
        &["bzip2", "mcf", "eon", "gcc"],
        50_000,
        20_000,
        false,
    );
    assert_eq!(
        icount, 0,
        "ICOUNT step() allocated {icount} times in steady state"
    );

    // FLUSH exercises the squash/replay scratch buffers every L2 miss.
    let flush = steady_state_allocs(
        FetchPolicyKind::Flush,
        &["mcf", "twolf"],
        80_000,
        20_000,
        false,
    );
    assert_eq!(
        flush, 0,
        "FLUSH step() allocated {flush} times in steady state"
    );

    // 4T-MEM-A keeps the shared IQ nearly full under ICOUNT, almost every
    // entry waiting on an unwritten register: an undersized waiter pool
    // or ready list would allocate here.
    let saturated = steady_state_allocs(
        FetchPolicyKind::Icount,
        &["mcf", "equake", "vpr", "swim"],
        50_000,
        20_000,
        false,
    );
    assert_eq!(
        saturated, 0,
        "saturated-IQ step() allocated {saturated} times in steady state"
    );

    // With a live ring sink the hot loop must still not allocate: the ring
    // and its counters are fully preallocated (events land by value).
    let traced = steady_state_allocs(
        FetchPolicyKind::Icount,
        &["bzip2", "mcf", "eon", "gcc"],
        50_000,
        20_000,
        true,
    );
    assert_eq!(
        traced, 0,
        "traced step() allocated {traced} times in steady state"
    );
}
