//! Footprint assertion harness: what a rank costs in heap before its
//! first message, and that the cost does not grow with the job.
//!
//! The whole test binary runs under a global allocator that tracks live
//! bytes and their high-water mark. A job whose closure does nothing is
//! launched in task mode at 256 and at 2048 ranks (same host shape, 16
//! ranks per host); the peak live heap above the pre-launch level,
//! divided by the rank count, is the per-rank footprint — job-wide
//! tables included, the fiber stack slab excluded (it is address space;
//! only touched pages of it are memory, and those are the body's
//! frames, not the runtime's state).
//!
//! Two assertions: per-rank bytes at 2048 ranks stay within 1.25× of
//! per-rank bytes at 256 (a dense per-rank table of length n would be
//! 8× larger there and cannot come back unnoticed), and per-rank bytes
//! at 256 stay inside an absolute budget of the measured value + 25 %.
//! The first holds under a fault plan too: a plan that never fires
//! still takes the job through its fault-aware init. A third: the heap
//! a job took is back once the job has returned (the fabric's delivery
//! callbacks once kept the whole job state alive, 1.2 MB per 256-rank
//! job).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cmpi_cluster::{DeploymentScenario, FaultPlan, MidRunTrigger, NamespaceSharing};
use cmpi_core::{ExecMode, JobSpec};

struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The job's stack bytes: the one allocation at least this large (the
/// stack slab, which adds a page of layout slack) is left out of the
/// count.
static EXCLUDED_SIZE: AtomicUsize = AtomicUsize::new(usize::MAX);

fn counted(size: usize) -> bool {
    size < EXCLUDED_SIZE.load(Ordering::Relaxed)
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers every request to `System` unchanged; the counters are
// bookkeeping on the side.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted(layout.size()) {
            grow(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted(layout.size()) {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: same pointer and layout the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        // SAFETY: same pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const STACK_KIB: usize = 128;

/// Peak live heap bytes per rank of a noop job under `plan` on `hosts`
/// hosts of 16 ranks each (two containers of eight).
fn noop_bytes_per_rank(hosts: u32, plan: &FaultPlan) -> usize {
    let scenario = DeploymentScenario::containers(hosts, 2, 8, NamespaceSharing::default());
    let n = scenario.num_ranks();
    let spec = JobSpec::new(scenario)
        .with_faults(plan.clone())
        .with_exec(ExecMode::Tasks)
        .with_workers(1)
        .with_stack_kib(STACK_KIB);
    EXCLUDED_SIZE.store(n * STACK_KIB * 1024, Ordering::Relaxed);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let ranks_seen = spec.run(|mpi| mpi.rank()).results.len();
    assert_eq!(ranks_seen, n);
    (PEAK.load(Ordering::Relaxed) - before) / n
}

/// Heap bytes per rank of a noop job under `plan` at 256 and at 2048
/// ranks, after asserting that the second is within 1.25× of the first.
fn assert_independent_of_job_size(what: &str, plan: &FaultPlan) -> usize {
    let small = noop_bytes_per_rank(16, plan);
    let large = noop_bytes_per_rank(128, plan);
    eprintln!("noop job heap {what}: {small} B/rank at 256 ranks, {large} B/rank at 2048 ranks");
    assert!(
        large * 4 <= small * 5,
        "per-rank heap grew with the job {what}: {small} B/rank at 256 ranks, {large} B/rank \
         at 2048"
    );
    small
}

// One test, because the allocator's counters are process-wide and the
// test harness runs tests on parallel threads.
#[test]
fn per_rank_heap_is_bounded_and_independent_of_job_size() {
    let none = FaultPlan::none();
    let small = assert_independent_of_job_size("without a fault plan", &none);
    let never = FaultPlan::none().with_crash(0, MidRunTrigger::AfterOps(u64::MAX));
    assert_independent_of_job_size("under a fault plan that never fires", &never);
    // Measured 3 233 B/rank when this budget was set (DESIGN.md §16 says
    // what the bytes are); + 25 %.
    const BUDGET: usize = 4_041;
    assert!(
        small <= BUDGET,
        "a rank of a 256-rank noop job holds {small} B of heap, budget {BUDGET} B"
    );
    // Lazily-built process-wide state was paid for by the runs above, so
    // whatever two more jobs leave behind is per-job.
    let before = LIVE.load(Ordering::Relaxed);
    noop_bytes_per_rank(16, &none);
    noop_bytes_per_rank(16, &none);
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert!(
        kept < 64 * 1024,
        "two finished 256-rank jobs still hold {kept} B of heap"
    );
}
