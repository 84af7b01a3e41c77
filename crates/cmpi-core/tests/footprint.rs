//! Footprint assertion harness: what a rank costs in heap and in fiber
//! stack before its first message and while it talks, and that neither
//! cost grows with the job.
//!
//! The whole test binary runs under a global allocator that tracks live
//! bytes and their high-water mark. A job whose closure does nothing is
//! launched in task mode at 256 and at 2048 ranks (same host shape, 16
//! ranks per host); the peak live heap above the pre-launch level,
//! divided by the rank count, is the per-rank heap — job-wide tables
//! included, the fiber stack slab excluded. The slab is counted apart:
//! when it is freed, the allocator counts its pages that hold a non-zero
//! byte, which are the pages the fibers' frames touched (the slab is a
//! fresh `mmap`, zero until written, as long as it is above glibc's
//! largest `mmap` threshold of 32 MiB). A rank's figure is its heap plus
//! its share of those pages.
//!
//! Heap assertions: per-rank heap at 2048 ranks stays within 1.25× of
//! per-rank heap at 256 (a dense per-rank table of length n would be 8×
//! larger there and cannot come back unnoticed), and per-rank heap at
//! 256 stays inside an absolute budget of the measured value + 25 %.
//! The first holds under a fault plan too: a plan that never fires still
//! takes the job through its fault-aware init. A third: the heap a job
//! took is back once the job has returned (the fabric's delivery
//! callbacks once kept the whole job state alive, 1.2 MB per 256-rank
//! job).
//!
//! Stack assertion, release builds only (frame sizes are a property of
//! the optimised build): every fiber's deepest path fits in the top page
//! of its stack, so a job touches one stack page per rank, plus the page
//! that holds stack 0's canary (DESIGN §16).
//!
//! The same assertions hold a second body: four steps of the mixed
//! traffic the benchmark's `scale1024` workload runs (16 receives and 16
//! sends of 1 KiB to the ranks at offsets ±1, 2, 4 and 8, a 256-element
//! allreduce and a barrier). Its peak is the state a rank holds while
//! messages are in flight: requests, matching buckets, drain scratch,
//! reduce accumulators and histograms, plus the body's own 2 KiB vector.
//! The body keeps a 512-byte local live throughout, standing in for the
//! frames of a caller's closure (the benchmark's adds about 300 bytes).
//!
//! A third body loses a rank and recovers: rank n − 1 crashes at its
//! first call, the survivors see a receive from it fail, shrink the
//! world and allreduce over the survivors. Its heap holds the same two
//! bounds: what a shrink costs a rank must not grow with the job.
//!
//! Two more bodies run two ranks on two hosts, so every message crosses
//! the HCA: an 8-byte eager ping-pong and a rendezvous stream of 64 KiB
//! messages in windows of 16. Their per-rank heap, stack slab included,
//! at 100 000 round trips (messages) stays within 1.1× of the heap at
//! 10 000: a link schedule that kept an interval per message for the
//! whole job grew 16 bytes a message on each of its four adapter paths.
//!
//! Where the traffic peak's bytes are, by allocation size, is printed by
//! an ignored helper (not an assertion):
//! `cargo test --release -p cmpi-core --test footprint -- --ignored --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use bytes::Bytes;
use cmpi_cluster::{DeploymentScenario, FaultPlan, MidRunTrigger, NamespaceSharing};
use cmpi_core::{Completion, ExecMode, JobSpec, Mpi, MpiError, ReduceOp};

struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The job's stack bytes: the one allocation at least this large (the
/// stack slab, which adds a page of layout slack) is left out of the
/// count.
static EXCLUDED_SIZE: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Pages of the last freed stack slab that held a non-zero byte.
static STACK_PAGES: AtomicUsize = AtomicUsize::new(0);

const PAGE: usize = 4096;

/// Size classes of the by-size census: exact sizes in 8-byte steps up to
/// 4 KiB, then one class per power of two.
const CLASSES: usize = 512 + 64;

/// Whether the allocator keeps the census (the ignored helper only).
static CENSUS: AtomicBool = AtomicBool::new(false);
/// Live bytes per size class, now and at the last new peak.
static LIVE_BY_SIZE: [AtomicUsize; CLASSES] = [const { AtomicUsize::new(0) }; CLASSES];
static PEAK_BY_SIZE: [AtomicUsize; CLASSES] = [const { AtomicUsize::new(0) }; CLASSES];

fn class(size: usize) -> usize {
    if size <= 4096 {
        size.div_ceil(8)
    } else {
        512 + size.ilog2() as usize
    }
}

/// The sizes a class holds, for the printout.
fn class_sizes(class: usize) -> String {
    if class <= 512 {
        format!("{}–{}", (class * 8).saturating_sub(7), class * 8)
    } else {
        format!(
            "{}–{}",
            1usize << (class - 512),
            (2usize << (class - 512)) - 1
        )
    }
}

fn counted(size: usize) -> bool {
    size < EXCLUDED_SIZE.load(Ordering::Relaxed)
}

fn census(size: usize, add: bool) {
    if CENSUS.load(Ordering::Relaxed) {
        let slot = &LIVE_BY_SIZE[class(size)];
        if add {
            slot.fetch_add(size, Ordering::Relaxed);
        } else {
            slot.fetch_sub(size, Ordering::Relaxed);
        }
    }
}

fn grow(bytes: usize) {
    census(bytes, true);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    let before = PEAK.fetch_max(live, Ordering::Relaxed);
    if live > before && CENSUS.load(Ordering::Relaxed) {
        for (at_peak, now) in PEAK_BY_SIZE.iter().zip(&LIVE_BY_SIZE) {
            at_peak.store(now.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

fn shrink(bytes: usize) {
    census(bytes, false);
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// The pages of `[ptr, ptr + size)` that hold a non-zero byte.
///
/// # Safety
/// `ptr` must be valid for reads of `size` bytes.
unsafe fn touched_pages(ptr: *const u8, size: usize) -> usize {
    let end = ptr as usize + size;
    let mut page = ptr as usize & !(PAGE - 1);
    let mut pages = 0;
    while page < end {
        let lo = page.max(ptr as usize);
        let hi = (page + PAGE).min(end);
        // SAFETY: `[lo, hi)` lies inside the caller's range.
        let bytes = unsafe { std::slice::from_raw_parts(lo as *const u8, hi - lo) };
        // SAFETY: any bit pattern is a valid `u64`.
        let (head, words, tail) = unsafe { bytes.align_to::<u64>() };
        if words.iter().any(|&w| w != 0) || head.iter().chain(tail).any(|&b| b != 0) {
            pages += 1;
        }
        page += PAGE;
    }
    pages
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
            shrink(layout.size());
        } else {
            // SAFETY: the slab is live until it is handed back below.
            let pages = unsafe { touched_pages(ptr, layout.size()) };
            STACK_PAGES.store(pages, Ordering::Relaxed);
        }
        // SAFETY: same pointer and layout the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: same pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const STACK_KIB: usize = 128;

/// What one job cost.
struct Footprint {
    ranks: usize,
    /// Peak live heap bytes per rank.
    heap: usize,
    /// Stack pages the whole job touched.
    stack_pages: usize,
}

impl Footprint {
    /// Heap plus touched stack bytes, per rank.
    fn per_rank(&self) -> usize {
        self.heap + self.stack_pages * PAGE / self.ranks
    }

    fn describe(&self) -> String {
        format!(
            "{} B/rank at {} ranks ({} B heap + {} stack pages)",
            self.per_rank(),
            self.ranks,
            self.heap,
            self.stack_pages
        )
    }
}

/// The footprint of a job running `body` under `plan` on `hosts` hosts
/// of 16 ranks each (two containers of eight).
fn footprint<R: Send>(
    hosts: u32,
    plan: &FaultPlan,
    body: impl Fn(&mut Mpi) -> R + Send + Sync,
) -> Footprint {
    let scenario = DeploymentScenario::containers(hosts, 2, 8, NamespaceSharing::default());
    let n = scenario.num_ranks();
    assert!(
        n * STACK_KIB * 1024 >= 32 << 20,
        "a slab below 32 MiB may be recycled heap, whose stale bytes would count as touched"
    );
    let spec = JobSpec::new(scenario)
        .with_faults(plan.clone())
        .with_exec(ExecMode::Tasks)
        .with_workers(1)
        .with_stack_kib(STACK_KIB);
    EXCLUDED_SIZE.store(n * STACK_KIB * 1024, Ordering::Relaxed);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    // The job runs on a thread of its own, joined before the peak is
    // read: the per-thread free lists a job leaves on its calling thread
    // (the mailbox's node pantry) are built and freed inside this
    // measurement, never by another test's thread exiting during it.
    let ranks_seen = thread::scope(|s| s.spawn(|| spec.run(body).results.len()).join())
        .expect("the job's thread panicked");
    assert_eq!(ranks_seen, n);
    Footprint {
        ranks: n,
        heap: (PEAK.load(Ordering::Relaxed) - before) / n,
        stack_pages: STACK_PAGES.load(Ordering::Relaxed),
    }
}

fn noop_footprint(hosts: u32, plan: &FaultPlan) -> Footprint {
    footprint(hosts, plan, |mpi| mpi.rank())
}

/// The footprint of four steps of mixed traffic: per step 16 receives
/// posted highest-tag-first, 16 sends of `data` to the ranks at offsets
/// 1, 2, 4 and 8, the waits, a 256-element allreduce and a barrier.
fn traffic_footprint(hosts: u32, data: &Bytes) -> Footprint {
    const OFFSETS: [usize; 4] = [1, 2, 4, 8];
    const WINDOW: u32 = 4;
    footprint(hosts, &FaultPlan::none(), |mpi| {
        let (n, r) = (mpi.size(), mpi.rank());
        let local = vec![r as u64; 256];
        // A caller's frames: live, and in this body's frame, throughout.
        let frames = std::hint::black_box([0x5a_u8; 512]);
        let mut received = 0;
        for _ in 0..4 {
            let mut reqs = Vec::with_capacity(32);
            for &d in OFFSETS.iter().rev() {
                for w in (0..WINDOW).rev() {
                    reqs.push(mpi.irecv_bytes((r + n - d) % n, w));
                }
            }
            for &d in &OFFSETS {
                for w in 0..WINDOW {
                    reqs.push(mpi.isend_bytes(data.clone(), (r + d) % n, w));
                }
            }
            for req in reqs {
                if let Completion::Recv(msg, _) = mpi.wait(req) {
                    received += msg.len();
                }
            }
            let sum = mpi.allreduce(&local, ReduceOp::Sum);
            assert_eq!(sum[255], (n * (n - 1) / 2) as u64);
            mpi.barrier();
        }
        assert_eq!(received, 4 * 16 * data.len());
        std::hint::black_box(&frames);
    })
}

/// The footprint of a job that loses its last rank at that rank's first
/// call: every rank receives from it (the survivors' receives fail on
/// its death), then the survivors shrink the world and allreduce one per
/// member over the survivors.
fn shrink_footprint(hosts: u32) -> Footprint {
    let n = hosts as usize * 16;
    let plan = FaultPlan::none().with_crash(n - 1, MidRunTrigger::AfterOps(1));
    footprint(hosts, &plan, |mpi| {
        let world = mpi.comm_world();
        let failed = mpi.try_recv_bytes(n - 1, 0).map(|_| ());
        assert_eq!(failed, Err(MpiError::ProcessFailed { peer: n - 1 }));
        if mpi.rank() != n - 1 {
            let survivors = mpi.try_shrink(&world).expect("shrink failed");
            let sum = mpi.try_allreduce_one(&survivors, 1u64, ReduceOp::Sum);
            assert_eq!(sum, Ok(n as u64 - 1));
        }
    })
}

/// In release builds: every fiber of the job stayed in the top page of
/// its stack. Stack 0's canary has a page of its own; every other canary
/// shares the top page of the stack below it.
fn assert_one_stack_page_per_fiber(what: &str, job: &Footprint) {
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        job.stack_pages <= job.ranks + 1,
        "{what}: {} ranks touched {} stack pages; a fiber's deepest path left the top page of \
         its stack (DESIGN §16)",
        job.ranks,
        job.stack_pages
    );
}

/// Per-rank heap of a noop job under `plan` at 256 and at 2048 ranks,
/// after asserting that the second is within 1.25× of the first and that
/// both jobs kept each fiber in one stack page.
fn assert_independent_of_job_size(what: &str, plan: &FaultPlan) -> usize {
    let small = noop_footprint(16, plan);
    let large = noop_footprint(128, plan);
    eprintln!(
        "noop job {what}: {}; {}",
        small.describe(),
        large.describe()
    );
    assert!(
        large.heap * 4 <= small.heap * 5,
        "per-rank heap grew with the job {what}: {} B/rank at 256 ranks, {} B/rank at 2048",
        small.heap,
        large.heap
    );
    assert_one_stack_page_per_fiber(&format!("noop job {what}"), &small);
    assert_one_stack_page_per_fiber(&format!("noop job {what}"), &large);
    small.heap
}

/// Held by each test while it measures: the allocator's counters are
/// process-wide.
static MEASURING: Mutex<()> = Mutex::new(());

/// One test, so nothing else runs while it measures (the harness's own
/// bookkeeping for a test that finished on another thread would land in
/// the measurement); the ignored printout waits for it.
#[test]
fn per_rank_footprint_is_bounded_and_independent_of_job_size() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    noop_footprint_is_bounded();
    traffic_footprint_is_bounded();
    shrink_footprint_is_bounded();
    hca_stream_heap_is_bounded_by_traffic();
}

fn noop_footprint_is_bounded() {
    let none = FaultPlan::none();
    let small = assert_independent_of_job_size("without a fault plan", &none);
    let never = FaultPlan::none().with_crash(0, MidRunTrigger::AfterOps(u64::MAX));
    assert_independent_of_job_size("under a fault plan that never fires", &never);
    // Measured 2 812 B/rank when this budget was set (3 044 while the job
    // held a flight-ring directory per rank; DESIGN.md §16 says what the
    // bytes are); + 25 %. The heap-resident `Mpi` does not add to it: the
    // peak falls after every rank has freed its handle.
    const BUDGET: usize = 3_515;
    assert!(
        small <= BUDGET,
        "a rank of a 256-rank noop job holds {small} B of heap, budget {BUDGET} B"
    );
    // Lazily-built process-wide state was paid for by the runs above, so
    // whatever two more jobs leave behind is per-job.
    let before = LIVE.load(Ordering::Relaxed);
    noop_footprint(16, &none);
    noop_footprint(16, &none);
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert!(
        kept < 64 * 1024,
        "two finished 256-rank jobs still hold {kept} B of heap"
    );
}

fn traffic_footprint_is_bounded() {
    let data = Bytes::from(vec![7u8; 1024]);
    let small = traffic_footprint(16, &data);
    let large = traffic_footprint(128, &data);
    eprintln!(
        "mixed traffic: {}; {}; heap at 2048 over 256 ranks {:.3}×",
        small.describe(),
        large.describe(),
        large.heap as f64 / small.heap as f64
    );
    assert!(
        large.heap * 4 <= small.heap * 5,
        "per-rank traffic heap grew with the job: {} B/rank at 256 ranks, {} B/rank at 2048",
        small.heap,
        large.heap
    );
    assert_one_stack_page_per_fiber("mixed traffic", &small);
    assert_one_stack_page_per_fiber("mixed traffic", &large);
    // Measured 14 159 B/rank when this budget was set (15 471 before the
    // per-peer table and the SHM eager queues held only the peers a rank
    // wrote; 18 186 before posted receives and unexpected messages shared
    // one match table and a send complete when posted stopped taking a
    // request slot; DESIGN.md §16); + 25 %.
    const BUDGET: usize = 17_699;
    assert!(
        small.heap <= BUDGET,
        "a rank of a 256-rank job under mixed traffic holds {} B of heap, budget {BUDGET} B",
        small.heap
    );
}

fn shrink_footprint_is_bounded() {
    let small = shrink_footprint(16);
    let large = shrink_footprint(128);
    eprintln!(
        "crash + shrink: {}; {}; heap at 2048 over 256 ranks {:.3}×",
        small.describe(),
        large.describe(),
        large.heap as f64 / small.heap as f64
    );
    assert!(
        large.heap * 4 <= small.heap * 5,
        "per-rank shrink heap grew with the job: {} B/rank at 256 ranks, {} B/rank at 2048",
        small.heap,
        large.heap
    );
    assert_one_stack_page_per_fiber("crash + shrink", &small);
    assert_one_stack_page_per_fiber("crash + shrink", &large);
    // Measured 3 866 B/rank when this budget was set (5 195 while every
    // survivor's conviction and shrink events took a 1 280-B ring chunk;
    // 12 724 while the agreement reduced ⌈n/8⌉-byte dead-set masks and
    // every survivor rebuilt the member list and a topology of its own);
    // + 25 %.
    const BUDGET: usize = 4_833;
    assert!(
        small.heap <= BUDGET,
        "a rank of a 256-rank job that shrinks past a crash holds {} B of heap, budget {BUDGET} B",
        small.heap
    );
}

/// Peak live heap per rank, the stack slab included, of a two-rank job
/// with one rank on each of two hosts running `body(mpi, rounds)`.
fn two_host_heap(rounds: usize, body: impl Fn(&mut Mpi, usize) + Send + Sync) -> usize {
    let spec = JobSpec::new(DeploymentScenario::pt2pt_two_hosts(
        true,
        NamespaceSharing::default(),
    ))
    .with_exec(ExecMode::Tasks)
    .with_workers(1)
    .with_stack_kib(STACK_KIB);
    // Nothing is left out: a schedule's vector may be larger than the slab.
    EXCLUDED_SIZE.store(usize::MAX, Ordering::Relaxed);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    thread::scope(|s| s.spawn(|| spec.run(|mpi| body(mpi, rounds))).join())
        .expect("the job's thread panicked");
    (PEAK.load(Ordering::Relaxed) - before) / 2
}

/// An 8-byte HCA ping-pong of `rounds` round trips.
fn eager_pingpong(mpi: &mut Mpi, rounds: usize) {
    let msg = Bytes::from_static(b"8 bytes!");
    let peer = 1 - mpi.rank();
    for _ in 0..rounds {
        if mpi.rank() == 0 {
            mpi.send_bytes(msg.clone(), peer, 1);
            mpi.recv_bytes(peer, 1);
        } else {
            let (m, _) = mpi.recv_bytes(peer, 1);
            mpi.send_bytes(m, peer, 1);
        }
    }
}

/// `messages` HCA rendezvous messages of 64 KiB from rank 0 to rank 1, in
/// windows of 16 that both sides complete with `waitall`.
fn rendezvous_stream(mpi: &mut Mpi, messages: usize) {
    const WINDOW: usize = 16;
    let data = Bytes::from(vec![0x42u8; 64 * 1024]);
    for _ in 0..messages / WINDOW {
        let reqs = (0..WINDOW)
            .map(|_| match mpi.rank() {
                0 => mpi.isend_bytes(data.clone(), 1, 2),
                _ => mpi.irecv_bytes(0, 2),
            })
            .collect();
        mpi.waitall(reqs);
    }
}

fn hca_stream_heap_is_bounded_by_traffic() {
    for (what, body) in [
        ("eager ping-pong", eager_pingpong as fn(&mut Mpi, usize)),
        ("rendezvous stream", rendezvous_stream),
    ] {
        let short = two_host_heap(10_000, body);
        let long = two_host_heap(100_000, body);
        eprintln!(
            "HCA {what}: {short} B/rank at 10 000 round trips, {long} B/rank at 100 000, {:.3}×",
            long as f64 / short as f64
        );
        assert!(
            long * 10 <= short * 11,
            "HCA {what}: per-rank heap grew with the message count: {short} B at 10 000 round \
             trips, {long} B at 100 000"
        );
    }
}

/// Print the live heap of a traffic job at its peak, per rank and by
/// allocation size, largest share first, at 256 and at 1024 ranks (the
/// second is `scale1024`'s shape): where the next footprint cut starts.
/// A size is a site's signature (DESIGN.md §16 names them).
#[test]
#[ignore = "a printout, not an assertion"]
fn traffic_peak_by_allocation_size() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let data = Bytes::from(vec![7u8; 1024]);
    for hosts in [16, 64] {
        // Lazily-built process-wide state is paid for outside the census.
        traffic_footprint(hosts, &data);
        let base: Vec<usize> = LIVE_BY_SIZE
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        CENSUS.store(true, Ordering::Relaxed);
        let job = traffic_footprint(hosts, &data);
        CENSUS.store(false, Ordering::Relaxed);
        let mut rows: Vec<(usize, usize)> = PEAK_BY_SIZE
            .iter()
            .zip(&base)
            .enumerate()
            .map(|(c, (peak, base))| (c, peak.load(Ordering::Relaxed).saturating_sub(*base)))
            .filter(|&(_, bytes)| bytes >= job.ranks)
            .collect();
        rows.sort_by_key(|&(c, bytes)| (std::cmp::Reverse(bytes), c));
        println!("traffic peak: {}", job.describe());
        println!("{:>14} {:>12}", "size (B)", "B per rank");
        for (c, bytes) in rows {
            println!(
                "{:>14} {:>12.1}",
                class_sizes(c),
                bytes as f64 / job.ranks as f64
            );
        }
    }
}
