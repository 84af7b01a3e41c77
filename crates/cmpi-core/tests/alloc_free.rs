//! Allocation-count assertion harness: proves the steady-state eager
//! send/recv loop performs no heap allocation per operation.
//!
//! The whole test binary runs under a counting global allocator. A
//! two-rank intra-host job warms the path up (growing every pool, map
//! and slab to its steady-state footprint), barriers, then runs a
//! measured ping-pong phase. Nothing on the path is reserved for the
//! worst case up front — the matching tables, the pair queues' release
//! histories and the flight ring's chunks all grow with use — so each
//! warm-up below runs until the slowest-growing of them has reached the
//! size this traffic keeps it at, and says which one that is.
//!
//! Any allocation in the measured phase — on either
//! rank thread — lands in the global counter, so the assertion covers
//! the full send/progress/match/recv pipeline: mailbox nodes (pantry),
//! matching buckets (inline/pooled), and completion bookkeeping. The
//! collectives are held to their copy counts instead, and a large
//! allreduce to no large allocation but the vector it returns.
//!
//! The measured budget is asserted to be ZERO allocations for the whole
//! phase (the cross-host loop, whose wire schedules grow by 16 bytes per
//! idle gap, is held to amortised growth instead: at most 0.05 per
//! message). If this test starts failing after a change, set
//! `CMPI_ALLOC_TRACE=1` to print a backtrace for each offending
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bytes::Bytes;
use cmpi_cluster::{Channel, DeploymentScenario, NamespaceSharing};
use cmpi_core::JobSpec;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by the counted allocations (a `realloc` counts its
/// new size).
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Counted allocations of at least [`BIG`] bytes (a `realloc` counts
/// when its new size is).
static BIGS: AtomicU64 = AtomicU64::new(0);
/// What [`BIGS`] counts: the size from which drained wire images are
/// kept for reuse rather than freed.
const BIG: usize = 16 << 10;
static COUNTING: AtomicBool = AtomicBool::new(false);
thread_local! {
    /// Set by every rank closure on the thread that runs it. Only those
    /// threads are counted: while one test measures, the harness spawns
    /// the next test's thread, and that allocates.
    static RUNS_RANKS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}
static TRACING: AtomicBool = AtomicBool::new(false);
/// The counters are process-wide, so one test's set-up must not run
/// inside the other's measured phase.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Whether an allocation on this thread, now, belongs to a measured phase.
fn counted() -> bool {
    COUNTING.load(Ordering::Relaxed) && RUNS_RANKS.try_with(|f| f.get()).unwrap_or(false)
}

// SAFETY: defers every request to `System` unchanged; the counters are
// bookkeeping on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            BIGS.fetch_add((layout.size() >= BIG) as u64, Ordering::Relaxed);
            if TRACING.load(Ordering::Relaxed) {
                // Suppress recursive counting while the backtrace itself
                // allocates.
                COUNTING.store(false, Ordering::Relaxed);
                eprintln!(
                    "alloc of {} bytes in measured phase:\n{}",
                    layout.size(),
                    std::backtrace::Backtrace::force_capture()
                );
                COUNTING.store(true, Ordering::Relaxed);
            }
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same pointer and layout the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            BIGS.fetch_add((new_size >= BIG) as u64, Ordering::Relaxed);
            if TRACING.load(Ordering::Relaxed) {
                COUNTING.store(false, Ordering::Relaxed);
                eprintln!(
                    "realloc {} -> {} bytes in measured phase:\n{}",
                    layout.size(),
                    new_size,
                    std::backtrace::Backtrace::force_capture()
                );
                COUNTING.store(true, Ordering::Relaxed);
            }
        }
        // SAFETY: same pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The intra-host pair both loops run on. Mailbox nodes recycle through
/// a per-OS-thread pantry, so a rank fiber stolen by the other worker
/// between its pop and its next push finds that worker's pantry empty
/// and allocates: a cost per migration, not per operation. One worker
/// keeps it out of the per-operation count.
fn pair_spec() -> JobSpec {
    JobSpec::new(DeploymentScenario::pt2pt_pair(
        true,
        true,
        NamespaceSharing::default(),
    ))
    .with_workers(1)
}

/// Grow the match table past anything the measured loops need, with each
/// side's keys live in turn. Whether an arriving message meets a posted
/// receive or is queued as unexpected is thread timing, so a plain
/// ping-pong may leave one side untouched throughout its warm-up and
/// first queue on it in the measured phase; here the barriers force each
/// case for `KEYS` simultaneously live match keys (the loops keep at most
/// three).
fn warm_matching(mpi: &mut cmpi_core::Mpi) {
    const KEYS: u32 = 8;
    let peer = 1 - mpi.rank();
    // Unexpected side: the peer's barrier message queues behind its
    // sends, so all of them are drained before any receive is posted.
    for tag in 1..=KEYS {
        mpi.send_bytes(Bytes::new(), peer, tag);
    }
    mpi.barrier();
    for tag in 1..=KEYS {
        mpi.recv_bytes(peer, tag);
    }
    // Posted side: every receive is posted before the peer sends.
    let reqs = (1..=KEYS).map(|tag| mpi.irecv_bytes(peer, tag)).collect();
    mpi.barrier();
    for tag in 1..=KEYS {
        mpi.send_bytes(Bytes::new(), peer, tag);
    }
    mpi.waitall(reqs);
}

/// Steady-state SHM eager ping-pong allocates nothing per op.
#[test]
fn steady_state_eager_loop_is_allocation_free() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if std::env::var_os("CMPI_ALLOC_TRACE").is_some() {
        TRACING.store(true, Ordering::Relaxed);
    }
    // The slowest grower is the SHM pair queue's release history: it
    // keeps one event per release for the last queue-capacity bytes
    // (128 KiB / 1 KiB = 128 of them here, 256 at most), so it reaches
    // its steady depth after that many round trips, not a handful.
    const WARMUP: u32 = 320;
    const MEASURED: u32 = 256;
    let spec = pair_spec();
    let counted = spec.run(|mpi| {
        RUNS_RANKS.set(true);
        let payload = Bytes::from(vec![7u8; 1024]);
        let me = mpi.rank();
        let peer = 1 - me;
        let pingpong = |mpi: &mut cmpi_core::Mpi, iters: u32| {
            for _ in 0..iters {
                if me == 0 {
                    mpi.send_bytes(payload.clone(), peer, 0);
                    mpi.recv_bytes(peer, 0);
                } else {
                    let (m, _) = mpi.recv_bytes(peer, 0);
                    mpi.send_bytes(m, peer, 0);
                }
            }
        };
        // Warm every pool/map/slab up to its steady-state footprint.
        warm_matching(mpi);
        pingpong(mpi, WARMUP);
        mpi.barrier();
        if me == 0 {
            ALLOCS.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
        }
        mpi.barrier();
        pingpong(mpi, MEASURED);
        mpi.barrier();
        if me == 0 {
            COUNTING.store(false, Ordering::Relaxed);
            ALLOCS.load(Ordering::Relaxed)
        } else {
            0
        }
    });
    let allocs = counted.results[0];
    assert_eq!(
        allocs, 0,
        "steady-state eager loop allocated {allocs} times over {MEASURED} round trips \
         (rerun with CMPI_ALLOC_TRACE=1 for backtraces)"
    );
}

/// Steady-state rendezvous ping-pong — with telemetry on (the default),
/// so every round trip records counters and histogram samples —
/// allocates nothing per op. The flight ring is not on this path: it
/// holds incidents only, so the loop must publish nothing to either
/// rank's ring (a ring faults its storage in chunk by chunk, so an
/// event there would also be an allocation waiting to happen).
#[test]
fn steady_state_rndv_recording_is_allocation_free() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if std::env::var_os("CMPI_ALLOC_TRACE").is_some() {
        TRACING.store(true, Ordering::Relaxed);
    }
    const WARMUP: u32 = 800;
    const MEASURED: u32 = 800;
    const SIZE: usize = 64 * 1024; // CMA rendezvous on the intra-host pair
    let spec = pair_spec();
    let counted = spec.run(|mpi| {
        RUNS_RANKS.set(true);
        let payload = Bytes::from(vec![7u8; SIZE]);
        let me = mpi.rank();
        let peer = 1 - me;
        let pingpong = |mpi: &mut cmpi_core::Mpi, iters: u32| {
            for _ in 0..iters {
                if me == 0 {
                    mpi.send_bytes(payload.clone(), peer, 0);
                    mpi.recv_bytes(peer, 0);
                } else {
                    let (m, _) = mpi.recv_bytes(peer, 0);
                    mpi.send_bytes(m, peer, 0);
                }
            }
        };
        warm_matching(mpi);
        pingpong(mpi, WARMUP);
        mpi.barrier();
        if me == 0 {
            ALLOCS.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
        }
        mpi.barrier();
        pingpong(mpi, MEASURED);
        mpi.barrier();
        if me == 0 {
            COUNTING.store(false, Ordering::Relaxed);
            ALLOCS.load(Ordering::Relaxed)
        } else {
            0
        }
    });
    let allocs = counted.results[0];
    assert_eq!(
        allocs, 0,
        "steady-state rendezvous loop (telemetry on) allocated {allocs} times over \
         {MEASURED} round trips (rerun with CMPI_ALLOC_TRACE=1 for backtraces)"
    );
    // Messages are counted, not logged: the loop published nothing to
    // either ring.
    let snap = counted.telemetry.expect("telemetry on by default");
    for (rank, r) in snap.ranks.iter().enumerate() {
        assert_eq!(r.flight.published, 0, "rank {rank}: {:?}", r.flight.events);
    }
}

/// Cross-host eager ping-pong: every message crosses the simulated HCA.
/// The endpoint's receive queue and the progress engine's scratch
/// vector keep their capacity across drains, and a back-to-back stream
/// extends one wire-schedule interval, so the only heap traffic left on
/// the path is amortised growth: a ping-pong leaves an idle gap per
/// message on each of the four wire schedules, 16 bytes each, and a
/// doubling vector pays for them with a handful of reallocations (12
/// over these 4 000 messages; the per-message tree nodes, queue vectors
/// and callback clones this replaced came to 5 330).
#[test]
fn cross_host_eager_loop_allocates_only_amortised_schedule_growth() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if std::env::var_os("CMPI_ALLOC_TRACE").is_some() {
        TRACING.store(true, Ordering::Relaxed);
    }
    const WARMUP: u32 = 320;
    const MEASURED: u32 = 2_000;
    let spec = JobSpec::new(DeploymentScenario::pt2pt_two_hosts(
        true,
        NamespaceSharing::default(),
    ))
    .with_workers(1);
    let counted = spec.run(|mpi| {
        RUNS_RANKS.set(true);
        let payload = Bytes::from(vec![7u8; 1024]);
        let me = mpi.rank();
        let peer = 1 - me;
        let pingpong = |mpi: &mut cmpi_core::Mpi, iters: u32| {
            for _ in 0..iters {
                if me == 0 {
                    mpi.send_bytes(payload.clone(), peer, 0);
                    mpi.recv_bytes(peer, 0);
                } else {
                    let (m, _) = mpi.recv_bytes(peer, 0);
                    mpi.send_bytes(m, peer, 0);
                }
            }
        };
        warm_matching(mpi);
        pingpong(mpi, WARMUP);
        mpi.barrier();
        if me == 0 {
            ALLOCS.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
        }
        mpi.barrier();
        pingpong(mpi, MEASURED);
        mpi.barrier();
        if me == 0 {
            COUNTING.store(false, Ordering::Relaxed);
            ALLOCS.load(Ordering::Relaxed)
        } else {
            0
        }
    });
    assert!(
        counted.stats.channel_ops(Channel::Hca) >= 2 * MEASURED as u64,
        "the pair must talk over the HCA"
    );
    let allocs = counted.results[0];
    let per_msg = allocs as f64 / (2 * MEASURED) as f64;
    assert!(
        per_msg <= 0.05,
        "cross-host eager loop allocated {allocs} times over {} messages = {per_msg:.3} per \
         message (rerun with CMPI_ALLOC_TRACE=1 for backtraces)",
        2 * MEASURED
    );
}

/// The typed collectives move each payload byte once: after warm-up, the
/// bytes a rank allocates per call stay within a small multiple of the
/// bytes that call hands back to it (or, for a broadcast, sends), and the
/// allocations per call within a small count. The multiples are the copy
/// counts of DESIGN §10 "The data path"; a re-encode per hop, a decode
/// temporary or a handle per frame shows up here as a budget overrun.
///
/// 16 ranks in two locality groups of 8 on one worker, so every call
/// takes the two-level algorithms the way the benchmark's `coll64` does.
#[test]
fn collectives_allocate_a_small_multiple_of_what_they_return() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if std::env::var_os("CMPI_ALLOC_TRACE").is_some() {
        TRACING.store(true, Ordering::Relaxed);
    }
    const WARMUP: u32 = 8;
    const CALLS: u32 = 16;
    const KIB: usize = 1024 / 8; // u64 elements
    let spec = JobSpec::new(DeploymentScenario::containers(
        2,
        2,
        4,
        NamespaceSharing::default(),
    ))
    .with_workers(1);
    let counted = spec.run(|mpi| {
        RUNS_RANKS.set(true);
        let (n, me) = (mpi.size(), mpi.rank());
        // Run `call` WARMUP times, then CALLS times under the counter;
        // rank 0 reports (allocations, bytes) of all ranks together.
        let measure = |mpi: &mut cmpi_core::Mpi, call: &mut dyn FnMut(&mut cmpi_core::Mpi)| {
            for _ in 0..WARMUP {
                call(mpi);
            }
            mpi.barrier();
            if me == 0 {
                ALLOCS.store(0, Ordering::Relaxed);
                BYTES.store(0, Ordering::Relaxed);
                COUNTING.store(true, Ordering::Relaxed);
            }
            mpi.barrier();
            for _ in 0..CALLS {
                call(mpi);
            }
            mpi.barrier();
            if me == 0 {
                COUNTING.store(false, Ordering::Relaxed);
            }
            mpi.barrier();
            (
                ALLOCS.load(Ordering::Relaxed),
                BYTES.load(Ordering::Relaxed),
            )
        };
        let vec4k: Vec<u64> = (0..4 * KIB).map(|i| (me + i) as u64).collect();
        let slabs: Vec<u64> = (0..n * KIB).map(|i| (me * n + i) as u64).collect();
        let mut buf = vec4k.clone();
        [
            measure(mpi, &mut |mpi| {
                mpi.allreduce(&vec4k, cmpi_core::ReduceOp::Sum);
            }),
            measure(mpi, &mut |mpi| mpi.bcast(&mut buf, 3)),
            measure(mpi, &mut |mpi| {
                mpi.allgather(&vec4k);
            }),
            measure(mpi, &mut |mpi| {
                mpi.alltoall(&slabs, KIB);
            }),
        ]
    });
    let n = counted.results.len() as f64;
    // (name, bytes a call returns to one rank, budget as a multiple of
    // them, budget in allocations) — per rank per call, averaged over
    // members and leaders. Measured 2.35 / 0.08 / 1.25 / 2.41 x and
    // 3.89 / 0.18 / 4.05 / 7.62 allocations (alltoall's bundles and the
    // allreduce leaders' fold reuse drained images; before they did,
    // 2.42 / 0.08 / 1.25 / 2.91 x and 3.95 / 0.18 / 4.05 / 7.75); before
    // the data path was rebuilt 3.29 / 0.08 / 1.49 / 4.87 x and
    // 5.70 / 0.18 / 14.67 / 53.87.
    let budgets = [
        // The result, one encode on the way up, and at the two leaders
        // the wire-image accumulator of the inter-leader exchange.
        ("allreduce 4 KiB", 4096.0, 2.75, 4.5),
        // Only the root encodes; everyone else decodes into `buf`.
        ("bcast 4 KiB", 4096.0, 0.25, 0.5),
        // The result, plus the bundles staged at the leaders.
        ("allgather 4 KiB", 16.0 * 4096.0, 1.4, 5.0),
        // The result, one image of the group's slabs and one bundle of
        // the external ones; leaders stage both directions once.
        ("alltoall 1 KiB per peer", 16.0 * 1024.0, 3.25, 9.0),
    ];
    let mut over = Vec::new();
    for ((name, returned, byte_multiple, count_budget), (allocs, bytes)) in
        budgets.into_iter().zip(counted.results[0])
    {
        let per_call = n * CALLS as f64;
        let (allocs, multiple) = (allocs as f64 / per_call, bytes as f64 / per_call / returned);
        let row = format!(
            "{name}: {allocs:.2} allocations (budget {count_budget}) and {multiple:.2} x the \
             {returned} bytes returned (budget {byte_multiple} x)"
        );
        println!("{row}");
        if multiple > byte_multiple || allocs > count_budget {
            over.push(row);
        }
    }
    assert!(
        over.is_empty(),
        "per rank per call, over budget (rerun with CMPI_ALLOC_TRACE=1 for backtraces):\n{}",
        over.join("\n")
    );
}

/// A steady-state 128 KiB allreduce (recursive doubling, the flat
/// algorithm between the two-level threshold and the large-message
/// switch) folds into images the ranks already own: after warm-up, the
/// only allocation of 16 KiB or more a call makes is the vector it
/// returns. Each round's image is written over whichever of the two
/// images the rank holds alone by then, or drawn from the worker's spare
/// list, and every drained image goes back to that list. Four ranks, so
/// the images in flight fit the list's byte cap; one worker, so they all
/// share one list.
#[test]
fn steady_state_large_allreduce_allocates_only_its_result() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if std::env::var_os("CMPI_ALLOC_TRACE").is_some() {
        TRACING.store(true, Ordering::Relaxed);
    }
    const WARMUP: u32 = 4;
    const CALLS: u32 = 16;
    const LEN: usize = (128 << 10) / 8; // u64 elements
    let spec = JobSpec::new(DeploymentScenario::containers(
        1,
        2,
        2,
        NamespaceSharing::default(),
    ))
    .with_workers(1);
    let counted = spec.run(|mpi| {
        RUNS_RANKS.set(true);
        let me = mpi.rank();
        let mine: Vec<u64> = (0..LEN).map(|i| (me * LEN + i) as u64).collect();
        let mut ok = true;
        let mut call = |mpi: &mut cmpi_core::Mpi| {
            let sum = mpi.allreduce(&mine, cmpi_core::ReduceOp::Sum);
            ok &= sum[LEN - 1] == (4 * LEN - 4 + 6 * LEN) as u64;
        };
        for _ in 0..WARMUP {
            call(mpi);
        }
        mpi.barrier();
        if me == 0 {
            BIGS.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
        }
        mpi.barrier();
        for _ in 0..CALLS {
            call(mpi);
        }
        mpi.barrier();
        if me == 0 {
            COUNTING.store(false, Ordering::Relaxed);
        }
        (ok, BIGS.load(Ordering::Relaxed))
    });
    let n = counted.results.len() as u64;
    assert!(counted.results.iter().all(|&(ok, _)| ok), "wrong sum");
    assert_eq!(
        counted
            .stats
            .coll_selections(cmpi_core::CollKind::Allreduce, cmpi_core::CollAlgo::Flat),
        n * u64::from(WARMUP + CALLS),
        "every call must take the flat recursive-doubling allreduce"
    );
    let bigs = counted.results[0].1;
    assert_eq!(
        bigs,
        n * u64::from(CALLS),
        "{CALLS} calls on {n} ranks made {bigs} allocations of {BIG} bytes or more; only the \
         {} returned vectors may be (rerun with CMPI_ALLOC_TRACE=1 for backtraces)",
        n * u64::from(CALLS)
    );
}
