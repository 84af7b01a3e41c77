//! Litmus tests for the model-checking engine itself (only meaningful
//! under `--cfg cmpi_model`; an empty test binary otherwise).
//!
//! Each test pins one semantic obligation of the checker: weak-memory
//! load choices (store buffering), release/acquire edges (message
//! passing), RMW atomicity, FastTrack race detection, lost-wakeup
//! detection, and deterministic replay. The runtime-structure model
//! tests in cmpi-core / cmpi-shmem / cmpi-fabric lean on every one of
//! these behaviors, so regressions here surface first.
#![cfg(cmpi_model)]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use cmpi_model::model::{self, thread, Builder};
use cmpi_model::race;
use cmpi_model::sync::{AtomicBool, AtomicU64, Condvar, Mutex, SpinLock};

/// Store buffering with SeqCst: `r1 == 0 && r2 == 0` must be
/// unreachable — every interleaving commits at least one store into the
/// SC order before the other thread's load.
#[test]
fn store_buffering_seqcst_forbids_both_zero() {
    let stats = Builder::new().check(|| {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            x2.store(1, Ordering::SeqCst);
            y2.load(Ordering::SeqCst)
        });
        y.store(1, Ordering::SeqCst);
        let r1 = x.load(Ordering::SeqCst);
        let r2 = t.join();
        assert!(r1 == 1 || r2 == 1, "SB: both threads read 0 under SeqCst");
    });
    assert!(stats.executions > 1, "expected multiple interleavings");
}

/// Store buffering with Relaxed: both-zero IS reachable — the checker
/// must offer each load the stale initial store.
#[test]
fn store_buffering_relaxed_reaches_both_zero() {
    let report = Builder::new().check_expect_failure(|| {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        let r1 = x.load(Ordering::Relaxed);
        let r2 = t.join();
        assert!(r1 == 1 || r2 == 1, "SB: both threads read 0");
    });
    assert!(report.contains("both threads read 0"), "report:\n{report}");
    assert!(
        model::extract_replay(&report).is_some(),
        "failure report must carry a replay line:\n{report}"
    );
}

/// Message passing with a Release flag store and Acquire flag load: once
/// the consumer sees the flag, the relaxed data store is visible.
#[test]
fn message_passing_release_acquire_publishes_data() {
    Builder::new().check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "MP: stale data after flag"
            );
        }
        t.join();
    });
}

/// Message passing with a Relaxed flag store: the edge is gone and a
/// consumer can see the flag yet read stale data. The checker must find
/// that schedule — this is exactly the bug class the mailbox and
/// fabric_ready tests rely on catching.
#[test]
fn message_passing_relaxed_flag_loses_data() {
    let report = Builder::new().check_expect_failure(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(true, Ordering::Relaxed);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "MP: stale data after flag"
            );
        }
        t.join();
    });
    assert!(
        report.contains("stale data after flag"),
        "report:\n{report}"
    );
}

/// RMWs always read the newest store: two concurrent `fetch_add(1)`
/// never lose an update, even Relaxed.
#[test]
fn fetch_add_never_loses_updates() {
    Builder::new().check(|| {
        let c = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        c.fetch_add(1, Ordering::Relaxed);
        t.join();
        assert_eq!(c.load(Ordering::Relaxed), 2, "lost RMW update");
    });
}

/// A load/store "increment" is NOT atomic: the checker must expose the
/// lost-update interleaving the RMW test proves impossible.
#[test]
fn load_store_increment_loses_updates() {
    let report = Builder::new().check_expect_failure(|| {
        let c = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = c.load(Ordering::SeqCst);
        c.store(v + 1, Ordering::SeqCst);
        t.join();
        assert_eq!(c.load(Ordering::SeqCst), 2, "lost non-RMW update");
    });
    assert!(report.contains("lost non-RMW update"), "report:\n{report}");
}

/// Two unsynchronized plain writes to the same address are a data race
/// the FastTrack shadow memory must flag.
#[test]
fn race_detector_flags_unsynchronized_writes() {
    let report = Builder::new().check_expect_failure(|| {
        let cell = Arc::new(0u64);
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || {
            race::write(Arc::as_ptr(&c2), "writer-b");
        });
        race::write(Arc::as_ptr(&cell), "writer-a");
        t.join();
    });
    assert!(report.contains("data race"), "report:\n{report}");
    assert!(report.contains("writer-a") || report.contains("writer-b"));
}

/// The same plain writes ordered by a release/acquire handoff are not a
/// race — the detector must honor happens-before, not flag all sharing.
#[test]
fn race_detector_respects_release_acquire() {
    Builder::new().check(|| {
        let cell = Arc::new(0u64);
        let flag = Arc::new(AtomicBool::new(false));
        let (c2, f2) = (Arc::clone(&cell), Arc::clone(&flag));
        let t = thread::spawn(move || {
            race::write(Arc::as_ptr(&c2), "producer");
            f2.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) {
            race::write(Arc::as_ptr(&cell), "consumer");
        }
        t.join();
    });
}

/// The one-RMW spin lock: two threads increment a plain counter under
/// it, each with a schedule point between its read and its write.
/// Mutual exclusion holds on every interleaving — the race detector
/// checks each section against the last (an acquire that does not see
/// the previous holder's `Release` store is a reported data race), and
/// no update is lost — and a waiter's spin yields to the model scheduler
/// instead of running the exploration into its step bound.
#[test]
fn spin_lock_excludes_and_loses_no_update() {
    Builder::new().check(|| {
        let lock = Arc::new(SpinLock::new(0u64));
        let tick = Arc::new(AtomicU64::new(0));
        let bump = |lock: &SpinLock<u64>, tick: &AtomicU64| {
            let mut g = lock.lock();
            let v = *g;
            tick.fetch_add(1, Ordering::Relaxed);
            *g = v + 1;
        };
        let (l2, t2) = (Arc::clone(&lock), Arc::clone(&tick));
        let t = thread::spawn(move || bump(&l2, &t2));
        bump(&lock, &tick);
        t.join();
        assert_eq!(*lock.lock(), 2, "lost update");
    });
}

/// Predicate-loop condvar wait never loses a wakeup.
#[test]
fn condvar_predicate_loop_never_hangs() {
    Builder::new().check(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let mut ready = p2.0.lock();
            *ready = true;
            p2.1.notify_all();
            drop(ready);
        });
        let mut g = pair.0.lock();
        while !*g {
            pair.1.wait(&mut g);
        }
        drop(g);
        t.join();
    });
}

/// Checking the flag *outside* the lock and then waiting unconditionally
/// is the classic lost wakeup: notify lands between check and wait, and
/// the waiter blocks forever. The checker reports it as a deadlock.
#[test]
fn condvar_check_then_wait_race_detected_as_lost_wakeup() {
    let report = Builder::new().check_expect_failure(|| {
        let pair = Arc::new((Mutex::new(()), Condvar::new(), AtomicBool::new(false)));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let g = p2.0.lock();
            p2.2.store(true, Ordering::SeqCst);
            p2.1.notify_all();
            drop(g);
        });
        if !pair.2.load(Ordering::SeqCst) {
            let mut g = pair.0.lock();
            // Deliberately no predicate re-check: the window between the
            // flag load and this wait is the bug under test.
            pair.1.wait(&mut g);
            drop(g);
        }
        t.join();
    });
    assert!(
        report.contains("deadlock") || report.contains("blocked"),
        "report:\n{report}"
    );
}

/// A failure's `replay:` line deterministically reproduces that exact
/// schedule — the contract regression tests pin on.
#[test]
fn replay_reproduces_pinned_failure() {
    fn broken() -> impl Fn() + Send + Sync + 'static {
        || {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = thread::spawn(move || {
                x2.store(1, Ordering::Relaxed);
                y2.load(Ordering::Relaxed)
            });
            y.store(1, Ordering::Relaxed);
            let r1 = x.load(Ordering::Relaxed);
            let r2 = t.join();
            assert!(r1 == 1 || r2 == 1, "SB: both threads read 0");
        }
    }
    let report = Builder::new().check_expect_failure(broken());
    let schedule = model::extract_replay(&report).expect("replay line");
    let replayed = Builder::new()
        .replay(&schedule, broken())
        .expect("pinned schedule must still fail");
    assert!(replayed.contains("both threads read 0"), "{replayed}");
}

/// Spawned model threads pass their results back through `join`.
#[test]
fn join_returns_thread_result() {
    Builder::new().check(|| {
        let t = thread::spawn(|| 7u32 + 35);
        assert_eq!(t.join(), 42);
    });
}

/// Three threads under the default preemption bound stay within budget.
#[test]
fn three_thread_exploration_completes() {
    let stats = Builder::new().max_executions(200_000).check(|| {
        let c = Arc::new(AtomicU64::new(0));
        let (a, b) = (Arc::clone(&c), Arc::clone(&c));
        let t1 = thread::spawn(move || {
            a.fetch_add(1, Ordering::AcqRel);
        });
        let t2 = thread::spawn(move || {
            b.fetch_add(2, Ordering::AcqRel);
        });
        t1.join();
        t2.join();
        assert_eq!(c.load(Ordering::Acquire), 3);
    });
    assert!(stats.executions >= 2);
}
