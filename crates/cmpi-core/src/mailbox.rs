//! The rank mailbox: a lock-free MPSC packet queue plus the wake-up flag
//! of its owning rank.
//!
//! Every rank owns one [`RankCell`]. Any rank may push packets into it
//! (multi-producer); only the owning rank pops (single consumer). The
//! queue is an intrusive atomic-linked MPSC list (Vyukov's non-blocking
//! queue): a push is one `swap` plus one `store`, a pop is one `load`
//! plus a pointer chase, and no path ever blocks on another producer.
//!
//! ### Sleeping and poking
//!
//! The cell itself never blocks anything: an owner with nothing to do
//! deschedules through the execution engine ([`crate::exec`]), and a
//! producer reschedules it through the [`TaskHook`] the engine bound to
//! the cell. Lost wake-ups are prevented in two layers:
//!
//! * the `poked` flag — a producer (1) links its node (or performs the
//!   state change a poke advertises), (2) stores `poked = true`
//!   (`Release`), (3) calls the hook; before it deschedules, the consumer
//!   loads `poked` (`Acquire`) and, if it was set, clears it and skips
//!   the deschedule — so a poke that lands while the owner is running is
//!   never slept through;
//! * the engine's blocked→queued handoff — a poke that lands after that
//!   load but before the owner is off the CPU is caught by the hook's
//!   sticky `NOTIFIED` bit, which reschedules the owner at once.
//!
//! Neither side of the flag is a read-modify-write. A clear can erase a
//! racing producer's `true`, and that costs nothing: the producer's hook
//! call follows its store in program order, and its wake is a
//! compare-exchange that writes the task word even when the word already
//! carries `NOTIFIED`. It sets the bit (or takes a blocked owner to
//! `QUEUED`) whatever became of the flag, and the owner's next `block`
//! or `claim` reads that write: the bit reschedules the owner, and the
//! read orders the producer's link store before the owner's next `pop`.
//! The one exception is a producer that runs on the owner's own thread
//! (a task of a one-worker fiber pool), which program order already puts
//! first; its wake only loads a word already notified. The flag only
//! spares the owner a trip through the handoff when a poke is already
//! known, so when the owner resumes it clears the flag with a plain
//! store.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::UnsafeCell;
use std::ptr;
use std::sync::{Arc, OnceLock};

use cmpi_model::race;
#[cfg(cmpi_model)]
use cmpi_model::sync::quarantine;
use cmpi_model::sync::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use crate::exec::TaskHook;
use crate::packet::Packet;

struct Node {
    next: AtomicPtr<Node>,
    pkt: Option<Packet>,
}

impl Node {
    fn boxed(pkt: Option<Packet>) -> Box<Node> {
        Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            pkt,
        })
    }
}

/// Thread-local recycling of mailbox nodes, so the steady-state push/pop
/// path performs zero heap allocations per packet.
///
/// Each rank thread both produces (its sends push into peers' cells) and
/// consumes (it pops its own cell), so a per-*thread* free stack
/// self-balances under request/reply traffic: every node the consumer
/// unlinks goes back into the pantry the same thread's next push draws
/// from. No cross-thread handoff means no synchronization — the node's
/// memory was fully acquired by the pop that retired it, and it stays on
/// that thread until the Release link store of its next push publishes
/// it again. Purely one-sided traffic degrades gracefully: a pure sink
/// caps its pantry at [`PANTRY_MAX`] nodes, a pure source falls back to
/// the allocator exactly as before.
///
/// Disabled under the model checker: `quarantine` must see every retired
/// node so deferred frees keep race detection sound, and the model's
/// schedule exploration does not measure allocator pressure anyway.
#[cfg(not(cmpi_model))]
mod pantry {
    use super::Node;
    use std::cell::RefCell;

    /// Cap on the per-thread free stack; beyond it, retired nodes fall
    /// back to the allocator.
    pub(super) const PANTRY_MAX: usize = 256;

    thread_local! {
        // The boxes ARE the point: recycled nodes keep their heap
        // address, so a queued Box<Node> hands the exact allocation
        // back to the next push without a move or a malloc.
        #[allow(clippy::vec_box)]
        static PANTRY: RefCell<Vec<Box<Node>>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn take() -> Option<Box<Node>> {
        PANTRY.with(|p| p.borrow_mut().pop())
    }

    pub(super) fn give(n: Box<Node>) {
        PANTRY.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < PANTRY_MAX {
                p.push(n);
            }
        });
    }
}

/// Vyukov-style intrusive MPSC queue. `push` is wait-free for producers
/// (one `swap` + one `store`); `pop` is consumer-only.
///
/// During a push there is a short window between the `swap` and the
/// `store` where the new node is not yet linked; `pop` observes an empty
/// queue then. [`RankCell`]'s poke protocol covers the window: the
/// producer raises `poked` only *after* the link store, so a consumer
/// that parked on the momentarily-invisible node is woken and retries.
struct MpscQueue {
    /// Most recently pushed node; producers swap themselves in here.
    head: AtomicPtr<Node>,
    /// Oldest node (initially the stub); owned by the single consumer.
    tail: UnsafeCell<*mut Node>,
}

// SAFETY: producers only touch `head` (atomic); `tail` is only
// dereferenced by the single consumer (enforced by the runtime:
// `pop`/`sleep_if_idle` are called by the owning rank thread alone).
unsafe impl Send for MpscQueue {}
// SAFETY: see the Send impl above — `tail` is single-consumer, `head`
// is an atomic.
unsafe impl Sync for MpscQueue {}

impl MpscQueue {
    fn new() -> Self {
        let stub = Box::into_raw(Node::boxed(None));
        MpscQueue {
            head: AtomicPtr::new(stub),
            tail: UnsafeCell::new(stub),
        }
    }

    /// Multi-producer push: link `pkt` at the head. Steady-state pushes
    /// reuse pantry nodes and never touch the allocator.
    fn push(&self, pkt: Packet) {
        #[cfg(not(cmpi_model))]
        let node = {
            let mut n = pantry::take().unwrap_or_else(|| Node::boxed(None));
            // The node is exclusively this thread's until the Release
            // link store below publishes it, so plain resets suffice.
            *n.next.get_mut() = ptr::null_mut();
            n.pkt = Some(pkt);
            Box::into_raw(n)
        };
        #[cfg(cmpi_model)]
        let node = Box::into_raw(Node::boxed(Some(pkt)));
        // The node's plain fields were just initialized; the model's race
        // detector checks that every later plain access happens-after.
        race::write(node, "mailbox: node init");
        // rmw: producers race for the head; the swap is the serialization
        // point: the queue's pop order is the total order of these swaps,
        // which refines per-producer program order — exactly the
        // per-sender FIFO MPI needs.
        let prev = self.head.swap(node, Ordering::AcqRel);
        // Link the predecessor to us. Until this store lands the chain is
        // broken at `prev` and pops stop there (they never reorder).
        //
        // The store must be `Release`: it is the edge that publishes the
        // node's plain payload to the consumer's `Acquire` load in `pop`.
        // Weakening it to `Relaxed` is caught by the model checker — see
        // `model_tests::weakened_link_store_is_a_data_race`.
        //
        // SAFETY: `prev` came from `head`, which only ever holds nodes
        // this queue allocated and has not yet freed (the consumer frees
        // a node only after it has been unlinked past).
        unsafe { (*prev).next.store(node, Ordering::Release) };
    }

    /// Single-consumer pop of the oldest packet, `None` when the queue is
    /// empty *or* a push is mid-link (the poke protocol retries then).
    fn pop(&self) -> Option<Packet> {
        // SAFETY: single-consumer contract — only the owning rank thread
        // calls `pop`, so `tail` is not concurrently touched; `next` was
        // published by a producer's `Release` link store and read here
        // with `Acquire`, so its payload is fully visible; the old tail
        // is unreachable to every producer once `tail` moves past it.
        unsafe {
            let tail = *self.tail.get();
            let next = (*tail).next.load(Ordering::Acquire);
            if next.is_null() {
                return None;
            }
            *self.tail.get() = next;
            race::write(next, "mailbox: pop takes payload");
            let pkt = (*next).pkt.take();
            race::write(tail, "mailbox: pop frees prev tail");
            #[cfg(cmpi_model)]
            quarantine(Box::from_raw(tail));
            #[cfg(not(cmpi_model))]
            pantry::give(Box::from_raw(tail));
            debug_assert!(pkt.is_some(), "non-stub node without a packet");
            pkt
        }
    }

    /// Consumer-side emptiness check (`false` may also mean a push is
    /// mid-link; see `pop`).
    fn has_ready(&self) -> bool {
        // SAFETY: single-consumer contract (see `pop`); only the `next`
        // atomic of the current tail is read, never freed memory.
        unsafe { !(**self.tail.get()).next.load(Ordering::Acquire).is_null() }
    }

    /// Packets linked and not yet popped, counted from the consumer's
    /// side.
    ///
    /// # Safety
    ///
    /// No `pop` may run during the call: a pop frees the node it leaves,
    /// and the walk would then read freed memory. Pushes may run.
    unsafe fn queued(&self) -> u64 {
        let mut n = 0;
        // SAFETY: no pop runs (the caller's contract), so every node
        // from `tail` on stays allocated while it is walked, and each
        // `next` is read with the `Acquire` its link store pairs with.
        unsafe {
            let mut node = *self.tail.get();
            loop {
                node = (*node).next.load(Ordering::Acquire);
                if node.is_null() {
                    return n;
                }
                n += 1;
            }
        }
    }
}

impl Drop for MpscQueue {
    fn drop(&mut self) {
        // All producers are joined before the job state drops, so every
        // link store is visible; drain and free the chain plus the final
        // stub/tail node.
        while self.pop().is_some() {}
        // SAFETY: after the drain `tail` points at the last remaining
        // node (the stub or the final popped node), owned solely by us.
        #[cfg(cmpi_model)]
        unsafe {
            quarantine(Box::from_raw(*self.tail.get()))
        };
        #[cfg(not(cmpi_model))]
        // SAFETY: as above — the final node is solely ours.
        unsafe {
            pantry::give(Box::from_raw(*self.tail.get()))
        };
    }
}

/// Wall-clock pressure counters of one mailbox (all relaxed; they feed
/// the job profile, not any control flow). Every counter has one writer,
/// the owning rank, so none costs a read-modify-write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Packets pushed over the cell's lifetime.
    pub pushes: u64,
    /// Times the owning rank descheduled itself on the idle cell.
    pub parks: u64,
    /// Producer-side wake-ups that had to unpark an OS thread (none when
    /// ranks are fibers: rescheduling one is a run-queue push).
    pub wakes: u64,
}

/// A rank's mailbox: intra-host packets are pushed here directly; fabric
/// arrivals and eager-queue drains poke it so an idle rank wakes up.
pub(crate) struct RankCell {
    q: MpscQueue,
    /// Producer-raised "state changed" flag; cleared by the consumer
    /// around every deschedule.
    poked: AtomicBool,
    /// The owning rank's scheduling hook, bound by the execution engine
    /// before the rank starts: `wake` reschedules through it whatever
    /// `exec::yield_blocked` descheduled.
    task: OnceLock<Arc<TaskHook>>,
    /// Packets the owner popped; with what is still queued, the pushes
    /// (counted by the one consumer, not by every producer).
    pops: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
}

impl RankCell {
    pub(crate) fn new() -> Self {
        RankCell {
            q: MpscQueue::new(),
            poked: AtomicBool::new(false),
            task: OnceLock::new(),
            pops: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    /// Route this cell's wake-ups to its owner's task (called once per
    /// job, before any rank starts).
    pub(crate) fn bind_task(&self, hook: Arc<TaskHook>) {
        let bound = self.task.set(hook).is_ok();
        assert!(bound, "rank cell bound to two tasks");
    }

    pub(crate) fn push(&self, pkt: Packet) {
        self.q.push(pkt);
        self.wake();
    }

    /// Signal a state change that is not a packet (fabric arrival,
    /// pair-queue drain): the owner re-runs its progress engine.
    pub(crate) fn poke(&self) {
        self.wake();
    }

    fn wake(&self) {
        // A plain store: the hook's handoff compare-exchange follows it
        // in program order and is what no wake-up can be lost past (see
        // the module doc).
        self.poked.store(true, Ordering::Release);
        // An unbound cell has no owner yet, hence nobody to reschedule.
        if self.task.get().is_some_and(|hook| hook.wake()) {
            // relaxed-ok: profile counter, feeds stats() only; only the
            // OS-thread backend gets here, and a lost count is harmless.
            // rmw: wakers of one owner race; never reached with fibers.
            self.wakes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Consumer-side pop of the oldest packet; see [`MpscQueue::pop`].
    pub(crate) fn pop(&self) -> Option<Packet> {
        let pkt = self.q.pop()?;
        // relaxed-ok: profile counter, feeds stats() only; the owner is
        // its one writer, so a load and a store count it without an RMW.
        self.pops
            .store(self.pops.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        Some(pkt)
    }

    /// Whether a `pop` now would find a packet (`false` may also mean a
    /// push is mid-link; see [`MpscQueue::pop`]).
    pub(crate) fn has_ready(&self) -> bool {
        self.q.has_ready()
    }

    /// Deschedule the owning rank until something happens (a packet
    /// push, or a poke from the fabric or an eager-queue drain). Returns
    /// at once if something already has.
    pub(crate) fn sleep_if_idle(&self) {
        if !self.q.has_ready() {
            self.sleep_at_barrier();
        }
    }

    /// Sleep for a `PokeBarrier` waiter: pending-but-undrained packets
    /// must NOT keep the caller runnable (unlike [`Self::sleep_if_idle`])
    /// because a rank waiting at a barrier drains nothing until released.
    /// Only the release poke (or any racing poke, re-checked by the
    /// caller's generation loop) matters.
    pub(crate) fn sleep_at_barrier(&self) {
        if self.poked.load(Ordering::Acquire) {
            // relaxed-ok: the `Acquire` load above already ordered the
            // poke's state change before the caller's re-check; a
            // producer's `true` this clear erases still wakes through
            // the handoff (module doc).
            self.poked.store(false, Ordering::Relaxed);
            return;
        }
        // relaxed-ok: profile counter, feeds stats() only; the owner is
        // its one writer, so a load and a store count it without an RMW.
        self.parks
            .store(self.parks.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // A poke landing after the load above is caught by the handoff's
        // sticky `NOTIFIED` bit.
        crate::exec::yield_blocked();
        // The claim that resumed the owner read every waker's
        // compare-exchange, which follows that producer's link store, so
        // its node is visible to the caller's next `pop`. A poke raised
        // after this clear is not lost either: the caller re-checks its
        // completion state before it sleeps again, and the state change
        // it advertises happened-before the poke.
        // relaxed-ok: ordered by the claim (above).
        self.poked.store(false, Ordering::Relaxed);
    }

    /// Parks so far (the owner's count; readable while it runs).
    pub(crate) fn parks(&self) -> u64 {
        // relaxed-ok: profile counter; a stale snapshot is fine.
        self.parks.load(Ordering::Relaxed)
    }

    /// Snapshot of the wall-clock pressure counters; what is still
    /// queued is counted from the consumer's side.
    ///
    /// # Safety
    ///
    /// The owner must have stopped popping (every rank of the job has
    /// finished): see [`MpscQueue::queued`].
    pub(crate) unsafe fn stats(&self) -> MailboxStats {
        MailboxStats {
            // relaxed-ok: profile counters; stale snapshots are fine.
            // SAFETY: no pop runs (the caller's contract).
            pushes: self.pops.load(Ordering::Relaxed) + unsafe { self.q.queued() },
            parks: self.parks(),
            // relaxed-ok: profile counters; stale snapshots are fine.
            wakes: self.wakes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use bytes::Bytes;
    use cmpi_cluster::{Channel, SimTime};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn pkt(src: usize, seq: u64) -> Packet {
        Packet {
            src,
            channel: Channel::Shm,
            available_at: SimTime::ZERO,
            kind: PacketKind::Eager {
                ctx: 0,
                tag: 0,
                seq,
                total: 0,
                offset: 0,
            },
            data: Bytes::new(),
        }
    }

    fn seq_of(p: &Packet) -> u64 {
        match p.kind {
            PacketKind::Eager { seq, .. } => seq,
            _ => unreachable!(),
        }
    }

    /// Run `consumer` on the calling thread as the rank that owns `cell`
    /// (OS-thread backend of the execution engine), so its
    /// `sleep_if_idle` parks this thread and producers' pokes unpark it.
    fn as_owner(cell: &RankCell, consumer: impl FnOnce() + Send) {
        crate::exec::run_on_this_thread(consumer, |hook| cell.bind_task(hook));
    }

    #[test]
    fn fifo_single_producer() {
        let cell = RankCell::new();
        for i in 0..100 {
            cell.push(pkt(0, i));
        }
        for i in 0..100 {
            assert_eq!(seq_of(&cell.pop().expect("packet")), i);
        }
        assert!(cell.pop().is_none());
    }

    #[test]
    fn per_producer_fifo_under_contention() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: u64 = 2_000;
        let cell = Arc::new(RankCell::new());
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        cell.push(pkt(p, i));
                    }
                });
            }
            let cell = Arc::clone(&cell);
            s.spawn(move || {
                as_owner(&cell, || {
                    let mut next = [0u64; PRODUCERS];
                    let mut got = 0u64;
                    while got < PRODUCERS as u64 * PER_PRODUCER {
                        match cell.pop() {
                            Some(p) => {
                                let seq = seq_of(&p);
                                assert_eq!(seq, next[p.src], "per-sender FIFO violated");
                                next[p.src] += 1;
                                got += 1;
                            }
                            None => cell.sleep_if_idle(),
                        }
                    }
                    assert!(cell.pop().is_none());
                })
            });
        });
        // SAFETY: the consumer thread has joined; nothing pops.
        let stats = unsafe { cell.stats() };
        assert_eq!(
            stats.pushes,
            PRODUCERS as u64 * PER_PRODUCER,
            "push counter"
        );
    }

    /// The regression test for the park/poke race window: producers
    /// pushing one packet at a time must never strand a consumer that is
    /// just deciding to park its thread. A lost wake-up hangs this test.
    #[test]
    fn park_poke_race_hammer() {
        const ROUNDS: usize = 200;
        const PRODUCERS: usize = 4;
        for _ in 0..ROUNDS {
            let cell = Arc::new(RankCell::new());
            let received = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|s| {
                for p in 0..PRODUCERS {
                    let cell = Arc::clone(&cell);
                    s.spawn(move || {
                        // No delay: the push races the consumer's
                        // empty-check-then-park sequence head on.
                        cell.push(pkt(p, 0));
                        cell.poke();
                    });
                }
                let cell = Arc::clone(&cell);
                let received = Arc::clone(&received);
                s.spawn(move || {
                    as_owner(&cell, || {
                        let mut got = 0;
                        while got < PRODUCERS {
                            match cell.pop() {
                                Some(_) => got += 1,
                                None => cell.sleep_if_idle(),
                            }
                        }
                        received.store(got, Ordering::SeqCst);
                    })
                });
            });
            assert_eq!(received.load(Ordering::SeqCst), PRODUCERS);
        }
    }

    #[test]
    fn poke_without_packet_wakes_sleeper() {
        let cell = Arc::new(RankCell::new());
        let cell2 = Arc::clone(&cell);
        let h = std::thread::spawn(move || {
            // Returns only once a poke or packet arrives.
            as_owner(&cell2, || cell2.sleep_if_idle());
        });
        // Give the sleeper a moment to actually park, then poke.
        while cell.parks() == 0 && !h.is_finished() {
            std::thread::yield_now();
        }
        cell.poke();
        #[allow(
            clippy::disallowed_methods,
            reason = "the test's own thread waits for the sleeper's thread"
        )]
        h.join().expect("sleeper woke");
    }

    #[test]
    fn drop_frees_pending_packets() {
        let cell = RankCell::new();
        for i in 0..10 {
            cell.push(pkt(0, i));
        }
        // Dropping with undrained packets must not leak or double-free
        // (exercised under the test allocator / miri-like checks).
        drop(cell);
    }
}

/// Exhaustive interleaving checks (run via
/// `RUSTFLAGS="--cfg cmpi_model" cargo test -p cmpi-core --lib`).
#[cfg(all(test, cmpi_model))]
mod model_tests {
    use super::*;
    use crate::packet::PacketKind;
    use bytes::Bytes;
    use cmpi_cluster::{Channel, SimTime};
    use cmpi_model::model::{self, thread, Builder};
    use std::sync::Arc;

    fn pkt(src: usize, seq: u64) -> Packet {
        Packet {
            src,
            channel: Channel::Shm,
            available_at: SimTime::ZERO,
            kind: PacketKind::Eager {
                ctx: 0,
                tag: 0,
                seq,
                total: 0,
                offset: 0,
            },
            data: Bytes::new(),
        }
    }

    fn seq_of(p: &Packet) -> u64 {
        match p.kind {
            PacketKind::Eager { seq, .. } => seq,
            _ => unreachable!(),
        }
    }

    /// Run `consumer` on the calling model thread as the rank that owns
    /// `cell`, on the execution engine's OS-thread backend: its
    /// `sleep_if_idle` goes through the production handoff and parks on
    /// the shim's park lock, which the checker schedules.
    fn as_owner(cell: &RankCell, consumer: impl FnOnce() + Send) {
        crate::exec::run_on_this_thread(consumer, |hook| cell.bind_task(hook));
    }

    /// Linearizability of the pop order: under every interleaving of two
    /// producers, pops respect per-producer FIFO and lose nothing.
    #[test]
    fn model_pop_order_is_per_producer_fifo() {
        Builder::new().max_executions(400_000).check(|| {
            let cell = Arc::new(RankCell::new());
            let c0 = Arc::clone(&cell);
            let p0 = thread::spawn(move || {
                c0.push(pkt(0, 0));
                c0.push(pkt(0, 1));
            });
            let c1 = Arc::clone(&cell);
            let p1 = thread::spawn(move || {
                c1.push(pkt(1, 0));
            });
            let mut next = [0u64; 2];
            let mut got = 0;
            while got < 3 {
                match cell.pop() {
                    Some(p) => {
                        assert_eq!(seq_of(&p), next[p.src], "per-sender FIFO violated");
                        next[p.src] += 1;
                        got += 1;
                    }
                    None => thread::yield_now(),
                }
            }
            p0.join();
            p1.join();
            assert!(cell.pop().is_none(), "phantom packet");
        });
    }

    /// No lost wakeup from the cell's `poked` flag through the engine's
    /// handoff to the parked thread: a consumer that decides to sleep
    /// exactly as the producer pushes must still be woken. A lost wakeup
    /// shows up as a model-detected deadlock.
    #[test]
    fn model_park_poke_never_loses_wakeup() {
        Builder::new().max_executions(400_000).check(|| {
            let cell = Arc::new(RankCell::new());
            let c1 = Arc::clone(&cell);
            let p = thread::spawn(move || {
                c1.push(pkt(0, 0));
                c1.poke();
            });
            as_owner(&cell, || {
                let mut got = 0;
                while got < 1 {
                    match cell.pop() {
                        Some(_) => got += 1,
                        None => cell.sleep_if_idle(),
                    }
                }
            });
            p.join();
        });
    }

    /// Two producers push and poke while the owner sleeps through the
    /// `poked` protocol, whose stores are plain and whose only RMW is
    /// each wake's compare-exchange on the task word. Every interleaving
    /// delivers both packets (a lost wake-up is a model-detected
    /// deadlock), and the race detector checks every node payload: the
    /// owner reads it only after the producer's writes.
    #[test]
    fn model_two_producers_never_lose_a_wakeup() {
        Builder::new().max_executions(400_000).check(|| {
            let cell = Arc::new(RankCell::new());
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let c = Arc::clone(&cell);
                    thread::spawn(move || c.push(pkt(p, 0)))
                })
                .collect();
            as_owner(&cell, || {
                let mut got = 0;
                while got < 2 {
                    match cell.pop() {
                        Some(_) => got += 1,
                        None => cell.sleep_if_idle(),
                    }
                }
            });
            for p in producers {
                p.join();
            }
        });
    }

    /// A bare poke (no packet) must always un-park a waiting consumer.
    #[test]
    fn model_bare_poke_wakes_sleeper() {
        Builder::new().max_executions(400_000).check(|| {
            let cell = Arc::new(RankCell::new());
            let c1 = Arc::clone(&cell);
            let p = thread::spawn(move || c1.poke());
            // Returns only once the poke is observed (directly or via the
            // unpark); a lost poke deadlocks here.
            as_owner(&cell, || cell.sleep_if_idle());
            p.join();
        });
    }

    /// The `fabric_ready` gating of `Mpi::progress` against the real
    /// endpoint (`cmpi-fabric` is shim-synchronized under this cfg): a
    /// post takes the sender's section, queues the message in the
    /// receiver's section, then runs the notifier `Mpi::init` registers —
    /// hint with `Release`, then poke. Progress loads the hint `Acquire`,
    /// clears it with a plain store and drains under the receive-side
    /// lock into its scratch vector. A delivery lost anywhere along
    /// that chain — an empty drain after the claim, a poke that does not
    /// end the sleep — leaves the consumer parked with no runnable
    /// peer, which the model reports as a deadlock.
    #[test]
    fn model_fabric_ready_gating_never_drops_a_delivery() {
        use cmpi_cluster::{CostModel, HostId};
        use cmpi_fabric::Fabric;
        use cmpi_model::sync::{AtomicBool, Ordering};

        Builder::new().max_executions(400_000).check(|| {
            let cell = Arc::new(RankCell::new());
            let ready = Arc::new(AtomicBool::new(false));
            let fabric = Fabric::new(CostModel::default());
            fabric.attach(0, HostId(0), true).unwrap();
            fabric.attach(1, HostId(1), true).unwrap();
            let (c, r) = (Arc::clone(&cell), Arc::clone(&ready));
            fabric.set_notifier(
                1,
                Box::new(move || {
                    // Hint before poke: the woken rank's next pass must see it.
                    r.store(true, Ordering::Release);
                    c.poke();
                }),
            );

            let f = Arc::clone(&fabric);
            let poster = thread::spawn(move || {
                f.post_send(0, 1, 7, Bytes::new(), SimTime::ZERO).unwrap();
            });

            let mut msgs = Vec::new();
            as_owner(&cell, || loop {
                // Acquire load + plain clear, exactly as `Mpi::progress`.
                if ready.load(Ordering::Acquire) {
                    ready.store(false, Ordering::Relaxed);
                    while let Some((m, _)) = fabric.poll_recv_one(1).unwrap() {
                        msgs.push(m);
                    }
                    if !msgs.is_empty() {
                        break;
                    }
                }
                cell.sleep_if_idle();
            });
            poster.join();
            assert_eq!(msgs.len(), 1, "delivery duplicated");
            assert_eq!(msgs[0].imm, 7, "delivery torn");
        });
    }

    /// A copy of `MpscQueue` with the link store deliberately weakened to
    /// `Relaxed`, used to prove the checker actually catches the bug the
    /// `Release` in `push` prevents (and to pin the failing schedule).
    mod weakened {
        use super::*;
        use cmpi_model::race;
        use cmpi_model::sync::{quarantine, AtomicPtr};
        use std::cell::UnsafeCell;
        use std::ptr;

        pub(super) struct Node {
            next: AtomicPtr<Node>,
            pub(super) pkt: Option<u64>,
        }

        pub(super) struct WeakQueue {
            head: AtomicPtr<Node>,
            tail: UnsafeCell<*mut Node>,
            /// `true` restores the correct `Release` link store.
            release_link: bool,
        }

        // SAFETY: same single-consumer contract as `MpscQueue`.
        unsafe impl Send for WeakQueue {}
        // SAFETY: same single-consumer contract as `MpscQueue`.
        unsafe impl Sync for WeakQueue {}

        impl WeakQueue {
            pub(super) fn new(release_link: bool) -> Self {
                let stub = Box::into_raw(Box::new(Node {
                    next: AtomicPtr::new(ptr::null_mut()),
                    pkt: None,
                }));
                WeakQueue {
                    head: AtomicPtr::new(stub),
                    tail: UnsafeCell::new(stub),
                    release_link,
                }
            }

            pub(super) fn push(&self, v: u64) {
                let node = Box::into_raw(Box::new(Node {
                    next: AtomicPtr::new(ptr::null_mut()),
                    pkt: Some(v),
                }));
                race::write(node, "weakened mailbox: node init");
                let prev = self.head.swap(node, Ordering::AcqRel);
                let ord = if self.release_link {
                    Ordering::Release
                } else {
                    // The injected bug: nothing publishes the payload.
                    Ordering::Relaxed
                };
                // SAFETY: `prev` is live — the consumer frees a node only
                // after unlinking past it (same argument as `MpscQueue`).
                unsafe { (*prev).next.store(node, ord) };
            }

            pub(super) fn pop(&self) -> Option<u64> {
                // SAFETY: single-consumer contract as in `MpscQueue::pop`.
                unsafe {
                    let tail = *self.tail.get();
                    let next = (*tail).next.load(Ordering::Acquire);
                    if next.is_null() {
                        return None;
                    }
                    *self.tail.get() = next;
                    race::write(next, "weakened mailbox: pop takes payload");
                    let v = (*next).pkt.take();
                    quarantine(Box::from_raw(tail));
                    v
                }
            }
        }

        impl Drop for WeakQueue {
            fn drop(&mut self) {
                while self.pop().is_some() {}
                // SAFETY: only the final tail node remains; solely ours.
                unsafe { quarantine(Box::from_raw(*self.tail.get())) };
            }
        }
    }

    fn weakened_scenario(release_link: bool) -> impl Fn() + Send + Sync + 'static {
        move || {
            let q = Arc::new(weakened::WeakQueue::new(release_link));
            let q2 = Arc::clone(&q);
            let p = thread::spawn(move || q2.push(7));
            loop {
                if let Some(v) = q.pop() {
                    assert_eq!(v, 7);
                    break;
                }
                thread::yield_now();
            }
            p.join();
        }
    }

    /// Acceptance check for the checker itself: the Relaxed link store is
    /// reported as a data race on the node payload, and the failing
    /// schedule replays deterministically (the regression pin pattern).
    #[test]
    fn weakened_link_store_is_a_data_race() {
        let report = Builder::new()
            .max_executions(400_000)
            .check_expect_failure(weakened_scenario(false));
        assert!(report.contains("data race"), "report:\n{report}");
        assert!(
            report.contains("weakened mailbox"),
            "race should name the annotated accesses:\n{report}"
        );
        let schedule = model::extract_replay(&report).expect("replay line in report");
        let replayed = Builder::new()
            .replay(&schedule, weakened_scenario(false))
            .expect("pinned schedule must still expose the race");
        assert!(replayed.contains("data race"), "{replayed}");
        // The same pinned schedule passes once the link store is Release:
        // the fix, not schedule drift, is what clears it. The choice
        // structure is identical (orderings don't add decisions), so the
        // schedule transfers.
        assert!(
            Builder::new()
                .replay(&schedule, weakened_scenario(true))
                .is_none(),
            "Release link store must clear the pinned schedule"
        );
    }

    /// The correct (Release-link) variant survives exhaustive search.
    #[test]
    fn release_link_store_has_no_race() {
        Builder::new()
            .max_executions(400_000)
            .check(weakened_scenario(true));
    }
}
