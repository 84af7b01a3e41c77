//! Bounded eager queues with virtual-time backpressure.
//!
//! MVAPICH2 places a shared buffer of `SMPI_LENGTH_QUEUE` bytes between
//! every pair of co-resident processes; eager messages are copied through
//! it. When the sender outruns the receiver the queue fills and the sender
//! blocks — this is precisely the effect the Fig. 7(b) parameter sweep
//! measures.
//!
//! In the simulation the *payload* travels through the runtime's packet
//! queues (real memory), while [`PairQueue`] accounts for the bounded
//! buffer: a sender must `acquire` space before publishing an eager packet
//! and learns the **virtual time at which enough space existed**; the
//! receiver `release`s space at its own virtual consumption time. Real
//! thread blocking and logical-clock stalling therefore stay consistent.

use std::collections::VecDeque;

use cmpi_cluster::SimTime;
use cmpi_model::sync::{Condvar, Mutex};

#[derive(Debug)]
struct QueueState {
    /// Total bytes ever acquired by the sender.
    acquired: u64,
    /// Total bytes ever released by the receiver.
    released: u64,
    /// Release history: (cumulative released bytes, virtual time of that
    /// release), monotone in both components. Pruned as acquires advance.
    history: VecDeque<(u64, SimTime)>,
    /// Set when the receiver side is torn down; pending acquires fail.
    closed: bool,
    /// Successful space claims (the stall-ratio denominator).
    acquires: u64,
    /// Acquires that found the queue full (backpressure events).
    stalled_acquires: u64,
    /// High-water mark of bytes in flight.
    max_in_flight: u64,
    /// Senders currently blocked in `acquire`. Lets `release`/`close`
    /// skip the condvar broadcast (a futex syscall per eager chunk)
    /// on the common uncontended path.
    waiters: u64,
}

/// Backpressure counters of one queue (see [`PairQueue::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Successful space claims (every eager chunk acquires once), the
    /// denominator for backpressure ratios.
    pub acquires: u64,
    /// Acquires that had to wait for a receiver-side drain.
    pub stalled_acquires: u64,
    /// Highest bytes-in-flight ever observed.
    pub max_in_flight: u64,
}

/// Error returned by [`PairQueue::acquire`] when the queue is closed
/// while the sender waits for space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueClosed;

/// One sender→receiver bounded eager queue (a pair of ranks has one per
/// direction).
pub struct PairQueue {
    capacity: u64,
    state: Mutex<QueueState>,
    cv: Condvar,
}

/// Hard bound on the release-history length. The history starts empty
/// and grows to the pair's working depth during warm-up — one event per
/// release over the last `capacity` bytes, so a few for a pair that
/// exchanges a few messages and up to the bound for a small-message
/// stream — after which the steady-state release path never
/// reallocates. (A job instantiates one queue per ordered co-resident
/// pair that ever talks; reserving the bound up front cost 4 KiB each.)
/// When the bound is hit the oldest event is merged away, which can only
/// *overstate* a later stall (the walk lands on a later release time),
/// never understate it.
const HISTORY_CAP: usize = 256;

impl PairQueue {
    /// Create a queue of `capacity` bytes (the `SMPI_LENGTH_QUEUE` value).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "eager queue capacity must be positive");
        PairQueue {
            capacity: capacity as u64,
            state: Mutex::new(QueueState {
                acquired: 0,
                released: 0,
                history: VecDeque::new(),
                closed: false,
                acquires: 0,
                stalled_acquires: 0,
                max_in_flight: 0,
                waiters: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Queue capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Bytes currently in flight (acquired but not yet released).
    pub fn in_flight(&self) -> usize {
        let s = self.state.lock();
        (s.acquired - s.released) as usize
    }

    /// Sender side: claim `bytes` of queue space for one eager packet.
    ///
    /// Blocks the calling thread until the space exists, then returns the
    /// **virtual timestamp at which the space became available** — the
    /// sender must advance its logical clock to at least this value before
    /// charging its copy-in cost. Returns [`SimTime::ZERO`] when the queue
    /// never had to wait (space was free from the start).
    ///
    /// # Panics
    /// Panics if `bytes` exceeds the queue capacity (callers must enforce
    /// `SMP_EAGER_SIZE <= SMPI_LENGTH_QUEUE`, see `Tunables::validate`).
    ///
    /// Returns [`QueueClosed`] if the queue was closed while waiting.
    pub fn acquire(&self, bytes: usize) -> Result<SimTime, QueueClosed> {
        let bytes = bytes as u64;
        assert!(
            bytes <= self.capacity,
            "eager packet of {bytes} bytes exceeds queue capacity {}",
            self.capacity
        );
        let mut s = self.state.lock();
        // We may proceed once `released >= required`.
        let required = (s.acquired + bytes).saturating_sub(self.capacity);
        while s.released < required {
            if s.closed {
                return Err(QueueClosed);
            }
            s.waiters += 1;
            self.cv.wait(&mut s);
            s.waiters -= 1;
        }
        if s.closed {
            return Err(QueueClosed);
        }
        // The stall bound is the virtual time of the earliest release event
        // that satisfied `required`. Prune events below the requirement —
        // later acquires only ever need more.
        let mut stall = SimTime::ZERO;
        if required > 0 {
            s.stalled_acquires += 1;
            while let Some(&(cum, t)) = s.history.front() {
                stall = t;
                if cum >= required {
                    break;
                }
                s.history.pop_front();
            }
            debug_assert!(
                s.history
                    .front()
                    .map(|&(c, _)| c >= required)
                    .unwrap_or(false),
                "release history lost the satisfying event"
            );
        }
        s.acquires += 1;
        s.acquired += bytes;
        s.max_in_flight = s.max_in_flight.max(s.acquired - s.released);
        Ok(stall)
    }

    /// Non-blocking variant of [`PairQueue::acquire`]: returns `None` when
    /// the space is not available yet, so the caller can run its progress
    /// engine (avoiding the cross-pair deadlock a blocking wait could
    /// cause) and retry.
    pub fn try_acquire(&self, bytes: usize) -> Option<SimTime> {
        let bytes = bytes as u64;
        assert!(
            bytes <= self.capacity,
            "eager packet of {bytes} bytes exceeds queue capacity {}",
            self.capacity
        );
        let mut s = self.state.lock();
        let required = (s.acquired + bytes).saturating_sub(self.capacity);
        if s.released < required {
            return None;
        }
        let mut stall = SimTime::ZERO;
        if required > 0 {
            s.stalled_acquires += 1;
            while let Some(&(cum, t)) = s.history.front() {
                stall = t;
                if cum >= required {
                    break;
                }
                s.history.pop_front();
            }
        }
        s.acquires += 1;
        s.acquired += bytes;
        s.max_in_flight = s.max_in_flight.max(s.acquired - s.released);
        Some(stall)
    }

    /// Receiver side: free `bytes` of queue space at virtual time `now`
    /// (the moment the receiver finished copying the packet out).
    pub fn release(&self, bytes: usize, now: SimTime) {
        let mut s = self.state.lock();
        s.released += bytes as u64;
        // Virtual release times are monotone because a receiver's clock is;
        // clamp defensively so a violated assumption cannot corrupt the
        // history's monotonicity.
        let t = s.history.back().map(|&(_, t)| t.max(now)).unwrap_or(now);
        let cum = s.released;
        // A zero-byte release adds no information: the stall walk stops at
        // the FIRST event reaching a cumulative count, so a duplicate would
        // never be consulted. Skipping it keeps the history bounded even
        // under a stream of empty packets.
        if s.history.back().map(|&(c, _)| c) != Some(cum) {
            if s.history.len() == HISTORY_CAP {
                // Conservative merge: queries the dropped event would have
                // answered now land on its successor's (later) time.
                s.history.pop_front();
            }
            s.history.push_back((cum, t));
        }
        // Drop events no future acquire can consult: `required` is always
        // `acquired + bytes - capacity` and `acquired` is monotone, so any
        // event below `acquired - capacity` would be skipped by every later
        // stall walk. Without this the history grows without bound on the
        // uncontended path (backpressured acquires are the only other
        // place that prunes).
        let dead = s.acquired.saturating_sub(self.capacity);
        while s.history.front().is_some_and(|&(c, _)| c < dead) {
            s.history.pop_front();
        }
        // The waiter count is maintained under this same mutex, so a
        // sender either registered before we locked (and is notified) or
        // will re-check `released` after we unlock — no lost wakeup.
        if s.waiters > 0 {
            self.cv.notify_all();
        }
    }

    /// `true` once [`PairQueue::close`] ran. Senders spinning on
    /// [`PairQueue::try_acquire`] poll this to stop chunking into a dead
    /// receiver instead of retrying forever.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Tear the queue down; blocked senders observe `Err`.
    pub fn close(&self) {
        let mut s = self.state.lock();
        s.closed = true;
        if s.waiters > 0 {
            self.cv.notify_all();
        }
    }

    /// Snapshot of this queue's backpressure counters.
    pub fn stats(&self) -> QueueStats {
        let s = self.state.lock();
        QueueStats {
            acquires: s.acquires,
            stalled_acquires: s.stalled_acquires,
            max_in_flight: s.max_in_flight,
        }
    }
}

impl std::fmt::Debug for PairQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PairQueue(cap {}, in flight {})",
            self.capacity,
            self.in_flight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn no_stall_when_space_is_free() {
        let q = PairQueue::new(1024);
        assert_eq!(q.acquire(512).unwrap(), SimTime::ZERO);
        assert_eq!(q.acquire(512).unwrap(), SimTime::ZERO);
        assert_eq!(q.in_flight(), 1024);
    }

    #[test]
    #[should_panic(expected = "exceeds queue capacity")]
    fn oversized_packet_panics() {
        PairQueue::new(64).acquire(65).ok();
    }

    #[test]
    fn sender_observes_receiver_drain_time() {
        let q = Arc::new(PairQueue::new(1000));
        assert_eq!(q.acquire(1000).unwrap(), SimTime::ZERO);
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.acquire(600).unwrap());
        // Free 500 bytes at t=10us: still not enough for 600.
        q.release(500, SimTime::from_us(10));
        // Free 500 more at t=25us: now 600 fit; stall bound must be 25us.
        q.release(500, SimTime::from_us(25));
        assert_eq!(h.join().unwrap(), SimTime::from_us(25));
    }

    #[test]
    fn stall_uses_earliest_sufficient_release() {
        let q = PairQueue::new(1000);
        q.acquire(1000).unwrap();
        q.release(700, SimTime::from_us(5));
        q.release(300, SimTime::from_us(9));
        // 600 bytes already fit after the first release: stall = 5us.
        assert_eq!(q.acquire(600).unwrap(), SimTime::from_us(5));
        // Next 400 bytes needed the second release too: stall = 9us.
        assert_eq!(q.acquire(400).unwrap(), SimTime::from_us(9));
    }

    #[test]
    fn stats_count_stalls_and_high_water() {
        let q = PairQueue::new(100);
        assert_eq!(q.stats(), QueueStats::default());
        q.acquire(100).unwrap();
        assert_eq!(
            q.stats(),
            QueueStats {
                acquires: 1,
                stalled_acquires: 0,
                max_in_flight: 100
            }
        );
        // Full: a try_acquire that fails outright is not a counted stall
        // (nothing was claimed) …
        assert!(q.try_acquire(40).is_none());
        assert_eq!(q.stats().stalled_acquires, 0);
        // … but an acquire satisfied only by a drain event is.
        q.release(60, SimTime::from_us(4));
        assert_eq!(q.try_acquire(50).unwrap(), SimTime::from_us(4));
        assert_eq!(
            q.stats(),
            QueueStats {
                acquires: 2,
                stalled_acquires: 1,
                max_in_flight: 100
            }
        );
    }

    #[test]
    fn close_unblocks_waiting_sender() {
        let q = Arc::new(PairQueue::new(100));
        q.acquire(100).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.acquire(1));
        q.close();
        assert!(h.join().unwrap().is_err());
    }

    #[test]
    fn release_clamps_nonmonotone_times() {
        let q = PairQueue::new(100);
        q.acquire(100).unwrap();
        q.release(50, SimTime::from_us(20));
        q.release(50, SimTime::from_us(10)); // out of order: clamped to 20
        assert_eq!(q.acquire(100).unwrap(), SimTime::from_us(20));
    }

    /// Exhaustive interleaving checks of the blocking protocol (run via
    /// `RUSTFLAGS="--cfg cmpi_model" cargo test -p cmpi-shmem --lib`).
    #[cfg(cmpi_model)]
    mod model {
        use super::*;
        use cmpi_model::model::{thread, Builder};

        /// The waiters counter is maintained under the state mutex, so a
        /// release can never slip between the sender's space check and
        /// its condvar wait: blocked acquires always drain. A lost wakeup
        /// here is reported as a model deadlock.
        #[test]
        fn model_release_never_loses_a_blocked_acquire() {
            Builder::new().check(|| {
                let q = Arc::new(PairQueue::new(100));
                q.acquire(100).unwrap();
                let q2 = Arc::clone(&q);
                let t = thread::spawn(move || {
                    q2.release(100, SimTime::from_us(3));
                });
                // Blocks until the release lands; the stall bound is the
                // release's virtual time whenever a wait happened.
                let stall = q.acquire(50).unwrap();
                assert!(
                    stall == SimTime::ZERO || stall == SimTime::from_us(3),
                    "stall bound from nowhere: {stall:?}"
                );
                t.join();
            });
        }

        /// `close` must unblock a sender stuck in `acquire` under every
        /// interleaving, and the sender always observes `QueueClosed`
        /// (the queue is full and nothing ever releases).
        #[test]
        fn model_close_unblocks_blocked_acquire() {
            Builder::new().check(|| {
                let q = Arc::new(PairQueue::new(100));
                q.acquire(100).unwrap();
                let q2 = Arc::clone(&q);
                let t = thread::spawn(move || q2.close());
                assert_eq!(q.acquire(1), Err(QueueClosed));
                t.join();
            });
        }
    }

    /// The preallocating history this queue used to carry, as a plain
    /// model: same dedup, overflow-merge and pruning rules over a `Vec`
    /// reserved to the bound.
    struct PreallocRef {
        capacity: u64,
        acquired: u64,
        released: u64,
        history: Vec<(u64, SimTime)>,
    }

    impl PreallocRef {
        fn try_acquire(&mut self, bytes: u64) -> Option<SimTime> {
            let required = (self.acquired + bytes).saturating_sub(self.capacity);
            if self.released < required {
                return None;
            }
            let mut stall = SimTime::ZERO;
            if required > 0 {
                let keep = self.history.iter().position(|&(c, _)| c >= required);
                self.history.drain(..keep.expect("satisfying event lost"));
                stall = self.history[0].1;
            }
            self.acquired += bytes;
            Some(stall)
        }

        fn release(&mut self, bytes: u64, now: SimTime) {
            self.released += bytes;
            let t = self.history.last().map_or(now, |&(_, t)| t.max(now));
            if self.history.last().map(|&(c, _)| c) != Some(self.released) {
                if self.history.len() == HISTORY_CAP {
                    self.history.remove(0);
                }
                self.history.push((self.released, t));
            }
            let dead = self.acquired.saturating_sub(self.capacity);
            self.history.retain(|&(c, _)| c >= dead);
            assert!(self.history.capacity() == HISTORY_CAP, "reference grew");
        }
    }

    #[test]
    fn history_grown_on_demand_matches_the_preallocated_one() {
        // One-byte releases through a 1 KiB queue: up to 1024 live release
        // events, four times the bound, so the overflow merge runs and
        // later stalls land on merged (later) release times.
        const CAP: u64 = 1024;
        let q = PairQueue::new(CAP as usize);
        let mut r = PreallocRef {
            capacity: CAP,
            acquired: 0,
            released: 0,
            history: Vec::with_capacity(HISTORY_CAP),
        };
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut now, mut merged, mut stalled) = (SimTime::ZERO, false, 0);
        for _ in 0..20_000 {
            let in_flight = r.acquired - r.released;
            // Bursts of sends, then bursts of drains, so in-flight bytes
            // swing across the whole queue.
            if next() % 3 != 0 && in_flight < CAP {
                let bytes = 1 + next() % 3.min(CAP - in_flight);
                let want = r.try_acquire(bytes);
                assert_eq!(q.try_acquire(bytes as usize), want);
                stalled += usize::from(want.is_some_and(|t| t > SimTime::ZERO));
            } else if in_flight > 0 {
                for _ in 0..1 + next() % in_flight.min(700) {
                    now += SimTime::from_ns(1 + next() % 50);
                    q.release(1, now);
                    r.release(1, now);
                    merged |= r.history.len() == HISTORY_CAP;
                }
            }
            assert_eq!(q.state.lock().history.len(), r.history.len());
        }
        assert!(merged, "the run never reached the overflow merge");
        assert!(
            stalled > 100,
            "only {stalled} acquires consulted the history"
        );
        assert!(q.state.lock().history.capacity() <= 2 * HISTORY_CAP);
    }

    #[test]
    fn pipelined_window_accounting() {
        // A window of 8 sends of 32 bytes through a 64-byte queue: sender
        // can hold 2 packets in flight; stalls follow the receiver's
        // consumption times.
        let q = PairQueue::new(64);
        let mut stalls = Vec::new();
        let mut recv_t = SimTime::ZERO;
        let mut pending = 0usize;
        for i in 0..8 {
            if pending == 2 {
                // Receiver consumes the oldest packet 3us after the last.
                recv_t += SimTime::from_us(3);
                q.release(32, recv_t);
                pending -= 1;
            }
            stalls.push(q.acquire(32).unwrap());
            pending += 1;
            let _ = i;
        }
        assert_eq!(stalls[0], SimTime::ZERO);
        assert_eq!(stalls[1], SimTime::ZERO);
        // From the third send on, each acquire waits for a drain event.
        for (k, s) in stalls.iter().enumerate().skip(2) {
            assert_eq!(*s, SimTime::from_us(3 * (k as u64 - 1)), "send {k}");
        }
    }
}
