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
//! buffer: a sender must `try_acquire` space before publishing an eager
//! packet and learns the **virtual time at which enough space existed**;
//! the receiver `release`s space at its own virtual consumption time. The
//! queue never blocks a thread itself: a sender that finds it full runs
//! its progress engine, yields to the execution engine and retries, so
//! real waiting and logical-clock stalling stay consistent.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;

use cmpi_cluster::SimTime;
use cmpi_model::sync::Mutex;

#[derive(Debug)]
struct QueueState {
    /// Total bytes ever acquired by the sender.
    acquired: u64,
    /// Total bytes ever released by the receiver.
    released: u64,
    /// Release history: (cumulative released bytes, virtual time of that
    /// release), monotone in both components. Pruned as acquires advance.
    history: VecDeque<(u64, SimTime)>,
    /// Successful space claims (the stall-ratio denominator).
    acquires: u64,
    /// Acquires that found the queue full (backpressure events).
    stalled_acquires: u64,
    /// High-water mark of bytes in flight.
    max_in_flight: u64,
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

/// One sender→receiver bounded eager queue (a pair of ranks has one per
/// direction).
pub struct PairQueue {
    capacity: u64,
    state: Mutex<QueueState>,
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
                acquires: 0,
                stalled_acquires: 0,
                max_in_flight: 0,
            }),
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
    /// Returns the **virtual timestamp at which the space became
    /// available** — the sender must advance its logical clock to at least
    /// this value before charging its copy-in cost — which is
    /// [`SimTime::ZERO`] when the space was free from the start. Returns
    /// `None` when the space is not available yet, so the caller can run
    /// its progress engine (a blocking wait here could deadlock across
    /// pairs) and retry.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds the queue capacity (callers must enforce
    /// `SMP_EAGER_SIZE <= SMPI_LENGTH_QUEUE`, see `Tunables::validate`).
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

    #[test]
    fn no_stall_when_space_is_free() {
        let q = PairQueue::new(1024);
        assert_eq!(q.try_acquire(512), Some(SimTime::ZERO));
        assert_eq!(q.try_acquire(512), Some(SimTime::ZERO));
        assert_eq!(q.in_flight(), 1024);
    }

    #[test]
    #[should_panic(expected = "exceeds queue capacity")]
    fn oversized_packet_panics() {
        PairQueue::new(64).try_acquire(65);
    }

    #[test]
    fn sender_observes_receiver_drain_time() {
        let q = PairQueue::new(1000);
        assert_eq!(q.try_acquire(1000), Some(SimTime::ZERO));
        assert_eq!(q.try_acquire(600), None);
        // Free 500 bytes at t=10us: still not enough for 600.
        q.release(500, SimTime::from_us(10));
        assert_eq!(q.try_acquire(600), None);
        // Free 500 more at t=25us: now 600 fit; stall bound must be 25us.
        q.release(500, SimTime::from_us(25));
        assert_eq!(q.try_acquire(600), Some(SimTime::from_us(25)));
    }

    #[test]
    fn stall_uses_earliest_sufficient_release() {
        let q = PairQueue::new(1000);
        q.try_acquire(1000).unwrap();
        q.release(700, SimTime::from_us(5));
        q.release(300, SimTime::from_us(9));
        // 600 bytes already fit after the first release: stall = 5us.
        assert_eq!(q.try_acquire(600).unwrap(), SimTime::from_us(5));
        // Next 400 bytes needed the second release too: stall = 9us.
        assert_eq!(q.try_acquire(400).unwrap(), SimTime::from_us(9));
    }

    #[test]
    fn stats_count_stalls_and_high_water() {
        let q = PairQueue::new(100);
        assert_eq!(q.stats(), QueueStats::default());
        q.try_acquire(100).unwrap();
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
    fn release_clamps_nonmonotone_times() {
        let q = PairQueue::new(100);
        q.try_acquire(100).unwrap();
        q.release(50, SimTime::from_us(20));
        q.release(50, SimTime::from_us(10)); // out of order: clamped to 20
        assert_eq!(q.try_acquire(100).unwrap(), SimTime::from_us(20));
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
            stalls.push(q.try_acquire(32).unwrap());
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
