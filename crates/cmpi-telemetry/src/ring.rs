//! The flight recorder: a fixed-capacity per-rank event ring.
//!
//! Every rank owns one [`FlightRecorder`]. The owning rank thread is the
//! only writer ([`FlightRecorder::record`] is wait-free); any other
//! thread may take a [`FlightRecorder::snapshot`] concurrently — on
//! demand, on error, or at job teardown. The ring drops oldest events
//! when full and accounts for every drop exactly: a snapshot always
//! satisfies `published == dropped + events.len()`.
//!
//! # Storage
//!
//! Slots live in fixed [`CHUNK_SLOTS`]-slot chunks that the writer
//! allocates the first time the ring reaches them: most ranks of a
//! job record no incident at all, and an eagerly allocated ring would
//! be 10 KiB per rank of zeroes. A ring that has wrapped once holds
//! every chunk and `record` never touches the heap again. A chunk is published before any of its slots (the
//! writer's later `head` store releases both), so a reader that
//! observed `head` finds the chunk of every index below it.
//!
//! # Slot protocol
//!
//! Each slot carries a generation word `seq` plus four payload words,
//! all atomics (a Boehm-style fence-free seqlock — the shim layer has
//! no fences, and all-atomic payloads keep the model checker's race
//! detector in play). The slot holding global event index `g` is
//! stamped with generation `g + 1` (zero means "never written"):
//!
//! * writer: `seq ← 0` (invalidate), payload word `Release` stores,
//!   `seq ← g+1` (`Release`), `head ← g+1` (`Release`);
//! * reader, per slot: `s1 = seq` (`Acquire`), reject unless `s1 ==
//!   g+1`; payload `Acquire` loads; `s2 = seq` (`Relaxed`), accept iff
//!   `s2 == g+1`.
//!
//! Why the relaxed `s2` read is sound: a torn read means at least one
//! payload load observed a *newer* generation's `Release` store. That
//! store synchronizes-with the load, and the writer's `seq ← 0`
//! invalidation is sequenced before it — so by coherence the subsequent
//! `s2` load can only return `0` or a later generation stamp, never
//! `g+1`, and the torn slot is rejected. Conversely `s1 == g+1`
//! synchronizes-with generation `g`'s publication, so payload loads
//! never return an *older* generation either. Accepted events are
//! therefore never torn. The model litmus in this file checks exactly
//! this under the exhaustive scheduler.

use std::sync::OnceLock;

use cmpi_model::sync::{AtomicU64, Ordering};

/// What a flight-recorder event records: an incident, the one thing no
/// counter or view keeps. Discriminants are the wire encoding inside the
/// ring (zero is reserved for "empty slot"; 1–4 belong to retired kinds
/// and stay unused).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A fabric send was retried after a transient failure; `a` =
    /// retry count folded into this event.
    SendRetry = 5,
    /// A peer was downgraded off the HCA channel; `detail` = reason
    /// code supplied by the runtime.
    HcaDowngrade = 6,
    /// A peer was convicted dead; `a` = detection latency in ns.
    Convict = 7,
    /// A communicator revocation was observed.
    Revoke = 8,
    /// A shrink completed; `a` = survivor count.
    Shrink = 9,
    /// This rank executed a scripted death; `detail` = fault class code
    /// supplied by the runtime.
    Death = 10,
}

impl EventKind {
    /// Every kind, for exposition and exhaustiveness tests.
    pub const ALL: [EventKind; 6] = [
        EventKind::SendRetry,
        EventKind::HcaDowngrade,
        EventKind::Convict,
        EventKind::Revoke,
        EventKind::Shrink,
        EventKind::Death,
    ];

    /// Stable display name (also the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SendRetry => "send-retry",
            EventKind::HcaDowngrade => "hca-downgrade",
            EventKind::Convict => "convict",
            EventKind::Revoke => "revoke",
            EventKind::Shrink => "shrink",
            EventKind::Death => "death",
        }
    }

    fn from_code(code: u8) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| *k as u8 == code)
    }
}

/// One recorded incident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// What happened.
    pub kind: EventKind,
    /// Virtual time of the incident, nanoseconds since job start.
    pub at_ns: u64,
    /// Peer rank involved, when per-peer.
    pub peer: Option<u32>,
    /// Kind-specific small code (downgrade reason, fault class, ...).
    pub detail: u8,
    /// Kind-specific payload (latency, count, context, ...).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

impl FlightEvent {
    /// A bare event with just a kind and timestamp.
    pub fn new(kind: EventKind, at_ns: u64) -> FlightEvent {
        FlightEvent {
            kind,
            at_ns,
            peer: None,
            detail: 0,
            a: 0,
            b: 0,
        }
    }

    /// Attach the peer rank.
    pub fn peer(mut self, peer: usize) -> FlightEvent {
        self.peer = Some(peer as u32);
        self
    }

    /// Attach the kind-specific detail code.
    pub fn detail(mut self, detail: u8) -> FlightEvent {
        self.detail = detail;
        self
    }

    /// Attach the primary payload word.
    pub fn a(mut self, a: u64) -> FlightEvent {
        self.a = a;
        self
    }

    /// Attach the secondary payload word.
    pub fn b(mut self, b: u64) -> FlightEvent {
        self.b = b;
        self
    }

    fn pack(&self) -> [u64; 4] {
        let peer = match self.peer {
            Some(p) => p as u64 + 1,
            None => 0,
        };
        let w0 = self.kind as u64 | (self.detail as u64) << 8 | peer << 32;
        [w0, self.at_ns, self.a, self.b]
    }

    fn unpack(words: [u64; 4]) -> Option<FlightEvent> {
        let kind = EventKind::from_code((words[0] & 0xFF) as u8)?;
        let peer = (words[0] >> 32) as u32;
        Some(FlightEvent {
            kind,
            at_ns: words[1],
            peer: if peer == 0 { None } else { Some(peer - 1) },
            detail: ((words[0] >> 8) & 0xFF) as u8,
            a: words[2],
            b: words[3],
        })
    }
}

struct Slot {
    /// Generation stamp: `g + 1` once global event `g` is fully
    /// published here, `0` while empty or mid-overwrite.
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// Slots per lazily-allocated chunk (a power of two; 1.25 KiB). Rings
/// smaller than this are a single chunk of their own capacity.
const CHUNK_SLOTS: usize = 32;

/// The per-rank event ring. See the module docs for the slot protocol.
pub struct FlightRecorder {
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
    /// log2 of the slots per chunk.
    chunk_shift: u32,
    /// `capacity - 1`; capacity is rounded up to a power of two so the
    /// per-record slot index is a mask, not a 64-bit division.
    mask: u64,
    /// Total events ever published (the next global index).
    head: AtomicU64,
}

/// Per-rank ring capacity (40 B/slot → 10 KiB/rank once every chunk is
/// resident). Only incidents are recorded, so a healthy rank's ring
/// never allocates a chunk and a failing one rarely fills its first.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

impl FlightRecorder {
    /// A ring holding the newest `capacity` events, rounded up to a
    /// power of two (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1).next_power_of_two();
        let chunk_shift = cap.min(CHUNK_SLOTS).trailing_zeros();
        FlightRecorder {
            mask: cap as u64 - 1,
            chunk_shift,
            chunks: (0..cap >> chunk_shift).map(|_| OnceLock::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Chunk and in-chunk position of global event index `g`.
    #[inline]
    fn locate(&self, g: u64) -> (usize, usize) {
        let i = (g & self.mask) as usize;
        (i >> self.chunk_shift, i & ((1 << self.chunk_shift) - 1))
    }

    /// Record one event. Wait-free, and allocation-free once the ring
    /// has wrapped (see the module docs); must only be called from the
    /// ring's owning rank thread (single writer).
    pub fn record(&self, ev: FlightEvent) {
        // relaxed-ok: single-writer ring — this thread is the only one
        // that ever stores head, so its own last value is exact.
        let g = self.head.load(Ordering::Relaxed);
        let (c, i) = self.locate(g);
        let chunk = self.chunks[c]
            .get_or_init(|| (0..1 << self.chunk_shift).map(|_| Slot::empty()).collect());
        let slot = &chunk[i];
        // relaxed-ok: the invalidation only needs to be ordered before
        // the payload Release stores, which program order plus the
        // reader-side coherence argument (module docs) already gives.
        slot.seq.store(0, Ordering::Relaxed);
        let words = ev.pack();
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Release);
        }
        slot.seq.store(g + 1, Ordering::Release);
        self.head.store(g + 1, Ordering::Release);
    }

    /// Total events ever recorded (including since-dropped ones).
    pub fn published(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Point-in-time copy of the ring contents.
    ///
    /// Scans newest → oldest and stops at the first slot the writer has
    /// started recycling, so the result is always a contiguous suffix
    /// of the published event sequence and
    /// `published == dropped + events.len()` holds exactly.
    pub fn snapshot(&self) -> FlightSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.capacity() as u64);
        let mut events = Vec::with_capacity((head - start) as usize);
        for g in (start..head).rev() {
            let (c, i) = self.locate(g);
            // Every index below an observed `head` was written, so its
            // chunk exists (module docs); like a corrupt kind code below,
            // a missing one ends the suffix instead of panicking.
            let Some(chunk) = self.chunks[c].get() else {
                break;
            };
            let slot = &chunk[i];
            let want = g + 1;
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != want {
                break;
            }
            let mut words = [0u64; 4];
            for (out, w) in words.iter_mut().zip(slot.words.iter()) {
                *out = w.load(Ordering::Acquire);
            }
            // relaxed-ok: validation read — the module-level coherence
            // argument shows a torn payload forces this load to return
            // something other than `want`, so Relaxed suffices.
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s2 != want {
                break;
            }
            match FlightEvent::unpack(words) {
                Some(ev) => events.push(ev),
                // Unreachable for events produced by record(), but a
                // corrupt kind code must not take the snapshot down.
                None => break,
            }
        }
        events.reverse();
        let dropped = head - events.len() as u64;
        FlightSnapshot {
            events,
            published: head,
            dropped,
        }
    }
}

/// A point-in-time copy of one rank's ring.
#[derive(Clone, Debug, Default)]
pub struct FlightSnapshot {
    /// The surviving events, oldest first — always a contiguous suffix
    /// of the published sequence.
    pub events: Vec<FlightEvent>,
    /// Total events published to the ring when the snapshot was taken.
    pub published: u64,
    /// Events no longer recoverable: `published - events.len()`, exact.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> FlightEvent {
        FlightEvent::new(EventKind::SendRetry, i)
            .peer((i % 7) as usize)
            .detail((i % 5) as u8)
            .a(i)
            .b(i ^ 0xFF)
    }

    #[test]
    fn below_capacity_nothing_drops() {
        let r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(ev(i));
        }
        let s = r.snapshot();
        assert_eq!(s.published, 5);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.events.len(), 5);
        for (i, e) in s.events.iter().enumerate() {
            assert_eq!(*e, ev(i as u64));
        }
    }

    #[test]
    fn overflow_drops_oldest_exactly() {
        let r = FlightRecorder::new(4);
        for i in 0..11 {
            r.record(ev(i));
        }
        let s = r.snapshot();
        assert_eq!(s.published, 11);
        assert_eq!(s.dropped, 7);
        let kept: Vec<u64> = s.events.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![7, 8, 9, 10]);
        assert_eq!(s.published, s.dropped + s.events.len() as u64);
    }

    #[test]
    fn chunks_follow_the_write_cursor() {
        let r = FlightRecorder::new(4 * CHUNK_SLOTS);
        let resident = |r: &FlightRecorder| r.chunks.iter().filter(|c| c.get().is_some()).count();
        assert_eq!(resident(&r), 0);
        r.record(ev(0));
        assert_eq!(resident(&r), 1);
        for i in 1..=CHUNK_SLOTS as u64 {
            r.record(ev(i));
        }
        assert_eq!(resident(&r), 2);
        for i in 0..8 * CHUNK_SLOTS as u64 {
            r.record(ev(i));
        }
        assert_eq!(resident(&r), 4);
        let s = r.snapshot();
        assert_eq!(s.events.len(), 4 * CHUNK_SLOTS);
        assert_eq!(s.published, s.dropped + s.events.len() as u64);
    }

    #[test]
    fn payloads_round_trip_through_packing() {
        for kind in EventKind::ALL {
            let e = FlightEvent::new(kind, 123_456)
                .peer(31)
                .detail(9)
                .a(u64::MAX)
                .b(42);
            assert_eq!(FlightEvent::unpack(e.pack()), Some(e));
        }
        let bare = FlightEvent::new(EventKind::Revoke, 0);
        assert_eq!(FlightEvent::unpack(bare.pack()), Some(bare));
        assert_eq!(bare.peer, None);
    }

    #[test]
    fn empty_ring_snapshot_is_empty() {
        let r = FlightRecorder::new(16);
        let s = r.snapshot();
        assert!(s.events.is_empty());
        assert_eq!(s.published, 0);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn kind_names_are_unique() {
        for (i, a) in EventKind::ALL.iter().enumerate() {
            for b in &EventKind::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
                assert_ne!(*a as u8, *b as u8);
            }
        }
    }
}

/// Exhaustive-scheduler litmus for the slot protocol: a writer wrapping
/// the ring races a concurrent snapshot; no interleaving may yield a
/// torn event, a gap in the suffix, or an inexact dropped count.
#[cfg(all(test, cmpi_model))]
mod model_tests {
    use super::*;
    use cmpi_model::model::{thread, Builder};
    use std::sync::Arc;

    fn ev(i: u64) -> FlightEvent {
        // Payload words derived from the index: any cross-generation
        // tear shows up as a mismatch between at_ns, a and b.
        FlightEvent::new(EventKind::SendRetry, i)
            .peer(i as usize)
            .a(i)
            .b(i ^ 0xFF)
    }

    fn assert_coherent(s: &FlightSnapshot, total_if_done: Option<u64>) {
        assert_eq!(
            s.published,
            s.dropped + s.events.len() as u64,
            "dropped counter must be exact"
        );
        if let Some(total) = total_if_done {
            assert_eq!(s.published, total);
        }
        // The suffix must be contiguous and every event untorn.
        let first = s.dropped;
        for (off, e) in s.events.iter().enumerate() {
            let idx = first + off as u64;
            assert_eq!(e.at_ns, idx, "torn or misplaced event");
            assert_eq!(e.a, idx, "torn payload word a");
            assert_eq!(e.b, idx ^ 0xFF, "torn payload word b");
            assert_eq!(e.peer, Some(idx as u32), "torn header word");
        }
    }

    #[test]
    fn concurrent_snapshot_never_tears_below_capacity() {
        Builder::new().max_executions(400_000).check(|| {
            let r = Arc::new(FlightRecorder::new(4));
            let w = thread::spawn({
                let r = Arc::clone(&r);
                move || {
                    for i in 0..2 {
                        r.record(ev(i));
                    }
                }
            });
            let s = r.snapshot();
            assert_coherent(&s, None);
            assert_eq!(s.dropped, 0, "below capacity nothing may drop");
            w.join();
            // After the writer is done every event is recoverable.
            let s = r.snapshot();
            assert_coherent(&s, Some(2));
            assert_eq!(s.events.len(), 2);
        });
    }

    #[test]
    fn concurrent_snapshot_exact_drops_across_wrap() {
        Builder::new().max_executions(400_000).check(|| {
            let r = Arc::new(FlightRecorder::new(2));
            let w = thread::spawn({
                let r = Arc::clone(&r);
                move || {
                    for i in 0..3 {
                        r.record(ev(i));
                    }
                }
            });
            let s = r.snapshot();
            assert_coherent(&s, None);
            w.join();
            let s = r.snapshot();
            assert_coherent(&s, Some(3));
            assert_eq!(s.dropped, 1, "wrap must drop exactly the oldest");
            assert_eq!(s.events.len(), 2);
        });
    }
}
