//! The flight recorder: each rank's incident log.
//!
//! Every rank owns one [`FlightRecorder`] in its observability store
//! and is its only writer. The store is read once, after every rank has
//! finished, so the ring is plain memory: a `Vec` that grows on demand
//! to [`FLIGHT_CAPACITY`] events and then overwrites the oldest. Most
//! ranks of a job record no incident at all, and their rings hold no
//! heap. [`FlightRecorder::finish`] turns a ring into a
//! [`FlightSnapshot`], oldest first, that accounts for every overwritten
//! event: `published == dropped + events.len()`.

/// What a flight-recorder event records: an incident, the one thing no
/// counter or view keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A fabric send was retried after a transient failure; `a` =
    /// retry count folded into this event.
    SendRetry,
    /// A peer was downgraded off the HCA channel; `detail` = reason
    /// code supplied by the runtime.
    HcaDowngrade,
    /// A peer was convicted dead; `a` = detection latency in ns.
    Convict,
    /// A communicator revocation was observed.
    Revoke,
    /// A shrink completed; `a` = survivor count.
    Shrink,
    /// This rank executed a scripted death; `detail` = fault class code
    /// supplied by the runtime.
    Death,
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
}

/// Events a ring keeps (40 B each, 10 KiB once full). Only incidents are
/// recorded, so a healthy rank's ring stays empty and a failing one
/// rarely fills.
pub const FLIGHT_CAPACITY: usize = 256;

/// One rank's event ring. See the module docs.
#[derive(Default)]
pub struct FlightRecorder {
    /// The kept events; once full, the oldest is at
    /// `published % FLIGHT_CAPACITY`.
    events: Vec<FlightEvent>,
    /// Total events ever recorded, overwritten ones included.
    published: u64,
}

impl FlightRecorder {
    /// Record one event, overwriting the oldest once the ring is full.
    pub fn record(&mut self, ev: FlightEvent) {
        if self.events.len() < FLIGHT_CAPACITY {
            self.events.push(ev);
        } else {
            self.events[(self.published % FLIGHT_CAPACITY as u64) as usize] = ev;
        }
        self.published += 1;
    }

    /// The ring's contents, oldest first.
    pub fn finish(mut self) -> FlightSnapshot {
        // Below capacity the oldest is at 0 and `published` equals the
        // length, so the rotation is the identity.
        self.events
            .rotate_left((self.published % FLIGHT_CAPACITY as u64) as usize);
        FlightSnapshot {
            dropped: self.published - self.events.len() as u64,
            published: self.published,
            events: self.events,
        }
    }
}

/// One rank's ring, as the job's result reports it.
#[derive(Clone, Debug, Default)]
pub struct FlightSnapshot {
    /// The surviving events, oldest first — always a contiguous suffix
    /// of the published sequence.
    pub events: Vec<FlightEvent>,
    /// Total events published to the ring.
    pub published: u64,
    /// Events overwritten by newer ones: `published - events.len()`.
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

    fn recorded(count: u64) -> FlightSnapshot {
        let mut r = FlightRecorder::default();
        for i in 0..count {
            r.record(ev(i));
        }
        r.finish()
    }

    #[test]
    fn below_capacity_nothing_drops() {
        for count in [5, FLIGHT_CAPACITY as u64] {
            let s = recorded(count);
            assert_eq!(s.published, count);
            assert_eq!(s.dropped, 0);
            assert_eq!(s.events.len() as u64, count);
            for (i, e) in s.events.iter().enumerate() {
                assert_eq!(*e, ev(i as u64));
            }
        }
    }

    #[test]
    fn overflow_drops_oldest_exactly() {
        let cap = FLIGHT_CAPACITY as u64;
        for count in [cap + 1, cap + 7, 2 * cap, 3 * cap + 11] {
            let s = recorded(count);
            assert_eq!(s.published, count);
            assert_eq!(s.dropped, count - cap);
            let kept: Vec<FlightEvent> = (count - cap..count).map(ev).collect();
            assert_eq!(s.events, kept);
            assert_eq!(s.published, s.dropped + s.events.len() as u64);
        }
    }

    #[test]
    fn empty_ring_snapshot_is_empty() {
        let r = FlightRecorder::default();
        assert_eq!(r.events.capacity(), 0, "an empty ring holds no heap");
        let s = r.finish();
        assert!(s.events.is_empty());
        assert_eq!(s.published, 0);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn kind_names_are_unique() {
        for (i, a) in EventKind::ALL.iter().enumerate() {
            for b in &EventKind::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
