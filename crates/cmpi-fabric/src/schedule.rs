//! Wire occupancy of one adapter path.
//!
//! A transfer reserves the first gap at or after its virtual ready time
//! that fits its serialization time. Interval reservation (rather than
//! a busy-until high-water mark) matters because transfers are
//! *committed* in real-thread order, which can invert their virtual
//! timestamps — an early-stamped transfer must slot into the gap before
//! a future-stamped reservation instead of queueing behind it, otherwise
//! real scheduling would leak into virtual time.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use cmpi_cluster::SimTime;

/// The busy time of one adapter path as a sorted run of *coalesced*
/// half-open intervals `[start, end)`: disjoint and non-adjacent, so
/// `end[i] < start[i + 1]`.
///
/// Coalescing is exact: first-fit only asks which instants are busy,
/// and merging two abutting reservations changes no instant. A
/// back-to-back stream therefore keeps extending one entry, and the
/// structure holds one 16-byte entry per *gap* the traffic left, not
/// one per message. Nothing is ever pruned: ranks run on detached
/// virtual timelines, so no lower bound on a future `ready` exists and
/// any gap may still be claimed.
#[derive(Default, Debug)]
pub(crate) struct LinkSchedule {
    busy: Vec<(u64, u64)>,
}

impl LinkSchedule {
    /// Reserve the first `dur`-long gap starting at or after `ready`;
    /// returns the transfer's start time.
    ///
    /// In-order traffic lands at or past the tail and costs O(1); a
    /// timestamp inversion pays a binary search plus the gap walk.
    pub(crate) fn reserve(&mut self, ready: SimTime, dur: SimTime) -> SimTime {
        let d = dur.as_ns();
        if d == 0 {
            return ready;
        }
        let mut t = ready.as_ns();
        // First interval that ends at or after `t`: the only one that
        // can cover `t` or abut it from the left.
        let mut i = match self.busy.last() {
            None => 0,
            Some(&(_, e)) if e < t => self.busy.len(),
            Some(&(s, _)) if s <= t => self.busy.len() - 1,
            Some(_) => self.busy.partition_point(|&(_, e)| e < t),
        };
        // Walk past every interval the transfer would overlap.
        while let Some(&(s, e)) = self.busy.get(i) {
            if s >= t + d {
                break;
            }
            t = t.max(e);
            i += 1;
        }
        // `[t, t + d)` now sits between `busy[i - 1]` (ends at or before
        // `t`) and `busy[i]` (starts at or after `t + d`): merge with
        // whichever it touches.
        let joins_left = i > 0 && self.busy[i - 1].1 == t;
        let joins_right = i < self.busy.len() && self.busy[i].0 == t + d;
        match (joins_left, joins_right) {
            (true, true) => {
                self.busy[i - 1].1 = self.busy[i].1;
                self.busy.remove(i);
            }
            (true, false) => self.busy[i - 1].1 = t + d,
            (false, true) => self.busy[i].0 = t,
            (false, false) => self.busy.insert(i, (t, t + d)),
        }
        SimTime::from_ns(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The retired representation — one tree node per reservation, never
    /// merged — kept as the reference model the coalesced schedule must
    /// agree with on every call.
    #[derive(Default)]
    struct ReferenceSchedule {
        busy: BTreeMap<u64, u64>,
    }

    impl ReferenceSchedule {
        fn reserve(&mut self, ready: SimTime, dur: SimTime) -> SimTime {
            let d = dur.as_ns();
            if d == 0 {
                return ready;
            }
            let mut t = ready.as_ns();
            loop {
                if let Some((_, &e)) = self.busy.range(..=t).next_back() {
                    if e > t {
                        t = e;
                        continue;
                    }
                }
                if let Some((&s, &e)) = self.busy.range(t..).next() {
                    if s < t + d {
                        t = e;
                        continue;
                    }
                }
                break;
            }
            self.busy.insert(t, t + d);
            SimTime::from_ns(t)
        }
    }

    fn assert_invariants(s: &LinkSchedule) {
        for iv in &s.busy {
            assert!(iv.0 < iv.1, "empty interval {iv:?}");
        }
        for w in s.busy.windows(2) {
            assert!(
                w[0].1 < w[1].0,
                "intervals {:?} and {:?} overlap, touch or are out of order",
                w[0],
                w[1]
            );
        }
    }

    fn ns(t: u64) -> SimTime {
        SimTime::from_ns(t)
    }

    #[test]
    fn back_to_back_window_leaves_one_interval() {
        let mut s = LinkSchedule::default();
        // A 16-deep window posted at one instant, then a stream whose
        // ready times trail the wire: every transfer abuts the last.
        for _ in 0..16 {
            s.reserve(ns(100), ns(50));
        }
        for k in 0..1000 {
            s.reserve(ns(100 + k * 10), ns(50));
        }
        assert_eq!(s.busy, vec![(100, 100 + 1016 * 50)]);
    }

    #[test]
    fn early_transfer_takes_the_gap_and_closes_it() {
        let mut s = LinkSchedule::default();
        assert_eq!(s.reserve(ns(0), ns(10)), ns(0));
        assert_eq!(s.reserve(ns(100), ns(10)), ns(100));
        assert_eq!(s.busy.len(), 2);
        // Too long for the gap: queues behind the future reservation.
        assert_eq!(s.reserve(ns(5), ns(91)), ns(110));
        // Fits exactly: fills the gap and fuses all three intervals.
        assert_eq!(s.reserve(ns(5), ns(90)), ns(10));
        assert_eq!(s.busy, vec![(0, 201)]);
        // Zero-length transfers occupy nothing.
        assert_eq!(s.reserve(ns(50), SimTime::ZERO), ns(50));
        assert_eq!(s.busy.len(), 1);
    }

    /// One `(ready, dur)` request, drawn so that the stream mixes the
    /// shapes the fabric sees: in-order traffic near the tail, inversions
    /// back to the start of time, exact abutment with an earlier
    /// reservation's start or end, zero durations, and same-`ready`
    /// bursts (`Repeat`).
    #[derive(Clone, Copy, Debug)]
    enum Req {
        /// `ready` anywhere in a small arena (inversions, collisions).
        At(u64, u64),
        /// `ready` a little past everything reserved so far.
        Tail(u64, u64),
        /// `ready` exactly at the end of the `k`-th earlier reservation.
        AbutEnd(usize, u64),
        /// The gap before the `k`-th earlier reservation's start, filled
        /// exactly up to it.
        AbutStart(usize, u64),
        /// The previous request again, 16 times over.
        Repeat,
    }

    fn req() -> impl Strategy<Value = Req> {
        prop_oneof![
            (0u64..400, 0u64..24).prop_map(|(t, d)| Req::At(t, d)),
            (0u64..400, 0u64..24).prop_map(|(t, d)| Req::At(t, d)),
            (0u64..12, 0u64..24).prop_map(|(g, d)| Req::Tail(g, d)),
            (0usize..64, 0u64..24).prop_map(|(k, d)| Req::AbutEnd(k, d)),
            (0usize..64, 1u64..24).prop_map(|(k, d)| Req::AbutStart(k, d)),
            Just(Req::Repeat),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn coalesced_schedule_matches_the_reference(reqs in proptest::collection::vec(req(), 1..96)) {
            let mut new = LinkSchedule::default();
            let mut old = ReferenceSchedule::default();
            let mut placed: Vec<(u64, u64)> = Vec::new();
            let mut last = (0u64, 1u64);
            for r in reqs {
                let (ready, dur, times) = match r {
                    Req::At(t, d) => (t, d, 1),
                    Req::Tail(g, d) => (placed.iter().map(|p| p.1).max().unwrap_or(0) + g, d, 1),
                    Req::AbutEnd(k, d) if !placed.is_empty() => (placed[k % placed.len()].1, d, 1),
                    Req::AbutStart(k, d) if !placed.is_empty() => {
                        (placed[k % placed.len()].0.saturating_sub(d), d, 1)
                    }
                    Req::AbutEnd(..) | Req::AbutStart(..) => (0, 1, 1),
                    Req::Repeat => (last.0, last.1, 16),
                };
                last = (ready, dur);
                for _ in 0..times {
                    let got = new.reserve(ns(ready), ns(dur));
                    let want = old.reserve(ns(ready), ns(dur));
                    prop_assert_eq!(got, want, "ready {} dur {}", ready, dur);
                    assert_invariants(&new);
                    if dur > 0 {
                        placed.push((got.as_ns(), got.as_ns() + dur));
                    }
                }
            }
            // Same busy instants: the reference's nodes, merged, are the
            // coalesced intervals.
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for (&s, &e) in &old.busy {
                match merged.last_mut() {
                    Some(m) if m.1 == s => m.1 = e,
                    _ => merged.push((s, e)),
                }
            }
            prop_assert_eq!(&new.busy, &merged);
        }
    }
}
