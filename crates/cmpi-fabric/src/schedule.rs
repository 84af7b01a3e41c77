//! Wire occupancy of one adapter path.
//!
//! A transfer reserves the first gap at or after its virtual ready time
//! that fits its serialization time. Interval reservation (rather than
//! a busy-until high-water mark) matters because transfers are
//! *committed* in real-thread order, which can invert their virtual
//! timestamps — an early-stamped transfer must slot into the gap before
//! a future-stamped reservation instead of queueing behind it, otherwise
//! real scheduling would leak into virtual time.
//!
//! How early can a transfer be stamped? Never below the job's **floor**,
//! the least of the floors its ranks publish (DESIGN §9):
//!
//! * an eager send, an RTS and a one-sided access are stamped at the
//!   poster's own clock, which never goes backwards;
//! * the CTS, payload and FIN of a rendezvous are stamped after that
//!   handshake's RTS, whatever the clocks of the ranks that post them;
//! * so a rank publishes its clock, held down to the RTS time of the
//!   oldest HCA rendezvous send it still has open. A send is pinned from
//!   its RTS until the last packet of its handshake is consumed: the FIN,
//!   or the late CTS or FIN that consumes a failed send's tombstone. A
//!   pin that never closes (a dead peer) only stops pruning.
//!
//! An interval that ends at or below the floor can no longer touch any
//! reservation, so a schedule drops those once its entry count has
//! doubled since its last prune, and asserts in every build that no
//! reservation is ready below the floor it pruned to. The reference
//! property test below interleaves floor raises with reservations and
//! demands the same start as a schedule that never prunes;
//! `tests/footprint.rs` bounds a long HCA stream's heap, and
//! `detached_stamps_are_pinned` and `a_pinned_window_keeps_its_gaps`
//! (`cmpi-core/tests/pt2pt.rs`) pin the clocks of jobs whose CTS and FIN
//! are stamped below their posters' clocks while prunes fire.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use cmpi_cluster::SimTime;

/// Fewest entries a schedule prunes at.
const PRUNE_MIN: usize = 64;

/// The busy time of one adapter path as a sorted run of *coalesced*
/// half-open intervals `[start, end)`: disjoint and non-adjacent, so
/// `end[i] < start[i + 1]`.
///
/// Coalescing is exact: first-fit only asks which instants are busy,
/// and merging two abutting reservations changes no instant. A
/// back-to-back stream therefore keeps extending one entry, and the
/// structure holds one 16-byte entry per *gap* the traffic left, not
/// one per message — and, since gaps at or below the job's floor are
/// dropped, only per gap a transfer can still reach.
#[derive(Default, Debug)]
pub(crate) struct LinkSchedule {
    busy: Vec<(u64, u64)>,
    /// The job floor the schedule last pruned to: no reservation may be
    /// ready before it.
    floor: u64,
    /// Entries the last prune kept; the next waits until they double.
    kept: usize,
}

impl LinkSchedule {
    /// Reserve the first `dur`-long gap starting at or after `ready`;
    /// returns the transfer's start time. `floor` reads the job's floor,
    /// in ns; it is called only when the schedule prunes.
    ///
    /// In-order traffic lands at or past the tail and costs O(1); a
    /// timestamp inversion pays a binary search plus the gap walk.
    ///
    /// # Panics
    /// Panics if `ready` is below the floor the schedule last pruned to:
    /// a poster broke the floor invariant, and the gap it needed may be
    /// gone.
    pub(crate) fn reserve(
        &mut self,
        ready: SimTime,
        dur: SimTime,
        floor: impl FnOnce() -> u64,
    ) -> SimTime {
        let start = self.place(ready, dur);
        if self.busy.len() >= PRUNE_MIN.max(2 * self.kept) {
            self.prune(floor());
        }
        start
    }

    /// [`LinkSchedule::reserve`] without the prune: one copy of the
    /// first-fit walk, whatever closure each caller passes.
    fn place(&mut self, ready: SimTime, dur: SimTime) -> SimTime {
        let mut t = ready.as_ns();
        assert!(
            t >= self.floor,
            "link reservation ready at {t} ns, below the job floor of {} ns",
            self.floor
        );
        let d = dur.as_ns();
        if d == 0 {
            return ready;
        }
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

    /// Drop every interval that ends at or below `floor`.
    fn prune(&mut self, floor: u64) {
        self.floor = self.floor.max(floor);
        let gone = self.busy.partition_point(|&(_, e)| e <= self.floor);
        self.busy.drain(..gone);
        self.kept = self.busy.len();
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
            s.reserve(ns(100), ns(50), || 0);
        }
        for k in 0..1000 {
            s.reserve(ns(100 + k * 10), ns(50), || 0);
        }
        assert_eq!(s.busy, vec![(100, 100 + 1016 * 50)]);
    }

    #[test]
    fn early_transfer_takes_the_gap_and_closes_it() {
        let mut s = LinkSchedule::default();
        assert_eq!(s.reserve(ns(0), ns(10), || 0), ns(0));
        assert_eq!(s.reserve(ns(100), ns(10), || 0), ns(100));
        assert_eq!(s.busy.len(), 2);
        // Too long for the gap: queues behind the future reservation.
        assert_eq!(s.reserve(ns(5), ns(91), || 0), ns(110));
        // Fits exactly: fills the gap and fuses all three intervals.
        assert_eq!(s.reserve(ns(5), ns(90), || 0), ns(10));
        assert_eq!(s.busy, vec![(0, 201)]);
        // Zero-length transfers occupy nothing.
        assert_eq!(s.reserve(ns(50), SimTime::ZERO, || 0), ns(50));
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
                    let got = new.reserve(ns(ready), ns(dur), || 0);
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

    /// The busy instants of `busy` after `floor`, as maximal runs.
    fn runs_above(busy: impl IntoIterator<Item = (u64, u64)>, floor: u64) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for (s, e) in busy.into_iter().filter(|&(_, e)| e > floor) {
            match runs.last_mut() {
                Some(r) if r.1 == s.max(floor) => r.1 = e,
                _ => runs.push((s.max(floor), e)),
            }
        }
        runs
    }

    #[test]
    fn a_prune_drops_what_ends_at_or_below_the_floor() {
        let mut s = LinkSchedule::default();
        // 63 gapped intervals [10k, 10k + 5): no prune yet.
        for k in 0..63 {
            s.reserve(ns(10 * k), ns(5), || {
                unreachable!("pruned below {PRUNE_MIN}")
            });
        }
        assert_eq!(s.busy.len(), 63);
        // The 64th prunes to floor 300: [290, 295) ends below it and goes,
        // [300, 305) starts at it and stays.
        s.reserve(ns(630), ns(5), || 300);
        assert_eq!(s.busy.first(), Some(&(300, 305)));
        assert_eq!((s.busy.len(), s.kept, s.floor), (34, 34, 300));
        // The next prune waits for 68 entries; a floor that does not move
        // keeps them all, and the one after waits for twice as many.
        for k in 64..98 {
            s.reserve(ns(10 * k), ns(5), || 300);
        }
        assert_eq!((s.busy.len(), s.kept), (68, 68));
        // A reservation at the floor still finds its gap.
        assert_eq!(s.reserve(ns(300), ns(3), || 300), ns(305));
    }

    #[test]
    #[should_panic(expected = "below the job floor of 300 ns")]
    fn a_reservation_below_the_floor_panics() {
        let mut s = LinkSchedule::default();
        for k in 0..64 {
            s.reserve(ns(10 * k), ns(5), || 300);
        }
        s.reserve(ns(299), ns(1), || 300);
    }

    /// One step of a stream under a rising floor.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Raise the floor by this much.
        Raise(u64),
        /// Reserve `(offset above the floor, dur)`: sparse offsets leave
        /// gaps, so the schedule reaches its prune threshold.
        Reserve(u64, u64),
        /// Reserve exactly at the floor, abutting or filling what is there.
        AtFloor(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u64..48).prop_map(Step::Raise),
            (0u64..1_500, 1u64..6).prop_map(|(o, d)| Step::Reserve(o, d)),
            (0u64..1_500, 1u64..6).prop_map(|(o, d)| Step::Reserve(o, d)),
            (0u64..1_500, 1u64..6).prop_map(|(o, d)| Step::Reserve(o, d)),
            (0u64..6).prop_map(Step::AtFloor),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Reservations ready at or above a rising floor get the start a
        /// schedule that never prunes gives them; every prune keeps
        /// exactly the busy instants above the floor it read; and the
        /// entry count stays within twice what the last prune kept plus
        /// the prune threshold.
        #[test]
        fn pruned_schedule_matches_the_reference(steps in proptest::collection::vec(step(), 1..800)) {
            let mut new = LinkSchedule::default();
            let mut old = ReferenceSchedule::default();
            let mut floor = 0u64;
            let mut kept = 0usize;
            for st in steps {
                let (ready, dur) = match st {
                    Step::Raise(by) => {
                        floor += by;
                        continue;
                    }
                    Step::Reserve(o, d) => (floor + o, d),
                    Step::AtFloor(d) => (floor, d),
                };
                let read = std::cell::Cell::new(None);
                let got = new.reserve(ns(ready), ns(dur), || {
                    read.set(Some(floor));
                    floor
                });
                let want = old.reserve(ns(ready), ns(dur));
                prop_assert_eq!(got, want, "ready {} dur {} floor {}", ready, dur, floor);
                assert_invariants(&new);
                if let Some(f) = read.get() {
                    prop_assert!(new.busy.iter().all(|&(_, e)| e > f));
                    let reference = old.busy.iter().map(|(&s, &e)| (s, e));
                    prop_assert_eq!(runs_above(new.busy.iter().copied(), f), runs_above(reference, f));
                    kept = new.busy.len();
                }
                prop_assert!(new.busy.len() <= 2 * kept + PRUNE_MIN);
            }
        }
    }
}
