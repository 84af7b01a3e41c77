//! Wait-state decomposition: *why* a rank was blocked inside MPI.
//!
//! mpiP and Scalasca distinguish time a rank spends blocked because the
//! partner was not ready from time the data genuinely needed to move.
//! The runtime classifies every blocking interval into:
//!
//! * **late sender** — a receive was posted before the matching message
//!   arrived (pt2pt receives);
//! * **late receiver** — a send was held up by the receiver: rendezvous
//!   CTS not yet back, or the bounded SHM eager queue full;
//! * **arrival skew** — the same partner-not-ready time inside a
//!   collective, where it measures how unevenly ranks arrived;
//! * **transfer** — the remainder: data movement and protocol processing
//!   the channel actually required.
//!
//! The four components sum to the blocked time by construction; the
//! proptests assert it stays that way.

use cmpi_cluster::SimTime;

use crate::json::Json;

/// The call classes wait states are attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitClass {
    /// User two-sided traffic (`ctx == CTX_WORLD`).
    Pt2pt,
    /// Collective-internal traffic (any other context).
    Collective,
    /// One-sided completions (flush / fence / synchronous get).
    OneSided,
}

impl WaitClass {
    /// All classes in display order.
    pub const ALL: [WaitClass; 3] = [WaitClass::Pt2pt, WaitClass::Collective, WaitClass::OneSided];

    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            WaitClass::Pt2pt => 0,
            WaitClass::Collective => 1,
            WaitClass::OneSided => 2,
        }
    }

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            WaitClass::Pt2pt => "pt2pt",
            WaitClass::Collective => "collective",
            WaitClass::OneSided => "one-sided",
        }
    }
}

/// Accumulated wait-state components for one (rank, class).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitBreakdown {
    /// Blocked because the matching message had not arrived yet.
    pub late_sender: SimTime,
    /// Blocked because the receiver had not granted progress (no CTS,
    /// or no space in the bounded eager queue).
    pub late_receiver: SimTime,
    /// Partner-not-ready time inside collectives (arrival imbalance).
    pub arrival_skew: SimTime,
    /// Remaining blocked time: actual data movement and protocol work.
    pub transfer: SimTime,
    /// Total blocked time (the four components sum to this).
    pub blocked: SimTime,
    /// Number of blocking intervals recorded.
    pub samples: u64,
}

impl WaitBreakdown {
    /// Record one blocking interval already split into components.
    pub fn record(
        &mut self,
        late_sender: SimTime,
        late_receiver: SimTime,
        arrival_skew: SimTime,
        transfer: SimTime,
    ) {
        self.late_sender += late_sender;
        self.late_receiver += late_receiver;
        self.arrival_skew += arrival_skew;
        self.transfer += transfer;
        self.blocked += late_sender + late_receiver + arrival_skew + transfer;
        self.samples += 1;
    }

    /// Fieldwise sum.
    pub fn merge(&mut self, other: &WaitBreakdown) {
        self.late_sender += other.late_sender;
        self.late_receiver += other.late_receiver;
        self.arrival_skew += other.arrival_skew;
        self.transfer += other.transfer;
        self.blocked += other.blocked;
        self.samples += other.samples;
    }

    /// JSON object (nanosecond integers).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("late_sender_ns".into(), Json::num(self.late_sender.as_ns())),
            (
                "late_receiver_ns".into(),
                Json::num(self.late_receiver.as_ns()),
            ),
            (
                "arrival_skew_ns".into(),
                Json::num(self.arrival_skew.as_ns()),
            ),
            ("transfer_ns".into(), Json::num(self.transfer.as_ns())),
            ("blocked_ns".into(), Json::num(self.blocked.as_ns())),
            ("samples".into(), Json::num(self.samples)),
        ])
    }
}

/// One rank's wait-state table: a breakdown per call class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    per: [WaitBreakdown; 3],
}

impl WaitStats {
    /// The breakdown for `class`.
    pub fn class(&self, class: WaitClass) -> &WaitBreakdown {
        &self.per[class.index()]
    }

    /// Mutable breakdown for `class`.
    pub fn class_mut(&mut self, class: WaitClass) -> &mut WaitBreakdown {
        &mut self.per[class.index()]
    }

    /// JSON object keyed by class name.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            WaitClass::ALL
                .iter()
                .map(|&c| (c.name().to_string(), self.class(c).to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_always_sum_to_blocked() {
        let mut w = WaitBreakdown::default();
        w.record(
            SimTime::from_us(5),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_us(2),
        );
        w.record(
            SimTime::ZERO,
            SimTime::from_us(1),
            SimTime::ZERO,
            SimTime::from_us(3),
        );
        assert_eq!(w.blocked, SimTime::from_us(11));
        assert_eq!(
            w.late_sender + w.late_receiver + w.arrival_skew + w.transfer,
            w.blocked
        );
        assert_eq!(w.samples, 2);
    }

    #[test]
    fn breakdown_merge_is_fieldwise() {
        let mut a = WaitStats::default();
        a.class_mut(WaitClass::Pt2pt).record(
            SimTime::from_us(1),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::ZERO,
        );
        a.class_mut(WaitClass::Collective).record(
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_us(4),
            SimTime::from_us(2),
        );
        let mut total = WaitBreakdown::default();
        for class in WaitClass::ALL {
            total.merge(a.class(class));
        }
        assert_eq!(total.blocked, SimTime::from_us(7));
        assert_eq!(total.samples, 2);
        assert_eq!(
            a.class(WaitClass::Collective).arrival_skew,
            SimTime::from_us(4)
        );
        let j = a.to_json();
        assert!(j.get("collective").is_some());
    }
}
