//! Execution tracing: per-rank timelines of MPI activity in virtual
//! time, exportable as Chrome trace-event JSON (`chrome://tracing`,
//! Perfetto).
//!
//! Tracing is off by default; enable it with
//! [`crate::JobSpec::with_tracing`]. Three event kinds are recorded:
//!
//! * **complete events** (`ph:"X"`) — one per finished MPI call, with
//!   *virtual* timestamps: the exported timeline shows the simulated
//!   cluster schedule, not wall time;
//! * **flow events** (`ph:"s"`/`ph:"f"`) — one arrow per message from
//!   the send call to the completion of the matching receive, so a
//!   late sender is visually traceable to the call that caused it;
//! * **instant events** (`ph:"i"`) — degraded-mode incidents (HCA
//!   downgrades with their [`crate::DowngradeReason`], send reposts,
//!   list recoveries) pinned to the moment they happened.
//!
//! The export goes through [`cmpi_prof::Json`], so the emitted document
//! is structurally valid by construction and the tests assert a full
//! round-trip parse.

use cmpi_cluster::SimTime;
use cmpi_prof::Json;
use cmpi_telemetry::{chrome_event, chrome_instant};

use crate::stats::CallClass;

/// One traced interval on a rank's virtual timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The call class (drawn as the track color).
    pub class: CallClass,
    /// Short operation label ("send", "allreduce", ...).
    pub name: &'static str,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time.
    pub end: SimTime,
}

/// One endpoint of a send→recv flow arrow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEvent {
    /// Flow id shared by both endpoints (see [`flow_id`]).
    pub id: u64,
    /// Virtual time of this endpoint.
    pub at: SimTime,
    /// `true` at the sender (`ph:"s"`), `false` at the receiver
    /// (`ph:"f"`).
    pub start: bool,
}

/// A point incident on a rank's timeline (retry, downgrade, recovery).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstantEvent {
    /// Incident label ("hca-downgrade", "send-retry", ...).
    pub name: &'static str,
    /// Virtual time of the incident.
    pub at: SimTime,
    /// Peer rank involved, when the incident is per-peer.
    pub peer: Option<usize>,
    /// Extra detail (e.g. the downgrade reason).
    pub detail: Option<&'static str>,
    /// Occurrence count folded into this event.
    pub count: u64,
}

/// The trace id both ends of a message derive independently: the send
/// sequence number is per-(source, destination), so the triple is unique
/// job-wide and needs no extra wire traffic.
pub fn flow_id(src: usize, dst: usize, seq: u64) -> u64 {
    ((src as u64) << 44) ^ ((dst as u64) << 24) ^ (seq & 0xFF_FFFF)
}

/// A rank's recorded timeline.
#[derive(Clone, Debug, Default)]
pub struct RankTrace {
    events: Vec<TraceEvent>,
    flows: Vec<FlowEvent>,
    instants: Vec<InstantEvent>,
}

impl RankTrace {
    /// Record one interval (no-ops when `end <= start`; zero-length
    /// events render poorly and carry no information).
    pub fn record(&mut self, class: CallClass, name: &'static str, start: SimTime, end: SimTime) {
        if end > start {
            self.events.push(TraceEvent {
                class,
                name,
                start,
                end,
            });
        }
    }

    /// Record the sending end of a message flow.
    pub fn flow_start(&mut self, id: u64, at: SimTime) {
        self.flows.push(FlowEvent {
            id,
            at,
            start: true,
        });
    }

    /// Record the receiving end of a message flow.
    pub fn flow_finish(&mut self, id: u64, at: SimTime) {
        self.flows.push(FlowEvent {
            id,
            at,
            start: false,
        });
    }

    /// Record a point incident.
    pub fn instant(
        &mut self,
        name: &'static str,
        at: SimTime,
        peer: Option<usize>,
        detail: Option<&'static str>,
        count: u64,
    ) {
        self.instants.push(InstantEvent {
            name,
            at,
            peer,
            detail,
            count,
        });
    }

    /// The recorded events, in recording order (monotone start times).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The recorded flow endpoints, in recording order.
    pub fn flows(&self) -> &[FlowEvent] {
        &self.flows
    }

    /// The recorded incidents, in recording order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }
}

/// A whole job's trace: one timeline per rank.
#[derive(Clone, Debug, Default)]
pub struct JobTrace {
    /// Per-rank timelines, rank-ordered.
    pub ranks: Vec<RankTrace>,
}

impl JobTrace {
    /// Total number of recorded interval events (flow endpoints and
    /// instants are counted separately).
    pub fn len(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.num_flow_events() == 0 && self.num_instants() == 0
    }

    /// Total number of flow endpoints across ranks.
    pub fn num_flow_events(&self) -> usize {
        self.ranks.iter().map(|r| r.flows.len()).sum()
    }

    /// Total number of instant events across ranks.
    pub fn num_instants(&self) -> usize {
        self.ranks.iter().map(|r| r.instants.len()).sum()
    }

    /// The trace as a JSON document (Chrome trace-event array form).
    pub fn to_json(&self) -> Json {
        let mut events = Vec::new();
        for (rank, rt) in self.ranks.iter().enumerate() {
            for e in &rt.events {
                let dur = Json::Num((e.end - e.start).as_us_f64());
                let tail = vec![("dur".to_string(), dur)];
                let ts = e.start.as_us_f64();
                events.push(chrome_event(
                    e.name,
                    e.class.name(),
                    "X",
                    None,
                    rank,
                    ts,
                    tail,
                ));
            }
            for f in &rt.flows {
                let (ph, tail) = if f.start {
                    ("s", Vec::new())
                } else {
                    // Bind the arrowhead to the enclosing slice.
                    ("f", vec![("bp".to_string(), Json::str("e"))])
                };
                let id = Some(("id", Json::Str(format!("{:#x}", f.id))));
                let ts = f.at.as_us_f64();
                events.push(chrome_event("msg", "flow", ph, id, rank, ts, tail));
            }
            for i in &rt.instants {
                let mut args = vec![("count".to_string(), Json::num(i.count))];
                if let Some(p) = i.peer {
                    args.push(("peer".into(), Json::num(p as u64)));
                }
                if let Some(d) = i.detail {
                    args.push(("reason".into(), Json::str(d)));
                }
                let ts = i.at.as_us_f64();
                events.push(chrome_instant(i.name, "incident", rank, ts, args));
            }
        }
        Json::Arr(events)
    }

    /// Export as Chrome trace-event JSON (`pid` 0, one `tid` per rank,
    /// microsecond timestamps). The document is built from
    /// [`JobTrace::to_json`] and therefore always parses.
    pub fn to_chrome_json(&self) -> String {
        self.to_json().to_string()
    }

    /// Time each rank spent per call class (a quick profile without
    /// exporting).
    pub fn class_totals(&self, rank: usize) -> Vec<(CallClass, SimTime)> {
        CallClass::ALL
            .iter()
            .map(|&c| {
                let total = self.ranks[rank]
                    .events
                    .iter()
                    .filter(|e| e.class == c)
                    .map(|e| e.end - e.start)
                    .sum();
                (c, total)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_export_round_trips() {
        let mut jt = JobTrace {
            ranks: vec![RankTrace::default(), RankTrace::default()],
        };
        jt.ranks[0].record(
            CallClass::Pt2pt,
            "send",
            SimTime::from_us(1),
            SimTime::from_us(3),
        );
        jt.ranks[1].record(
            CallClass::Collective,
            "allreduce",
            SimTime::from_us(2),
            SimTime::from_us(6),
        );
        assert_eq!(jt.len(), 2);
        let json = jt.to_chrome_json();
        // The export must be *valid* JSON: parse it back and inspect the
        // structure instead of counting commas.
        let doc = Json::parse(&json).expect("chrome trace must parse");
        let events = doc.as_arr().expect("top level is an array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("send"));
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("tid").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn flow_events_pair_up_across_ranks() {
        let mut jt = JobTrace {
            ranks: vec![RankTrace::default(), RankTrace::default()],
        };
        let id = flow_id(0, 1, 7);
        jt.ranks[0].flow_start(id, SimTime::from_us(1));
        jt.ranks[1].flow_finish(id, SimTime::from_us(5));
        assert_eq!(jt.num_flow_events(), 2);
        assert_eq!(jt.len(), 0, "flows are not interval events");
        let doc = Json::parse(&jt.to_chrome_json()).unwrap();
        let events = doc.as_arr().unwrap();
        let start = &events[0];
        let finish = &events[1];
        assert_eq!(start.get("ph").unwrap().as_str(), Some("s"));
        assert_eq!(finish.get("ph").unwrap().as_str(), Some("f"));
        assert_eq!(finish.get("bp").unwrap().as_str(), Some("e"));
        assert_eq!(start.get("id"), finish.get("id"));
        assert_eq!(finish.get("tid").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn flow_ids_distinguish_pairs_and_directions() {
        assert_ne!(flow_id(0, 1, 0), flow_id(1, 0, 0));
        assert_ne!(flow_id(0, 1, 0), flow_id(0, 2, 0));
        assert_ne!(flow_id(0, 1, 0), flow_id(0, 1, 1));
    }

    #[test]
    fn instant_events_carry_peer_and_reason() {
        let mut jt = JobTrace {
            ranks: vec![RankTrace::default()],
        };
        jt.ranks[0].instant(
            "hca-downgrade",
            SimTime::from_us(2),
            Some(3),
            Some("corrupt byte"),
            1,
        );
        jt.ranks[0].instant("send-retry", SimTime::from_us(9), Some(1), None, 2);
        assert_eq!(jt.num_instants(), 2);
        let doc = Json::parse(&jt.to_chrome_json()).unwrap();
        let events = doc.as_arr().unwrap();
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("i"));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("peer").unwrap().as_f64(), Some(3.0));
        assert_eq!(args.get("reason").unwrap().as_str(), Some("corrupt byte"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("count")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn zero_length_events_are_dropped() {
        let mut rt = RankTrace::default();
        rt.record(
            CallClass::Poll,
            "test",
            SimTime::from_us(5),
            SimTime::from_us(5),
        );
        assert!(rt.events().is_empty());
    }

    #[test]
    fn class_totals_sum_by_class() {
        let mut jt = JobTrace {
            ranks: vec![RankTrace::default()],
        };
        jt.ranks[0].record(CallClass::Pt2pt, "send", SimTime::ZERO, SimTime::from_us(2));
        jt.ranks[0].record(
            CallClass::Pt2pt,
            "recv",
            SimTime::from_us(3),
            SimTime::from_us(4),
        );
        jt.ranks[0].record(
            CallClass::Compute,
            "compute",
            SimTime::from_us(4),
            SimTime::from_us(9),
        );
        let totals = jt.class_totals(0);
        let get = |c: CallClass| totals.iter().find(|(x, _)| *x == c).unwrap().1;
        assert_eq!(get(CallClass::Pt2pt), SimTime::from_us(3));
        assert_eq!(get(CallClass::Compute), SimTime::from_us(5));
        assert_eq!(get(CallClass::Collective), SimTime::ZERO);
    }
}
