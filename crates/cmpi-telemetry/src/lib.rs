//! Always-on observability for container-MPI jobs: what is cheap enough
//! to never turn off (the benchmark reports the telemetry-on/off ratio
//! of the eager ping-pong with every run).
//!
//! Three pieces:
//!
//! * a **flight recorder** ([`FlightRecorder`]) — a per-rank ring of
//!   the newest incidents (retries, downgrades, failure-detector and
//!   recovery steps, a rank's own death), dumpable as Chrome-trace
//!   JSON; a healthy job leaves it empty;
//! * a **metric vocabulary** ([`MetricId`], [`RankSnapshot`],
//!   [`TelemetrySnapshot`]) — typed counters/gauges/log2 histograms
//!   behind a static id table, rendered as JSON;
//! * a **health evaluator** ([`evaluate`]) — threshold rules over
//!   snapshots producing per-rank/per-job verdicts.
//!
//! This crate is substrate-agnostic and keeps no number of its own:
//! each rank's store in `cmpi-core` holds the values only that rank
//! writes (its ring, plain fields and
//! [`cmpi_prof::HistogramAccumulator`]s), and one function there maps
//! every [`MetricId`] to its source when the job's [`TelemetrySnapshot`]
//! is built at teardown.

#![forbid(unsafe_code)]

pub mod health;
pub mod metrics;
pub mod ring;

pub use health::{evaluate, HealthFinding, HealthReport, HealthStatus};
pub use metrics::{MetricId, MetricKind, RankSnapshot, TelemetrySnapshot, NUM_METRICS};
pub use ring::{EventKind, FlightEvent, FlightRecorder, FlightSnapshot, FLIGHT_CAPACITY};

use cmpi_prof::Json;

/// The one place a Chrome trace-event object is built (`pid` 0, `tid` =
/// rank, microsecond timestamps). `lead` is the field the phase wants
/// ahead of the ids (an instant's scope `s`, a flow's `id`), `tail` what
/// follows the timestamp (`dur`, `bp`, `args`).
pub fn chrome_event(
    name: &str,
    cat: &str,
    ph: &str,
    lead: Option<(&str, Json)>,
    rank: usize,
    ts_us: f64,
    tail: Vec<(String, Json)>,
) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::str(name)),
        ("cat".to_string(), Json::str(cat)),
        ("ph".to_string(), Json::str(ph)),
    ];
    fields.extend(lead.map(|(k, v)| (k.to_string(), v)));
    fields.push(("pid".to_string(), Json::num(0)));
    fields.push(("tid".to_string(), Json::num(rank as u64)));
    fields.push(("ts".to_string(), Json::Num(ts_us)));
    fields.extend(tail);
    Json::Obj(fields)
}

/// A thread-scoped Chrome instant (`ph:"i"`) carrying `args`.
pub fn chrome_instant(
    name: &str,
    cat: &str,
    rank: usize,
    ts_us: f64,
    args: Vec<(String, Json)>,
) -> Json {
    let scope = Some(("s", Json::str("t")));
    let tail = vec![("args".to_string(), Json::Obj(args))];
    chrome_event(name, cat, "i", scope, rank, ts_us, tail)
}

/// Append one ring snapshot's Chrome instants to `out`.
pub(crate) fn flight_chrome_events(flight: &FlightSnapshot, rank: usize, out: &mut Vec<Json>) {
    for ev in &flight.events {
        let mut args = vec![("detail".to_string(), Json::num(ev.detail as u64))];
        if let Some(p) = ev.peer {
            args.push(("peer".to_string(), Json::num(p as u64)));
        }
        args.push(("a".to_string(), Json::num(ev.a)));
        args.push(("b".to_string(), Json::num(ev.b)));
        let ts_us = ev.at_ns as f64 / 1_000.0;
        out.push(chrome_instant(ev.kind.name(), "flight", rank, ts_us, args));
    }
    // One summary instant per rank so a dump always shows the drop
    // accounting even after heavy wrap.
    let args = vec![
        ("published".to_string(), Json::num(flight.published)),
        ("dropped".to_string(), Json::num(flight.dropped)),
    ];
    out.push(chrome_instant("flight-summary", "flight", rank, 0.0, args));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_chrome_dump_round_trips() {
        let mut rings = [FlightRecorder::default(), FlightRecorder::default()];
        rings[0].record(
            FlightEvent::new(EventKind::HcaDowngrade, 1_500)
                .peer(1)
                .detail(2),
        );
        rings[1].record(FlightEvent::new(EventKind::Convict, 9_000).peer(0).a(1234));
        let snap = TelemetrySnapshot {
            ranks: rings
                .into_iter()
                .map(|r| RankSnapshot {
                    flight: r.finish(),
                    ..metrics::rank_with(&[])
                })
                .collect(),
        };
        let doc = snap.flight_chrome_json().to_string();
        let parsed = Json::parse(&doc).expect("chrome dump must parse");
        let events = parsed.as_arr().unwrap();
        // Two real events plus one summary per rank.
        assert_eq!(events.len(), 4);
        let downgrade = &events[0];
        assert_eq!(
            downgrade.get("name").unwrap().as_str(),
            Some("hca-downgrade")
        );
        assert_eq!(downgrade.get("ph").unwrap().as_str(), Some("i"));
        let args = downgrade.get("args").unwrap();
        assert_eq!(args.get("detail").unwrap().as_f64(), Some(2.0));
        assert_eq!(args.get("peer").unwrap().as_f64(), Some(1.0));
        let convict = &events[2];
        assert_eq!(convict.get("tid").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            convict.get("args").unwrap().get("a").unwrap().as_f64(),
            Some(1234.0)
        );
    }
}
