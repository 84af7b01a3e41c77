//! Property tests for the always-on telemetry layer: a flight-recorder
//! dump always round-trips through the strict cmpi-prof JSON parser with
//! its event stream intact.

use cmpi_prof::{HistogramSnapshot, Json};
use cmpi_telemetry::{
    EventKind, FlightEvent, FlightRecorder, MetricId, RankSnapshot, TelemetrySnapshot, NUM_METRICS,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any event stream — including ones that wrap the ring — dumps to
    /// Chrome-trace JSON that the strict cmpi-prof parser accepts, with
    /// one instant per surviving event plus one summary per rank, and
    /// exact published/dropped accounting.
    #[test]
    fn flight_dump_round_trips_through_strict_json_parser(
        capacity in 1usize..=32,
        events in proptest::collection::vec(
            (0usize..EventKind::ALL.len(), any::<u32>(), any::<u64>(), any::<u64>()),
            0..96,
        ),
    ) {
        let ring = FlightRecorder::new(capacity);
        for &(kind, peer, at_ns, a) in &events {
            ring.record(FlightEvent::new(EventKind::ALL[kind], at_ns).peer(peer as usize).a(a));
        }
        let flight = ring.snapshot();
        let mut scalars = vec![0; NUM_METRICS];
        scalars[MetricId::FlightEvents.index()] = flight.published;
        scalars[MetricId::FlightDropped.index()] = flight.dropped;
        let snap = TelemetrySnapshot {
            ranks: vec![RankSnapshot {
                scalars,
                histos: vec![HistogramSnapshot::default(); 2],
                flight,
            }],
        };
        let flight = &snap.ranks[0].flight;
        prop_assert_eq!(flight.published, events.len() as u64);
        prop_assert_eq!(
            flight.dropped + flight.events.len() as u64,
            flight.published,
            "dropped counter must be exact"
        );

        let doc = snap.flight_chrome_json().to_string();
        let parsed = Json::parse(&doc).expect("flight dump must be strict JSON");
        let arr = parsed.as_arr().expect("chrome trace is an array");
        // Every surviving event plus the per-rank summary instant.
        prop_assert_eq!(arr.len(), flight.events.len() + 1);
        for (obj, ev) in arr.iter().zip(&flight.events) {
            prop_assert_eq!(obj.get("name").and_then(|n| n.as_str()), Some(ev.kind.name()));
            prop_assert_eq!(obj.get("ph").and_then(|p| p.as_str()), Some("i"));
            let args = obj.get("args").expect("instant args");
            prop_assert_eq!(args.get("a").and_then(|v| v.as_f64()), Some(ev.a as f64));
        }
        let summary = arr.last().expect("summary instant");
        prop_assert_eq!(
            summary.get("name").and_then(|n| n.as_str()),
            Some("flight-summary")
        );
        let args = summary.get("args").expect("summary args");
        prop_assert_eq!(
            args.get("published").and_then(|v| v.as_f64()),
            Some(flight.published as f64)
        );
        prop_assert_eq!(
            args.get("dropped").and_then(|v| v.as_f64()),
            Some(flight.dropped as f64)
        );
    }
}
