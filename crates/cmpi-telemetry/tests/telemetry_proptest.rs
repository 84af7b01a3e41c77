//! Property tests for the always-on telemetry layer: a histogram
//! accumulator holds exactly what was observed (bucket sum == count)
//! whatever its run cache did, and a flight-recorder dump always
//! round-trips through the strict cmpi-prof JSON parser with its event
//! stream intact.

use cmpi_prof::{size_bucket, Json, SIZE_BUCKETS};
use cmpi_telemetry::{
    validate_prometheus, EventKind, FlightEvent, FlightRecorder, HistogramAccumulator,
    HistogramSnapshot, MetricId, RankSnapshot, TelemetrySnapshot, NUM_METRICS,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any value stream leaves the accumulator holding what counting each
    /// value on its own would: `sum(buckets) == count`, the exact sum,
    /// every value in the bucket `size_bucket` names — however the
    /// same-bucket runs and the zeros fall.
    #[test]
    fn accumulator_matches_one_by_one_counting(
        values in proptest::collection::vec(any::<u64>(), 0..512),
        shift in 12u32..64,
    ) {
        // Shifted down so runs, bucket changes and zeros all occur (and
        // 512 values cannot overflow the sum).
        let values: Vec<u64> = values.iter().map(|v| v >> shift).collect();
        let mut acc = HistogramAccumulator::default();
        let mut buckets = vec![0u64; SIZE_BUCKETS];
        for &v in &values {
            acc.observe(v);
            buckets[size_bucket(v as usize)] += 1;
        }
        let h = acc.finish();
        prop_assert_eq!(h.count, values.len() as u64);
        prop_assert_eq!(h.sum, values.iter().sum::<u64>());
        prop_assert_eq!(h.buckets, buckets);
    }

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

        // The same snapshot's Prometheus exposition stays valid with
        // the ring's volume counters in it.
        validate_prometheus(&snap.to_prometheus()).expect("exposition must validate");
    }
}
