//! The metric vocabulary and its exposition: typed counters, gauges and
//! log2-bucket histograms with a static id table.
//!
//! Every metric is a [`MetricId`] variant — registered once, at compile
//! time; string names only appear at exposition time. A rank's values
//! reach a [`RankSnapshot`] once, at job teardown, from the one place
//! each number is kept (the rank's observability store in `cmpi-core`,
//! its `CommStats`, or a substrate counter); this crate renders
//! snapshots as JSON ([`TelemetrySnapshot::to_json`], via the strict
//! [`cmpi_prof::Json`] model, so every emitted document round-trips).
//!
//! Histograms are the profiler's log2 histogram: the one writer of each
//! is the rank that owns its [`cmpi_prof::HistogramAccumulator`], so
//! `bucket sum == count` holds by construction.

use cmpi_prof::{HistogramSnapshot, Json};

use crate::ring::FlightSnapshot;

/// What a metric measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Point-in-time level or high-water mark.
    Gauge,
    /// Log2-bucket value distribution.
    Histogram,
}

impl MetricKind {
    /// The name the JSON exposition's `kind` field carries.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Every metric the runtime reports. The discriminant is the slot index
/// in [`RankSnapshot::scalars`]; histograms sit at the tail.
///
/// Adding a variant requires: an [`MetricId::ALL`] entry, a `name` arm,
/// a source in `cmpi-core`'s one-source map (its `match` is
/// exhaustive), and a row in the DESIGN.md §11 metric inventory table —
/// `design_inventory_lists_every_metric` enforces the last, and that no
/// table row outlives its variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MetricId {
    /// SHM channel sends.
    ShmOps = 0,
    /// CMA channel sends.
    CmaOps = 1,
    /// HCA channel sends.
    HcaOps = 2,
    /// SHM bytes sent.
    ShmBytes = 3,
    /// CMA bytes sent.
    CmaBytes = 4,
    /// HCA bytes sent.
    HcaBytes = 5,
    /// Messages sent via the eager protocol.
    EagerMsgs = 6,
    /// Messages sent via the rendezvous protocol.
    RndvMsgs = 7,
    /// `iprobe` calls that found a match.
    ProbeHits = 8,
    /// `iprobe` calls that found nothing.
    ProbeMisses = 9,
    /// Fabric sends retried after transient failures.
    SendRetries = 10,
    /// Peers downgraded off the HCA channel.
    HcaDowngrades = 11,
    /// Peers convicted dead.
    FtConvictions = 12,
    /// Communicator revocations observed.
    FtRevokes = 13,
    /// Shrink agreements completed.
    FtShrinks = 14,
    /// Collectives routed to the flat algorithm.
    CollFlat = 15,
    /// Collectives routed to the two-level SMP algorithm.
    CollTwoLevel = 16,
    /// Collectives routed to the large-message algorithm.
    CollLarge = 17,
    /// Packets pushed into rank mailboxes (job-wide, sampled).
    MailboxPushes = 18,
    /// Times a rank's task descheduled on its empty mailbox (job-wide,
    /// sampled).
    MailboxParks = 19,
    /// Pokes that rescheduled a descheduled rank (job-wide, sampled).
    MailboxWakes = 20,
    /// SHM pair-queue credit acquires (job-wide, sampled).
    ShmQueueAcquires = 21,
    /// Acquires that stalled on a full queue (job-wide, sampled).
    ShmQueueStalls = 22,
    /// Fabric two-sided sends posted (sampled).
    FabricSends = 23,
    /// Fabric messages drained by progress (sampled).
    FabricRecvs = 24,
    /// Fabric RDMA operations initiated (sampled).
    FabricRdma = 25,
    /// Wait time attributed to late senders, ns.
    LateSenderNs = 26,
    /// Wait time attributed to late receivers, ns.
    LateReceiverNs = 27,
    /// Wait time attributed to data transfer, ns.
    TransferNs = 28,
    /// Incidents published to the flight recorder.
    FlightEvents = 29,
    /// Flight-recorder incidents dropped by ring wrap.
    FlightDropped = 30,
    /// Peak posted-receive queue depth.
    MatchPostedPeak = 31,
    /// Peak unexpected-message queue depth.
    MatchUnexpectedPeak = 32,
    /// Peak bytes in flight on any SHM pair queue (job-wide, sampled).
    ShmMaxInFlight = 33,
    /// Point-to-point completion latency distribution, ns.
    Pt2ptLatencyNs = 34,
    /// Sent message size distribution, bytes.
    MsgSizeBytes = 35,
}

/// Total number of metrics.
pub const NUM_METRICS: usize = 36;
/// Number of histogram metrics (the tail of [`MetricId::ALL`]).
pub const NUM_HISTOGRAMS: usize = 2;
const FIRST_HISTOGRAM: usize = NUM_METRICS - NUM_HISTOGRAMS;

impl MetricId {
    /// Every metric, in slot order.
    pub const ALL: [MetricId; NUM_METRICS] = [
        MetricId::ShmOps,
        MetricId::CmaOps,
        MetricId::HcaOps,
        MetricId::ShmBytes,
        MetricId::CmaBytes,
        MetricId::HcaBytes,
        MetricId::EagerMsgs,
        MetricId::RndvMsgs,
        MetricId::ProbeHits,
        MetricId::ProbeMisses,
        MetricId::SendRetries,
        MetricId::HcaDowngrades,
        MetricId::FtConvictions,
        MetricId::FtRevokes,
        MetricId::FtShrinks,
        MetricId::CollFlat,
        MetricId::CollTwoLevel,
        MetricId::CollLarge,
        MetricId::MailboxPushes,
        MetricId::MailboxParks,
        MetricId::MailboxWakes,
        MetricId::ShmQueueAcquires,
        MetricId::ShmQueueStalls,
        MetricId::FabricSends,
        MetricId::FabricRecvs,
        MetricId::FabricRdma,
        MetricId::LateSenderNs,
        MetricId::LateReceiverNs,
        MetricId::TransferNs,
        MetricId::FlightEvents,
        MetricId::FlightDropped,
        MetricId::MatchPostedPeak,
        MetricId::MatchUnexpectedPeak,
        MetricId::ShmMaxInFlight,
        MetricId::Pt2ptLatencyNs,
        MetricId::MsgSizeBytes,
    ];

    /// The slot this metric occupies.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The exposition name (`_total` suffix on counters, base unit in
    /// the name).
    pub fn name(self) -> &'static str {
        match self {
            MetricId::ShmOps => "cmpi_shm_ops_total",
            MetricId::CmaOps => "cmpi_cma_ops_total",
            MetricId::HcaOps => "cmpi_hca_ops_total",
            MetricId::ShmBytes => "cmpi_shm_bytes_total",
            MetricId::CmaBytes => "cmpi_cma_bytes_total",
            MetricId::HcaBytes => "cmpi_hca_bytes_total",
            MetricId::EagerMsgs => "cmpi_eager_msgs_total",
            MetricId::RndvMsgs => "cmpi_rndv_msgs_total",
            MetricId::ProbeHits => "cmpi_probe_hits_total",
            MetricId::ProbeMisses => "cmpi_probe_misses_total",
            MetricId::SendRetries => "cmpi_send_retries_total",
            MetricId::HcaDowngrades => "cmpi_hca_downgrades_total",
            MetricId::FtConvictions => "cmpi_ft_convictions_total",
            MetricId::FtRevokes => "cmpi_ft_revokes_total",
            MetricId::FtShrinks => "cmpi_ft_shrinks_total",
            MetricId::CollFlat => "cmpi_coll_flat_total",
            MetricId::CollTwoLevel => "cmpi_coll_two_level_total",
            MetricId::CollLarge => "cmpi_coll_large_total",
            MetricId::MailboxPushes => "cmpi_mailbox_pushes_total",
            MetricId::MailboxParks => "cmpi_mailbox_parks_total",
            MetricId::MailboxWakes => "cmpi_mailbox_wakes_total",
            MetricId::ShmQueueAcquires => "cmpi_shm_queue_acquires_total",
            MetricId::ShmQueueStalls => "cmpi_shm_queue_stalls_total",
            MetricId::FabricSends => "cmpi_fabric_sends_total",
            MetricId::FabricRecvs => "cmpi_fabric_recvs_total",
            MetricId::FabricRdma => "cmpi_fabric_rdma_total",
            MetricId::LateSenderNs => "cmpi_late_sender_ns_total",
            MetricId::LateReceiverNs => "cmpi_late_receiver_ns_total",
            MetricId::TransferNs => "cmpi_transfer_ns_total",
            MetricId::FlightEvents => "cmpi_flight_events_total",
            MetricId::FlightDropped => "cmpi_flight_dropped_total",
            MetricId::MatchPostedPeak => "cmpi_match_posted_peak",
            MetricId::MatchUnexpectedPeak => "cmpi_match_unexpected_peak",
            MetricId::ShmMaxInFlight => "cmpi_shm_max_in_flight",
            MetricId::Pt2ptLatencyNs => "cmpi_pt2pt_latency_ns",
            MetricId::MsgSizeBytes => "cmpi_msg_size_bytes",
        }
    }

    /// Counter, gauge or histogram.
    pub fn kind(self) -> MetricKind {
        match self {
            MetricId::MatchPostedPeak
            | MetricId::MatchUnexpectedPeak
            | MetricId::ShmMaxInFlight => MetricKind::Gauge,
            MetricId::Pt2ptLatencyNs | MetricId::MsgSizeBytes => MetricKind::Histogram,
            _ => MetricKind::Counter,
        }
    }

    #[inline]
    fn histo_index(self) -> usize {
        debug_assert!(self.index() >= FIRST_HISTOGRAM);
        self.index() - FIRST_HISTOGRAM
    }
}

/// One rank's slice of a [`TelemetrySnapshot`].
#[derive(Clone, Debug)]
pub struct RankSnapshot {
    /// Scalar values, indexed by [`MetricId::index`] (histogram slots
    /// stay zero).
    pub scalars: Vec<u64>,
    /// Histogram contents, in the order of the tail of [`MetricId::ALL`].
    pub histos: Vec<HistogramSnapshot>,
    /// This rank's flight-recorder contents.
    pub flight: FlightSnapshot,
}

impl RankSnapshot {
    /// Scalar metric value.
    pub fn get(&self, id: MetricId) -> u64 {
        debug_assert_ne!(id.kind(), MetricKind::Histogram);
        self.scalars[id.index()]
    }

    /// Histogram metric copy.
    pub fn histogram(&self, id: MetricId) -> &HistogramSnapshot {
        &self.histos[id.histo_index()]
    }
}

/// A whole job's point-in-time telemetry: per-rank metric values,
/// histograms and flight-recorder contents.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Per-rank slices, rank-ordered.
    pub ranks: Vec<RankSnapshot>,
}

impl TelemetrySnapshot {
    /// Number of ranks captured.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Job-wide value of a scalar metric: counters sum across ranks,
    /// gauges take the peak.
    pub fn job_total(&self, id: MetricId) -> u64 {
        let per_rank = self.ranks.iter().map(|r| r.get(id));
        match id.kind() {
            MetricKind::Gauge => per_rank.max().unwrap_or(0),
            _ => per_rank.sum(),
        }
    }

    /// JSON exposition (schema `cmpi-telemetry.v1`), built on the
    /// strict [`Json`] model so it round-trips by construction.
    pub fn to_json(&self) -> Json {
        let mut metrics = Vec::with_capacity(NUM_METRICS);
        for id in MetricId::ALL {
            let mut fields = vec![
                ("name".to_string(), Json::str(id.name())),
                ("kind".to_string(), Json::str(id.kind().name())),
            ];
            if id.kind() == MetricKind::Histogram {
                let per_rank = self
                    .ranks
                    .iter()
                    .map(|r| {
                        let h = r.histogram(id);
                        let buckets = h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter(|(_, &c)| c != 0)
                            .map(|(k, &c)| Json::Arr(vec![Json::num(k as u64), Json::num(c)]))
                            .collect();
                        Json::Obj(vec![
                            ("count".to_string(), Json::num(h.count)),
                            ("sum".to_string(), Json::num(h.sum)),
                            ("buckets".to_string(), Json::Arr(buckets)),
                        ])
                    })
                    .collect();
                fields.push(("per_rank".to_string(), Json::Arr(per_rank)));
            } else {
                let per_rank = self.ranks.iter().map(|r| Json::num(r.get(id))).collect();
                fields.push(("per_rank".to_string(), Json::Arr(per_rank)));
                fields.push(("total".to_string(), Json::num(self.job_total(id))));
            }
            metrics.push(Json::Obj(fields));
        }
        Json::Obj(vec![
            ("schema".to_string(), Json::str("cmpi-telemetry.v1")),
            ("ranks".to_string(), Json::num(self.ranks.len() as u64)),
            ("metrics".to_string(), Json::Arr(metrics)),
        ])
    }

    /// All ranks' flight-recorder contents as one Chrome trace-event
    /// array (`ph:"i"` instants, `tid` = rank).
    pub fn flight_chrome_json(&self) -> Json {
        let mut events = Vec::new();
        for (rank, r) in self.ranks.iter().enumerate() {
            crate::flight_chrome_events(&r.flight, rank, &mut events);
        }
        Json::Arr(events)
    }
}

/// One rank holding `values`, histograms and ring empty (what this
/// crate's unit tests build snapshots from).
#[cfg(test)]
pub(crate) fn rank_with(values: &[(MetricId, u64)]) -> RankSnapshot {
    let mut scalars = vec![0; NUM_METRICS];
    for &(id, v) in values {
        scalars[id.index()] = v;
    }
    RankSnapshot {
        scalars,
        histos: vec![HistogramSnapshot::default(); NUM_HISTOGRAMS],
        flight: FlightSnapshot::default(),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn job_of(ranks: Vec<RankSnapshot>) -> TelemetrySnapshot {
        TelemetrySnapshot { ranks }
    }

    #[test]
    fn ids_are_dense_and_unique() {
        for (i, id) in MetricId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i, "ALL must list metrics in slot order");
        }
        for (i, a) in MetricId::ALL.iter().enumerate() {
            for b in &MetricId::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
        let histos = MetricId::ALL
            .iter()
            .filter(|id| id.kind() == MetricKind::Histogram)
            .count();
        assert_eq!(histos, NUM_HISTOGRAMS);
        for id in &MetricId::ALL[FIRST_HISTOGRAM..] {
            assert_eq!(
                id.kind(),
                MetricKind::Histogram,
                "histograms sit at the tail"
            );
        }
    }

    #[test]
    fn exposition_covers_every_metric() {
        // Every metric emits a named family, even at zero.
        let json = job_of(vec![rank_with(&[])]).to_json().to_string();
        for id in MetricId::ALL {
            assert!(
                json.contains(id.name()),
                "{} missing from the JSON exposition",
                id.name()
            );
        }
    }

    /// DESIGN.md §11's metric inventory names exactly the `MetricId`s:
    /// a metric cannot ship undocumented, nor a row outlive its metric.
    #[test]
    fn design_inventory_lists_every_metric() {
        let design = include_str!("../../../DESIGN.md");
        let (_, table) = design
            .split_once("### Metric inventory")
            .expect("DESIGN.md has a metric inventory");
        let rows: BTreeSet<String> = table
            .lines()
            .take_while(|l| !l.starts_with('#'))
            .filter_map(|l| Some(l.strip_prefix("| `")?.split_once('`')?.0))
            .filter(|name| *name != "MetricId")
            .map(str::to_string)
            .collect();
        let ids: BTreeSet<String> = MetricId::ALL.iter().map(|id| format!("{id:?}")).collect();
        assert!(
            rows == ids,
            "metrics with no DESIGN.md §11 row: {:?}; rows naming no metric: {:?}",
            ids.difference(&rows).collect::<Vec<_>>(),
            rows.difference(&ids).collect::<Vec<_>>()
        );
    }

    #[test]
    fn json_exposition_round_trips() {
        let mut rank = rank_with(&[(MetricId::EagerMsgs, 3)]);
        let mut latency = cmpi_prof::HistogramAccumulator::default();
        latency.observe(1000);
        rank.histos[MetricId::Pt2ptLatencyNs.histo_index()] = latency.finish();
        let doc = job_of(vec![rank]).to_json().to_string();
        let parsed = Json::parse(&doc).expect("telemetry JSON must parse");
        assert_eq!(
            parsed.get("schema").and_then(|s| s.as_str()),
            Some("cmpi-telemetry.v1")
        );
        let metrics = parsed.get("metrics").and_then(|m| m.as_arr()).unwrap();
        assert_eq!(metrics.len(), NUM_METRICS);
        let eager = metrics
            .iter()
            .find(|m| m.get("name").and_then(|n| n.as_str()) == Some("cmpi_eager_msgs_total"))
            .expect("eager metric present");
        assert_eq!(eager.get("total").and_then(|t| t.as_f64()), Some(3.0));
    }

    #[test]
    fn job_total_sums_counters_and_peaks_gauges() {
        let snap = job_of(vec![
            rank_with(&[(MetricId::RndvMsgs, 2), (MetricId::ShmMaxInFlight, 10)]),
            rank_with(&[(MetricId::RndvMsgs, 5), (MetricId::ShmMaxInFlight, 4)]),
        ]);
        assert_eq!(snap.job_total(MetricId::RndvMsgs), 7);
        assert_eq!(snap.job_total(MetricId::ShmMaxInFlight), 10);
    }
}
