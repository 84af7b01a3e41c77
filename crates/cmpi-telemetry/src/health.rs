//! The health evaluator: threshold/watermark rules over telemetry
//! snapshots, producing per-rank and job-level verdicts.
//!
//! Rules are deliberately simple: ratio/watermark tests over the
//! always-on metrics with fixed thresholds, and the death each failed
//! rank recorded on its own flight ring — the point is a cheap signal an
//! operator (or the roadmap's elastic scheduler) can poll without
//! re-running a job under the profiler. Each firing names its rule,
//! scope and evidence; an all-clear produces an empty finding list,
//! which surfaces must render explicitly (the "no failures observed"
//! contract — never a silent empty table).

use crate::metrics::{MetricId, TelemetrySnapshot};
use crate::ring::EventKind;

/// Verdict severity, worst-of across findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Everything within thresholds.
    Ok,
    /// Degraded but progressing.
    Warn,
    /// Needs intervention (failed ranks, saturated queues, dead peers).
    Critical,
}

impl HealthStatus {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Warn => "warn",
            HealthStatus::Critical => "critical",
        }
    }
}

/// Late-sender blocked time / transfer time ratio that warns.
const LATE_SENDER_WARN_RATIO: f64 = 4.0;
/// Ratio that escalates to critical.
const LATE_SENDER_CRIT_RATIO: f64 = 16.0;
/// Minimum late-sender ns before the skew rule fires at all.
const LATE_SENDER_MIN_NS: u64 = 100_000;
/// Stalled / total pair-queue acquires ratio that warns.
const STALL_WARN_RATIO: f64 = 0.10;
/// Ratio that escalates to critical.
const STALL_CRIT_RATIO: f64 = 0.50;
/// Minimum acquire volume before the stall rule fires.
const STALL_MIN_ACQUIRES: u64 = 64;
/// Probe miss ratio that flags a storm.
const PROBE_MISS_WARN_RATIO: f64 = 0.90;
/// Minimum probe volume before the storm rule fires.
const PROBE_MISS_MIN_CALLS: u64 = 10_000;

/// One fired rule.
#[derive(Clone, Debug)]
pub struct HealthFinding {
    /// The offending rank, or `None` for job-scope findings.
    pub rank: Option<usize>,
    /// Stable rule name.
    pub rule: &'static str,
    /// Severity.
    pub status: HealthStatus,
    /// Human-readable evidence (the numbers that crossed the line).
    pub detail: String,
}

/// The evaluator's output: all fired rules plus the worst severity.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Fired rules, evaluation order. Empty means all clear.
    pub findings: Vec<HealthFinding>,
    /// Worst severity across findings ([`HealthStatus::Ok`] when none).
    pub status: HealthStatus,
}

impl HealthReport {
    /// `true` when no rule fired.
    pub fn is_ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run every rule against a snapshot.
pub fn evaluate(snap: &TelemetrySnapshot) -> HealthReport {
    let mut findings = Vec::new();

    // A dead rank is critical regardless of any ratio, and its own ring
    // says so: a dying rank records its death last, so ring wrap, which
    // drops the oldest events, keeps it.
    for (rank, r) in snap.ranks.iter().enumerate() {
        let death = r.flight.events.iter().find(|e| e.kind == EventKind::Death);
        if let Some(ev) = death {
            findings.push(HealthFinding {
                rank: Some(rank),
                rule: "rank-failure",
                status: HealthStatus::Critical,
                detail: format!("died at {} ns (fault code {})", ev.at_ns, ev.detail),
            });
        }
    }

    // Late-sender skew: a rank burning far more blocked time on late
    // senders than on actual transfer points at an imbalanced peer.
    for (rank, r) in snap.ranks.iter().enumerate() {
        let late = r.get(MetricId::LateSenderNs);
        let transfer = r.get(MetricId::TransferNs).max(1);
        if late < LATE_SENDER_MIN_NS {
            continue;
        }
        let ratio = late as f64 / transfer as f64;
        let status = if ratio > LATE_SENDER_CRIT_RATIO {
            HealthStatus::Critical
        } else if ratio > LATE_SENDER_WARN_RATIO {
            HealthStatus::Warn
        } else {
            continue;
        };
        findings.push(HealthFinding {
            rank: Some(rank),
            rule: "late-sender-skew",
            status,
            detail: format!("{late} ns late-sender vs {transfer} ns transfer ({ratio:.1}x)"),
        });
    }

    // Queue-stall ratio: SHM pair queues saturating under backpressure.
    let acquires = snap.job_total(MetricId::ShmQueueAcquires);
    let stalls = snap.job_total(MetricId::ShmQueueStalls);
    if acquires >= STALL_MIN_ACQUIRES {
        let ratio = stalls as f64 / acquires as f64;
        if ratio > STALL_WARN_RATIO {
            findings.push(HealthFinding {
                rank: None,
                rule: "queue-stall-ratio",
                status: if ratio > STALL_CRIT_RATIO {
                    HealthStatus::Critical
                } else {
                    HealthStatus::Warn
                },
                detail: format!(
                    "{stalls} of {acquires} acquires stalled ({:.0}%)",
                    ratio * 100.0
                ),
            });
        }
    }

    // Probe-miss storm: a rank spinning on iprobe with almost no hits.
    for (rank, r) in snap.ranks.iter().enumerate() {
        let hits = r.get(MetricId::ProbeHits);
        let misses = r.get(MetricId::ProbeMisses);
        let calls = hits + misses;
        if calls < PROBE_MISS_MIN_CALLS {
            continue;
        }
        let ratio = misses as f64 / calls as f64;
        if ratio > PROBE_MISS_WARN_RATIO {
            findings.push(HealthFinding {
                rank: Some(rank),
                rule: "probe-miss-storm",
                status: HealthStatus::Warn,
                detail: format!("{misses} of {calls} probes missed ({:.0}%)", ratio * 100.0),
            });
        }
    }

    let status = findings
        .iter()
        .map(|f| f.status)
        .max()
        .unwrap_or(HealthStatus::Ok);
    HealthReport { findings, status }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{rank_with, RankSnapshot};
    use crate::ring::FlightEvent;

    fn snap(ranks: Vec<RankSnapshot>) -> TelemetrySnapshot {
        TelemetrySnapshot { ranks }
    }

    #[test]
    fn quiet_job_is_all_clear() {
        let report = evaluate(&snap(Vec::new()));
        assert!(report.is_ok());
        assert_eq!(report.status, HealthStatus::Ok);
        let m = rank_with(&[(MetricId::ShmOps, 100), (MetricId::TransferNs, 1_000_000)]);
        let report = evaluate(&snap(vec![m]));
        assert!(report.is_ok(), "{:?}", report.findings);
    }

    /// A rank whose ring ends with its own death.
    fn dead_rank(at_ns: u64) -> RankSnapshot {
        let mut r = rank_with(&[]);
        r.flight
            .events
            .push(FlightEvent::new(EventKind::Death, at_ns).detail(1));
        r.flight.published = 1;
        r
    }

    #[test]
    fn each_dead_rank_is_one_critical_finding() {
        // Rank 0 convicted rank 1; rank 2 died unconvicted. Both deaths
        // are named, and nothing else is.
        let convictor = rank_with(&[(MetricId::FtConvictions, 1), (MetricId::FtRevokes, 1)]);
        let report = evaluate(&snap(vec![convictor, dead_rank(5_000), dead_rank(7_000)]));
        assert_eq!(report.status, HealthStatus::Critical);
        let named: Vec<_> = report.findings.iter().map(|f| (f.rule, f.rank)).collect();
        assert_eq!(
            named,
            [("rank-failure", Some(1)), ("rank-failure", Some(2))]
        );
        assert!(report.findings[0].detail.contains("5000 ns"));
        // Conviction counters alone name nobody.
        let m = rank_with(&[(MetricId::FtConvictions, 1)]);
        assert!(evaluate(&snap(vec![m])).is_ok());
    }

    #[test]
    fn late_sender_skew_escalates_with_ratio() {
        let mk = |late: u64, transfer: u64| {
            rank_with(&[
                (MetricId::LateSenderNs, late),
                (MetricId::TransferNs, transfer),
            ])
        };
        // Below the volume floor: silent even at a huge ratio.
        let report = evaluate(&snap(vec![mk(50_000, 1)]));
        assert!(report.is_ok());
        let report = evaluate(&snap(vec![mk(1_000_000, 150_000)]));
        assert_eq!(report.status, HealthStatus::Warn);
        assert_eq!(report.findings[0].rule, "late-sender-skew");
        assert_eq!(report.findings[0].rank, Some(0));
        let report = evaluate(&snap(vec![mk(10_000_000, 100_000)]));
        assert_eq!(report.status, HealthStatus::Critical);
    }

    #[test]
    fn stall_ratio_needs_volume() {
        let mk = |stalls: u64, acquires: u64| {
            rank_with(&[
                (MetricId::ShmQueueStalls, stalls),
                (MetricId::ShmQueueAcquires, acquires),
            ])
        };
        assert!(
            evaluate(&snap(vec![mk(10, 20)])).is_ok(),
            "below volume floor"
        );
        let report = evaluate(&snap(vec![mk(20, 100)]));
        assert_eq!(report.status, HealthStatus::Warn);
        assert_eq!(report.findings[0].rule, "queue-stall-ratio");
        let report = evaluate(&snap(vec![mk(80, 100)]));
        assert_eq!(report.status, HealthStatus::Critical);
    }

    #[test]
    fn probe_storm_warns_on_miss_ratio() {
        let mk = |hits: u64, misses: u64| {
            rank_with(&[(MetricId::ProbeHits, hits), (MetricId::ProbeMisses, misses)])
        };
        assert!(
            evaluate(&snap(vec![mk(10, 100)])).is_ok(),
            "below volume floor"
        );
        assert!(
            evaluate(&snap(vec![mk(5_000, 6_000)])).is_ok(),
            "healthy ratio"
        );
        let report = evaluate(&snap(vec![mk(100, 20_000)]));
        assert_eq!(report.status, HealthStatus::Warn);
        assert_eq!(report.findings[0].rule, "probe-miss-storm");
    }
}
