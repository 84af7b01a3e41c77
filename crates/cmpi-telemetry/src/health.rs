//! The health evaluator: threshold/watermark rules over telemetry
//! snapshots, producing per-rank and job-level verdicts.
//!
//! Rules are deliberately simple ratio/watermark tests over the
//! always-on metrics — the point is a cheap steady-state signal an
//! operator (or the roadmap's elastic scheduler) can poll without
//! re-running a job under the profiler. Each firing names its rule,
//! scope and evidence; an all-clear produces an empty finding list,
//! which surfaces must render explicitly (the "no failures observed"
//! contract — never a silent empty table).

use cmpi_prof::Json;

use crate::metrics::{MetricId, TelemetrySnapshot};

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

/// Rule thresholds, tunable per deployment; `Default` matches the
/// runtime's failure-detector lease and the DESIGN.md §15 budget.
#[derive(Clone, Copy, Debug)]
pub struct HealthThresholds {
    /// Late-sender blocked time / transfer time ratio that warns.
    pub late_sender_warn_ratio: f64,
    /// Ratio that escalates to critical.
    pub late_sender_crit_ratio: f64,
    /// Minimum late-sender ns before the skew rule fires at all.
    pub late_sender_min_ns: u64,
    /// Stalled / total pair-queue acquires ratio that warns.
    pub stall_warn_ratio: f64,
    /// Ratio that escalates to critical.
    pub stall_crit_ratio: f64,
    /// Minimum acquire volume before the stall rule fires.
    pub stall_min_acquires: u64,
    /// Failure-detector lease; a heartbeat gap beyond half of it warns,
    /// beyond all of it is critical.
    pub heartbeat_lease_ns: u64,
    /// Probe miss ratio that flags a storm.
    pub probe_miss_warn_ratio: f64,
    /// Minimum probe volume before the storm rule fires.
    pub probe_miss_min_calls: u64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            late_sender_warn_ratio: 4.0,
            late_sender_crit_ratio: 16.0,
            late_sender_min_ns: 100_000,
            stall_warn_ratio: 0.10,
            stall_crit_ratio: 0.50,
            stall_min_acquires: 64,
            heartbeat_lease_ns: 200_000,
            probe_miss_warn_ratio: 0.90,
            probe_miss_min_calls: 10_000,
        }
    }
}

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

    /// JSON form (round-trips through the strict parser).
    pub fn to_json(&self) -> Json {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                let mut fields = vec![
                    ("rule".to_string(), Json::str(f.rule)),
                    ("status".to_string(), Json::str(f.status.name())),
                    ("detail".to_string(), Json::str(f.detail.clone())),
                ];
                if let Some(r) = f.rank {
                    fields.insert(0, ("rank".to_string(), Json::num(r as u64)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::str("cmpi-health.v1")),
            ("status".to_string(), Json::str(self.status.name())),
            ("findings".to_string(), Json::Arr(findings)),
        ])
    }
}

/// Run every rule against a snapshot with the given thresholds.
pub fn evaluate(snap: &TelemetrySnapshot, t: &HealthThresholds) -> HealthReport {
    let mut findings = Vec::new();

    // Convicted ranks are critical regardless of any ratio: the dead
    // rank itself reports nothing, so this is a job-scope verdict.
    let convictions = snap.job_total(MetricId::FtConvictions);
    if convictions > 0 {
        findings.push(HealthFinding {
            rank: None,
            rule: "rank-failure",
            status: HealthStatus::Critical,
            detail: format!(
                "{convictions} conviction(s), {} revoke(s), {} shrink(s)",
                snap.job_total(MetricId::FtRevokes),
                snap.job_total(MetricId::FtShrinks),
            ),
        });
    }

    // Late-sender skew: a rank burning far more blocked time on late
    // senders than on actual transfer points at an imbalanced peer.
    for (rank, r) in snap.ranks.iter().enumerate() {
        let late = r.get(MetricId::LateSenderNs);
        let transfer = r.get(MetricId::TransferNs).max(1);
        if late < t.late_sender_min_ns {
            continue;
        }
        let ratio = late as f64 / transfer as f64;
        let status = if ratio > t.late_sender_crit_ratio {
            HealthStatus::Critical
        } else if ratio > t.late_sender_warn_ratio {
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
    if acquires >= t.stall_min_acquires {
        let ratio = stalls as f64 / acquires as f64;
        if ratio > t.stall_warn_ratio {
            findings.push(HealthFinding {
                rank: None,
                rule: "queue-stall-ratio",
                status: if ratio > t.stall_crit_ratio {
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

    // Heartbeat gap: a rank falling behind the freshest peer's beat by
    // a lease fraction is on its way to suspicion/conviction.
    for (rank, r) in snap.ranks.iter().enumerate() {
        let gap = r.get(MetricId::HeartbeatGapNs);
        if gap > t.heartbeat_lease_ns {
            findings.push(HealthFinding {
                rank: Some(rank),
                rule: "heartbeat-gap",
                status: HealthStatus::Critical,
                detail: format!(
                    "{gap} ns behind freshest beat (lease {} ns)",
                    t.heartbeat_lease_ns
                ),
            });
        } else if gap.saturating_mul(2) > t.heartbeat_lease_ns {
            findings.push(HealthFinding {
                rank: Some(rank),
                rule: "heartbeat-gap",
                status: HealthStatus::Warn,
                detail: format!(
                    "{gap} ns behind freshest beat (half-lease {} ns)",
                    t.heartbeat_lease_ns / 2
                ),
            });
        }
    }

    // Probe-miss storm: a rank spinning on iprobe with almost no hits.
    for (rank, r) in snap.ranks.iter().enumerate() {
        let hits = r.get(MetricId::ProbeHits);
        let misses = r.get(MetricId::ProbeMisses);
        let calls = hits + misses;
        if calls < t.probe_miss_min_calls {
            continue;
        }
        let ratio = misses as f64 / calls as f64;
        if ratio > t.probe_miss_warn_ratio {
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

/// [`evaluate`] with default thresholds.
pub fn evaluate_default(snap: &TelemetrySnapshot) -> HealthReport {
    evaluate(snap, &HealthThresholds::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{rank_with, RankSnapshot};

    fn snap(ranks: Vec<RankSnapshot>) -> TelemetrySnapshot {
        TelemetrySnapshot { ranks }
    }

    #[test]
    fn quiet_job_is_all_clear() {
        let report = evaluate_default(&snap(Vec::new()));
        assert!(report.is_ok());
        assert_eq!(report.status, HealthStatus::Ok);
        let m = rank_with(&[(MetricId::ShmOps, 100), (MetricId::TransferNs, 1_000_000)]);
        let report = evaluate_default(&snap(vec![m]));
        assert!(report.is_ok(), "{:?}", report.findings);
    }

    #[test]
    fn conviction_is_critical() {
        let m = rank_with(&[(MetricId::FtConvictions, 1), (MetricId::FtRevokes, 1)]);
        let report = evaluate_default(&snap(vec![m]));
        assert_eq!(report.status, HealthStatus::Critical);
        assert_eq!(report.findings[0].rule, "rank-failure");
        assert_eq!(report.findings[0].rank, None);
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
        let report = evaluate_default(&snap(vec![mk(50_000, 1)]));
        assert!(report.is_ok());
        let report = evaluate_default(&snap(vec![mk(1_000_000, 150_000)]));
        assert_eq!(report.status, HealthStatus::Warn);
        assert_eq!(report.findings[0].rule, "late-sender-skew");
        assert_eq!(report.findings[0].rank, Some(0));
        let report = evaluate_default(&snap(vec![mk(10_000_000, 100_000)]));
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
            evaluate_default(&snap(vec![mk(10, 20)])).is_ok(),
            "below volume floor"
        );
        let report = evaluate_default(&snap(vec![mk(20, 100)]));
        assert_eq!(report.status, HealthStatus::Warn);
        assert_eq!(report.findings[0].rule, "queue-stall-ratio");
        let report = evaluate_default(&snap(vec![mk(80, 100)]));
        assert_eq!(report.status, HealthStatus::Critical);
    }

    #[test]
    fn heartbeat_gap_tracks_lease() {
        let mk = |gap: u64| rank_with(&[(MetricId::HeartbeatGapNs, gap)]);
        assert!(evaluate_default(&snap(vec![mk(10_000)])).is_ok());
        let report = evaluate_default(&snap(vec![mk(150_000)]));
        assert_eq!(report.status, HealthStatus::Warn);
        assert_eq!(report.findings[0].rule, "heartbeat-gap");
        let report = evaluate_default(&snap(vec![mk(300_000)]));
        assert_eq!(report.status, HealthStatus::Critical);
    }

    #[test]
    fn probe_storm_warns_on_miss_ratio() {
        let mk = |hits: u64, misses: u64| {
            rank_with(&[(MetricId::ProbeHits, hits), (MetricId::ProbeMisses, misses)])
        };
        assert!(
            evaluate_default(&snap(vec![mk(10, 100)])).is_ok(),
            "below volume floor"
        );
        assert!(
            evaluate_default(&snap(vec![mk(5_000, 6_000)])).is_ok(),
            "healthy ratio"
        );
        let report = evaluate_default(&snap(vec![mk(100, 20_000)]));
        assert_eq!(report.status, HealthStatus::Warn);
        assert_eq!(report.findings[0].rule, "probe-miss-storm");
    }

    #[test]
    fn report_json_round_trips() {
        let m = rank_with(&[
            (MetricId::FtConvictions, 1),
            (MetricId::HeartbeatGapNs, 400_000),
        ]);
        let report = evaluate_default(&snap(vec![m]));
        let doc = report.to_json().to_string();
        let parsed = Json::parse(&doc).expect("health JSON must parse");
        assert_eq!(
            parsed.get("status").and_then(|s| s.as_str()),
            Some("critical")
        );
        let findings = parsed.get("findings").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(findings.len(), report.findings.len());
    }
}
