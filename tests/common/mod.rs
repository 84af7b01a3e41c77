//! Shared by the chaos suites (`mod common;`).

use container_mpi::mpi::{JobStats, MetricId, TelemetrySnapshot};

/// The recovery ledger and the fault metrics are two views of one store,
/// so they agree at every rank, whatever the job went through.
pub fn assert_recovery_matches_metrics(stats: &JobStats, telemetry: Option<&TelemetrySnapshot>) {
    let tel = telemetry.expect("telemetry is on by default");
    assert_eq!(stats.per_rank.len(), tel.num_ranks());
    for (rank, (s, t)) in stats.per_rank.iter().zip(&tel.ranks).enumerate() {
        let rec = &s.recovery;
        for (stat, id) in [
            (rec.send_retries, MetricId::SendRetries),
            (rec.hca_downgrades, MetricId::HcaDowngrades),
            (rec.convictions, MetricId::FtConvictions),
            (rec.revokes, MetricId::FtRevokes),
            (rec.shrinks, MetricId::FtShrinks),
        ] {
            assert_eq!(
                stat,
                t.get(id),
                "rank {rank}: {} disagrees with its RecoveryStats field",
                id.name()
            );
        }
    }
}
