//! Always-on telemetry integration: the default job surfaces a
//! validated snapshot, the hooks count what actually happened, and
//! `without_telemetry` turns the whole layer off.

use bytes::Bytes;
use cmpi_cluster::{DeploymentScenario, FaultPlan, MidRunTrigger, NamespaceSharing};
use cmpi_core::{
    evaluate_health, EventKind, ExecMode, HealthStatus, JobSpec, Json, MetricId, MpiError, ReduceOp,
};

fn pair() -> JobSpec {
    JobSpec::new(DeploymentScenario::pt2pt_pair(
        true,
        true,
        NamespaceSharing::default(),
    ))
}

#[test]
fn default_job_surfaces_consistent_snapshot() {
    let small = 1024usize;
    let large = 256 * 1024;
    let r = pair().run(|mpi| {
        if mpi.rank() == 0 {
            mpi.send_bytes(Bytes::from(vec![1u8; small]), 1, 0);
            mpi.send_bytes(Bytes::from(vec![2u8; large]), 1, 1);
            let _ = mpi.recv_bytes(1, 2);
        } else {
            let _ = mpi.recv_bytes(0, 0);
            let _ = mpi.recv_bytes(0, 1);
            mpi.send_bytes(Bytes::from(vec![3u8; 64]), 0, 2);
        }
    });
    let snap = r.telemetry.expect("telemetry is on by default");
    assert_eq!(snap.num_ranks(), 2);
    // Rank 0 sent one eager (1 KiB, SHM) and one rendezvous (256 KiB,
    // CMA) message; the hooks must have seen both.
    let r0 = &snap.ranks[0];
    assert!(r0.get(MetricId::EagerMsgs) >= 1);
    assert!(r0.get(MetricId::RndvMsgs) >= 1);
    assert!(r0.histogram(MetricId::MsgSizeBytes).count >= 2);
    assert!(snap.job_total(MetricId::ShmOps) > 0);
    // The SHM eager path claims pair-queue space; the substrate fold
    // lands those job-wide counters on rank 0.
    assert!(r0.get(MetricId::ShmQueueAcquires) > 0);
    // Every histogram snapshot is internally consistent.
    for rank in &snap.ranks {
        for m in [MetricId::Pt2ptLatencyNs, MetricId::MsgSizeBytes] {
            let h = rank.histogram(m);
            assert_eq!(h.buckets.iter().sum::<u64>(), h.count, "{m:?} tore");
        }
    }
    // Rank 0's completed blocking calls fed the latency histogram.
    assert!(r0.histogram(MetricId::Pt2ptLatencyNs).count > 0);
    // The flight ring holds incidents only, and this job has none: the
    // messages above are counted, not logged.
    for (rank, r) in snap.ranks.iter().enumerate() {
        assert_eq!(r.flight.published, 0, "rank {rank}: {:?}", r.flight.events);
        assert_eq!(r.flight.dropped, 0, "rank {rank}");
    }
    // The JSON exposition and the flight dump round-trip.
    Json::parse(&snap.to_json().to_string()).expect("json snapshot parses");
    Json::parse(&snap.flight_chrome_json().to_string()).expect("chrome dump parses");
    // And a healthy run reports healthy.
    let health = evaluate_health(&snap);
    assert!(health.is_ok(), "unexpected findings: {:?}", health.findings);
}

#[test]
fn without_telemetry_disables_the_layer() {
    let r = pair().without_telemetry().run(|mpi| {
        if mpi.rank() == 0 {
            mpi.send_bytes(Bytes::from(vec![0u8; 64]), 1, 0);
        } else {
            let _ = mpi.recv_bytes(0, 0);
        }
    });
    assert!(r.telemetry.is_none());
}

#[test]
fn collective_decisions_and_probes_are_counted() {
    let r = pair().run(|mpi| {
        mpi.allreduce(&[mpi.rank() as u64], cmpi_core::ReduceOp::Sum);
        if mpi.rank() == 0 {
            // A miss (nothing sent yet on tag 7), then a hit.
            assert!(mpi.iprobe(1, 7).is_none());
            let (_, st) = mpi.recv_bytes(1, 5);
            assert_eq!(st.src, 1);
        } else {
            mpi.send_bytes(Bytes::from(vec![9u8; 32]), 0, 5);
        }
        mpi.barrier();
    });
    let snap = r.telemetry.expect("telemetry on");
    let decisions = snap.job_total(MetricId::CollFlat)
        + snap.job_total(MetricId::CollTwoLevel)
        + snap.job_total(MetricId::CollLarge);
    // Every rank records each collective call it entered.
    assert!(decisions >= 4, "decisions: {decisions}");
    assert!(snap.ranks[0].get(MetricId::ProbeMisses) >= 1);
}

/// The failure-detection job of `figures --fig profile`: rank 3 crashes
/// at its first call, the survivors block on it, shrink and allreduce.
/// The health verdict names the dead rank once, from its own ring, and
/// nothing else; each survivor convicted it once.
#[test]
fn a_crashed_rank_is_named_once_by_its_own_death() {
    let scenario = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
    let dead = 3usize;
    let plan = FaultPlan::none().with_crash(dead, MidRunTrigger::AfterOps(1));
    let r = JobSpec::new(scenario)
        .with_faults(plan)
        .run(move |mpi| -> Result<u64, MpiError> {
            let world = mpi.comm_world();
            if mpi.rank() == dead {
                mpi.try_barrier_comm(&world)?;
                return Ok(0);
            }
            let _ = mpi.try_recv_bytes(dead, 9);
            let comm = mpi.try_shrink(&world)?;
            mpi.try_allreduce_one(&comm, 1, ReduceOp::Sum)
        });
    let snap = r.telemetry.expect("telemetry is on by default");
    let health = evaluate_health(&snap);
    let findings: Vec<_> = health
        .findings
        .iter()
        .map(|f| (f.rule, f.rank, f.status))
        .collect();
    assert_eq!(
        findings,
        [("rank-failure", Some(dead), HealthStatus::Critical)],
        "{:?}",
        health.findings
    );
    for (rank, r) in snap.ranks.iter().enumerate() {
        let convictions = r.get(MetricId::FtConvictions);
        assert_eq!(convictions, (rank != dead) as u64, "rank {rank}");
        let incidents = [
            EventKind::SendRetry,
            EventKind::HcaDowngrade,
            EventKind::Convict,
            EventKind::Revoke,
            EventKind::Shrink,
            EventKind::Death,
        ];
        for ev in &r.flight.events {
            assert!(incidents.contains(&ev.kind), "rank {rank}: {ev:?}");
        }
    }
    let json = snap.to_json().to_string();
    Json::parse(&json).expect("json snapshot parses");
    for gone in ["cmpi_ft_suspicions_total", "cmpi_heartbeat_gap_ns"] {
        assert!(!json.contains(gone), "{gone} is still exposed");
    }
}

/// FNV-1a of a rendered text.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A real job wraps rank 0's ring: every HCA send fails once and is
/// retried, so 300 sends publish a `send-retry` incident each into a
/// ring that keeps the newest 256. The timeline keeps every incident, so
/// it names the newest; the dump's hash pins how the kept ones render.
#[test]
fn a_job_wraps_its_flight_ring_keeping_the_newest() {
    const SENDS: u32 = 300;
    let scenario = DeploymentScenario::containers(2, 1, 1, NamespaceSharing::default());
    let plan = FaultPlan::none().with_send_faults(1, 1);
    let r = JobSpec::new(scenario)
        .with_faults(plan)
        .with_tracing()
        .with_exec(ExecMode::Tasks)
        .with_workers(1)
        .run(|mpi| {
            for tag in 0..SENDS {
                if mpi.rank() == 0 {
                    mpi.send(&[tag as u64], 1, tag);
                } else {
                    let mut got = [0u64];
                    mpi.recv(&mut got, 0, tag);
                    assert_eq!(got[0], tag as u64);
                }
            }
        });
    let snap = r.telemetry.expect("telemetry is on by default");
    let r0 = &snap.ranks[0];
    let flight = &r0.flight;
    assert_eq!(flight.published, u64::from(SENDS), "one retry a send");
    assert_eq!(flight.events.len(), 256);
    assert_eq!(flight.published, flight.dropped + 256);
    assert_eq!(r0.get(MetricId::FlightEvents), flight.published);
    assert_eq!(r0.get(MetricId::FlightDropped), flight.dropped);
    assert_eq!(r0.get(MetricId::SendRetries), flight.published);
    // The kept events are the newest, oldest first.
    let trace = r.trace.expect("tracing was enabled");
    let retries: Vec<u64> = trace.ranks[0]
        .instants()
        .iter()
        .filter(|i| i.name == "send-retry")
        .map(|i| i.at.as_ns())
        .collect();
    assert_eq!(retries.len() as u64, flight.published);
    let kept: Vec<u64> = flight.events.iter().map(|e| e.at_ns).collect();
    assert_eq!(kept, retries[retries.len() - 256..]);
    for ev in &flight.events {
        assert_eq!(ev.kind, EventKind::SendRetry, "{ev:?}");
        assert_eq!(ev.peer, Some(1), "{ev:?}");
    }
    assert_eq!(
        fnv(&snap.flight_chrome_json().to_string()),
        0x024b_db9e_4d47_757b
    );
}
