//! Mid-run chaos suite: ranks die *while the job is running* — process
//! crash, hung rank, whole-container kill — and the job survives through
//! the failure detector + ULFM revoke/shrink/agree path.
//!
//! The determinism contract at this layer is the *recovery boundary*:
//! deaths are self-inflicted at the dying rank's own deterministic call
//! boundary, but rendezvous handshakes straddling a death can resolve
//! either way in real time. So these tests assert result values, survivor
//! membership and error values — which must be bit-identical across runs
//! — and never timings, context ids or scheduling-dependent stats.

use bytes::Bytes;
use container_mpi::apps::graph500::{self, FtRankOutcome, Graph500Config};
use container_mpi::mpi::{EventKind, MetricId};
use container_mpi::prelude::*;

mod common;
use common::assert_recovery_matches_metrics;

fn cfg() -> Graph500Config {
    Graph500Config {
        scale: 9,
        edgefactor: 8,
        num_roots: 2,
        ..Default::default()
    }
}

/// The acceptance-scale scenario: 32 ranks as 2 hosts x 4 containers x 4
/// ranks. Container c holds ranks 4c..4c+4; containers 0-3 are on host 0.
fn acceptance() -> DeploymentScenario {
    DeploymentScenario::containers(2, 4, 4, NamespaceSharing::default())
}

type FtResults = Vec<Result<FtRankOutcome, MpiError>>;

fn run_ft(
    scenario: DeploymentScenario,
    plan: FaultPlan,
) -> (FtResults, JobResult<Result<FtRankOutcome, MpiError>>) {
    let r = graph500::run_ft(&JobSpec::new(scenario).with_faults(plan), cfg());
    assert_recovery_matches_metrics(&r.stats, r.telemetry.as_ref());
    (r.results.clone(), r)
}

/// The core mid-run robustness check, shared by the three fault classes:
/// survivors complete with one agreed outcome, the doomed ranks report
/// their own death, and the whole result vector is identical across runs.
fn assert_survivable(
    scenario: DeploymentScenario,
    plan: FaultPlan,
    doomed: &[usize],
) -> JobResult<Result<FtRankOutcome, MpiError>> {
    let n = scenario.num_ranks();
    let clean = graph500::run_ft(&JobSpec::new(scenario.clone()), cfg());
    let (a, job) = run_ft(scenario.clone(), plan.clone());
    let (b, _) = run_ft(scenario, plan);

    // Recovery-boundary determinism: the full per-rank outcome vector
    // (values and error values alike) is identical run to run — except
    // the recovery count. A shrink decision may miss a death that lands
    // (in real time) after its epoch and iterate at generation + 1 (see
    // the ft.rs module doc), so `recoveries` is a scheduling-dependent
    // stat: it still must agree across survivors *within* a run (the
    // `reference` comparison below), but not across runs.
    let shape = |r: &FtResults| -> FtResults {
        r.iter()
            .map(|x| {
                x.clone().map(|mut o| {
                    o.recoveries = 0;
                    o
                })
            })
            .collect()
    };
    assert_eq!(
        shape(&a),
        shape(&b),
        "mid-run fault recovery must be deterministic"
    );

    let survivors: Vec<usize> = (0..n).filter(|r| !doomed.contains(r)).collect();
    for &d in doomed {
        assert_eq!(
            a[d],
            Err(MpiError::ProcessFailed { peer: d }),
            "doomed rank {d} must report its own death"
        );
    }
    let reference = a[survivors[0]]
        .as_ref()
        .expect("survivor failed to recover");
    assert_eq!(
        reference.comm_ranks, survivors,
        "shrunk communicator must hold exactly the survivors"
    );
    assert!(reference.recoveries >= 1, "no recovery cycle recorded");
    for &s in &survivors {
        assert_eq!(
            a[s].as_ref().expect("survivor failed to recover"),
            reference,
            "survivor {s} disagreed on the agreed outcome"
        );
    }
    // The reached-vertex count per root is a property of the graph, not
    // of the partition: it must match the fault-free run exactly even
    // though the survivors repartitioned the graph.
    let clean_out = clean.results[0].as_ref().expect("clean run failed");
    assert_eq!(
        reference.reached, clean_out.reached,
        "recomputed BFS diverged from the fault-free answer"
    );
    job
}

/// Detection happened, and in bounded virtual time: conviction is lease
/// expiry, so the worst detection latency sits between one lease and a
/// small multiple of it (slack for the convicting rank's own clock).
fn assert_bounded_detection(rec: &RecoveryStats, survivors: u64) {
    assert!(
        rec.convictions >= survivors,
        "every survivor must convict the dead: {rec:?}"
    );
    assert!(rec.revokes >= survivors, "{rec:?}");
    assert!(rec.shrinks >= survivors, "{rec:?}");
    let lease = FAILURE_LEASE.as_ns();
    assert!(
        rec.detect_ns >= lease,
        "conviction cannot precede lease expiry: {rec:?}"
    );
    assert!(
        rec.detect_ns < 100 * lease,
        "detection latency unbounded: {rec:?}"
    );
}

#[test]
fn graph500_survives_a_midrun_rank_crash() {
    let doomed = 20usize; // container 5, host 1
    let plan = FaultPlan::none().with_crash(doomed, MidRunTrigger::AfterOps(50));
    let job = assert_survivable(acceptance(), plan, &[doomed]);
    assert_bounded_detection(&job.stats.recovery(), 31);
}

#[test]
fn graph500_survives_a_hung_rank() {
    // A hung rank keeps its queues open and its endpoint attached: no
    // transport error ever fires, only lease expiry reveals it.
    let doomed = 9usize; // container 2, host 0
    let plan = FaultPlan::none().with_hang(doomed, MidRunTrigger::AfterOps(70));
    let job = assert_survivable(acceptance(), plan, &[doomed]);
    assert_bounded_detection(&job.stats.recovery(), 31);
}

#[test]
fn graph500_survives_a_whole_container_kill() {
    // Container 5 = ranks 20..24, all on host 1: four deaths, one shrink.
    let plan = FaultPlan::none().with_container_kill(ContainerId(5), MidRunTrigger::AfterOps(60));
    let job = assert_survivable(acceptance(), plan, &[20, 21, 22, 23]);
    assert_bounded_detection(&job.stats.recovery(), 28);
}

#[test]
fn pending_operations_on_a_dead_peer_error_instead_of_hanging() {
    // 4 ranks in 2 containers; rank 1 crashes at its 3rd MPI call. Every
    // blocked-operation shape — exact-source recv, wildcard recv,
    // rendezvous send — must finish with ProcessFailed, and an eager send
    // to the corpse must still complete locally (MPI local-completion
    // semantics: a send is complete when the buffer is reusable).
    let scenario = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
    let plan = FaultPlan::none().with_crash(1, MidRunTrigger::AfterOps(3));
    let run = || {
        JobSpec::new(scenario.clone())
            .with_faults(plan.clone())
            .run(|mpi| -> Result<&'static str, MpiError> {
                match mpi.rank() {
                    0 => {
                        // Two eager messages arrive before the crash...
                        let (m1, _) = mpi.try_recv_bytes(1, 7)?;
                        let (m2, _) = mpi.try_recv_bytes(1, 7)?;
                        assert_eq!((m1.as_ref(), m2.as_ref()), (&b"a"[..], &b"b"[..]));
                        // ...the third blocks on a corpse and must error.
                        match mpi.try_recv_bytes(1, 7) {
                            Err(MpiError::ProcessFailed { peer: 1 }) => Ok("recv-errored"),
                            other => panic!("exact-source recv on dead peer: {other:?}"),
                        }
                    }
                    1 => {
                        mpi.try_send_bytes(Bytes::from_static(b"a"), 0, 7)?;
                        mpi.try_send_bytes(Bytes::from_static(b"b"), 0, 7)?;
                        // Third call boundary: the scripted crash fires.
                        let e = mpi
                            .try_send_bytes(Bytes::from_static(b"c"), 0, 7)
                            .expect_err("scripted crash did not fire");
                        Err(e)
                    }
                    2 => {
                        // A posted wildcard receive matching the dead rank
                        // (nobody else ever sends to us) must drain in
                        // error, not leak.
                        let req = mpi.irecv_bytes(ANY_SOURCE, ANY_TAG);
                        match mpi.try_wait(req) {
                            Err(MpiError::ProcessFailed { peer: 1 }) => Ok("wildcard-errored"),
                            other => panic!("wildcard recv with dead peer: {other:?}"),
                        }
                    }
                    _ => {
                        // Rendezvous-sized send to the corpse: no CTS will
                        // ever come, the wait must error...
                        let big = Bytes::from(vec![0x5au8; 64 * 1024]);
                        match mpi.try_send_bytes(big, 1, 9) {
                            Err(MpiError::ProcessFailed { peer: 1 }) => {}
                            other => panic!("rendezvous send to dead peer: {other:?}"),
                        }
                        // ...while an eager send to the same corpse is a
                        // successful local completion.
                        mpi.try_send_bytes(Bytes::from_static(b"x"), 1, 9)?;
                        Ok("send-errored-then-eager-ok")
                    }
                }
            })
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    assert_eq!(a.results[0], Ok("recv-errored"));
    assert_eq!(a.results[1], Err(MpiError::ProcessFailed { peer: 1 }));
    assert_eq!(a.results[2], Ok("wildcard-errored"));
    assert_eq!(a.results[3], Ok("send-errored-then-eager-ok"));
    let rec = a.stats.recovery();
    assert!(rec.convictions >= 3, "{rec:?}");
    assert!(rec.detect_ns >= FAILURE_LEASE.as_ns(), "{rec:?}");
    assert_recovery_matches_metrics(&a.stats, a.telemetry.as_ref());
}

#[test]
fn an_eager_stream_into_a_dead_receivers_full_queue_completes_locally() {
    // Ranks 0 and 1 share a container, so 4 KiB messages travel SHM eager
    // through the pair's 128 KiB queue. Rank 1 dies at its first call and
    // never drains it; rank 0's 64 sends overfill it, and every one must
    // still complete locally once the down table names the receiver — a
    // crash and a hang alike.
    for plan in [
        FaultPlan::none().with_crash(1, MidRunTrigger::AfterOps(1)),
        FaultPlan::none().with_hang(1, MidRunTrigger::AfterOps(1)),
    ] {
        let scenario = DeploymentScenario::containers(1, 1, 2, NamespaceSharing::default());
        let job = JobSpec::new(scenario)
            .with_faults(plan)
            .run(|mpi| -> Result<usize, MpiError> {
                if mpi.rank() == 1 {
                    return mpi.try_recv_bytes(0, 3).map(|_| 0);
                }
                let msg = Bytes::from(vec![7u8; 4 * 1024]);
                for _ in 0..64 {
                    mpi.try_send_bytes(msg.clone(), 1, 3)?;
                }
                Ok(64)
            });
        assert_eq!(job.results[0], Ok(64));
        assert_eq!(job.results[1], Err(MpiError::ProcessFailed { peer: 1 }));
    }
}

#[test]
fn collectives_on_a_revoked_communicator_fail_fast_at_every_member() {
    // No deaths at all: rank 0 revokes the world communicator before
    // touching the collective, so the others block inside it until the
    // revocation flood reaches them. Every member must fail fast with
    // Revoked — and a subsequent shrink (same membership, fresh context)
    // must restore working collectives.
    let scenario = DeploymentScenario::containers(1, 2, 4, NamespaceSharing::default());
    let run = || {
        JobSpec::new(scenario.clone()).run(|mpi| -> Result<(Vec<usize>, u64), MpiError> {
            let world = mpi.comm_world();
            if mpi.rank() == 0 {
                mpi.revoke(&world);
            }
            let err = mpi
                .try_allreduce_one(&world, 1u64, ReduceOp::Sum)
                .expect_err("collective on a revoked communicator succeeded");
            assert_eq!(err, MpiError::Revoked, "wrong fail-fast error");
            // Revocation is sticky: later operations fail instantly too.
            assert!(mpi.is_revoked(&world));
            assert_eq!(
                mpi.try_barrier_comm(&world),
                Err(MpiError::Revoked),
                "revocation must be sticky"
            );
            // Shrink (nobody died, membership is unchanged) and recover.
            let fixed = mpi.try_shrink(&world)?;
            let sum = mpi.try_allreduce_one(&fixed, mpi.rank() as u64 + 1, ReduceOp::Sum)?;
            Ok((fixed.ranks().to_vec(), sum))
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    let everyone: Vec<usize> = (0..8).collect();
    for r in &a.results {
        let (ranks, sum) = r.as_ref().expect("recovery after revoke failed");
        assert_eq!(ranks, &everyone, "shrink without deaths changed membership");
        assert_eq!(*sum, 36, "collective on the shrunk communicator is wrong");
    }
    assert_eq!(a.stats.recovery().convictions, 0, "nobody died");
    assert!(a.stats.recovery().revokes >= 8);
    // The initiator's revocation is ledgered like every member's: the
    // metric counts it and rank 0's ring shows it.
    let tel = a.telemetry.as_ref().expect("telemetry is on by default");
    assert_eq!(
        a.stats.recovery().revokes,
        tel.job_total(MetricId::FtRevokes)
    );
    let ring0 = &tel.ranks[0].flight.events;
    assert!(
        ring0.iter().any(|e| e.kind == EventKind::Revoke),
        "rank 0's ring misses its own revoke: {ring0:?}"
    );
    assert_recovery_matches_metrics(&a.stats, a.telemetry.as_ref());
}

/// A survivor's loop: allreduce over `comm` until one succeeds on a
/// shrunk communicator, revoking and shrinking on every failure. Returns
/// the shrunk communicator's members and the allreduce of one per member.
fn allreduce_until_shrunk(mpi: &mut Mpi) -> Result<(Vec<usize>, u64), MpiError> {
    let n = mpi.size();
    let mut comm = mpi.comm_world();
    loop {
        match mpi.try_allreduce_one(&comm, 1u64, ReduceOp::Sum) {
            Ok(sum) if comm.size() < n => return Ok((comm.ranks().to_vec(), sum)),
            Ok(_) => {}
            Err(MpiError::ProcessFailed { peer }) if peer == mpi.rank() => {
                return Err(MpiError::ProcessFailed { peer })
            }
            Err(MpiError::ProcessFailed { .. } | MpiError::Revoked) => {
                mpi.revoke(&comm);
                comm = mpi.try_shrink(&comm)?;
            }
            Err(e) => return Err(e),
        }
    }
}

#[test]
fn shrunk_communicator_after_a_container_kill_holds_the_survivors() {
    // Kill a whole container (ranks 4..8, at their 4th call): every
    // survivor's shrunk communicator is the other container, and an
    // allreduce over it counts its four members.
    let scenario = DeploymentScenario::containers(1, 2, 4, NamespaceSharing::default());
    let plan = FaultPlan::none().with_container_kill(ContainerId(1), MidRunTrigger::AfterOps(4));
    let r = JobSpec::new(scenario)
        .with_faults(plan)
        .run(allreduce_until_shrunk);
    for (rank, out) in r.results.iter().enumerate() {
        if rank < 4 {
            assert_eq!(out, &Ok((vec![0, 1, 2, 3], 4)), "rank {rank}");
        } else {
            assert_eq!(*out, Err(MpiError::ProcessFailed { peer: rank }));
        }
    }
    assert_recovery_matches_metrics(&r.stats, r.telemetry.as_ref());
}

#[test]
fn a_1024_rank_job_shrinks_past_a_crash() {
    // Fault tolerance at the scale the engine runs: one rank of 1024
    // crashes at its first call, and every survivor agrees on the same
    // 1023 members and allreduces over them.
    const DEAD: usize = 517;
    let scenario = DeploymentScenario::containers(64, 2, 8, NamespaceSharing::default());
    let plan = FaultPlan::none().with_crash(DEAD, MidRunTrigger::AfterOps(1));
    let r = JobSpec::new(scenario)
        .with_faults(plan)
        .with_stack_kib(128)
        .run(allreduce_until_shrunk);
    assert_eq!(r.results.len(), 1024);
    let survivors: Vec<usize> = (0..1024).filter(|&r| r != DEAD).collect();
    for (rank, out) in r.results.iter().enumerate() {
        if rank == DEAD {
            assert_eq!(*out, Err(MpiError::ProcessFailed { peer: rank }));
        } else {
            let (members, sum) = out.as_ref().expect("survivor failed");
            assert!(
                *members == survivors,
                "rank {rank} shrank to {} members",
                members.len()
            );
            assert_eq!(*sum, 1023, "rank {rank}");
        }
    }
    assert_recovery_matches_metrics(&r.stats, r.telemetry.as_ref());
}

#[test]
fn fully_revoked_namespaces_plus_midrun_crash_recovers_on_hca() {
    // Satellite hardening: container 1 lost BOTH its IPC and PID
    // namespace sharing (SHM and CMA impossible — all its traffic lands
    // on the HCA loopback, counted as downgrades), and on top of that a
    // rank in container 0 crashes mid-run. The job must complete with the
    // same answers, never abort.
    let scenario = DeploymentScenario::containers(1, 2, 4, NamespaceSharing::default());
    let plan = FaultPlan::none()
        .with_revoked_ipc(ContainerId(1))
        .with_revoked_pid(ContainerId(1))
        .with_crash(1, MidRunTrigger::AfterOps(25));
    let clean = graph500::run_ft(&JobSpec::new(scenario.clone()), cfg());
    let r = graph500::run_ft(&JobSpec::new(scenario).with_faults(plan), cfg());
    assert_recovery_matches_metrics(&r.stats, r.telemetry.as_ref());
    let survivors: Vec<usize> = (0..8).filter(|&x| x != 1).collect();
    let out = r.results[0].as_ref().expect("survivor failed to recover");
    assert_eq!(out.comm_ranks, survivors);
    for &s in &survivors {
        assert_eq!(r.results[s].as_ref().unwrap(), out);
    }
    assert_eq!(r.results[1], Err(MpiError::ProcessFailed { peer: 1 }));
    assert_eq!(
        out.reached,
        clean.results[0].as_ref().unwrap().reached,
        "degraded-channel recovery changed the answer"
    );
    let rec = r.stats.recovery();
    // Every cross-container pair downgraded, from both sides.
    assert!(rec.hca_downgrades >= 32, "{rec:?}");
    assert!(rec.shrinks >= 7, "{rec:?}");
    assert!(
        r.stats.channel_ops(Channel::Hca) > 0,
        "no HCA fallback traffic"
    );
    assert!(
        r.stats.channel_ops(Channel::Shm) > 0,
        "intra-container SHM gone"
    );
}

// ---- late protocol packets ----------------------------------------------------
//
// A rendezvous request that completed in error can still be named by one
// packet already on its way: the CTS for a failed send, the payload for a
// failed receive, the FIN for a send that failed after shipping. Each job
// below forces one of them, on one worker so the schedule repeats, and
// then proves the rank that dropped the packet is still whole: both ranks
// shrink and finish a collective on the fresh context.

const LATE_LEN: usize = 1 << 20;

/// Run `body` on the co-resident pair (1 MiB travels by CMA rendezvous),
/// then shrink the revoked world and allreduce over the survivors — both
/// ranks. Returns what `body` returned at each rank.
fn late_packet_job(
    body: impl Fn(&mut Mpi) -> Result<&'static str, MpiError> + Send + Sync,
) -> Vec<&'static str> {
    let scenario = DeploymentScenario::pt2pt_pair(true, true, NamespaceSharing::default());
    let r = JobSpec::new(scenario)
        .with_exec(ExecMode::Tasks)
        .with_workers(1)
        .run(|mpi| -> Result<(&'static str, u64), MpiError> {
            let world = mpi.comm_world();
            let what = body(mpi)?;
            // The late packet is dropped inside one of these calls' progress
            // passes: the mailbox is FIFO per producer and the collective's
            // messages queue behind it.
            let fixed = mpi.try_shrink(&world)?;
            let sum = mpi.try_allreduce_one(&fixed, mpi.rank() as u64 + 1, ReduceOp::Sum)?;
            Ok((what, sum))
        });
    assert_recovery_matches_metrics(&r.stats, r.telemetry.as_ref());
    assert_eq!(r.stats.channel_ops(Channel::Hca), 0);
    let outcomes = r.results.into_iter().map(|x| {
        let (what, sum) = x.expect("a rank did not survive a late packet");
        assert_eq!(sum, 3, "collective on the fresh context is wrong");
        what
    });
    outcomes.collect()
}

#[test]
fn a_late_cts_for_a_failed_send_is_dropped() {
    // Rank 0 fails its parked send without ever yielding; whenever rank 1
    // matches the RTS, its CTS names a request that is gone.
    let out = late_packet_job(|mpi| {
        let world = mpi.comm_world();
        if mpi.rank() == 0 {
            let req = mpi.isend_bytes(Bytes::from(vec![7u8; LATE_LEN]), 1, 4);
            mpi.revoke(&world);
            assert_eq!(mpi.try_wait(req).err(), Some(MpiError::Revoked));
            Ok("send failed awaiting the CTS")
        } else {
            // The RTS sits ahead of the revoke notice in this mailbox: the
            // receive matches it (the CTS leaves) and then fails.
            let req = mpi.irecv_bytes(0, 4);
            assert_eq!(mpi.try_wait(req).err(), Some(MpiError::Revoked));
            Ok("recv failed awaiting the payload")
        }
    });
    assert_eq!(
        out,
        [
            "send failed awaiting the CTS",
            "recv failed awaiting the payload"
        ]
    );
}

#[test]
fn a_late_payload_for_a_failed_receive_is_dropped() {
    // Rank 1 matches the RTS (its CTS leaves), revokes and fails the
    // receive before rank 0 runs again. Rank 0 finds the CTS ahead of the
    // revoke notice, ships the payload, and only then fails.
    let out = late_packet_job(|mpi| {
        let world = mpi.comm_world();
        if mpi.rank() == 0 {
            let req = mpi.isend_bytes(Bytes::from(vec![7u8; LATE_LEN]), 1, 4);
            assert_eq!(mpi.try_wait(req).err(), Some(MpiError::Revoked));
            Ok("send failed awaiting the FIN")
        } else {
            while mpi.iprobe(0, 4).is_none() {}
            let req = mpi.irecv_bytes(0, 4);
            mpi.revoke(&world);
            assert_eq!(mpi.try_wait(req).err(), Some(MpiError::Revoked));
            Ok("recv failed awaiting the payload")
        }
    });
    assert_eq!(
        out,
        [
            "send failed awaiting the FIN",
            "recv failed awaiting the payload"
        ]
    );
}

#[test]
fn a_late_fin_for_a_failed_send_is_dropped() {
    // Rank 1 answers the RTS and sends a marker behind its CTS; when rank 0
    // sees the marker it has shipped the payload. It fails the send at
    // once — rank 1 has not run since, so the FIN cannot be there yet — and
    // rank 1 completes its receive normally and FINs a request that is
    // gone.
    let out = late_packet_job(|mpi| {
        let world = mpi.comm_world();
        if mpi.rank() == 0 {
            let req = mpi.isend_bytes(Bytes::from(vec![7u8; LATE_LEN]), 1, 4);
            while mpi.iprobe(1, 5).is_none() {}
            mpi.revoke(&world);
            assert_eq!(mpi.try_wait(req).err(), Some(MpiError::Revoked));
            Ok("send failed awaiting the FIN")
        } else {
            while mpi.iprobe(0, 4).is_none() {}
            let req = mpi.irecv_bytes(0, 4);
            mpi.send_bytes(Bytes::from_static(b"go"), 0, 5);
            // The payload sits ahead of the revoke notice.
            let (data, st) = mpi.try_wait(req)?.into_recv();
            assert_eq!((data.len(), st.src, data[LATE_LEN - 1]), (LATE_LEN, 0, 7));
            Ok("recv completed")
        }
    });
    assert_eq!(out, ["send failed awaiting the FIN", "recv completed"]);
}
