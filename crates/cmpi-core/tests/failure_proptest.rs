//! Property tests for the failure detector and the shrink agreement:
//! over random topologies and random crash/hang sets, every survivor
//! must converge on *exactly* the scripted dead set, and `try_shrink`
//! must yield identical survivor membership at every survivor.

use bytes::Bytes;
use cmpi_cluster::{DeploymentScenario, FaultPlan, MidRunTrigger, NamespaceSharing};
use cmpi_core::{JobSpec, MpiError, ReduceOp};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every doomed rank dies at its first call; every survivor (a) sees
    /// `ProcessFailed` naming each dead rank and *only* dead ranks — live
    /// pairs still talk — then (b) shrinks to the same membership as
    /// every other survivor, and (c) the shrunk communicator's
    /// collectives work.
    #[test]
    fn survivors_converge_on_exactly_the_dead_set(
        hosts in 1u32..=2,
        cph in 1u32..=2,
        rpc in 1u32..=3,
        death_bits in any::<u16>(),
        kind_bits in any::<u16>(),
    ) {
        // At least two ranks, so there is always someone to kill or talk to.
        let rpc = if hosts * cph * rpc < 2 { 2 } else { rpc };
        let n = (hosts * cph * rpc) as usize;
        let mut doomed: Vec<usize> = (0..n).filter(|i| death_bits & (1 << i) != 0).collect();
        if doomed.len() == n {
            doomed.remove(0); // at least one survivor
        }
        let mut plan = FaultPlan::none();
        for &d in &doomed {
            // Mix the two lease-detected fault classes: a crash tears the
            // transport down, a hang leaves it attached — conviction must
            // come out identical either way.
            plan = if kind_bits & (1 << d) != 0 {
                plan.with_crash(d, MidRunTrigger::AfterOps(1))
            } else {
                plan.with_hang(d, MidRunTrigger::AfterOps(1))
            };
        }
        let survivors: Vec<usize> = (0..n).filter(|r| !doomed.contains(r)).collect();

        let scenario = DeploymentScenario::containers(hosts, cph, rpc, NamespaceSharing::default());
        let spec = JobSpec::new(scenario).with_faults(plan);
        let doomed_c = doomed.clone();
        let survivors_c = survivors.clone();
        let r = spec.run(move |mpi| -> Result<(Vec<usize>, u64), MpiError> {
            let world = mpi.comm_world();
            let me = mpi.rank();
            if doomed_c.contains(&me) {
                // First call boundary: the scripted fate fires.
                let e = mpi
                    .try_barrier_comm(&world)
                    .expect_err("scripted death did not fire");
                return Err(e);
            }
            // (a) Convergence: a blocking receive from each doomed rank
            // completes in error naming exactly that rank.
            for &d in &doomed_c {
                match mpi.try_recv_bytes(d, 5) {
                    Err(MpiError::ProcessFailed { peer }) if peer == d => {}
                    other => panic!("conviction of {d} came out as {other:?}"),
                }
            }
            // No false convictions: live neighbours still exchange.
            let s = survivors_c.len();
            let k = survivors_c.iter().position(|&x| x == me).unwrap();
            if s > 1 {
                let nxt = survivors_c[(k + 1) % s];
                let prv = survivors_c[(k + s - 1) % s];
                let (got, st) =
                    mpi.try_sendrecv_bytes(Bytes::from(vec![me as u8]), nxt, 6, prv, 6)?;
                assert_eq!(got.as_ref(), &[prv as u8], "live pair corrupted");
                assert_eq!(st.src, prv);
            }
            // (b) + (c): shrink and prove the survivor communicator
            // works. No revoke first: nobody is blocked inside a
            // collective here, and revoking would turn a slower
            // survivor's pending conviction recv into `Revoked`.
            let comm = mpi.try_shrink(&world)?;
            let sum = mpi.try_allreduce_one(&comm, me as u64, ReduceOp::Sum)?;
            Ok((comm.ranks().to_vec(), sum))
        });

        let expected_sum: u64 = survivors.iter().map(|&r| r as u64).sum();
        for &d in &doomed {
            prop_assert_eq!(
                &r.results[d],
                &Err(MpiError::ProcessFailed { peer: d }),
                "doomed rank {} outcome", d
            );
        }
        for &sv in &survivors {
            let (ranks, sum) = r.results[sv].as_ref().expect("survivor errored");
            prop_assert_eq!(ranks, &survivors, "membership at survivor {}", sv);
            prop_assert_eq!(*sum, expected_sum);
        }
        // Exactly the dead set: every survivor convicted every doomed
        // rank, nobody convicted a live one.
        let rec = r.stats.recovery();
        prop_assert_eq!(rec.convictions, (survivors.len() * doomed.len()) as u64);
        if !doomed.is_empty() {
            prop_assert!(rec.shrinks >= survivors.len() as u64);
        }
    }
}

/// The plain API has one failure mode, whichever algorithm meets the
/// failure: a world collective that touches a convicted member ends the
/// rank under the collective's own name. The ring allgather has no entry
/// check — it is the wait on the dead neighbour that fails — so this is
/// the bracket's panic, not the point-to-point layer's.
#[test]
#[should_panic(expected = "allgather failed")]
fn plain_world_collective_on_a_convicted_member_panics_by_name() {
    let scenario = DeploymentScenario::containers(1, 1, 4, NamespaceSharing::default());
    let plan = FaultPlan::none().with_crash(3, MidRunTrigger::AfterOps(1));
    JobSpec::new(scenario).with_faults(plan).run(|mpi| {
        if mpi.rank() == 3 {
            // First call boundary: the scripted fate fires.
            let world = mpi.comm_world();
            let _ = mpi.try_barrier_comm(&world);
            return;
        }
        let convicted = mpi.try_recv_bytes(3, 5);
        assert_eq!(convicted, Err(MpiError::ProcessFailed { peer: 3 }));
        mpi.allgather(&[mpi.rank() as u64]);
    });
}

/// A plain `test` spin on a request whose peer was convicted takes the
/// plain API's failure mode like `wait` does, instead of polling `None`
/// for ever: the spinning rank stays runnable, so not even the quiescence
/// detector would end it.
#[test]
#[should_panic(expected = "test failed")]
fn plain_test_spin_on_a_convicted_peer_panics_by_name() {
    let scenario = DeploymentScenario::containers(1, 1, 2, NamespaceSharing::default());
    let plan = FaultPlan::none().with_crash(1, MidRunTrigger::AfterOps(1));
    JobSpec::new(scenario).with_faults(plan).run(|mpi| {
        if mpi.rank() == 1 {
            // First call boundary: the scripted fate fires.
            let world = mpi.comm_world();
            let _ = mpi.try_barrier_comm(&world);
            return;
        }
        let req = mpi.irecv_bytes(1, 5);
        while mpi.test(&req).is_none() {}
    });
}
