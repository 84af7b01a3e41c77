//! Communicator (comm_split) integration tests.

use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
use cmpi_core::{CollAlgo, CollKind, JobSpec, ReduceOp};

fn spec8() -> JobSpec {
    JobSpec::new(DeploymentScenario::containers(
        2,
        2,
        2,
        NamespaceSharing::default(),
    ))
}

#[test]
fn split_by_parity_groups_correctly() {
    let r = spec8().run(|mpi| {
        let world = mpi.comm_world();
        let comm = mpi.comm_split(&world, (mpi.rank() % 2) as u64, mpi.rank() as u64);
        (comm.ranks().to_vec(), comm.ctx())
    });
    for rank in 0..8 {
        let (ranks, _) = &r.results[rank];
        let expect: Vec<usize> = (0..8).filter(|r| r % 2 == rank % 2).collect();
        assert_eq!(ranks, &expect, "rank {rank}");
    }
    // Both new communicators share the agreed context id (disjoint
    // membership makes that safe) and members agree within a group.
    let (_, ctx0) = &r.results[0];
    let (_, ctx1) = &r.results[1];
    assert_eq!(r.results[2].1, *ctx0);
    assert_eq!(r.results[3].1, *ctx1);
}

#[test]
fn key_controls_ordering_within_group() {
    let r = spec8().run(|mpi| {
        let world = mpi.comm_world();
        // Reverse order by key.
        let comm = mpi.comm_split(&world, 0, (100 - mpi.rank()) as u64);
        comm.comm_rank_of(mpi.rank()).unwrap()
    });
    // World rank 7 has the smallest key, so it becomes comm rank 0.
    for rank in 0..8 {
        assert_eq!(r.results[rank], 7 - rank);
    }
}

/// Run `body` once through the plain entries (`X_comm`) and once through
/// the fault-tolerant ones (`try_X_comm`; `body` gets `true`): on a
/// healthy job the two are one call path, so results and every rank's
/// virtual clock must agree.
fn both_entries<R: PartialEq + std::fmt::Debug + Send>(
    body: impl Fn(&mut cmpi_core::Mpi, bool) -> R + Send + Sync,
) -> Vec<R> {
    let run = |ft: bool| spec8().run(|mpi| (body(mpi, ft), mpi.now())).results;
    let (plain, ft) = (run(false), run(true));
    assert_eq!(plain, ft, "X_comm and try_X_comm diverge");
    plain.into_iter().map(|(out, _)| out).collect()
}

#[test]
fn collectives_stay_inside_their_communicator() {
    let results = both_entries(|mpi, ft| {
        let world = mpi.comm_world();
        let half = mpi.comm_split(&world, (mpi.rank() / 4) as u64, 0);
        // Concurrent allreduces on the two disjoint halves.
        let mine = [mpi.rank() as u64];
        let sum = if ft {
            mpi.try_allreduce_comm(&half, &mine, ReduceOp::Sum).unwrap()[0]
        } else {
            mpi.allreduce_comm(&half, &mine, ReduceOp::Sum)[0]
        };
        // Concurrent barriers and bcasts too.
        let mut buf = if half.comm_rank_of(mpi.rank()) == Some(0) {
            vec![mpi.rank() as u64]
        } else {
            vec![0u64]
        };
        if ft {
            mpi.try_barrier_comm(&half).unwrap();
            mpi.try_bcast_comm(&half, &mut buf, 0).unwrap();
        } else {
            mpi.barrier_comm(&half);
            mpi.bcast_comm(&half, &mut buf, 0);
        }
        (sum, buf[0])
    });
    for (rank, &(sum, leader)) in results.iter().enumerate() {
        if rank < 4 {
            assert_eq!(sum, 1 + 2 + 3, "rank {rank}");
            assert_eq!(leader, 0);
        } else {
            assert_eq!(sum, 4 + 5 + 6 + 7, "rank {rank}");
            assert_eq!(leader, 4);
        }
    }
}

#[test]
fn reduce_and_allgather_over_comm() {
    let results = both_entries(|mpi, ft| {
        let world = mpi.comm_world();
        let comm = mpi.comm_split(&world, (mpi.rank() % 2) as u64, mpi.rank() as u64);
        let (max, tens) = ([mpi.rank() as u64], [mpi.rank() as u32 * 10]);
        if ft {
            let red = mpi.try_reduce_comm(&comm, &max, ReduceOp::Max, 1).unwrap();
            (red, mpi.try_allgather_comm(&comm, &tens).unwrap())
        } else {
            let red = mpi.reduce_comm(&comm, &max, ReduceOp::Max, 1);
            (red, mpi.allgather_comm(&comm, &tens))
        }
    });
    // Odd group = {1,3,5,7}: root comm-rank 1 = world rank 3.
    assert_eq!(results[3].0.as_ref().unwrap(), &vec![7u64]);
    assert!(results[1].0.is_none());
    assert_eq!(results[1].1, vec![10, 30, 50, 70]);
    assert_eq!(results[0].1, vec![0, 20, 40, 60]);
}

#[test]
fn nested_splits_allocate_distinct_contexts() {
    let r = spec8().run(|mpi| {
        let world = mpi.comm_world();
        let a = mpi.comm_split(&world, (mpi.rank() % 2) as u64, 0);
        let b = mpi.comm_split(&a, (mpi.rank() / 4) as u64, 0);
        let c = mpi.comm_split(&world, 0, 0);
        assert_ne!(a.ctx(), b.ctx());
        assert_ne!(a.ctx(), c.ctx());
        assert_ne!(b.ctx(), c.ctx());
        // Use all three at once.
        let sa = mpi.allreduce_comm(&a, &[1u64], ReduceOp::Sum)[0];
        let sb = mpi.allreduce_comm(&b, &[1u64], ReduceOp::Sum)[0];
        let sc = mpi.allreduce_comm(&c, &[1u64], ReduceOp::Sum)[0];
        (sa, sb, sc)
    });
    for rank in 0..8 {
        let (sa, sb, sc) = r.results[rank];
        assert_eq!(sa, 4);
        assert_eq!(sb, 2);
        assert_eq!(sc, 8);
    }
    // Communicator collectives are on the selection ledger like the
    // world's: three allreduces at each of the eight ranks, all flat.
    let flat = r.stats.coll_selections(CollKind::Allreduce, CollAlgo::Flat);
    assert_eq!(flat, 3 * 8);
}

#[test]
fn singleton_communicators_work() {
    let r = spec8().run(|mpi| {
        let world = mpi.comm_world();
        let solo = mpi.comm_split(&world, mpi.rank() as u64, 0);
        assert_eq!(solo.size(), 1);
        mpi.barrier_comm(&solo);
        mpi.allreduce_comm(&solo, &[mpi.rank() as u64], ReduceOp::Sum)[0]
    });
    for rank in 0..8 {
        assert_eq!(r.results[rank], rank as u64);
    }
}

/// A rooted communicator collective with communicator-rank 5 of a
/// four-member parity half: a usage error on both entries, never an
/// `MpiError`.
fn with_root_past_a_half(body: impl Fn(&mut cmpi_core::Mpi, &cmpi_core::Comm) + Send + Sync) {
    spec8().run(|mpi| {
        let world = mpi.comm_world();
        let half = mpi.comm_split(&world, (mpi.rank() % 2) as u64, 0);
        body(mpi, &half);
    });
}

#[test]
#[should_panic(expected = "bcast: root 5 out of range for 4 members")]
fn bcast_comm_rejects_a_root_past_the_communicator() {
    with_root_past_a_half(|mpi, half| mpi.bcast_comm(half, &mut [0u64], 5));
}

#[test]
#[should_panic(expected = "out of range")]
fn try_bcast_comm_rejects_a_root_past_the_communicator() {
    with_root_past_a_half(|mpi, half| {
        let _ = mpi.try_bcast_comm(half, &mut [0u64], 5);
    });
}

#[test]
#[should_panic(expected = "reduce: root 5 out of range for 4 members")]
fn reduce_comm_rejects_a_root_past_the_communicator() {
    with_root_past_a_half(|mpi, half| {
        mpi.reduce_comm(half, &[1u64], ReduceOp::Sum, 5);
    });
}

#[test]
#[should_panic(expected = "out of range")]
fn try_reduce_comm_rejects_a_root_past_the_communicator() {
    with_root_past_a_half(|mpi, half| {
        let _ = mpi.try_reduce_comm(half, &[1u64], ReduceOp::Sum, 5);
    });
}
