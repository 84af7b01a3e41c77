//! Communicator integration tests: `comm_world()` and its fault-tolerant
//! collectives on a healthy job. (Shrunk communicators are exercised by
//! the mid-run failure tests.)

use cmpi_cluster::{DeploymentScenario, NamespaceSharing, Tunables};
use cmpi_core::{CollAlgo, CollKind, JobSpec, ReduceOp};

/// 2 hosts × 2 containers × 2 ranks with the two-level family switched
/// off, so the world's selector picks flat — the schedule a
/// communicator's scope, which carries no topology, always runs.
fn flat8() -> JobSpec {
    JobSpec::new(DeploymentScenario::containers(
        2,
        2,
        2,
        NamespaceSharing::default(),
    ))
    .with_tunables(Tunables::default().with_smp_coll_enable(false))
}

#[test]
fn comm_world_is_every_rank_in_rank_order() {
    let r = flat8().run(|mpi| {
        let world = mpi.comm_world();
        (world.ranks().to_vec(), world.comm_rank_of(mpi.rank()))
    });
    for (rank, (ranks, me)) in r.results.iter().enumerate() {
        assert_eq!(ranks, &(0..8).collect::<Vec<_>>(), "rank {rank}");
        assert_eq!(*me, Some(rank));
    }
}

/// The world's barrier and allreduce, once through their plain entries
/// and once through `try_X_comm` on `comm_world()`: on a healthy job
/// whose selector picks flat the two are one call path (`ft` changes the
/// bracket's entry only), so results and every rank's virtual clock must
/// agree, and both land on the selection ledger as flat.
#[test]
fn ft_entries_change_nothing_on_a_healthy_job() {
    let run = |ft: bool| {
        flat8().run(move |mpi| {
            let world = mpi.comm_world();
            let mine = [mpi.rank() as u64 + 1];
            let sum = if ft {
                mpi.try_barrier_comm(&world).unwrap();
                mpi.try_allreduce_comm(&world, &mine, ReduceOp::Sum)
                    .unwrap()
            } else {
                mpi.barrier();
                mpi.allreduce(&mine, ReduceOp::Sum)
            };
            (sum, mpi.now())
        })
    };
    let (plain, ft) = (run(false), run(true));
    assert_eq!(plain.results, ft.results, "plain and try_X_comm diverge");
    assert!(plain.results.iter().all(|(sum, _)| sum == &[36]));
    for r in [&plain, &ft] {
        assert_eq!(
            r.stats.coll_selections(CollKind::Barrier, CollAlgo::Flat),
            8
        );
        assert_eq!(
            r.stats.coll_selections(CollKind::Allreduce, CollAlgo::Flat),
            8
        );
    }
}
