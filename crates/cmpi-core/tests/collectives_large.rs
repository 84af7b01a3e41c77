//! Large-message collective algorithms: correctness vs the default
//! algorithms, and the bandwidth advantage that justifies the switch.
//!
//! The algorithm is pinned the way a user pins it — `MV2_COLL_LARGE_MSG`
//! through the selector — and every job asserts from the selection ledger
//! that the intended algorithm is the one that ran.

use cmpi_cluster::{DeploymentScenario, NamespaceSharing, Tunables};
use cmpi_core::{CollAlgo, CollKind, JobSpec, ReduceOp};

/// Every message is "large".
const ALWAYS: usize = 1;
/// No message is.
const NEVER: usize = usize::MAX;

/// `n` ranks in two containers on one host (one locality group, so never
/// two-level) with the large-message switchover at `large_msg` bytes.
fn spec(n: u32, large_msg: usize) -> JobSpec {
    JobSpec::new(DeploymentScenario::containers(
        1,
        2,
        n / 2,
        NamespaceSharing::default(),
    ))
    .with_tunables(Tunables::default().with_coll_large_msg(large_msg))
}

/// The algorithm `large_msg` is meant to pin.
fn pinned(large_msg: usize) -> CollAlgo {
    if large_msg == NEVER {
        CollAlgo::Flat
    } else {
        CollAlgo::Large
    }
}

#[test]
fn rabenseifner_matches_recursive_doubling() {
    for n in [2u32, 4, 8] {
        for len in [1usize, 7, 64, 1000, 4096] {
            let run = |large_msg: usize| {
                let r = spec(n, large_msg).run(move |mpi| {
                    let mine: Vec<u64> = (0..len)
                        .map(|i| (mpi.rank() as u64 + 1) * (i as u64 + 1))
                        .collect();
                    mpi.allreduce(&mine, ReduceOp::Sum)
                });
                let picked = r
                    .stats
                    .coll_selections(CollKind::Allreduce, pinned(large_msg));
                assert_eq!(picked, n as u64, "n {n} len {len}");
                r.results
            };
            assert_eq!(run(ALWAYS), run(NEVER), "n {n} len {len}");
        }
    }
}

#[test]
fn rabenseifner_with_min_and_floats() {
    let run = |large_msg: usize| {
        let r = spec(8, large_msg).run(|mpi| {
            let mine: Vec<f64> = (0..500)
                .map(|i| (mpi.rank() * 7 + i) as f64 * 0.25)
                .collect();
            mpi.allreduce(&mine, ReduceOp::Min)
        });
        let picked = r
            .stats
            .coll_selections(CollKind::Allreduce, pinned(large_msg));
        assert_eq!(picked, 8);
        r.results
    };
    assert_eq!(run(ALWAYS), run(NEVER));
}

#[test]
fn scatter_allgather_bcast_matches_binomial() {
    for n in [2u32, 4, 6, 8] {
        for len in [1usize, 10, 257, 5000] {
            let r = spec(n, ALWAYS).run(move |mpi| {
                let root = (mpi.size() - 1).min(2);
                let reference: Vec<u32> = (0..len).map(|i| i as u32 * 3 + 1).collect();
                let mut a = if mpi.rank() == root {
                    reference.clone()
                } else {
                    vec![0; len]
                };
                mpi.bcast(&mut a, root);
                a == reference
            });
            assert!(r.results.iter().all(|&ok| ok), "n {n} len {len}");
            let picked = r.stats.coll_selections(CollKind::Bcast, CollAlgo::Large);
            assert_eq!(picked, n as u64, "n {n} len {len}");
        }
    }
}

#[test]
fn rabenseifner_faster_for_large_vectors() {
    // The large algorithm wins virtual time for big vectors on containers.
    let time_with = |large_msg: usize| {
        let r = spec(8, large_msg).run(move |mpi| {
            let mine = vec![mpi.rank() as u64; 64 * 1024 / 8]; // 64 KiB
            let t0 = mpi.now();
            for _ in 0..3 {
                mpi.allreduce(&mine, ReduceOp::Sum);
            }
            mpi.now() - t0
        });
        let picked = r
            .stats
            .coll_selections(CollKind::Allreduce, pinned(large_msg));
        assert_eq!(picked, 3 * 8);
        r.elapsed
    };
    let large = time_with(ALWAYS);
    let flat = time_with(NEVER);
    assert!(
        large < flat,
        "Rabenseifner ({large}) must beat recursive doubling ({flat}) at 64 KiB"
    );
}

#[test]
fn scatter_allgather_faster_for_large_messages() {
    let time_with = |large_msg: usize| {
        let r = spec(8, large_msg).run(move |mpi| {
            let mut buf = vec![7u8; 256 * 1024];
            let t0 = mpi.now();
            mpi.bcast(&mut buf, 0);
            mpi.now() - t0
        });
        let picked = r.stats.coll_selections(CollKind::Bcast, pinned(large_msg));
        assert_eq!(picked, 8);
        r.elapsed
    };
    // 256 KiB is where the stock `MV2_COLL_LARGE_MSG` switches over.
    let large = time_with(Tunables::default().coll_large_msg);
    let flat = time_with(NEVER);
    assert!(
        large < flat,
        "scatter-allgather ({large}) must beat binomial ({flat}) at 256 KiB"
    );
}
