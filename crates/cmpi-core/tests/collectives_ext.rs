//! Extended-collective correctness: scans, reduce-scatter and the
//! variable-size gather family against sequential references.

use bytes::Bytes;
use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
use cmpi_core::{JobSpec, ReduceOp};

fn spec(n: u32) -> JobSpec {
    JobSpec::new(DeploymentScenario::containers(
        1,
        1,
        n,
        NamespaceSharing::default(),
    ))
}

#[test]
fn scan_matches_prefix_sums() {
    for n in [1u32, 2, 5, 8, 13] {
        let r = spec(n).run(|mpi| {
            let mine = vec![mpi.rank() as u64 + 1, (mpi.rank() as u64 + 1) * 10];
            mpi.scan(&mine, ReduceOp::Sum)
        });
        for rank in 0..n as usize {
            let prefix: u64 = (0..=rank).map(|r| r as u64 + 1).sum();
            assert_eq!(
                r.results[rank],
                vec![prefix, prefix * 10],
                "n {n} rank {rank}"
            );
        }
    }
}

#[test]
fn scan_with_max_operator() {
    let r = spec(6).run(|mpi| {
        // Values dip in the middle: max-prefix must be monotone.
        let vals = [3i64, 7, 2, 5, 9, 1];
        mpi.scan(&[vals[mpi.rank()]], ReduceOp::Max)[0]
    });
    assert_eq!(r.results, vec![3, 7, 7, 7, 9, 9]);
}

#[test]
fn exscan_matches_exclusive_prefix() {
    let r = spec(8).run(|mpi| {
        let mine = vec![mpi.rank() as u64 + 1];
        mpi.exscan(&mine, ReduceOp::Sum)
    });
    assert!(r.results[0].is_none(), "rank 0 exscan is undefined");
    for rank in 1..8usize {
        let prefix: u64 = (0..rank).map(|r| r as u64 + 1).sum();
        assert_eq!(
            r.results[rank].as_ref().unwrap(),
            &vec![prefix],
            "rank {rank}"
        );
    }
}

#[test]
fn reduce_scatter_block_distributes_the_reduction() {
    for n in [2u32, 4, 7] {
        let r = spec(n).run(|mpi| {
            let nn = mpi.size();
            // data[d] = rank + d so the reduction is easy to predict.
            let data: Vec<u64> = (0..nn * 2)
                .map(|i| mpi.rank() as u64 * 100 + i as u64)
                .collect();
            mpi.reduce_scatter_block(&data, 2, ReduceOp::Sum)
        });
        let ranks_sum: u64 = (0..n as u64).map(|r| r * 100).sum();
        for rank in 0..n as usize {
            let expect: Vec<u64> = (0..2)
                .map(|j| ranks_sum + (rank * 2 + j) as u64 * n as u64)
                .collect();
            assert_eq!(r.results[rank], expect, "n {n} rank {rank}");
        }
    }
}

#[test]
fn gatherv_collects_ragged_payloads() {
    let r = spec(5).run(|mpi| {
        let data = Bytes::from(vec![mpi.rank() as u8; mpi.rank() + 1]);
        mpi.gatherv_bytes(data, 2)
    });
    let all = r.results[2].as_ref().unwrap();
    for (rank, b) in all.iter().enumerate() {
        assert_eq!(b.len(), rank + 1);
        assert!(b.iter().all(|&x| x == rank as u8));
    }
    assert!(r.results[0].is_none());
}

#[test]
fn allgatherv_delivers_everywhere() {
    let r = spec(6).run(|mpi| {
        let data = Bytes::from(vec![0xA0 + mpi.rank() as u8; 3 * mpi.rank() + 1]);
        mpi.allgatherv_bytes(data)
    });
    for (rank, all) in r.results.iter().enumerate() {
        for (src, b) in all.iter().enumerate() {
            assert_eq!(b.len(), 3 * src + 1, "rank {rank} src {src}");
            assert!(b.iter().all(|&x| x == 0xA0 + src as u8));
        }
    }
}

#[test]
fn scans_are_float_stable_across_policies() {
    use cmpi_core::LocalityPolicy;
    let run = |policy| {
        JobSpec::new(DeploymentScenario::containers(
            1,
            2,
            4,
            NamespaceSharing::default(),
        ))
        .with_policy(policy)
        .run(|mpi| mpi.scan(&[0.5f64 * (mpi.rank() as f64 + 1.0)], ReduceOp::Sum)[0])
        .results
    };
    let a = run(LocalityPolicy::ContainerDetector);
    let b = run(LocalityPolicy::Hostname);
    assert_eq!(a, b, "scan results must not depend on routing");
}

#[test]
#[should_panic(expected = "out of range")]
fn gatherv_rejects_a_root_past_the_world() {
    spec(4).run(|mpi| mpi.gatherv_bytes(Bytes::from_static(b"x"), 5));
}
