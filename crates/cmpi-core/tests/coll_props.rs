//! Property tests for the collective layer: every public collective must
//! match a naive sequential reference for random topologies (including
//! non-power-of-two rank counts), random block sizes (including zero),
//! and every locality policy — and the two-level paths the detector
//! selects must be bit-identical to the flat paths.

use cmpi_cluster::{DeploymentScenario, NamespaceSharing, Tunables};
use cmpi_core::{JobSpec, LocalityPolicy, ReduceOp};
use proptest::prelude::*;

/// Deterministic per-rank payload element.
fn elem(rank: usize, i: usize) -> u64 {
    (rank as u64) * 31 + (i as u64) * 7 + 1
}

/// What every rank observed from one full sweep of the collectives.
type Observed = (
    Vec<u64>,         // bcast
    Option<Vec<u64>>, // reduce
    Vec<u64>,         // allreduce
    Option<Vec<u64>>, // gather
    Vec<u64>,         // allgather
    Vec<u64>,         // alltoall
);

fn sweep(spec: JobSpec, n: usize, block: usize, root: usize) -> Vec<Observed> {
    spec.run(move |mpi| {
        let rank = mpi.rank();
        let mine: Vec<u64> = (0..block).map(|i| elem(rank, i)).collect();
        let mut bc = if rank == root {
            mine.clone()
        } else {
            vec![0u64; block]
        };
        mpi.bcast(&mut bc, root);
        let red = mpi.reduce(&mine, ReduceOp::Sum, root);
        let all = mpi.allreduce(&mine, ReduceOp::Max);
        let gat = mpi.gather(&mine, root);
        let ag = mpi.allgather(&mine);
        let a2a_in: Vec<u64> = (0..n * block).map(|j| elem(rank, j)).collect();
        let a2a = mpi.alltoall(&a2a_in, block);
        (bc, red, all, gat, ag, a2a)
    })
    .results
}

fn check(results: &[Observed], n: usize, block: usize, root: usize, label: &str) {
    let concat: Vec<u64> = (0..n)
        .flat_map(|r| (0..block).map(move |i| elem(r, i)))
        .collect();
    let sums: Vec<u64> = (0..block)
        .map(|i| (0..n).map(|r| elem(r, i)).sum())
        .collect();
    let maxes: Vec<u64> = (0..block)
        .map(|i| (0..n).map(|r| elem(r, i)).max().unwrap())
        .collect();
    let root_vec: Vec<u64> = (0..block).map(|i| elem(root, i)).collect();
    for (rank, (bc, red, all, gat, ag, a2a)) in results.iter().enumerate() {
        assert_eq!(bc, &root_vec, "{label}: bcast rank {rank}");
        assert_eq!(red.is_some(), rank == root, "{label}: reduce root {rank}");
        if let Some(v) = red {
            assert_eq!(v, &sums, "{label}: reduce rank {rank}");
        }
        assert_eq!(all, &maxes, "{label}: allreduce rank {rank}");
        assert_eq!(gat.is_some(), rank == root, "{label}: gather root {rank}");
        if let Some(v) = gat {
            assert_eq!(v, &concat, "{label}: gather rank {rank}");
        }
        assert_eq!(ag, &concat, "{label}: allgather rank {rank}");
        let a2a_expect: Vec<u64> = (0..n * block)
            .map(|j| elem(j / block, rank * block + j % block))
            .collect();
        assert_eq!(a2a, &a2a_expect, "{label}: alltoall rank {rank}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random topology (hosts x containers x ranks-per-container, rank
    /// counts including non-powers-of-two), random block size (including
    /// zero), random root: every collective matches the sequential
    /// reference under both policies, and the two-level schedules the
    /// detector selects are bit-identical to the forced-flat baseline.
    #[test]
    fn collectives_match_references_under_all_policies(
        hosts in 1u32..=3,
        cph in 1u32..=2,
        rpc in 1u32..=3,
        block in 0usize..=4,
        root_sel in 0usize..64,
    ) {
        let n = (hosts * cph * rpc) as usize;
        let root = root_sel % n;
        let scenario = || DeploymentScenario::containers(
            hosts,
            cph,
            rpc,
            NamespaceSharing::default(),
        );
        let label = format!("{hosts}x{cph}x{rpc} block {block} root {root}");

        let def = sweep(
            JobSpec::new(scenario()).with_policy(LocalityPolicy::Hostname),
            n, block, root,
        );
        check(&def, n, block, root, &format!("{label} def"));

        let opt = sweep(
            JobSpec::new(scenario()).with_policy(LocalityPolicy::ContainerDetector),
            n, block, root,
        );
        check(&opt, n, block, root, &format!("{label} opt"));

        // Forced-flat under the detector (MV2_USE_SMP_COLL=0): the
        // two-level algorithms must be bit-identical, not just close.
        let opt_flat = sweep(
            JobSpec::new(scenario())
                .with_policy(LocalityPolicy::ContainerDetector)
                .with_tunables(Tunables::default().with_smp_coll_enable(false)),
            n, block, root,
        );
        prop_assert_eq!(&opt, &opt_flat, "{} two-level vs flat", label);
    }
}
