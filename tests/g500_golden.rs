//! Virtual-time golden for the paper's application: the bit-drift gate
//! that lets host-side work on Graph 500 (the edge kernel, the pair
//! codec, the CSR assembly, the BFS buckets) prove it moved neither the
//! graph nor the reproduction.
//!
//! Every job runs `bfs::run_rank` as fibers on one worker, so its
//! schedule — wildcard receives included — repeats exactly, and with it
//! every virtual time and count. The placements are the benchmark's
//! `graph500_s14` one (`fig1(4)`: 16 ranks in 4 co-resident containers)
//! at scale 10 and 12, and 12 ranks in 4 containers, where neither the
//! vertex nor the edge count divides by the rank count (uneven
//! `Partition` tail, padded validation gather), each under the container
//! detector and under hostname routing.
//!
//! The constants were recorded at the commit *before* the application's
//! host path was rebuilt (PR 18's parent) and must only ever change in a
//! PR that means to change the generated graph, a message or the cost
//! model. On a mismatch the assertion prints the observed row in the
//! syntax of the table.

use container_mpi::apps::graph500::{bfs, Graph500Config};
use container_mpi::prelude::*;
use LocalityPolicy::{ContainerDetector, Hostname};

const ROOTS: usize = 3;

/// What one job must reproduce bit for bit.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `JobResult::elapsed` in virtual nanoseconds.
    elapsed_ns: u64,
    /// Per root, the slowest rank's BFS time in virtual nanoseconds.
    bfs_ns: [u64; ROOTS],
    /// FNV-1a over every rank's per-root BFS times, rank order.
    bfs_fnv: u64,
    /// Per root, edges traversed by all ranks together.
    traversed: [u64; ROOTS],
    /// Transfer operations on [SHM, CMA, HCA].
    ops: [u64; 3],
    /// Bytes moved on [SHM, CMA, HCA].
    bytes: [u64; 3],
    /// Every rank reported every tree as validated.
    validated: bool,
}

fn observe(scn: DeploymentScenario, policy: LocalityPolicy, scale: u32) -> Golden {
    let cfg = Graph500Config {
        scale,
        edgefactor: 16,
        num_roots: ROOTS,
        validate: true,
        ..Graph500Config::default()
    };
    let res = JobSpec::new(scn)
        .with_policy(policy)
        .with_exec(ExecMode::Tasks)
        .with_workers(1)
        .run(move |mpi| bfs::run_rank(mpi, &cfg));
    let channels = [Channel::Shm, Channel::Cma, Channel::Hca];
    let ranks = &res.results;
    Golden {
        elapsed_ns: res.elapsed.as_ns(),
        bfs_ns: std::array::from_fn(|k| {
            let slowest = ranks.iter().map(|o| o.bfs_times[k].as_ns()).max();
            slowest.expect("a job has ranks")
        }),
        bfs_fnv: ranks
            .iter()
            .flat_map(|o| &o.bfs_times)
            .flat_map(|t| t.as_ns().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            }),
        traversed: std::array::from_fn(|k| ranks.iter().map(|o| o.traversed_edges[k]).sum()),
        ops: channels.map(|c| res.stats.channel_ops(c)),
        bytes: channels.map(|c| res.stats.channel_bytes(c)),
        validated: ranks.iter().all(|o| o.validated),
    }
}

/// 12 ranks: 3 in each of 4 co-resident containers.
fn twelve() -> DeploymentScenario {
    DeploymentScenario::containers(1, 4, 3, NamespaceSharing::default())
}

const DETECTOR_16_S10: Golden = Golden {
    elapsed_ns: 344_299,
    bfs_ns: [95_038, 91_829, 92_039],
    bfs_fnv: 4_758_983_761_814_412_858,
    traversed: [28_072, 28_072, 28_072],
    ops: [2_562, 60, 0],
    bytes: [1_322_568, 499_200, 0],
    validated: true,
};
const HOSTNAME_16_S10: Golden = Golden {
    elapsed_ns: 678_731,
    bfs_ns: [163_949, 157_307, 160_613],
    bfs_fnv: 18_240_546_164_631_883_348,
    traversed: [28_072, 28_072, 28_072],
    ops: [702, 12, 1_908],
    bytes: [239_296, 99_840, 1_482_632],
    validated: true,
};
const DETECTOR_16_S12: Golden = Golden {
    elapsed_ns: 1_437_085,
    bfs_ns: [379_791, 399_025, 399_165],
    bfs_fnv: 2_405_392_736_520_537_744,
    traversed: [117_376, 117_376, 117_376],
    ops: [2_502, 636, 0],
    bytes: [1_365_816, 6_006_304, 0],
    validated: true,
};
const HOSTNAME_16_S12: Golden = Golden {
    elapsed_ns: 2_381_387,
    bfs_ns: [520_132, 546_927, 546_297],
    bfs_fnv: 2_486_485_251_691_642_561,
    traversed: [117_376, 117_376, 117_376],
    ops: [687, 159, 2_292],
    bytes: [340_096, 1_458_368, 5_573_656],
    validated: true,
};
const DETECTOR_12_S10: Golden = Golden {
    elapsed_ns: 340_408,
    bfs_ns: [93_157, 89_715, 89_645],
    bfs_fnv: 12_418_392_751_027_924_002,
    traversed: [28_072, 28_072, 28_072],
    ops: [1_390, 98, 0],
    bytes: [959_784, 815_728, 0],
    validated: true,
};
const HOSTNAME_12_S10: Golden = Golden {
    elapsed_ns: 675_531,
    bfs_ns: [165_140, 152_964, 152_964],
    bfs_fnv: 12_206_793_225_633_775_428,
    traversed: [28_072, 28_072, 28_072],
    ops: [324, 24, 1_140],
    bytes: [223_288, 199_680, 1_352_544],
    validated: true,
};

#[test]
fn sixteen_ranks_scale_10_under_the_container_detector() {
    let got = observe(DeploymentScenario::fig1(4), ContainerDetector, 10);
    assert_eq!(got, DETECTOR_16_S10);
}

#[test]
fn sixteen_ranks_scale_10_under_hostname_routing() {
    let got = observe(DeploymentScenario::fig1(4), Hostname, 10);
    assert_eq!(got, HOSTNAME_16_S10);
}

#[test]
fn sixteen_ranks_scale_12_under_the_container_detector() {
    let got = observe(DeploymentScenario::fig1(4), ContainerDetector, 12);
    assert_eq!(got, DETECTOR_16_S12);
}

#[test]
fn sixteen_ranks_scale_12_under_hostname_routing() {
    let got = observe(DeploymentScenario::fig1(4), Hostname, 12);
    assert_eq!(got, HOSTNAME_16_S12);
}

#[test]
fn twelve_ranks_under_the_container_detector() {
    assert_eq!(observe(twelve(), ContainerDetector, 10), DETECTOR_12_S10);
}

#[test]
fn twelve_ranks_under_hostname_routing() {
    assert_eq!(observe(twelve(), Hostname, 10), HOSTNAME_12_S10);
}
