//! Virtual-time golden for the collective layer: the bit-drift gate that
//! lets host-side work on the collectives (copy counts, codecs, frame
//! handling) prove it did not move the reproduction.
//!
//! Every job runs as fibers on one worker, so its schedule — hence every
//! virtual time and count — repeats exactly. Each job sweeps barrier,
//! bcast, reduce, allreduce, gather, allgather and alltoall over `u64`
//! vectors of 8 B, 4 KiB, 128 KiB and 256 KiB + 8 B (the odd length
//! pads Rabenseifner's and scatter–allgather's chunks)
//! with a non-leader root, on 16 ranks (2 hosts × 2 containers × 4) and
//! on 12 ranks (the non-power-of-two fallbacks), under the container
//! detector and under hostname routing. The per-peer collectives stop at
//! 128 KiB blocks: nothing pads there, and 16 × 16 blocks of 256 KiB on
//! every rank is memory a test should not need.
//!
//! A second sweep pins what the first does not reach: the world's
//! byte-payload alltoallv and the two communicator collectives
//! (`try_barrier_comm`, `try_allreduce_comm`) on `comm_world()`, in the
//! same four layouts.
//!
//! The constants were recorded by running these job bodies on the
//! library as it stood before the collectives they no longer call (scan,
//! scatter, the v-collectives, the split communicators) were deleted, so
//! they pin the schedule the remaining calls had then. They must only
//! ever change in a change that means to move an algorithm, a message or
//! the cost model. On a mismatch the assertion prints the observed row in
//! the syntax of the table.

use bytes::Bytes;
use cmpi_cluster::{Channel, DeploymentScenario, NamespaceSharing, SimTime};
use cmpi_core::{CollAlgo, CollKind, ExecMode, JobSpec, LocalityPolicy, Mpi, ReduceOp};

/// Vector lengths in `u64` elements: 8 B, 4 KiB, 128 KiB, 256 KiB + 8 B.
const LENS: [usize; 4] = [1, 512, 16 * 1024, 32 * 1024 + 1];
/// Per-peer block lengths for gather/scatter/allgather/alltoall.
const BLOCKS: [usize; 3] = [1, 512, 16 * 1024];
/// Rank 5 leads no locality group in either layout, so rooted two-level
/// collectives take their shuttle phases.
const ROOT: usize = 5;

fn val(rank: usize, i: usize) -> u64 {
    (rank as u64 + 1) * 1_000_003 + i as u64 * 7
}

/// Every collective at every size; `true` when every result matched its
/// closed form.
fn sweep(mpi: &mut Mpi) -> bool {
    let (n, r) = (mpi.size(), mpi.rank());
    let mut ok = true;
    mpi.barrier();
    for len in LENS {
        let mine: Vec<u64> = (0..len).map(|i| val(r, i)).collect();
        let mut buf = if r == ROOT {
            mine.clone()
        } else {
            vec![0; len]
        };
        mpi.bcast(&mut buf, ROOT);
        ok &= (0..len).all(|i| buf[i] == val(ROOT, i));
        let sum = |upto: usize, i: usize| (0..upto).map(|s| val(s, i)).sum::<u64>();
        let red = mpi.reduce(&mine, ReduceOp::Sum, ROOT);
        ok &= red.is_some() == (r == ROOT);
        ok &= red.is_none_or(|v| v.len() == len && (0..len).all(|i| v[i] == sum(n, i)));
        let all = mpi.allreduce(&mine, ReduceOp::Sum);
        ok &= all.len() == len && (0..len).all(|i| all[i] == sum(n, i));
        mpi.barrier();
    }
    for blk in BLOCKS {
        let mine: Vec<u64> = (0..blk).map(|i| val(r, i)).collect();
        let rank_ordered =
            |v: &[u64]| v.len() == n * blk && (0..n * blk).all(|j| v[j] == val(j / blk, j % blk));
        let gat = mpi.gather(&mine, ROOT);
        ok &= gat.is_some() == (r == ROOT);
        ok &= gat.is_none_or(|v| rank_ordered(&v));
        let all = mpi.allgather(&mine);
        ok &= rank_ordered(&all);
        // Block `d` of rank `s` holds val(s * n + d, ·).
        let out: Vec<u64> = (0..n * blk)
            .map(|j| val(r * n + j / blk, j % blk))
            .collect();
        let got = mpi.alltoall(&out, blk);
        ok &= got.len() == n * blk && (0..n * blk).all(|j| got[j] == val(j / blk * n + r, j % blk));
        mpi.barrier();
    }
    ok
}

fn sum_of(ranks: impl IntoIterator<Item = usize>, i: usize) -> u64 {
    ranks.into_iter().map(|s| val(s, i)).sum()
}

/// A ragged byte payload from rank `s` for slot `d`.
fn ragged(s: usize, d: usize, blk: usize) -> Bytes {
    Bytes::from(vec![(s * 7 + d) as u8; ((s + d) % 3 + 1) * blk])
}

/// The calls `sweep` does not reach; `true` when every result matched
/// its closed form.
fn sweep_comm(mpi: &mut Mpi) -> bool {
    let (n, r) = (mpi.size(), mpi.rank());
    let mut ok = true;
    for blk in BLOCKS {
        let got = mpi.alltoallv_bytes((0..n).map(|d| ragged(r, d, blk)).collect());
        ok &= got.len() == n && (0..n).all(|s| got[s] == ragged(s, r, blk));
    }
    let world = mpi.comm_world();
    ok &= mpi.try_barrier_comm(&world).is_ok();
    for len in LENS {
        let mine: Vec<u64> = (0..len).map(|i| val(r, i)).collect();
        let all = mpi.try_allreduce_comm(&world, &mine, ReduceOp::Sum);
        let all = all.unwrap_or_default();
        ok &= all.len() == len && (0..len).all(|i| all[i] == sum_of(0..n, i));
    }
    ok
}

/// What one job must reproduce bit for bit.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `JobResult::elapsed` in virtual nanoseconds.
    elapsed_ns: u64,
    /// FNV-1a over every rank's final virtual clock, rank order.
    clocks_fnv: u64,
    /// Transfer operations on [SHM, CMA, HCA].
    ops: [u64; 3],
    /// Bytes moved on [SHM, CMA, HCA].
    bytes: [u64; 3],
    /// `coll_selections`, one row per `CollKind::ALL` entry, columns
    /// [flat, two-level, large].
    selected: [[u64; 3]; 7],
}

fn fnv1a(times: &[SimTime]) -> u64 {
    times
        .iter()
        .flat_map(|t| t.as_ns().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn observe(ranks_per_container: u32, policy: LocalityPolicy) -> Golden {
    observe_with(ranks_per_container, policy, sweep)
}

fn observe_with(
    ranks_per_container: u32,
    policy: LocalityPolicy,
    job: fn(&mut Mpi) -> bool,
) -> Golden {
    let scn =
        DeploymentScenario::containers(2, 2, ranks_per_container, NamespaceSharing::default());
    let res = JobSpec::new(scn)
        .with_policy(policy)
        .with_exec(ExecMode::Tasks)
        .with_workers(1)
        .run(job);
    assert!(
        res.results.iter().all(|&ok| ok),
        "a collective returned a wrong value: {:?}",
        res.results
    );
    let channels = [Channel::Shm, Channel::Cma, Channel::Hca];
    Golden {
        elapsed_ns: res.elapsed.as_ns(),
        clocks_fnv: fnv1a(&res.times),
        ops: channels.map(|c| res.stats.channel_ops(c)),
        bytes: channels.map(|c| res.stats.channel_bytes(c)),
        selected: CollKind::ALL.map(|k| CollAlgo::ALL.map(|a| res.stats.coll_selections(k, a))),
    }
}

const DETECTOR_16: Golden = Golden {
    elapsed_ns: 5_624_884,
    clocks_fnv: 15_207_937_947_839_147_310,
    ops: [651, 639, 132],
    bytes: [771_536, 104_558_016, 29_613_448],
    selected: [
        [0, 128, 0],
        [16, 32, 16],
        [0, 64, 0],
        [16, 32, 16],
        [0, 48, 0],
        [0, 48, 0],
        [0, 48, 0],
    ],
};

const HOSTNAME_16: Golden = Golden {
    elapsed_ns: 4_098_064,
    clocks_fnv: 8_652_594_399_164_158_297,
    ops: [724, 543, 1_410],
    bytes: [1_149_312, 44_452_248, 52_296_264],
    selected: [
        [128, 0, 0],
        [48, 0, 16],
        [64, 0, 0],
        [48, 0, 16],
        [48, 0, 0],
        [48, 0, 0],
        [48, 0, 0],
    ],
};

const DETECTOR_12: Golden = Golden {
    elapsed_ns: 4_130_380,
    clocks_fnv: 2_021_814_814_749_288_283,
    ops: [427, 330, 81],
    bytes: [472_336, 60_500_112, 16_097_816],
    selected: [
        [0, 96, 0],
        [12, 24, 12],
        [0, 48, 0],
        [24, 24, 0],
        [0, 36, 0],
        [0, 36, 0],
        [0, 36, 0],
    ],
};

const HOSTNAME_12: Golden = Golden {
    elapsed_ns: 3_423_010,
    clocks_fnv: 92_381_511_783_049_099,
    ops: [369, 243, 905],
    bytes: [558_240, 23_994_792, 31_560_456],
    selected: [
        [96, 0, 0],
        [36, 0, 12],
        [48, 0, 0],
        [48, 0, 0],
        [36, 0, 0],
        [36, 0, 0],
        [36, 0, 0],
    ],
};

#[test]
fn sixteen_ranks_under_the_container_detector() {
    assert_eq!(observe(4, LocalityPolicy::ContainerDetector), DETECTOR_16);
}

#[test]
fn sixteen_ranks_under_hostname_routing() {
    assert_eq!(observe(4, LocalityPolicy::Hostname), HOSTNAME_16);
}

#[test]
fn twelve_ranks_under_the_container_detector() {
    assert_eq!(observe(3, LocalityPolicy::ContainerDetector), DETECTOR_12);
}

#[test]
fn twelve_ranks_under_hostname_routing() {
    assert_eq!(observe(3, LocalityPolicy::Hostname), HOSTNAME_12);
}

const COMM_DETECTOR_16: Golden = Golden {
    elapsed_ns: 303_805,
    clocks_fnv: 3_929_407_350_295_471_214,
    ops: [354, 208, 478],
    bytes: [312_930, 22_577_536, 10_649_086],
    selected: [
        [16, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
        [64, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
    ],
};

const COMM_HOSTNAME_16: Golden = Golden {
    elapsed_ns: 1_629_758,
    clocks_fnv: 13_644_827_827_537_688_715,
    ops: [180, 112, 748],
    bytes: [180_576, 14_156_032, 19_202_944],
    selected: [
        [16, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
        [64, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
    ],
};

const COMM_DETECTOR_12: Golden = Golden {
    elapsed_ns: 556_280,
    clocks_fnv: 8_503_064_875_427_034_580,
    ops: [182, 96, 254],
    bytes: [135_432, 9_044_112, 4_022_480],
    selected: [
        [12, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
        [48, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
    ],
};

const COMM_HOSTNAME_12: Golden = Golden {
    elapsed_ns: 1_041_611,
    clocks_fnv: 15_007_431_651_359_693_679,
    ops: [80, 44, 408],
    bytes: [65_664, 4_718_672, 8_417_688],
    selected: [
        [12, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
        [48, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
    ],
};

#[test]
fn alltoallv_and_comm_sixteen_ranks_under_the_container_detector() {
    let got = observe_with(4, LocalityPolicy::ContainerDetector, sweep_comm);
    assert_eq!(got, COMM_DETECTOR_16);
}

#[test]
fn alltoallv_and_comm_sixteen_ranks_under_hostname_routing() {
    let got = observe_with(4, LocalityPolicy::Hostname, sweep_comm);
    assert_eq!(got, COMM_HOSTNAME_16);
}

#[test]
fn alltoallv_and_comm_twelve_ranks_under_the_container_detector() {
    let got = observe_with(3, LocalityPolicy::ContainerDetector, sweep_comm);
    assert_eq!(got, COMM_DETECTOR_12);
}

#[test]
fn alltoallv_and_comm_twelve_ranks_under_hostname_routing() {
    let got = observe_with(3, LocalityPolicy::Hostname, sweep_comm);
    assert_eq!(got, COMM_HOSTNAME_12);
}
