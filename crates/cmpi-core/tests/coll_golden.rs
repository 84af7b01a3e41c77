//! Virtual-time golden for the collective layer: the bit-drift gate that
//! lets host-side work on the collectives (copy counts, codecs, frame
//! handling) prove it did not move the reproduction.
//!
//! Every job runs as fibers on one worker, so its schedule — hence every
//! virtual time and count — repeats exactly. Each job sweeps barrier,
//! bcast, reduce, allreduce, scan, gather, scatter, allgather and
//! alltoall over `u64` vectors of 8 B, 4 KiB, 128 KiB and 256 KiB + 8 B
//! (the odd length pads Rabenseifner's and scatter–allgather's chunks)
//! with a non-leader root, on 16 ranks (2 hosts × 2 containers × 4) and
//! on 12 ranks (the non-power-of-two fallbacks), under the container
//! detector and under hostname routing. The per-peer collectives stop at
//! 128 KiB blocks: nothing pads there, and 16 × 16 blocks of 256 KiB on
//! every rank is memory a test should not need.
//!
//! A second sweep pins what the first does not reach: the world's exscan,
//! reduce-scatter and byte-payload v-collectives, and the five
//! communicator collectives through both their entries (`X_comm` and
//! `try_X_comm`) on `comm_world()` and on a parity split, in the same four
//! layouts.
//!
//! The constants were recorded at the commit *before* the data path was
//! rebuilt (PR 17's parent; the second sweep's before the collective
//! scope was introduced) and must only ever change in a PR that means to
//! change an algorithm, a message or the cost model. On a mismatch the
//! assertion prints the observed row in the syntax of the table.

use bytes::Bytes;
use cmpi_cluster::{Channel, DeploymentScenario, NamespaceSharing, SimTime};
use cmpi_core::{CollAlgo, CollKind, Comm, ExecMode, JobSpec, LocalityPolicy, Mpi, ReduceOp};

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
        let pre = mpi.scan(&mine, ReduceOp::Sum);
        ok &= pre.len() == len && (0..len).all(|i| pre[i] == sum(r + 1, i));
        mpi.barrier();
    }
    for blk in BLOCKS {
        let mine: Vec<u64> = (0..blk).map(|i| val(r, i)).collect();
        let rank_ordered =
            |v: &[u64]| v.len() == n * blk && (0..n * blk).all(|j| v[j] == val(j / blk, j % blk));
        let gat = mpi.gather(&mine, ROOT);
        ok &= gat.is_some() == (r == ROOT);
        ok &= gat.is_none_or(|v| rank_ordered(&v));
        let src: Vec<u64> = if r == ROOT {
            (0..n * blk).map(|j| val(j / blk, j % blk)).collect()
        } else {
            Vec::new()
        };
        let part = mpi.scatter((r == ROOT).then_some(&src[..]), blk, ROOT);
        ok &= part == mine;
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

/// Root of the communicator collectives: a position in the communicator
/// (world rank 3 in `comm_world()`, 6 or 7 in the parity halves).
const COMM_ROOT: usize = 3;

fn sum_of(ranks: impl IntoIterator<Item = usize>, i: usize) -> u64 {
    ranks.into_iter().map(|s| val(s, i)).sum()
}

/// A ragged byte payload from rank `s` for slot `d`.
fn ragged(s: usize, d: usize, blk: usize) -> Bytes {
    Bytes::from(vec![(s * 7 + d) as u8; ((s + d) % 3 + 1) * blk])
}

/// The calls `sweep` does not reach; `true` when every result matched
/// its closed form.
fn sweep_ext(mpi: &mut Mpi) -> bool {
    let (n, r) = (mpi.size(), mpi.rank());
    let mut ok = true;
    for len in LENS {
        let mine: Vec<u64> = (0..len).map(|i| val(r, i)).collect();
        let ex = mpi.exscan(&mine, ReduceOp::Sum);
        ok &= ex.is_some() == (r > 0);
        ok &= ex.is_none_or(|v| v.len() == len && (0..len).all(|i| v[i] == sum_of(0..r, i)));
    }
    for blk in BLOCKS {
        let data: Vec<u64> = (0..n * blk).map(|j| val(r, j)).collect();
        let part = mpi.reduce_scatter_block(&data, blk, ReduceOp::Sum);
        ok &= part.len() == blk && (0..blk).all(|i| part[i] == sum_of(0..n, r * blk + i));
        let got = mpi.gatherv_bytes(ragged(r, 0, blk), ROOT);
        ok &= got.is_some() == (r == ROOT);
        ok &= got.is_none_or(|v| v.len() == n && (0..n).all(|s| v[s] == ragged(s, 0, blk)));
        let got = mpi.allgatherv_bytes(ragged(r, 1, blk));
        ok &= got.len() == n && (0..n).all(|s| got[s] == ragged(s, 1, blk));
        let got = mpi.alltoallv_bytes((0..n).map(|d| ragged(r, d, blk)).collect());
        ok &= got.len() == n && (0..n).all(|s| got[s] == ragged(s, r, blk));
    }
    let world = mpi.comm_world();
    let parity = mpi.comm_split(&world, (r % 2) as u64, r as u64);
    for comm in [&world, &parity] {
        for ft in [false, true] {
            ok &= comm_round(mpi, comm, ft);
        }
    }
    ok
}

/// The five communicator collectives on `comm`, through the `try_`
/// entries when `ft` is set.
fn comm_round(mpi: &mut Mpi, comm: &Comm, ft: bool) -> bool {
    let r = mpi.rank();
    let (members, root) = (comm.ranks().to_vec(), comm.world_rank(COMM_ROOT));
    let mut ok = true;
    if ft {
        ok &= mpi.try_barrier_comm(comm).is_ok();
    } else {
        mpi.barrier_comm(comm);
    }
    for len in LENS {
        let mine: Vec<u64> = (0..len).map(|i| val(r, i)).collect();
        let mut buf = if r == root {
            mine.clone()
        } else {
            vec![0; len]
        };
        let (red, all) = if ft {
            ok &= mpi.try_bcast_comm(comm, &mut buf, COMM_ROOT).is_ok();
            let red = mpi.try_reduce_comm(comm, &mine, ReduceOp::Sum, COMM_ROOT);
            let all = mpi.try_allreduce_comm(comm, &mine, ReduceOp::Sum);
            (red.unwrap_or_default(), all.unwrap_or_default())
        } else {
            mpi.bcast_comm(comm, &mut buf, COMM_ROOT);
            let red = mpi.reduce_comm(comm, &mine, ReduceOp::Sum, COMM_ROOT);
            (red, mpi.allreduce_comm(comm, &mine, ReduceOp::Sum))
        };
        ok &= (0..len).all(|i| buf[i] == val(root, i));
        ok &= red.is_some() == (r == root);
        let total = |v: &[u64]| {
            v.len() == len && (0..len).all(|i| v[i] == sum_of(members.iter().copied(), i))
        };
        ok &= red.is_none_or(|v| total(&v));
        ok &= total(&all);
    }
    for blk in BLOCKS {
        let mine: Vec<u64> = (0..blk).map(|i| val(r, i)).collect();
        let all = if ft {
            mpi.try_allgather_comm(comm, &mine).unwrap_or_default()
        } else {
            mpi.allgather_comm(comm, &mine)
        };
        ok &= all.len() == members.len() * blk
            && (0..all.len()).all(|j| all[j] == val(members[j / blk], j % blk));
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
    elapsed_ns: 6_307_999,
    clocks_fnv: 200_055_840_264_109_158,
    ops: [735, 721, 207],
    bytes: [935_920, 119_795_584, 38_006_968],
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
    elapsed_ns: 5_554_399,
    clocks_fnv: 6_770_899_079_900_534_413,
    ops: [776, 595, 1_547],
    bytes: [1_248_000, 53_922_520, 66_522_776],
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
    elapsed_ns: 4_691_753,
    clocks_fnv: 7_530_441_623_812_717_819,
    ops: [482, 384, 137],
    bytes: [579_232, 70_756_832, 21_550_024],
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
    elapsed_ns: 4_624_889,
    clocks_fnv: 17_425_475_984_339_926_762,
    ops: [402, 273, 1_007],
    bytes: [624_000, 29_508_168, 41_797_144],
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

const EXT_DETECTOR_16: Golden = Golden {
    elapsed_ns: 6_137_481,
    clocks_fnv: 5_721_256_579_834_055_869,
    ops: [2_336, 1_277, 1_528],
    bytes: [3_607_125, 218_289_616, 79_510_813],
    selected: [
        [64, 0, 0],
        [256, 0, 0],
        [256, 0, 0],
        [256, 0, 0],
        [0, 0, 0],
        [192, 0, 0],
        [0, 0, 0],
    ],
};

const EXT_HOSTNAME_16: Golden = Golden {
    elapsed_ns: 15_288_613,
    clocks_fnv: 4_776_631_148_701_927_194,
    ops: [1_614, 841, 2_686],
    bytes: [2_554_051, 148_361_248, 150_492_255],
    selected: [
        [64, 0, 0],
        [256, 0, 0],
        [256, 0, 0],
        [256, 0, 0],
        [0, 0, 0],
        [192, 0, 0],
        [0, 0, 0],
    ],
};

const EXT_DETECTOR_12: Golden = Golden {
    elapsed_ns: 6_237_139,
    clocks_fnv: 10_305_500_903_718_901_617,
    ops: [1_240, 671, 928],
    bytes: [1_861_275, 111_622_864, 47_271_240],
    selected: [
        [48, 0, 0],
        [192, 0, 0],
        [192, 0, 0],
        [192, 0, 0],
        [0, 0, 0],
        [144, 0, 0],
        [0, 0, 0],
    ],
};

const EXT_HOSTNAME_12: Golden = Golden {
    elapsed_ns: 12_037_926,
    clocks_fnv: 4_902_521_208_282_788_737,
    ops: [768, 402, 1_669],
    bytes: [1_205_231, 66_352_608, 93_197_540],
    selected: [
        [48, 0, 0],
        [192, 0, 0],
        [192, 0, 0],
        [192, 0, 0],
        [0, 0, 0],
        [144, 0, 0],
        [0, 0, 0],
    ],
};

#[test]
fn ext_and_comm_sixteen_ranks_under_the_container_detector() {
    let got = observe_with(4, LocalityPolicy::ContainerDetector, sweep_ext);
    assert_eq!(got, EXT_DETECTOR_16);
}

#[test]
fn ext_and_comm_sixteen_ranks_under_hostname_routing() {
    let got = observe_with(4, LocalityPolicy::Hostname, sweep_ext);
    assert_eq!(got, EXT_HOSTNAME_16);
}

#[test]
fn ext_and_comm_twelve_ranks_under_the_container_detector() {
    let got = observe_with(3, LocalityPolicy::ContainerDetector, sweep_ext);
    assert_eq!(got, EXT_DETECTOR_12);
}

#[test]
fn ext_and_comm_twelve_ranks_under_hostname_routing() {
    let got = observe_with(3, LocalityPolicy::Hostname, sweep_ext);
    assert_eq!(got, EXT_HOSTNAME_12);
}
