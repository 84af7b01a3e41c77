//! Collective-operation integration tests: correctness against sequential
//! reference computations, plus the locality effects of Section V-C.

use bytes::Bytes;
use cmpi_cluster::{Channel, DeploymentScenario, NamespaceSharing, Tunables};
use cmpi_core::{CollAlgo, CollKind, JobSpec, LocalityPolicy, ReduceOp};

/// 8 ranks in 2 containers on one host.
fn spec8(policy: LocalityPolicy) -> JobSpec {
    JobSpec::new(DeploymentScenario::containers(
        1,
        2,
        4,
        NamespaceSharing::default(),
    ))
    .with_policy(policy)
}

/// 12 ranks (non-power-of-two) across 3 containers.
fn spec12() -> JobSpec {
    JobSpec::new(DeploymentScenario::containers(
        1,
        3,
        4,
        NamespaceSharing::default(),
    ))
}

#[test]
fn barrier_synchronizes_clocks() {
    let r = spec8(LocalityPolicy::ContainerDetector).run(|mpi| {
        // Stagger the ranks, then barrier: everyone must leave at a time
        // >= the slowest rank's entry.
        mpi.compute(cmpi_cluster::SimTime::from_us(10 * (mpi.rank() as u64 + 1)));
        mpi.barrier();
        mpi.now()
    });
    let slowest_entry = cmpi_cluster::SimTime::from_us(80);
    for (rk, t) in r.results.iter().enumerate() {
        assert!(*t >= slowest_entry, "rank {rk} left the barrier at {t}");
    }
}

#[test]
fn bcast_delivers_from_every_root() {
    for root in [0usize, 3, 7] {
        let r = spec8(LocalityPolicy::ContainerDetector).run(|mpi| {
            let mut buf = if mpi.rank() == root {
                vec![42u64, root as u64, 77]
            } else {
                vec![0u64; 3]
            };
            mpi.bcast(&mut buf, root);
            buf
        });
        for (rk, v) in r.results.iter().enumerate() {
            assert_eq!(v, &[42u64, root as u64, 77], "rank {rk}, root {root}");
        }
    }
}

#[test]
fn reduce_matches_sequential_reference() {
    for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod] {
        let r = spec8(LocalityPolicy::ContainerDetector).run(|mpi| {
            let mine: Vec<i64> = (0..5).map(|i| (mpi.rank() as i64 + 2) * (i + 1)).collect();
            mpi.reduce(&mine, op, 2)
        });
        // Sequential reference.
        let inputs: Vec<Vec<i64>> = (0..8)
            .map(|r| (0..5).map(|i| (r as i64 + 2) * (i + 1)).collect())
            .collect();
        let mut expect = inputs[0].clone();
        for src in &inputs[1..] {
            for (a, &b) in expect.iter_mut().zip(src) {
                *a = match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Max => (*a).max(b),
                    ReduceOp::Min => (*a).min(b),
                    ReduceOp::Prod => a.wrapping_mul(b),
                    _ => unreachable!(),
                };
            }
        }
        for (rk, res) in r.results.iter().enumerate() {
            if rk == 2 {
                assert_eq!(res.as_ref().unwrap(), &expect, "op {op:?}");
            } else {
                assert!(res.is_none());
            }
        }
    }
}

#[test]
fn allreduce_power_of_two_and_odd_sizes() {
    for spec in [spec8(LocalityPolicy::ContainerDetector), spec12()] {
        let n = spec.scenario.num_ranks() as u64;
        let r = spec.run(|mpi| {
            let mine = vec![mpi.rank() as u64, 1, mpi.rank() as u64 * 2];
            mpi.allreduce(&mine, ReduceOp::Sum)
        });
        let sum: u64 = (0..n).sum();
        for v in &r.results {
            assert_eq!(v, &[sum, n, sum * 2]);
        }
    }
}

#[test]
fn allreduce_floats() {
    let r = spec8(LocalityPolicy::ContainerDetector).run(|mpi| {
        let mine = vec![0.5f64 * mpi.rank() as f64];
        mpi.allreduce(&mine, ReduceOp::Sum)[0]
    });
    let expect: f64 = (0..8).map(|r| 0.5 * r as f64).sum();
    for v in &r.results {
        assert!((v - expect).abs() < 1e-9);
    }
}

#[test]
fn gather_concatenates_in_rank_order() {
    let r = spec12().run(|mpi| {
        let mine = [mpi.rank() as u32 * 10, mpi.rank() as u32 * 10 + 1];
        mpi.gather(&mine, 5)
    });
    let expect: Vec<u32> = (0..12).flat_map(|r| [r * 10, r * 10 + 1]).collect();
    assert_eq!(r.results[5].as_ref().unwrap(), &expect);
    assert!(r.results[0].is_none());
}

#[test]
fn allgather_matches_gather_everywhere() {
    let r = spec8(LocalityPolicy::ContainerDetector).run(|mpi| {
        let mine = [mpi.rank() as u64; 4];
        mpi.allgather(&mine)
    });
    let expect: Vec<u64> = (0..8u64).flat_map(|r| [r; 4]).collect();
    for v in &r.results {
        assert_eq!(v, &expect);
    }
}

#[test]
fn alltoall_transposes() {
    let r = spec8(LocalityPolicy::ContainerDetector).run(|mpi| {
        let n = mpi.size();
        // Element for destination d: rank * 100 + d.
        let data: Vec<u32> = (0..n).map(|d| (mpi.rank() * 100 + d) as u32).collect();
        mpi.alltoall(&data, 1)
    });
    for (rk, v) in r.results.iter().enumerate() {
        let expect: Vec<u32> = (0..8).map(|s| (s * 100 + rk) as u32).collect();
        assert_eq!(v, &expect, "rank {rk}");
    }
}

#[test]
fn alltoallv_variable_blocks() {
    let r = spec8(LocalityPolicy::ContainerDetector).run(|mpi| {
        let n = mpi.size();
        // Send `d+1` bytes of value `rank` to destination d.
        let blocks: Vec<Bytes> = (0..n)
            .map(|d| Bytes::from(vec![mpi.rank() as u8; d + 1]))
            .collect();
        let got = mpi.alltoallv_bytes(blocks);
        got.iter()
            .enumerate()
            .all(|(s, b)| b.len() == mpi.rank() + 1 && b.iter().all(|&x| x == s as u8))
    });
    assert!(r.results.iter().all(|&ok| ok));
}

#[test]
fn collectives_use_local_channels_under_detector() {
    let opt = spec8(LocalityPolicy::ContainerDetector).run(|mpi| {
        let mine = vec![1u64; 512];
        mpi.allreduce(&mine, ReduceOp::Sum);
        mpi.alltoall(&vec![0u8; 8 * 64], 64);
    });
    // Single host: everything must stay off the HCA.
    assert_eq!(opt.stats.channel_ops(Channel::Hca), 0);
    assert!(opt.stats.channel_ops(Channel::Shm) > 0);

    let def = spec8(LocalityPolicy::Hostname).run(|mpi| {
        let mine = vec![1u64; 512];
        mpi.allreduce(&mine, ReduceOp::Sum);
        mpi.alltoall(&vec![0u8; 8 * 64], 64);
    });
    // Cross-container rounds go through the loopback.
    assert!(def.stats.channel_ops(Channel::Hca) > 0);
}

#[test]
fn detector_speeds_up_collectives_on_co_resident_containers() {
    let run = |policy| {
        spec8(policy)
            .run(|mpi| {
                for _ in 0..5 {
                    let mine = vec![mpi.rank() as u64; 1024];
                    mpi.allreduce(&mine, ReduceOp::Sum);
                }
            })
            .elapsed
    };
    let def = run(LocalityPolicy::Hostname);
    let opt = run(LocalityPolicy::ContainerDetector);
    assert!(opt < def, "opt {opt} must beat def {def}");
}

/// 2 hosts x 2 containers x 2 ranks: genuinely hierarchical under the
/// container detector, so every selectable collective goes two-level
/// unless `MV2_USE_SMP_COLL` is off.
fn spec_two_hosts(smp_coll: bool) -> JobSpec {
    JobSpec::new(DeploymentScenario::containers(
        2,
        2,
        2,
        NamespaceSharing::default(),
    ))
    .with_tunables(Tunables::default().with_smp_coll_enable(smp_coll))
}

#[test]
fn smp_collectives_match_flat_results() {
    let run = |smp_coll: bool, algo: CollAlgo| {
        let r = spec_two_hosts(smp_coll).run(|mpi| {
            let mine = vec![mpi.rank() as u64 + 1; 8];
            let sum = mpi.allreduce(&mine, ReduceOp::Sum);
            let mut buf = if mpi.rank() == 3 {
                vec![11u32, 22]
            } else {
                vec![0u32; 2]
            };
            mpi.bcast(&mut buf, 3);
            (sum, buf)
        });
        for kind in [CollKind::Allreduce, CollKind::Bcast] {
            assert_eq!(r.stats.coll_selections(kind, algo), 8, "{}", kind.name());
        }
        r.results
    };
    let smp = run(true, CollAlgo::TwoLevel);
    assert_eq!(smp, run(false, CollAlgo::Flat));
    let total: u64 = (1..=8).sum();
    for (sum, buf) in &smp {
        assert_eq!(sum, &[total; 8]);
        assert_eq!(buf, &[11, 22]);
    }
}

#[test]
fn back_to_back_collectives_do_not_cross_match() {
    let r = spec8(LocalityPolicy::ContainerDetector).run(|mpi| {
        let mut ok = true;
        for round in 0..10u64 {
            let v = mpi.allreduce(&[round + mpi.rank() as u64], ReduceOp::Max);
            ok &= v[0] == round + 7;
            let mut b = if mpi.rank() == 0 {
                vec![round]
            } else {
                vec![0u64]
            };
            mpi.bcast(&mut b, 0);
            ok &= b[0] == round;
        }
        ok
    });
    assert!(r.results.iter().all(|&ok| ok));
}

#[test]
fn zero_count_collectives_return_without_panicking() {
    // MPI permits zero counts; the seed code panicked on `data[0]`.
    // Exercise both the flat and the two-level paths (2 hosts under the
    // detector select two-level).
    for policy in [LocalityPolicy::Hostname, LocalityPolicy::ContainerDetector] {
        let spec = JobSpec::new(DeploymentScenario::containers(
            2,
            2,
            2,
            NamespaceSharing::default(),
        ))
        .with_policy(policy);
        let r = spec.run(|mpi| {
            let empty: Vec<u64> = Vec::new();
            let mut buf: Vec<u64> = Vec::new();
            mpi.bcast(&mut buf, 1);
            let red = mpi.reduce(&empty, ReduceOp::Sum, 2);
            let all = mpi.allreduce(&empty, ReduceOp::Sum);
            let gat = mpi.gather(&empty, 3);
            let ag = mpi.allgather(&empty);
            let a2a = mpi.alltoall(&empty, 0);
            buf.is_empty()
                && red.map(|v| v.is_empty()).unwrap_or(true)
                && all.is_empty()
                && gat.map(|v| v.is_empty()).unwrap_or(true)
                && ag.is_empty()
                && a2a.is_empty()
        });
        assert!(r.results.iter().all(|&ok| ok), "policy {policy:?}");
    }
}

#[test]
fn selector_routes_two_level_under_detector_and_flat_under_default() {
    let run = |policy| {
        JobSpec::new(DeploymentScenario::containers(
            2,
            2,
            2,
            NamespaceSharing::default(),
        ))
        .with_policy(policy)
        .run(|mpi| {
            mpi.barrier();
            let mut b = vec![mpi.rank() as u64; 4];
            mpi.bcast(&mut b, 0);
            mpi.reduce(&b, ReduceOp::Sum, 0);
            mpi.allreduce(&b, ReduceOp::Sum);
            mpi.gather(&b, 0);
            mpi.allgather(&b);
            let d = vec![0u64; 8];
            mpi.alltoall(&d, 1);
        })
    };
    let opt = run(LocalityPolicy::ContainerDetector);
    let def = run(LocalityPolicy::Hostname);
    for kind in CollKind::ALL {
        assert_eq!(
            opt.stats.coll_selections(kind, CollAlgo::TwoLevel),
            8,
            "detector must pick two-level for {}",
            kind.name()
        );
        assert_eq!(opt.stats.coll_selections(kind, CollAlgo::Flat), 0);
        assert_eq!(
            def.stats.coll_selections(kind, CollAlgo::Flat),
            8,
            "default must stay flat for {}",
            kind.name()
        );
        assert_eq!(def.stats.coll_selections(kind, CollAlgo::TwoLevel), 0);
    }
    // The selection audit trail surfaces in the mpiP-style report.
    assert!(opt.stats.report().contains("two-level"));
}

#[test]
fn selector_honours_thresholds_and_large_switchover() {
    let spec = || {
        JobSpec::new(DeploymentScenario::containers(
            2,
            2,
            2,
            NamespaceSharing::default(),
        ))
    };
    // Above the SMP threshold but below the large switchover: flat even
    // under the detector.
    let r = spec()
        .with_tunables(Tunables::default().with_smp_bcast_threshold(64))
        .run(|mpi| {
            let mut b = vec![mpi.rank() as u64; 64]; // 512 bytes
            mpi.bcast(&mut b, 0);
        });
    assert_eq!(r.stats.coll_selections(CollKind::Bcast, CollAlgo::Flat), 8);
    // Above the large switchover: the scatter–allgather broadcast, with
    // the payload still delivered intact.
    let r = spec()
        .with_tunables(Tunables::default().with_coll_large_msg(512))
        .run(|mpi| {
            let mut b = if mpi.rank() == 3 {
                (0..128u64).collect()
            } else {
                vec![0u64; 128] // 1 KiB >= 512
            };
            mpi.bcast(&mut b, 3);
            b
        });
    assert_eq!(r.stats.coll_selections(CollKind::Bcast, CollAlgo::Large), 8);
    let expect: Vec<u64> = (0..128).collect();
    assert!(r.results.iter().all(|v| v == &expect));
    // Disabling MV2_USE_SMP_COLL forces flat everywhere.
    let r = spec()
        .with_tunables(Tunables::default().with_smp_coll_enable(false))
        .run(|mpi| {
            mpi.allreduce(&[mpi.rank() as u64], ReduceOp::Sum);
        });
    assert_eq!(
        r.stats.coll_selections(CollKind::Allreduce, CollAlgo::Flat),
        8
    );
}

#[test]
fn new_smp_variants_match_sequential_references() {
    // Non-leader roots (3, 5) exercise the root<->leader shuttles.
    let n = 8usize;
    let block = 3usize;
    let r = spec_two_hosts(true).run(move |mpi| {
        let rank = mpi.rank();
        let mine: Vec<u64> = (0..block).map(|i| (rank * 31 + i) as u64).collect();

        let red = mpi.reduce(&mine, ReduceOp::Sum, 5);
        let gat = mpi.gather(&mine, 3);
        let ag = mpi.allgather(&mine);
        let a2a_in: Vec<u64> = (0..n * block).map(|j| (rank * 1000 + j) as u64).collect();
        let a2a = mpi.alltoall(&a2a_in, block);
        mpi.barrier();
        (red, gat, ag, a2a)
    });
    for kind in [
        CollKind::Reduce,
        CollKind::Gather,
        CollKind::Allgather,
        CollKind::Alltoall,
        CollKind::Barrier,
    ] {
        let picked = r.stats.coll_selections(kind, CollAlgo::TwoLevel);
        assert_eq!(picked, 8, "{} must run two-level", kind.name());
    }
    let concat: Vec<u64> = (0..n)
        .flat_map(|r| (0..block).map(move |i| (r * 31 + i) as u64))
        .collect();
    let sums: Vec<u64> = (0..block)
        .map(|i| (0..n).map(|r| (r * 31 + i) as u64).sum())
        .collect();
    for (rank, (red, gat, ag, a2a)) in r.results.iter().enumerate() {
        assert_eq!(red.is_some(), rank == 5);
        if let Some(v) = red {
            assert_eq!(v, &sums);
        }
        assert_eq!(gat.is_some(), rank == 3);
        if let Some(v) = gat {
            assert_eq!(v, &concat);
        }
        assert_eq!(ag, &concat, "two-level allgather rank {rank}");
        let expect: Vec<u64> = (0..n * block)
            .map(|j| {
                let src = j / block;
                (src * 1000 + rank * block + j % block) as u64
            })
            .collect();
        assert_eq!(a2a, &expect, "two-level alltoall rank {rank}");
    }
}

#[test]
fn barrier_smp_synchronizes_clocks() {
    let r = spec_two_hosts(true).run(|mpi| {
        mpi.compute(cmpi_cluster::SimTime::from_us(10 * (mpi.rank() as u64 + 1)));
        mpi.barrier();
        mpi.now()
    });
    let picked = r
        .stats
        .coll_selections(CollKind::Barrier, CollAlgo::TwoLevel);
    assert_eq!(picked, 8);
    let slowest_entry = cmpi_cluster::SimTime::from_us(80);
    for (rk, t) in r.results.iter().enumerate() {
        assert!(*t >= slowest_entry, "rank {rk} left the barrier at {t}");
    }
}

/// 4 ranks in one container: root 5 lies past the last rank.
fn spec4() -> JobSpec {
    JobSpec::new(DeploymentScenario::containers(
        1,
        1,
        4,
        NamespaceSharing::default(),
    ))
}

#[test]
#[should_panic(expected = "bcast: root 5 out of range for 4 members")]
fn bcast_rejects_a_root_past_the_world() {
    spec4().run(|mpi| mpi.bcast(&mut [0u64; 4], 5));
}

#[test]
#[should_panic(expected = "out of range")]
fn reduce_rejects_a_root_past_the_world() {
    spec4().run(|mpi| mpi.reduce(&[1u64], ReduceOp::Sum, 5));
}

#[test]
#[should_panic(expected = "out of range")]
fn gather_rejects_a_root_past_the_world() {
    spec4().run(|mpi| mpi.gather(&[1u64], 5));
}
