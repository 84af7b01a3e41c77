//! Property-based tests for the causal profiling subsystem.
//!
//! Two invariants hold by construction and must keep holding as the
//! channel layer evolves:
//!
//! * the transmitted matrix's row sums equal the rank's aggregate
//!   [`cmpi_core::ChannelCounter`]s (the matrix is Table I refined, not a
//!   second bookkeeping that can drift), and every byte a rank initiated
//!   is delivered exactly once (conservation);
//! * every wait-state breakdown's four components sum to its blocked
//!   time.
//!
//! A third follows from every view being read off one store per rank:
//! the three detail levels (tracing, profiling, telemetry) are
//! independent — turning any of them on or off changes no result, no
//! clock, no `JobStats` and no other view — and where two views show
//! the same quantity they show the same number.

use bytes::Bytes;
use cmpi_cluster::{Channel, DeploymentScenario, NamespaceSharing};
use cmpi_core::{
    ChannelCounter, CollAlgo, CollKind, JobProfile, JobResult, JobSpec, LocalityPolicy, MetricId,
    ReduceOp, WaitClass,
};
use cmpi_prof::chan_index;
use proptest::prelude::*;

/// 4 ranks across 2 hosts × 2 containers, so random traffic exercises
/// SHM, CMA and HCA at once.
fn four_rank_scenario() -> DeploymentScenario {
    DeploymentScenario::containers(2, 2, 1, NamespaceSharing::default())
}

/// Check the matrix-vs-aggregate and conservation invariants on one run.
fn assert_ledgers_consistent<R>(r: &JobResult<R>) {
    let p = r.profile.as_ref().expect("profiling was enabled");
    for (rank, row) in p.tx.iter().enumerate() {
        for ch in Channel::ALL {
            let agg = r.stats.per_rank[rank].channel(ch);
            let mut sum = ChannelCounter::default();
            for peer in 0..row.len() {
                sum.merge(&row.cell(peer).chan[chan_index(ch)]);
            }
            assert_eq!(
                sum,
                agg,
                "rank {rank} {} row sum drifted from its ChannelCounter",
                ch.name()
            );
        }
    }
    assert_eq!(p.conservation_error(), 0, "a byte was lost or duplicated");
}

/// Check, on a run with every level on, that the views agree wherever
/// they overlap: channel counters == matrix row sums (above) == channel
/// metrics, selector audit column sums == selector metrics, timeline
/// class totals == time classes, ring volume == flight metrics.
fn assert_views_agree<R>(r: &JobResult<R>) {
    let tel = r.telemetry.as_ref().expect("telemetry was enabled");
    let trace = r.trace.as_ref().expect("tracing was enabled");
    for (rank, (stats, snap)) in r.stats.per_rank.iter().zip(&tel.ranks).enumerate() {
        for (ch, ops, bytes) in [
            (Channel::Shm, MetricId::ShmOps, MetricId::ShmBytes),
            (Channel::Cma, MetricId::CmaOps, MetricId::CmaBytes),
            (Channel::Hca, MetricId::HcaOps, MetricId::HcaBytes),
        ] {
            let c = stats.channel(ch);
            assert_eq!((snap.get(ops), snap.get(bytes)), (c.ops, c.bytes));
        }
        for (algo, id) in [
            (CollAlgo::Flat, MetricId::CollFlat),
            (CollAlgo::TwoLevel, MetricId::CollTwoLevel),
            (CollAlgo::Large, MetricId::CollLarge),
        ] {
            let column: u64 = CollKind::ALL
                .iter()
                .map(|&k| stats.coll_count(k, algo))
                .sum();
            assert_eq!(snap.get(id), column, "rank {rank} {}", id.name());
        }
        for (class, total) in trace.class_totals(rank) {
            assert_eq!(total, stats.time(class), "rank {rank} {}", class.name());
        }
        assert_eq!(snap.get(MetricId::FlightEvents), snap.flight.published);
        assert_eq!(snap.get(MetricId::FlightDropped), snap.flight.dropped);
    }
}

/// Check that every (rank, class) breakdown's components sum to blocked.
fn assert_waits_decompose(p: &JobProfile) {
    for (rank, w) in p.waits.iter().enumerate() {
        for class in WaitClass::ALL {
            let b = w.class(class);
            assert_eq!(
                b.late_sender + b.late_receiver + b.arrival_skew + b.transfer,
                b.blocked,
                "rank {rank} {} components do not sum to blocked",
                class.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random sequential pt2pt plans (closed by a few allreduces, so the
    /// selector audit has something in it): matrix row sums equal the
    /// Table I aggregates, bytes are conserved directionally, waits
    /// decompose — and the same plan under all eight settings of the
    /// three levels gives the same job, each view present iff its level
    /// is on and identical to the all-on run's.
    #[test]
    fn pt2pt_ledgers_balance(
        // Each entry encodes (src, dst offset, size): the vendored
        // proptest has no tuple strategies.
        encoded in proptest::collection::vec(0usize..(4 * 3 * 40_000), 1..12),
        hostname_policy in any::<bool>(),
        allreduces in 0usize..3,
    ) {
        let plan: Vec<(usize, usize, usize)> = encoded
            .iter()
            .map(|&v| (v % 4, 1 + (v / 4) % 3, 1 + (v / 12) % 40_000))
            .collect();
        let policy = if hostname_policy {
            LocalityPolicy::Hostname
        } else {
            LocalityPolicy::ContainerDetector
        };
        // One worker: the schedule, and with it the mailbox and queue
        // counters the telemetry view shows, repeats exactly.
        let run = |tracing: bool, profiling: bool, telemetry: bool| {
            let mut spec = JobSpec::new(four_rank_scenario())
                .with_policy(policy)
                .with_workers(1);
            spec.tracing = tracing;
            spec.profiling = profiling;
            spec.telemetry = telemetry;
            let plan = plan.clone();
            spec.run(move |mpi| {
                for &(src, off, size) in &plan {
                    let dst = (src + off) % 4;
                    if mpi.rank() == src {
                        mpi.send_bytes(Bytes::from(vec![0u8; size]), dst, 7);
                    } else if mpi.rank() == dst {
                        mpi.recv_bytes(src, 7);
                    }
                }
                let mut sum = 0u64;
                for _ in 0..allreduces {
                    sum += mpi.allreduce(&[mpi.rank() as u64], ReduceOp::Sum)[0];
                }
                sum
            })
        };
        let all = run(true, true, true);
        assert_ledgers_consistent(&all);
        let p = all.profile.as_ref().unwrap();
        // Two-sided only, so conserved per direction: tx[i][j] == rx[j][i].
        for i in 0..p.num_ranks() {
            for j in 0..p.num_ranks() {
                prop_assert_eq!(p.tx[i].cell(j).bytes(), p.rx[j].cell(i).bytes());
            }
        }
        assert_waits_decompose(p);
        assert_views_agree(&all);
        // A view's rendered text stands for the view.
        let rendered = |r: &JobResult<u64>| {
            (
                r.trace.as_ref().map(|t| t.to_chrome_json()),
                r.profile.as_ref().map(|p| p.to_json().to_string()),
                r.telemetry
                    .as_ref()
                    .map(|t| (t.to_json().to_string(), t.flight_chrome_json().to_string())),
            )
        };
        let (trace, profile, telemetry) = rendered(&all);
        for levels in 0..7u8 {
            let on = [levels & 1 != 0, levels & 2 != 0, levels & 4 != 0];
            let r = run(on[0], on[1], on[2]);
            prop_assert_eq!(&r.results, &all.results);
            prop_assert_eq!(&r.times, &all.times);
            prop_assert_eq!(&r.stats, &all.stats);
            let (t, p, m) = rendered(&r);
            prop_assert_eq!(t, trace.clone().filter(|_| on[0]));
            prop_assert_eq!(p, profile.clone().filter(|_| on[1]));
            prop_assert_eq!(m, telemetry.clone().filter(|_| on[2]));
        }
    }

    /// Random collective mixes: collective-internal traffic keeps the
    /// same conservation and decomposition guarantees, and the skew
    /// lands in the Collective class.
    #[test]
    fn collective_ledgers_balance(
        sizes in proptest::collection::vec(1usize..3_000, 1..5),
        with_barrier in any::<bool>(),
    ) {
        let spec = JobSpec::new(four_rank_scenario()).with_profiling();
        let r = spec.run(move |mpi| {
            let mut acc = 0u64;
            for &s in &sizes {
                let mine = vec![mpi.rank() as u64 + 1; s.div_ceil(8)];
                acc += mpi.allreduce(&mine, ReduceOp::Sum)[0];
                if with_barrier {
                    mpi.barrier();
                }
            }
            acc
        });
        assert_ledgers_consistent(&r);
        let p = r.profile.as_ref().unwrap();
        assert_waits_decompose(p);
        for w in &p.waits {
            prop_assert!(w.class(WaitClass::Pt2pt).samples == 0);
        }
    }

    /// Mixed pt2pt + allreduce still balances (the two classes share the
    /// channel layer but not their wait attribution).
    #[test]
    fn mixed_workload_balances(
        size in 1usize..70_000,
        rounds in 1usize..4,
    ) {
        let spec = JobSpec::new(four_rank_scenario()).with_profiling();
        let r = spec.run(move |mpi| {
            for _ in 0..rounds {
                let peer = mpi.rank() ^ 1;
                if mpi.rank() < peer {
                    mpi.send_bytes(Bytes::from(vec![1u8; size]), peer, 9);
                } else {
                    mpi.recv_bytes(peer, 9);
                }
                mpi.allreduce(&[mpi.rank() as u64], ReduceOp::Max);
            }
            0u8
        });
        assert_ledgers_consistent(&r);
        assert_waits_decompose(r.profile.as_ref().unwrap());
    }

    /// One-sided put + flush rounds from rank 0 into rank 1's window: the
    /// target makes no call for them, so its rx row holds exactly what
    /// the origin recorded on its behalf, and the flushes wait as
    /// `OneSided`.
    #[test]
    fn put_flush_ledgers_balance(
        size in 1usize..70_001,
        rounds in 1usize..5,
    ) {
        let spec = JobSpec::new(four_rank_scenario()).with_profiling();
        let r = spec.run(move |mpi| {
            let mut win = mpi.win_allocate(size);
            mpi.fence(&mut win);
            if mpi.rank() == 0 {
                let data = vec![7u8; size];
                for _ in 0..rounds {
                    mpi.put(&mut win, 1, 0, &data);
                    mpi.flush(&mut win, 1);
                }
            }
            mpi.fence(&mut win);
        });
        assert_ledgers_consistent(&r);
        let p = r.profile.as_ref().unwrap();
        prop_assert!(p.wait_total(WaitClass::OneSided).samples > 0);
        prop_assert_eq!(p.rx[1].cell(0).bytes(), (rounds * size) as u64);
    }
}
