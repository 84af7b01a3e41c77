//! One-sided (RMA) integration tests: put/get correctness on every
//! channel, epoch semantics, and the Fig. 9 performance relationships.

use cmpi_cluster::{Channel, DeploymentScenario, NamespaceSharing, SimTime};
use cmpi_core::{JobSpec, LocalityPolicy, Mpi};

fn pair(policy: LocalityPolicy) -> JobSpec {
    JobSpec::new(DeploymentScenario::pt2pt_pair(
        true,
        true,
        NamespaceSharing::default(),
    ))
    .with_policy(policy)
}

#[test]
fn put_lands_in_target_window() {
    for policy in [LocalityPolicy::Hostname, LocalityPolicy::ContainerDetector] {
        let r = pair(policy).run(|mpi| {
            let mut win = mpi.win_allocate(1024);
            if mpi.rank() == 0 {
                mpi.put(&mut win, 1, 64, &[1u32, 2, 3]);
                mpi.fence(&mut win);
                Vec::new()
            } else {
                mpi.fence(&mut win);
                let mut out = vec![0u32; 3];
                mpi.win_read_local(&win, 64, &mut out);
                out
            }
        });
        assert_eq!(r.results[1], vec![1, 2, 3], "policy {policy:?}");
    }
}

#[test]
fn get_reads_target_window() {
    let r = pair(LocalityPolicy::ContainerDetector).run(|mpi| {
        let mut win = mpi.win_allocate(256);
        if mpi.rank() == 1 {
            mpi.win_write_local(&win, 8, &[9.5f64, -2.25]);
        }
        mpi.fence(&mut win);
        if mpi.rank() == 0 {
            let mut out = [0f64; 2];
            mpi.get(&mut win, 1, 8, &mut out);
            out.to_vec()
        } else {
            Vec::new()
        }
    });
    assert_eq!(r.results[0], vec![9.5, -2.25]);
}

/// The one channel op a single call added to this rank's ledger.
fn ledgered(mpi: &Mpi, before: [u64; 3]) -> Channel {
    let moved: Vec<Channel> = Channel::ALL
        .into_iter()
        .zip(before)
        .filter(|&(c, ops)| mpi.stats().channel(c).ops == ops + 1)
        .map(|(c, _)| c)
        .collect();
    assert_eq!(moved.len(), 1, "one call, one channel op: {moved:?}");
    moved[0]
}

fn ledger(mpi: &Mpi) -> [u64; 3] {
    Channel::ALL.map(|c| mpi.stats().channel(c).ops)
}

#[test]
fn onesided_accesses_take_the_selectors_route() {
    // Either side of both thresholds: SHM eager (8 KiB) and HCA eager
    // (17 KiB), plus a large access.
    const SIZES: [usize; 6] = [4, 8 << 10, (8 << 10) + 1, 17 << 10, (17 << 10) + 1, 1 << 20];
    let policies = [
        LocalityPolicy::Hostname,
        LocalityPolicy::ContainerDetector,
        LocalityPolicy::ForceChannel(Channel::Shm),
        LocalityPolicy::ForceChannel(Channel::Cma),
        LocalityPolicy::ForceChannel(Channel::Hca),
    ];
    let mut seen = Vec::new();
    for policy in policies {
        for (ipc, pid) in [(true, true), (true, false), (false, true), (false, false)] {
            let sharing = NamespaceSharing {
                ipc,
                pid,
                privileged: true,
            };
            // A forced channel the pair cannot use fails in the window's
            // own barrier, before any access (the panic is pinned in
            // `onesided.rs`'s unit tests).
            let impossible = matches!(
                (policy, ipc, pid),
                (LocalityPolicy::ForceChannel(Channel::Shm), false, _)
                    | (LocalityPolicy::ForceChannel(Channel::Cma), _, false)
            );
            if impossible {
                continue;
            }
            let spec = JobSpec::new(DeploymentScenario::pt2pt_pair(true, true, sharing))
                .with_policy(policy);
            let r = spec.run(|mpi| {
                let mut win = mpi.win_allocate(1 << 20);
                let mut rows = Vec::new();
                if mpi.rank() == 0 {
                    for size in SIZES {
                        let route = mpi.selector().route(&mpi.locality().peer(1), size);
                        let before = ledger(mpi);
                        mpi.put(&mut win, 1, 0, &vec![1u8; size]);
                        let put = ledgered(mpi, before);
                        let before = ledger(mpi);
                        let mut out = vec![0u8; size];
                        mpi.get(&mut win, 1, 0, &mut out);
                        let get = ledgered(mpi, before);
                        rows.push((size, route.channel, put, get));
                    }
                }
                mpi.fence(&mut win);
                rows
            });
            for (size, route, put, get) in &r.results[0] {
                let at = format!("{policy:?} ipc={ipc} pid={pid} {size} B");
                assert_eq!((*put, *get), (*route, *route), "{at}");
                seen.push((*route, *size));
            }
        }
    }
    // The sweep reached every channel, chunked SHM for a large access
    // without PID sharing and the HCA on both sides of its threshold.
    for want in [
        (Channel::Shm, 1 << 20),
        (Channel::Cma, 1 << 20),
        (Channel::Hca, 17 << 10),
        (Channel::Hca, (17 << 10) + 1),
    ] {
        assert!(seen.contains(&want), "{want:?} never routed");
    }
}

#[test]
fn small_put_rate_gap_matches_paper_shape() {
    // Fig. 9: 4-byte put bandwidth — default vs opt differs by roughly an
    // order of magnitude (paper: 15.73 vs 147.99 Mbps).
    let window = 64usize;
    let measure = |policy| {
        let r = pair(policy).run(move |mpi| {
            let mut win = mpi.win_allocate(4096);
            mpi.fence(&mut win);
            if mpi.rank() == 0 {
                let t0 = mpi.now();
                for i in 0..window {
                    mpi.put(&mut win, 1, (i * 4) % 4096, &[i as u32]);
                }
                mpi.flush(&mut win, 1);
                let dt = mpi.now() - t0;
                mpi.fence(&mut win);
                dt
            } else {
                mpi.fence(&mut win);
                SimTime::ZERO
            }
        });
        r.results[0]
    };
    let def = measure(LocalityPolicy::Hostname);
    let opt = measure(LocalityPolicy::ContainerDetector);
    let ratio = def.as_ns() as f64 / opt.as_ns() as f64;
    assert!(
        ratio > 5.0,
        "def {def} / opt {opt} = {ratio:.1}, paper shows ~9x"
    );
}

#[test]
fn flush_orders_completion_fence_synchronizes() {
    let r = pair(LocalityPolicy::ContainerDetector).run(|mpi| {
        let mut win = mpi.win_allocate(128);
        mpi.fence(&mut win);
        if mpi.rank() == 0 {
            let before = mpi.now();
            mpi.put(&mut win, 1, 0, &[3u8; 28]);
            // Put returns immediately-ish; flush waits for completion.
            mpi.flush(&mut win, 1);
            assert!(mpi.now() > before);
        }
        mpi.fence(&mut win);
        // After the fence, everyone observes the data.
        let mut out = [0u8; 4];
        if mpi.rank() == 1 {
            mpi.win_read_local(&win, 0, &mut out);
        }
        out
    });
    assert_eq!(r.results[1], [3, 3, 3, 3]);
}

#[test]
fn rdma_put_is_asynchronous_until_flush() {
    // Under the hostname policy the put is RDMA: the origin's clock
    // advances only by the post cost at put time, and jumps at flush.
    let r = pair(LocalityPolicy::Hostname).run(|mpi| {
        let mut win = mpi.win_allocate(1 << 20);
        mpi.fence(&mut win);
        if mpi.rank() == 0 {
            let t0 = mpi.now();
            mpi.put(&mut win, 1, 0, &vec![1u8; 1 << 20]);
            let post_cost = mpi.now() - t0;
            mpi.flush(&mut win, 1);
            let total = mpi.now() - t0;
            mpi.fence(&mut win);
            (post_cost, total)
        } else {
            mpi.fence(&mut win);
            (SimTime::ZERO, SimTime::ZERO)
        }
    });
    let (post, total) = r.results[0];
    assert!(post < SimTime::from_us(2), "put post cost {post}");
    // 1 MiB through 3 GB/s loopback: hundreds of microseconds.
    assert!(
        total > SimTime::from_us(100),
        "flush-completed total {total}"
    );
}

#[test]
fn multiple_windows_are_independent() {
    let r = pair(LocalityPolicy::ContainerDetector).run(|mpi| {
        let mut w1 = mpi.win_allocate(64);
        let mut w2 = mpi.win_allocate(64);
        if mpi.rank() == 0 {
            mpi.put(&mut w1, 1, 0, &[111u8]);
            mpi.put(&mut w2, 1, 0, &[222u8]);
        }
        mpi.fence(&mut w1);
        mpi.fence(&mut w2);
        if mpi.rank() == 1 {
            let mut a = [0u8];
            let mut b = [0u8];
            mpi.win_read_local(&w1, 0, &mut a);
            mpi.win_read_local(&w2, 0, &mut b);
            (a[0], b[0])
        } else {
            (0, 0)
        }
    });
    assert_eq!(r.results[1], (111, 222));
}

#[test]
fn intersocket_onesided_pays_more() {
    let run = |same_socket| {
        JobSpec::new(DeploymentScenario::pt2pt_pair(
            true,
            same_socket,
            NamespaceSharing::default(),
        ))
        .run(|mpi| {
            let mut win = mpi.win_allocate(8192);
            mpi.fence(&mut win);
            if mpi.rank() == 0 {
                let t0 = mpi.now();
                for _ in 0..16 {
                    mpi.put(&mut win, 1, 0, &vec![0u8; 8192]);
                }
                mpi.flush(&mut win, 1);
                let dt = mpi.now() - t0;
                mpi.fence(&mut win);
                dt
            } else {
                mpi.fence(&mut win);
                SimTime::ZERO
            }
        })
        .results[0]
    };
    assert!(run(false) > run(true));
}
