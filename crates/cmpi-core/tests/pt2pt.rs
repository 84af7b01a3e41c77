//! Point-to-point integration tests: correctness of every channel route
//! plus the virtual-time relationships the paper reports.

use bytes::Bytes;
use cmpi_cluster::{Channel, DeploymentScenario, NamespaceSharing, SimTime};
use cmpi_core::{Completion, JobSpec, LocalityPolicy, ANY_SOURCE, ANY_TAG};

fn pair(policy: LocalityPolicy) -> JobSpec {
    JobSpec::new(DeploymentScenario::pt2pt_pair(
        true,
        true,
        NamespaceSharing::default(),
    ))
    .with_policy(policy)
}

/// Ping-pong a message of `len` bytes and return rank 0's elapsed time.
fn pingpong(spec: &JobSpec, len: usize, iters: usize) -> SimTime {
    let r = spec.run(|mpi| {
        let payload = Bytes::from(vec![0x5au8; len]);
        if mpi.rank() == 0 {
            let t0 = mpi.now();
            for _ in 0..iters {
                mpi.send_bytes(payload.clone(), 1, 1);
                let (echo, st) = mpi.recv_bytes(1, 2);
                assert_eq!(echo.len(), len);
                assert_eq!(st.src, 1);
            }
            (mpi.now() - t0) / (2 * iters as u64)
        } else {
            for _ in 0..iters {
                let (msg, _) = mpi.recv_bytes(0, 1);
                mpi.send_bytes(msg, 0, 2);
            }
            SimTime::ZERO
        }
    });
    r.results[0]
}

#[test]
fn payload_roundtrips_on_every_route() {
    // Sizes straddling SMP_EAGER_SIZE (8K) and MV2_IBA_EAGER_THRESHOLD (17K).
    let sizes = [
        0usize,
        1,
        7,
        1024,
        8 * 1024,
        8 * 1024 + 1,
        17 * 1024 + 1,
        256 * 1024,
    ];
    for policy in [LocalityPolicy::Hostname, LocalityPolicy::ContainerDetector] {
        for &len in &sizes {
            let spec = pair(policy);
            let r = spec.run(|mpi| {
                if mpi.rank() == 0 {
                    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                    mpi.send_bytes(Bytes::from(data), 1, 42);
                    true
                } else {
                    let (msg, st) = mpi.recv_bytes(0, 42);
                    assert_eq!(st.len, len, "policy {policy:?} len {len}");
                    msg.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8)
                }
            });
            assert!(r.results[1], "corrupt payload: policy {policy:?} len {len}");
        }
    }
}

#[test]
fn detector_routes_shm_and_cma_hostname_routes_hca() {
    // 1 KiB (eager range) between two co-resident containers.
    let opt = pair(LocalityPolicy::ContainerDetector).run(|mpi| {
        if mpi.rank() == 0 {
            mpi.send_bytes(Bytes::from(vec![0u8; 1024]), 1, 0);
        } else {
            mpi.recv_bytes(0, 0);
        }
    });
    assert!(opt.stats.channel_ops(Channel::Shm) > 0);
    assert_eq!(opt.stats.channel_ops(Channel::Hca), 0);

    let def = pair(LocalityPolicy::Hostname).run(|mpi| {
        if mpi.rank() == 0 {
            mpi.send_bytes(Bytes::from(vec![0u8; 1024]), 1, 0);
        } else {
            mpi.recv_bytes(0, 0);
        }
    });
    assert_eq!(def.stats.channel_ops(Channel::Shm), 0);
    assert!(def.stats.channel_ops(Channel::Hca) > 0);
}

#[test]
fn large_messages_use_cma_under_detector() {
    let r = pair(LocalityPolicy::ContainerDetector).run(|mpi| {
        if mpi.rank() == 0 {
            mpi.send_bytes(Bytes::from(vec![9u8; 64 * 1024]), 1, 0);
        } else {
            let (m, _) = mpi.recv_bytes(0, 0);
            assert!(m.iter().all(|&b| b == 9));
        }
    });
    assert_eq!(r.stats.channel_ops(Channel::Cma), 1);
    assert_eq!(r.stats.channel_bytes(Channel::Cma), 64 * 1024);
}

#[test]
fn paper_1kib_latency_relationships() {
    // Paper Section V-B: default ~2.26us, opt ~0.47us, native ~0.44us.
    let def = pingpong(&pair(LocalityPolicy::Hostname), 1024, 20);
    let opt = pingpong(&pair(LocalityPolicy::ContainerDetector), 1024, 20);
    let native = pingpong(
        &JobSpec::new(DeploymentScenario::pt2pt_pair(
            false,
            true,
            NamespaceSharing::default(),
        )),
        1024,
        20,
    );
    // Shape: default is several times worse; opt is within ~10% of native.
    assert!(def.as_ns() > 3 * opt.as_ns(), "def {def} vs opt {opt}");
    assert!(opt > native, "opt {opt} vs native {native}");
    let overhead = (opt.as_ns() - native.as_ns()) as f64 / native.as_ns() as f64;
    assert!(
        overhead < 0.10,
        "container overhead {overhead:.3} vs paper ~7%"
    );
    // Magnitudes: within a factor ~1.5 of the paper's absolute numbers.
    assert!(
        (300..800).contains(&opt.as_ns()),
        "opt 1KiB latency = {opt}"
    );
    assert!(
        (1_500..3_500).contains(&def.as_ns()),
        "def 1KiB latency = {def}"
    );
}

#[test]
fn inter_socket_costs_more_than_intra() {
    let intra = pingpong(
        &JobSpec::new(DeploymentScenario::pt2pt_pair(
            true,
            true,
            NamespaceSharing::default(),
        )),
        8 * 1024,
        10,
    );
    let inter = pingpong(
        &JobSpec::new(DeploymentScenario::pt2pt_pair(
            true,
            false,
            NamespaceSharing::default(),
        )),
        8 * 1024,
        10,
    );
    assert!(inter > intra, "inter {inter} intra {intra}");
}

#[test]
fn isolated_namespaces_fall_back_to_hca_but_stay_correct() {
    let spec = JobSpec::new(DeploymentScenario::pt2pt_pair(
        true,
        true,
        NamespaceSharing::isolated(),
    ))
    .with_policy(LocalityPolicy::ContainerDetector);
    let r = spec.run(|mpi| {
        if mpi.rank() == 0 {
            mpi.send_bytes(Bytes::from(vec![1u8; 4096]), 1, 0);
            0
        } else {
            let (m, _) = mpi.recv_bytes(0, 0);
            m.len()
        }
    });
    assert_eq!(r.results[1], 4096);
    // Without shared IPC the detector cannot see the peer: HCA loopback.
    assert_eq!(r.stats.channel_ops(Channel::Shm), 0);
    assert_eq!(r.stats.channel_ops(Channel::Cma), 0);
    assert!(r.stats.channel_ops(Channel::Hca) > 0);
}

#[test]
fn message_ordering_is_preserved() {
    let spec = pair(LocalityPolicy::ContainerDetector);
    let r = spec.run(|mpi| {
        if mpi.rank() == 0 {
            for i in 0..50u32 {
                mpi.send(&[i], 1, 7);
            }
            Vec::new()
        } else {
            let mut got = Vec::new();
            for _ in 0..50 {
                let mut buf = [0u32];
                mpi.recv(&mut buf, 0, 7);
                got.push(buf[0]);
            }
            got
        }
    });
    assert_eq!(r.results[1], (0..50).collect::<Vec<u32>>());
}

#[test]
fn mixed_eager_and_rendezvous_preserve_order() {
    // A large (rendezvous) message followed by small (eager) ones with the
    // same tag must still match in send order.
    let spec = pair(LocalityPolicy::ContainerDetector);
    let r = spec.run(|mpi| {
        if mpi.rank() == 0 {
            mpi.send_bytes(Bytes::from(vec![1u8; 100 * 1024]), 1, 5);
            mpi.send_bytes(Bytes::from(vec![2u8; 16]), 1, 5);
            0
        } else {
            let (a, _) = mpi.recv_bytes(0, 5);
            let (b, _) = mpi.recv_bytes(0, 5);
            assert_eq!(a.len(), 100 * 1024);
            assert_eq!(a[0], 1);
            assert_eq!(b.len(), 16);
            assert_eq!(b[0], 2);
            1
        }
    });
    assert_eq!(r.results[1], 1);
}

#[test]
fn any_source_and_any_tag_receive() {
    let spec = JobSpec::new(DeploymentScenario::containers(
        1,
        4,
        1,
        NamespaceSharing::default(),
    ));
    let r = spec.run(|mpi| {
        if mpi.rank() == 0 {
            let mut sum = 0u64;
            for _ in 0..3 {
                let (m, st) = mpi.recv_bytes(ANY_SOURCE, ANY_TAG);
                assert_eq!(st.len, m.len());
                sum += m[0] as u64 + st.tag as u64;
            }
            sum
        } else {
            mpi.send_bytes(
                Bytes::from(vec![mpi.rank() as u8]),
                0,
                10 + mpi.rank() as u32,
            );
            0
        }
    });
    // 1+2+3 payload + (11+12+13) tags.
    assert_eq!(r.results[0], 6 + 36);
}

#[test]
fn self_send_works_for_all_sizes() {
    let spec = JobSpec::new(DeploymentScenario::native(1, 1));
    let r = spec.run(|mpi| {
        let req = mpi.irecv_bytes(0, 3);
        mpi.send_bytes(Bytes::from(vec![7u8; 50_000]), 0, 3);
        let Completion::Recv(data, st) = mpi.wait(req) else {
            panic!()
        };
        assert_eq!(st.src, 0);
        data.len()
    });
    assert_eq!(r.results[0], 50_000);
}

#[test]
fn test_polls_until_completion() {
    let spec = pair(LocalityPolicy::ContainerDetector);
    let r = spec.run(|mpi| {
        if mpi.rank() == 0 {
            // Wait for the receiver's "I have polled once" handshake, so
            // at least one failed poll is guaranteed regardless of how
            // the OS schedules the two rank threads.
            let go = mpi.irecv_bytes(1, 1);
            mpi.wait(go);
            mpi.compute(SimTime::from_us(50));
            mpi.send_bytes(Bytes::from_static(b"late"), 1, 0);
            0usize
        } else {
            let req = mpi.irecv_bytes(0, 0);
            let mut polls = 0usize;
            if mpi.test(&req).is_none() {
                polls += 1;
            }
            mpi.send_bytes(Bytes::from_static(b"go"), 0, 1);
            loop {
                if let Some(Completion::Recv(data, _)) = mpi.test(&req) {
                    assert_eq!(&data[..], b"late");
                    break;
                }
                polls += 1;
            }
            polls
        }
    });
    assert!(
        r.results[1] > 0,
        "receiver should have polled while the sender computed"
    );
    // The receiver's clock must have advanced past the sender's compute.
    assert!(r.times[1] >= SimTime::from_us(50));
}

#[test]
fn iprobe_sees_pending_message_without_consuming() {
    let spec = pair(LocalityPolicy::ContainerDetector);
    let r = spec.run(|mpi| {
        if mpi.rank() == 0 {
            mpi.send_bytes(Bytes::from(vec![0u8; 2048]), 1, 9);
            true
        } else {
            let st = loop {
                if let Some(st) = mpi.iprobe(0, 9) {
                    break st;
                }
            };
            assert_eq!(st.len, 2048);
            // Probe again: still there.
            assert!(mpi.iprobe(0, 9).is_some());
            let (m, _) = mpi.recv_bytes(0, 9);
            m.len() == 2048 && mpi.iprobe(0, 9).is_none()
        }
    });
    assert!(r.results[1]);
}

#[test]
fn forced_channel_microbenchmark_routes() {
    for (channel, expect) in [
        (Channel::Shm, Channel::Shm),
        (Channel::Cma, Channel::Cma),
        (Channel::Hca, Channel::Hca),
    ] {
        let spec = pair(LocalityPolicy::ForceChannel(channel));
        let r = spec.run(|mpi| {
            if mpi.rank() == 0 {
                mpi.send_bytes(Bytes::from(vec![0u8; 32 * 1024]), 1, 0);
            } else {
                mpi.recv_bytes(0, 0);
            }
        });
        assert!(r.stats.channel_ops(expect) > 0, "forced {channel}");
        for other in Channel::ALL {
            if other != expect {
                assert_eq!(
                    r.stats.channel_ops(other),
                    0,
                    "forced {channel} leaked to {other}"
                );
            }
        }
    }
}

#[test]
fn channel_latency_ordering_shm_cma_hca_small() {
    // Fig. 3(b): at small sizes SHM < CMA < HCA.
    let lat = |c| pingpong(&pair(LocalityPolicy::ForceChannel(c)), 64, 10);
    let shm = lat(Channel::Shm);
    let cma = lat(Channel::Cma);
    let hca = lat(Channel::Hca);
    assert!(shm < cma, "shm {shm} cma {cma}");
    assert!(cma < hca, "cma {cma} hca {hca}");
}

#[test]
fn channel_crossover_cma_beats_shm_large() {
    // Fig. 3(b): CMA wins above ~8K.
    let lat = |c, len| pingpong(&pair(LocalityPolicy::ForceChannel(c)), len, 6);
    assert!(lat(Channel::Shm, 2 * 1024) < lat(Channel::Cma, 2 * 1024));
    assert!(lat(Channel::Cma, 64 * 1024) < lat(Channel::Shm, 64 * 1024));
}

#[test]
fn remote_pair_uses_wire_not_loopback() {
    let spec = JobSpec::new(DeploymentScenario::pt2pt_two_hosts(
        true,
        NamespaceSharing::default(),
    ));
    let remote = pingpong(&spec, 4096, 10);
    let local_def = pingpong(&pair(LocalityPolicy::Hostname), 4096, 10);
    // Loopback HCA latency exceeds switch latency in the model, so the
    // co-resident default case is *worse* than genuinely remote traffic —
    // exactly the pathology the paper highlights.
    assert!(local_def > remote, "loopback {local_def} vs wire {remote}");
}

#[test]
fn unexpected_messages_cost_an_extra_copy() {
    // Receiver that posts late pays for the buffered copy; elapsed times
    // must reflect it (sender finishes eagerly either way).
    let spec = pair(LocalityPolicy::ContainerDetector);
    let r = spec.run(|mpi| {
        if mpi.rank() == 0 {
            mpi.send_bytes(Bytes::from(vec![0u8; 8 * 1024]), 1, 0);
            SimTime::ZERO
        } else {
            mpi.compute(SimTime::from_ms(1)); // arrive late
            let t0 = mpi.now();
            mpi.recv_bytes(0, 0);
            mpi.now() - t0
        }
    });
    let late_cost = r.results[1];
    let r2 = spec.run(|mpi| {
        if mpi.rank() == 0 {
            mpi.compute(SimTime::from_ms(1)); // send late: recv is posted
            mpi.send_bytes(Bytes::from(vec![0u8; 8 * 1024]), 1, 0);
            SimTime::ZERO
        } else {
            let t0 = mpi.now();
            mpi.recv_bytes(0, 0);
            mpi.now() - t0
        }
    });
    let posted_wait = r2.results[1];
    // In the posted case the receiver waited ~1ms for the sender; compare
    // only the portion past the send time: the unexpected path must be
    // strictly more expensive than the expected completion tail.
    assert!(late_cost.as_ns() > 0);
    assert!(posted_wait >= SimTime::from_ms(1));
}

#[test]
fn clocks_are_monotone_and_elapsed_is_max() {
    let spec = JobSpec::new(DeploymentScenario::containers(
        1,
        4,
        2,
        NamespaceSharing::default(),
    ));
    let r = spec.run(|mpi| {
        let n = mpi.size();
        let mut clocks = vec![mpi.now()];
        for i in 0..n {
            if i != mpi.rank() {
                mpi.sendrecv_bytes(Bytes::from(vec![0u8; 256]), i, 1, i, 1);
            }
            clocks.push(mpi.now());
        }
        clocks.windows(2).all(|w| w[0] <= w[1])
    });
    assert!(r.results.iter().all(|&ok| ok));
    assert_eq!(
        r.elapsed,
        r.times.iter().copied().fold(SimTime::ZERO, SimTime::max)
    );
}

/// `test` leaves the handle alive after `Some(..)`; using it again is a
/// usage error the table diagnoses (the id's generation is gone), not a
/// poll that answers `None` for ever.
#[test]
#[should_panic(expected = "unknown request")]
fn testing_a_finished_request_again_is_diagnosed() {
    JobSpec::new(DeploymentScenario::native(1, 1)).run(|mpi| {
        let req = mpi.irecv_bytes(0, 3);
        mpi.send_bytes(Bytes::from_static(b"once"), 0, 3);
        assert!(mpi.test(&req).is_some());
        // The slot is reused by a live request in between: the stale
        // handle must not see it.
        let other = mpi.irecv_bytes(0, 4);
        mpi.test(&req);
        mpi.wait(other);
    });
}

/// The send-side twin: an eager send is complete when posted and holds no
/// request slot, but its handle still remembers that `test` answered it.
#[test]
#[should_panic(expected = "unknown request")]
fn testing_a_finished_send_again_is_diagnosed() {
    JobSpec::new(DeploymentScenario::native(1, 1)).run(|mpi| {
        let req = mpi.isend_bytes(Bytes::from_static(b"once"), 0, 3);
        assert!(matches!(mpi.test(&req), Some(Completion::Send)));
        let (msg, _) = mpi.recv_bytes(0, 3);
        assert_eq!(&msg[..], b"once");
        mpi.test(&req);
    });
}

// ---- virtual-time golden ----------------------------------------------------

/// The API shapes `virtual_times_are_pinned` drives, one two-rank job each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// `isend_bytes` / `irecv_bytes`, then `wait`.
    Nonblocking,
    /// Both sides spin `test`; the sender computes 10 µs first, so the
    /// receiver's first polls fail (and must charge nothing).
    TestSpin,
    /// Three messages, received in reverse tag order, `waitall` both sides.
    WaitallReversed,
    /// Every rank sends to itself.
    SelfSend,
    /// The receiver arrives 1 ms late: the message (or its RTS) is
    /// unexpected and an eager payload pays the extra copy.
    Unexpected,
    /// IPC-only containers (no CMA) with a 16 KiB pair queue and a late
    /// receiver: above 8 KiB the detector chunks through SHM and stalls on
    /// the queue; hostname routing goes to the HCA as ever.
    Backpressure,
}

const SHAPES: [Shape; 6] = [
    Shape::Nonblocking,
    Shape::TestSpin,
    Shape::WaitallReversed,
    Shape::SelfSend,
    Shape::Unexpected,
    Shape::Backpressure,
];
const PINNED_SIZES: [usize; 4] = [8, 1024, 64 * 1024, 1024 * 1024];

/// Both ranks' final clocks in ns, then transfer operations on
/// [SHM, CMA, HCA].
type Pinned = ([u64; 2], [u64; 3]);

fn observe_shape(policy: LocalityPolicy, len: usize, shape: Shape) -> Pinned {
    let mut sharing = NamespaceSharing::default();
    let mut tunables = cmpi_cluster::Tunables::default();
    if shape == Shape::Backpressure {
        sharing.pid = false;
        tunables = tunables.with_smpi_length_queue(16 * 1024);
    }
    let spec = JobSpec::new(DeploymentScenario::pt2pt_pair(true, true, sharing))
        .with_policy(policy)
        .with_tunables(tunables)
        .with_exec(cmpi_core::ExecMode::Tasks)
        .with_workers(1);
    let r = spec.run(|mpi| {
        let me = mpi.rank();
        let payload = Bytes::from(vec![0xa5u8; len]);
        match shape {
            Shape::Nonblocking => {
                let req = if me == 0 {
                    mpi.isend_bytes(payload, 1, 3)
                } else {
                    mpi.irecv_bytes(0, 3)
                };
                if let Completion::Recv(data, st) = mpi.wait(req) {
                    assert_eq!((data.len(), st.len, st.src, st.tag), (len, len, 0, 3));
                }
            }
            Shape::TestSpin => {
                let req = if me == 0 {
                    mpi.compute(SimTime::from_us(10));
                    mpi.isend_bytes(payload, 1, 3)
                } else {
                    mpi.irecv_bytes(0, 3)
                };
                let done = loop {
                    if let Some(c) = mpi.test(&req) {
                        break c;
                    }
                };
                if let Completion::Recv(data, _) = done {
                    assert_eq!(data.len(), len);
                }
            }
            Shape::WaitallReversed => {
                let reqs = if me == 0 {
                    (1..=3)
                        .map(|t| mpi.isend_bytes(payload.clone(), 1, t))
                        .collect()
                } else {
                    (1..=3).rev().map(|t| mpi.irecv_bytes(0, t)).collect()
                };
                for (i, c) in mpi.waitall(reqs).into_iter().enumerate() {
                    if let Completion::Recv(data, st) = c {
                        assert_eq!((data.len(), st.tag), (len, 3 - i as u32));
                    }
                }
            }
            Shape::SelfSend => {
                let rreq = mpi.irecv_bytes(me, 3);
                let sreq = mpi.isend_bytes(payload, me, 3);
                let (data, _) = mpi.wait(rreq).into_recv();
                assert_eq!(data.len(), len);
                mpi.wait(sreq);
            }
            Shape::Unexpected | Shape::Backpressure => {
                if me == 0 {
                    mpi.send_bytes(payload, 1, 3);
                } else {
                    mpi.compute(SimTime::from_ms(1));
                    let (data, _) = mpi.recv_bytes(0, 3);
                    assert_eq!(data.len(), len);
                }
            }
        }
        mpi.now().as_ns()
    });
    let ops = [Channel::Shm, Channel::Cma, Channel::Hca].map(|c| r.stats.channel_ops(c));
    ([r.results[0], r.results[1]], ops)
}

/// Point-to-point virtual time, pinned: policy × size × API shape on one
/// worker (so the schedule, hence every time, repeats exactly). Recorded
/// at `6a96e1d`, before the request table and the call path were
/// converged; a host-side change to the point-to-point layer must leave
/// every row alone. On a mismatch the whole observed table is printed in
/// the syntax of the constant.
#[test]
fn virtual_times_are_pinned() {
    let policies = [LocalityPolicy::ContainerDetector, LocalityPolicy::Hostname];
    let mut observed = Vec::new();
    for policy in policies {
        for len in PINNED_SIZES {
            for shape in SHAPES {
                observed.push(observe_shape(policy, len, shape));
            }
        }
    }
    if observed != PINNED {
        let mut table = String::new();
        for (i, (t, ops)) in observed.iter().enumerate() {
            let (p, rest) = (i / 24, i % 24);
            let (len, shape) = (PINNED_SIZES[rest / 6], SHAPES[rest % 6]);
            table += &format!(
                "    ([{}, {}], [{}, {}, {}]), // {:?} {} {:?}\n",
                t[0], t[1], ops[0], ops[1], ops[2], policies[p], len, shape
            );
        }
        panic!("point-to-point virtual times moved; observed:\n{table}");
    }
}

#[rustfmt::skip]
const PINNED: [Pinned; 48] = [
    ([101, 192], [1, 0, 0]), // ContainerDetector 8 Nonblocking
    ([10131, 10222], [1, 0, 0]), // ContainerDetector 8 TestSpin
    ([273, 374], [3, 0, 0]), // ContainerDetector 8 WaitallReversed
    ([71, 71], [2, 0, 0]), // ContainerDetector 8 SelfSend
    ([101, 1000041], [1, 0, 0]), // ContainerDetector 8 Unexpected
    ([101, 1000041], [1, 0, 0]), // ContainerDetector 8 Backpressure
    ([228, 446], [1, 0, 0]), // ContainerDetector 1024 Nonblocking
    ([10258, 10476], [1, 0, 0]), // ContainerDetector 1024 TestSpin
    ([654, 882], [3, 0, 0]), // ContainerDetector 1024 WaitallReversed
    ([173, 173], [2, 0, 0]), // ContainerDetector 1024 SelfSend
    ([228, 1000143], [1, 0, 0]), // ContainerDetector 1024 Unexpected
    ([228, 1000143], [1, 0, 0]), // ContainerDetector 1024 Backpressure
    ([7854, 7754], [0, 1, 0]), // ContainerDetector 65536 Nonblocking
    ([17884, 17784], [0, 1, 0]), // ContainerDetector 65536 TestSpin
    ([22562, 22492], [0, 3, 0]), // ContainerDetector 65536 WaitallReversed
    ([6624, 6624], [2, 0, 0]), // ContainerDetector 65536 SelfSend
    ([1007694, 1007594], [0, 1, 0]), // ContainerDetector 65536 Unexpected
    ([8802, 1006594], [8, 0, 0]), // ContainerDetector 65536 Backpressure
    ([106158, 106058], [0, 1, 0]), // ContainerDetector 1048576 Nonblocking
    ([116188, 116088], [0, 1, 0]), // ContainerDetector 1048576 TestSpin
    ([317474, 317404], [0, 3, 0]), // ContainerDetector 1048576 WaitallReversed
    ([104928, 104928], [2, 0, 0]), // ContainerDetector 1048576 SelfSend
    ([1105998, 1105898], [0, 1, 0]), // ContainerDetector 1048576 Unexpected
    ([140682, 1104898], [128, 0, 0]), // ContainerDetector 1048576 Backpressure
    ([191, 1706], [0, 0, 1]), // Hostname 8 Nonblocking
    ([10221, 11736], [0, 0, 1]), // Hostname 8 TestSpin
    ([543, 2138], [0, 0, 3]), // Hostname 8 WaitallReversed
    ([71, 71], [2, 0, 0]), // Hostname 8 SelfSend
    ([191, 1000041], [0, 0, 1]), // Hostname 8 Unexpected
    ([191, 1000041], [0, 0, 1]), // Hostname 8 Backpressure
    ([293, 2248], [0, 0, 1]), // Hostname 1024 Nonblocking
    ([10323, 12278], [0, 0, 1]), // Hostname 1024 TestSpin
    ([849, 2982], [0, 0, 3]), // Hostname 1024 WaitallReversed
    ([173, 173], [2, 0, 0]), // Hostname 1024 SelfSend
    ([293, 1000143], [0, 0, 1]), // Hostname 1024 Unexpected
    ([293, 1000143], [0, 0, 1]), // Hostname 1024 Backpressure
    ([28708, 27255], [0, 0, 1]), // Hostname 65536 Nonblocking
    ([38738, 37285], [0, 0, 1]), // Hostname 65536 TestSpin
    ([72884, 71461], [0, 0, 3]), // Hostname 65536 WaitallReversed
    ([6624, 6624], [2, 0, 0]), // Hostname 65536 SelfSend
    ([1026447, 1024994], [0, 0, 1]), // Hostname 65536 Unexpected
    ([1026447, 1024994], [0, 0, 1]), // Hostname 65536 Backpressure
    ([356388, 354935], [0, 0, 1]), // Hostname 1048576 Nonblocking
    ([366418, 364965], [0, 0, 1]), // Hostname 1048576 TestSpin
    ([1055924, 1054501], [0, 0, 3]), // Hostname 1048576 WaitallReversed
    ([104928, 104928], [2, 0, 0]), // Hostname 1048576 SelfSend
    ([1354127, 1352674], [0, 0, 1]), // Hostname 1048576 Unexpected
    ([1354127, 1352674], [0, 0, 1]), // Hostname 1048576 Backpressure
];
