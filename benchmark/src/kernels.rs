//! Per-layer micro-kernels: host time per call of the layers' public
//! functions, reached directly, with no job around them. Each kernel
//! reports the median over a few samples of a fixed iteration count.
//! `div` divides the iteration counts (`--quick`).

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use cmpi_cluster::{
    Channel, ContainerId, CostModel, DeploymentScenario, HostId, NamespaceId, NamespaceSharing,
    SimTime, Tunables,
};
use cmpi_core::locality::{LocalityMap, PeerInfo};
use cmpi_core::matching::{ArrivedBody, ArrivedMsg, MatchingEngine, PostedRecv};
use cmpi_core::{ChannelSelector, ExecMode, JobSpec, LocalityPolicy, LocalityView};
use cmpi_fabric::Fabric;
use cmpi_shmem::{ContainerList, PairQueue, ShmRegistry, Visibility};

use crate::stats::median;
use crate::workloads::{one_worker, prepare_with, run_rep, Workload};

const SAMPLES: usize = 5;

/// Median over [`SAMPLES`] samples of `ns / ops`, where each call of
/// `sample` sets up, times its own loop and returns `(ns, ops)`.
fn per_op(mut sample: impl FnMut() -> (u64, u64)) -> f64 {
    let v: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let (ns, ops) = sample();
            ns as f64 / ops as f64
        })
        .collect();
    median(&v)
}

/// Time `ops` calls of `f`.
fn timed(ops: u64, mut f: impl FnMut(u64)) -> (u64, u64) {
    let t0 = Instant::now();
    for i in 0..ops {
        f(i);
    }
    (t0.elapsed().as_nanos() as u64, ops)
}

const SIZES: [usize; 5] = [8, 1024, 8 * 1024, 64 * 1024, 1 << 20];

fn share() -> NamespaceSharing {
    NamespaceSharing::default()
}

fn eager_msg(src: usize, tag: u32, seq: u64) -> ArrivedMsg {
    ArrivedMsg {
        src,
        ctx: 0,
        tag,
        seq,
        body: ArrivedBody::Eager {
            data: Bytes::from_static(b"x"),
            ready_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        },
        channel: Channel::Shm,
    }
}

fn posted(rreq: u64, src: Option<usize>, tag: Option<u32>) -> PostedRecv {
    PostedRecv {
        rreq,
        src,
        ctx: 0,
        tag,
        posted_at: SimTime::ZERO,
    }
}

/// 1 KiB ping-pong between two co-resident containers; host ns per
/// message for the whole job (init and finalize included).
pub fn pingpong_ns_per_msg(spec: &JobSpec, rounds: u32) -> f64 {
    let data = Bytes::from(vec![7u8; 1024]);
    let t0 = Instant::now();
    spec.run(|mpi| {
        for _ in 0..rounds {
            if mpi.rank() == 0 {
                mpi.send_bytes(data.clone(), 1, 0);
                mpi.recv_bytes(1, 0);
            } else {
                let (m, _) = mpi.recv_bytes(0, 0);
                mpi.send_bytes(m, 0, 0);
            }
        }
    });
    t0.elapsed().as_nanos() as f64 / (2.0 * f64::from(rounds))
}

/// `a / b` from order-alternated back-to-back pairs: the geometric mean
/// of the two orders' median ratios, which cancels what running second
/// costs or saves on a shared host.
fn paired_ratio(pairs: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> f64 {
    let (mut a_first, mut b_first) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        if i % 2 == 0 {
            let x = a();
            a_first.push(x / b());
        } else {
            let y = b();
            b_first.push(a() / y);
        }
    }
    (median(&a_first) * median(&b_first)).sqrt()
}

/// Every micro-kernel, as `(metric, value)`.
pub fn run_all(seed: u64, div: u32) -> Vec<(&'static str, f64)> {
    let n = |ops: u64| (ops / u64::from(div)).max(1);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // ---- cluster: cost model and scenario construction
    let cost = CostModel::default();
    out.push((
        "cluster.cost_eval_ns",
        per_op(|| {
            let mut acc = 0u64;
            let (ns, ops) = timed(n(400_000), |i| {
                let b = black_box(SIZES[i as usize % SIZES.len()] as u64);
                acc += cost.shm_copy_time(b, 128 * 1024, i & 1 == 0).as_ns()
                    + cost.cma_time(b, i & 2 == 0).as_ns()
                    + cost.hca_wire_time(b, i & 4 == 0).as_ns();
            });
            black_box(acc);
            (ns, 3 * ops)
        }),
    ));
    out.push((
        "cluster.scenario_build_1024_us",
        per_op(|| {
            timed(n(20), |_| {
                black_box(DeploymentScenario::containers(64, 2, 8, share()));
            })
        }) / 1e3,
    ));

    // ---- channel: route selection over a peer x size mix
    let sel = ChannelSelector::new(LocalityPolicy::ContainerDetector, Tunables::default());
    let peer = |considered_local, shm, cma, same_socket| PeerInfo {
        considered_local,
        vis: Visibility {
            co_resident: considered_local,
            same_container: false,
            shm,
            cma,
        },
        same_socket,
        downgraded: None,
    };
    let peers = [
        peer(true, true, true, true),
        peer(true, true, true, false),
        peer(true, true, false, true),
        peer(false, false, false, false),
    ];
    out.push((
        "channel.route_ns",
        per_op(|| {
            let mut acc = 0usize;
            let r = timed(n(2_000_000), |i| {
                let p = black_box(&peers[i as usize % peers.len()]);
                let route = sel.route(p, black_box(SIZES[(i / 4) as usize % SIZES.len()]));
                acc += route.channel as usize + route.protocol as usize;
            });
            black_box(acc);
            r
        }),
    ));

    // ---- shmem: pair queue, container list, segment
    out.push((
        "shmem.pairq_acquire_release_ns",
        per_op(|| {
            let q = PairQueue::new(128 * 1024);
            timed(n(1_000_000), |i| {
                black_box(q.try_acquire(8192).expect("queue has space"));
                q.release(8192, SimTime::from_ns(100 * (i + 1)));
            })
        }),
    ));
    out.push((
        "shmem.pairq_backpressured_window_us",
        per_op(|| {
            timed(n(20_000), |_| {
                // 32 sends of 8 KiB through a 64 KiB queue: every send
                // past the eighth waits for a receiver-side release.
                let q = PairQueue::new(64 * 1024);
                let mut t = 0u64;
                for _ in 0..32 {
                    while q.try_acquire(8192).is_none() {
                        t += 50;
                        q.release(8192, SimTime::from_ns(t));
                    }
                }
                black_box(t);
            })
        }) / 1e3,
    ));
    let reg = ShmRegistry::new();
    let list = ContainerList::attach(&reg, HostId(0), NamespaceId(0), 1024);
    for r in 0..16 {
        list.publish(r * 64, ContainerId((r % 4) as u32))
            .expect("publish into an empty slot");
    }
    out.push((
        "shmem.clist_publish_ns",
        per_op(|| {
            // Idempotent republish of a claimed slot: the steady-state
            // compare-exchange without growing the list.
            timed(n(2_000_000), |_| {
                black_box(list.publish(black_box(512), ContainerId(0)).is_ok());
            })
        }),
    ));
    out.push((
        "shmem.clist_scan_1024_us",
        per_op(|| {
            timed(n(20_000), |_| {
                black_box(list.local_size());
            })
        }) / 1e3,
    ));
    let seg = reg.open_or_create(HostId(0), NamespaceId(0), "bench", 1 << 20);
    let block = vec![0xa5u8; 64 * 1024];
    let mut back = vec![0u8; 64 * 1024];
    out.push((
        "shmem.segment_rw_64k_ns",
        per_op(|| {
            timed(n(2_000), |_| {
                seg.write(0, black_box(&block));
                seg.read(0, &mut back);
                black_box(back[0]);
            })
        }),
    ));

    // ---- fabric: attach, two-sided post + poll, RDMA
    out.push((
        "fabric.attach_us",
        per_op(|| {
            let f = Fabric::new(cost);
            timed(n(2_048), |r| {
                f.attach(r as usize, HostId(r as u32 / 16), true)
                    .expect("privileged attach");
            })
        }) / 1e3,
    ));
    let two_hosts = || {
        let f = Fabric::new(cost);
        for r in 0..2 {
            f.attach(r, HostId(r as u32), true)
                .expect("privileged attach");
        }
        f
    };
    let kib = Bytes::from(vec![3u8; 1024]);
    out.push((
        "fabric.post_poll_1k_ns",
        per_op(|| {
            // A fresh fabric per sample: its link schedule keeps one
            // entry per message for the fabric's lifetime.
            let f = two_hosts();
            timed(n(50_000), |i| {
                let now = SimTime::from_us(10 * i);
                f.post_send(0, 1, 0, kib.clone(), now).expect("attached");
                black_box(f.poll_recv(1).expect("attached").len());
            })
        }),
    ));
    let big = vec![9u8; 64 * 1024];
    out.push((
        "fabric.rdma_write_64k_ns",
        per_op(|| {
            let f = two_hosts();
            let mr = f.register_mr(1, big.len()).expect("attached");
            timed(n(5_000), |i| {
                let now = SimTime::from_us(100 * i);
                black_box(
                    f.rdma_write(0, mr.rkey(), 0, &big, now)
                        .expect("valid rkey"),
                );
            })
        }),
    ));
    out.push((
        "fabric.rdma_read_64k_ns",
        per_op(|| {
            let f = two_hosts();
            let mr = f.register_mr(1, big.len()).expect("attached");
            timed(n(5_000), |i| {
                let now = SimTime::from_us(100 * i);
                let (data, _) = f
                    .rdma_read(0, mr.rkey(), 0, big.len(), now)
                    .expect("valid rkey");
                black_box(data.len());
            })
        }),
    ));

    // ---- matching: the four queue operations of the progress engine
    const DEPTH: u32 = 64;
    let rounds = n(5_000);
    out.push((
        "matching.post_match_d64_ns",
        per_op(|| {
            // 64 posted receives, matched in reverse post order.
            let mut sink = 0;
            let (ns, ops) = timed(rounds, |_| {
                let mut e = MatchingEngine::new();
                for i in 0..DEPTH {
                    e.post_recv(posted(u64::from(i), Some(1), Some(i)));
                }
                for i in (0..DEPTH).rev() {
                    let m = eager_msg(1, i, u64::from(DEPTH - 1 - i));
                    sink += e.take_matching_posted(&m).expect("posted match").rreq;
                }
            });
            black_box(sink);
            (ns, ops * u64::from(DEPTH))
        }),
    ));
    out.push((
        "matching.unexpected_push_pop_ns",
        per_op(|| {
            // 64 unexpected messages, received in reverse arrival order.
            let mut sink = 0;
            let (ns, ops) = timed(rounds, |_| {
                let mut e = MatchingEngine::new();
                for i in 0..DEPTH {
                    e.push_unexpected(eager_msg(2, i, u64::from(i)));
                }
                for i in (0..DEPTH).rev() {
                    let p = posted(u64::from(i), Some(2), Some(i));
                    sink += e.post_recv(p).expect("unexpected match").seq;
                }
            });
            black_box(sink);
            (ns, ops * u64::from(DEPTH))
        }),
    ));
    out.push((
        "matching.wildcard_match_ns",
        per_op(|| {
            // Graph 500's pattern: one ANY_SOURCE/ANY_TAG receive at a
            // time against arrivals from 16 sources, half of them early.
            let mut e = MatchingEngine::new();
            let mut sink = 0;
            let r = timed(n(500_000), |i| {
                let m = eager_msg((i % 16) as usize, (i % 7) as u32, i);
                if i & 1 == 0 {
                    e.post_recv(posted(i, None, None));
                    sink += e.take_matching_posted(&m).expect("wildcard match").rreq;
                } else {
                    e.push_unexpected(m);
                    sink += e
                        .post_recv(posted(i, None, None))
                        .expect("unexpected match")
                        .seq;
                }
            });
            black_box(sink);
            r
        }),
    ));
    out.push((
        "matching.probe_miss_ns",
        per_op(|| {
            // 32 resident messages in distinct buckets; probes for a tag
            // nothing carries and for a source that never sent.
            let mut e = MatchingEngine::new();
            for i in 0..32u32 {
                e.push_unexpected(eager_msg(i as usize, 1000 + i, u64::from(i)));
            }
            let mut hits = 0u64;
            let r = timed(n(2_000_000), |i| {
                let j = (i % 32) as u32;
                let (src, tag) = if i & 1 == 0 {
                    (j as usize, j)
                } else {
                    (64 + j as usize, 1000 + j)
                };
                hits += u64::from(e.peek_unexpected(Some(src), 0, Some(tag)).is_some());
            });
            assert_eq!(hits, 0, "a miss-probe hit");
            r
        }),
    ));

    // ---- locality: the job-shared map and the per-rank detector
    let scn1024 = DeploymentScenario::containers(64, 2, 8, share());
    out.push((
        "locality.map_build_1024_us",
        per_op(|| {
            timed(n(200), |_| {
                black_box(LocalityMap::build(&scn1024.cluster, &scn1024.placement));
            })
        }) / 1e3,
    ));
    let scn16 = DeploymentScenario::fig1(4);
    out.push((
        "locality.view_publish_build_16_us",
        per_op(|| {
            // All 16 ranks of one host publish, then all 16 scan.
            timed(n(2_000), |_| {
                let reg = ShmRegistry::new();
                let (c, p) = (&scn16.cluster, &scn16.placement);
                let lists: Vec<_> = (0..16)
                    .map(|r| LocalityView::publish(&reg, c, p, r))
                    .collect();
                for (r, list) in lists.iter().enumerate() {
                    black_box(LocalityView::build(
                        LocalityPolicy::ContainerDetector,
                        c,
                        p,
                        r,
                        list,
                    ));
                }
            })
        }) / 1e3,
    ));

    // ---- runtime: a job whose closure does nothing
    let noop = |spec: &JobSpec, jobs: u64| {
        per_op(|| {
            timed(jobs, |_| {
                black_box(spec.run(|mpi| black_box(mpi.rank())).elapsed);
            })
        })
    };
    let pair = one_worker(DeploymentScenario::pt2pt_pair(true, true, share()));
    let job32 = one_worker(DeploymentScenario::containers(2, 2, 8, share()));
    let job1024 = one_worker(DeploymentScenario::containers(
        64 / div.min(8),
        2,
        8,
        share(),
    ))
    .with_stack_kib(128);
    out.push(("runtime.noop_job_2_us", noop(&pair, n(500)) / 1e3));
    out.push(("runtime.noop_job_32_us", noop(&job32, n(50)) / 1e3));
    out.push(("runtime.noop_job_1024_ms", noop(&job1024, 1) / 1e6));

    // ---- exec: barrier-only loop (almost pure fiber switch + poke),
    // and the same mixed job on two workers and on OS threads
    let barriers = n(2_000);
    out.push((
        "exec.barrier32_ns",
        per_op(|| {
            let t0 = Instant::now();
            job32.run(|mpi| (0..barriers).for_each(|_| mpi.barrier()));
            (t0.elapsed().as_nanos() as u64, barriers)
        }),
    ));
    let mixed_wall = |tweak: &dyn Fn(JobSpec) -> JobSpec| {
        let p = prepare_with(Workload::Mixed32, seed, 2 * div, tweak);
        move || run_rep(&p, 0, false).wall_ns as f64
    };
    let mut one_worker = mixed_wall(&|s| s);
    out.push((
        "exec.w2_over_w1_wall",
        paired_ratio(6, mixed_wall(&|s| s.with_workers(2)), &mut one_worker),
    ));
    out.push((
        "exec.threads_over_tasks_wall",
        paired_ratio(
            4,
            mixed_wall(&|s| s.with_exec(ExecMode::Threads)),
            &mut one_worker,
        ),
    ));

    // ---- telemetry and profiling: 1 KiB SHM ping-pong, on over off
    let rounds = (20_000 / div).max(1);
    let mut on_ns = Vec::new();
    let mut on = || {
        let v = pingpong_ns_per_msg(&pair, rounds);
        on_ns.push(v);
        v
    };
    let off = pair.clone().without_telemetry();
    let prof = pair.clone().with_profiling();
    let tel_ratio = paired_ratio(10, &mut on, || pingpong_ns_per_msg(&off, rounds));
    let prof_ratio = paired_ratio(10, || pingpong_ns_per_msg(&prof, rounds), &mut on);
    out.push(("telemetry.on_over_off_wall", tel_ratio));
    out.push(("prof.on_over_off_wall", prof_ratio));
    out.push(("pt2pt.shm_1k_ns_per_msg", median(&on_ns)));

    // ---- paper: the Fig. 8 ratios on the virtual clock
    let def = pair.clone().with_policy(LocalityPolicy::Hostname);
    let lat = |s: &JobSpec| cmpi_osu::pt2pt::latency(s, &[1024], 40)[0].value;
    let bw = |s: &JobSpec| cmpi_osu::pt2pt::bandwidth(s, &[64 * 1024], 64, 8)[0].value;
    out.push(("paper.lat_1k_opt_over_def", lat(&pair) / lat(&def)));
    out.push(("paper.bw_64k_opt_over_def", bw(&pair) / bw(&def)));
    out
}
