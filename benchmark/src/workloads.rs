//! The six workloads. Each is a closed loop with one client: one job at
//! a time, every job `ExecMode::Tasks` on one worker, so the process
//! never has more runnable threads than this box has cores and the
//! schedule — hence every count and virtual time — repeats exactly.
//!
//! A repetition runs the workload's jobs, checks every output (each
//! check is one *operation*) and folds wall time, virtual time, job
//! phases, counts and — in a traced run — spans into a [`Rep`].

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use cmpi_apps::graph500::generator::splitmix64;
use cmpi_apps::graph500::{bfs, Graph500Config};
use cmpi_cluster::{DeploymentScenario, NamespaceSharing, SimTime};
use cmpi_core::{
    Completion, ExecMode, JobSpec, LocalityPolicy, MetricId, MetricKind, Mpi, ReduceOp,
};

use crate::trace::{now_ns, push_job, Name, RankTracer, Span};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PtEager,
    PtRndv,
    Mixed32,
    Coll64,
    Scale1024,
    Graph500,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload::PtEager,
    Workload::PtRndv,
    Workload::Mixed32,
    Workload::Coll64,
    Workload::Scale1024,
    Workload::Graph500,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PtEager => "pt2pt_eager",
            Workload::PtRndv => "pt2pt_rndv",
            Workload::Mixed32 => "mixed32",
            Workload::Coll64 => "coll64",
            Workload::Scale1024 => "scale1024",
            Workload::Graph500 => "graph500_s14",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one repetition is expected to take on the 2-core
    /// reference box; the watchdog allows a child ten times its sum.
    pub fn expected_rep_s(self) -> f64 {
        match self {
            Workload::PtEager => 0.18,
            Workload::PtRndv => 0.19,
            Workload::Mixed32 => 0.15,
            Workload::Coll64 => 0.34,
            Workload::Scale1024 => 0.22,
            Workload::Graph500 => 0.73,
        }
    }

    /// Yardstick bursts on either side of the timed repetition: about an
    /// eighth of its expected time. A burst samples the host for 25 ms;
    /// `graph500_s14`, with a dozen children in a run, needs four a side
    /// for its drift to be as well known as its repetition (spread of ten
    /// run medians 15.6 % with one, 8.9 % with four).
    pub fn yard_bursts(self) -> u32 {
        (self.expected_rep_s() / 0.2).round().max(1.0) as u32
    }

    /// Whether a child runs one untimed repetition before the timed one.
    /// Not `scale1024`: there the cold job *is* the cost.
    pub fn warm_up(self) -> bool {
        self != Workload::Scale1024
    }
}

// ---------------------------------------------------------------- counts

/// Per-repetition counts read from `JobResult::telemetry`, in report
/// order. Counters sum over a repetition's jobs, gauges take the peak.
pub const COUNTS: [(&str, MetricId); 24] = [
    ("channel.shm_ops", MetricId::ShmOps),
    ("channel.cma_ops", MetricId::CmaOps),
    ("channel.hca_ops", MetricId::HcaOps),
    ("channel.shm_bytes", MetricId::ShmBytes),
    ("channel.cma_bytes", MetricId::CmaBytes),
    ("channel.hca_bytes", MetricId::HcaBytes),
    ("channel.eager_msgs", MetricId::EagerMsgs),
    ("channel.rndv_msgs", MetricId::RndvMsgs),
    ("shmem.queue_acquires", MetricId::ShmQueueAcquires),
    ("shmem.queue_stalls", MetricId::ShmQueueStalls),
    ("shmem.max_in_flight", MetricId::ShmMaxInFlight),
    ("fabric.sends", MetricId::FabricSends),
    ("fabric.recvs", MetricId::FabricRecvs),
    ("fabric.rdma", MetricId::FabricRdma),
    ("matching.posted_peak", MetricId::MatchPostedPeak),
    ("matching.unexpected_peak", MetricId::MatchUnexpectedPeak),
    ("coll.selected_flat", MetricId::CollFlat),
    ("coll.selected_two_level", MetricId::CollTwoLevel),
    ("coll.selected_large", MetricId::CollLarge),
    ("mailbox.pushes", MetricId::MailboxPushes),
    ("mailbox.parks", MetricId::MailboxParks),
    ("mailbox.wakes", MetricId::MailboxWakes),
    ("telemetry.flight_events", MetricId::FlightEvents),
    ("telemetry.flight_dropped", MetricId::FlightDropped),
];
pub type Counts = [u64; COUNTS.len()];

const SHM_OPS: usize = 0;
const CMA_OPS: usize = 1;
const HCA_OPS: usize = 2;
const EAGER_MSGS: usize = 6;
const RNDV_MSGS: usize = 7;
const COLL_FLAT: usize = 16;
const COLL_TWO_LEVEL: usize = 17;
const COLL_LARGE: usize = 18;

/// Messages the protocol layer sent (`runtime.msgs`).
pub fn msgs(c: &Counts) -> u64 {
    c[EAGER_MSGS] + c[RNDV_MSGS]
}

fn fold_counts(into: &mut Counts, job: &Counts) {
    for (i, (_, id)) in COUNTS.iter().enumerate() {
        into[i] = match id.kind() {
            MetricKind::Gauge => into[i].max(job[i]),
            _ => into[i] + job[i],
        };
    }
}

// ------------------------------------------------------------ repetition

/// One job of a repetition, for per-leg reporting.
#[derive(Clone, Debug, PartialEq)]
pub struct Leg {
    pub name: &'static str,
    pub wall_ns: u64,
    pub msgs: u64,
}

/// What one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host ns inside `JobSpec::run`, summed over the jobs.
    pub wall_ns: u64,
    /// Host ns from job start until the last rank entered the closure,
    /// until the last rank left it, until `run` returned; summed over
    /// the jobs. The three add up to `wall_ns` exactly.
    pub phases: [u64; 3],
    /// Virtual ns, `JobResult::elapsed` summed over the jobs: the
    /// reproduced result.
    pub virt_ns: u64,
    pub attempted: u32,
    pub failures: Vec<String>,
    pub counts: Counts,
    pub legs: Vec<Leg>,
    /// Named virtual-clock results (Graph 500 only).
    pub results: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

struct JobOut<R> {
    ranks: Vec<R>,
    counts: Counts,
    elapsed: SimTime,
}

/// Folds a repetition's jobs and checks.
struct RepAcc {
    rep: u32,
    traced: bool,
    skew: SimTime,
    out: Rep,
}

impl RepAcc {
    fn check(&mut self, what: impl FnOnce() -> String, ok: bool) {
        self.out.attempted += 1;
        if !ok {
            self.out.failures.push(what());
        }
    }

    /// Run one job. Timing is from outside only: `run` entry and return,
    /// and the first and last lines of the rank closure.
    fn job<R: Send>(
        &mut self,
        name: &'static str,
        spec: &JobSpec,
        body: impl Fn(&mut Mpi, &mut RankTracer) -> R + Send + Sync,
    ) -> JobOut<R> {
        // Statistics only (a max of timestamps), so Relaxed.
        let entered = AtomicU64::new(0);
        let left = AtomicU64::new(0);
        let (rep, traced, skew) = (self.rep, self.traced, self.skew);
        let t0 = now_ns();
        let res = spec.run(|mpi| {
            let t_in = now_ns();
            entered.fetch_max(t_in, Ordering::Relaxed);
            mpi.compute(skew);
            let mut tr = RankTracer::new(traced, mpi.rank(), rep, t_in);
            let out = body(mpi, &mut tr);
            let t_out = now_ns();
            left.fetch_max(t_out, Ordering::Relaxed);
            (out, tr.finish(t_out))
        });
        let t1 = now_ns();
        let (entered, left) = (entered.into_inner(), left.into_inner());
        let tel = res.telemetry.as_ref().expect("telemetry is on by default");
        let mut counts = [0; COUNTS.len()];
        for (c, (_, id)) in counts.iter_mut().zip(COUNTS) {
            *c = tel.job_total(id);
        }
        let (ranks, spans): (Vec<R>, Vec<Vec<Span>>) = res.results.into_iter().unzip();
        if traced {
            push_job(&mut self.out.spans, rep, [t0, entered, left, t1], spans);
        }
        let o = &mut self.out;
        o.wall_ns += t1 - t0;
        o.virt_ns += res.elapsed.as_ns();
        for (p, d) in o
            .phases
            .iter_mut()
            .zip([entered - t0, left - entered, t1 - left])
        {
            *p += d;
        }
        fold_counts(&mut o.counts, &counts);
        o.legs.push(Leg {
            name,
            wall_ns: t1 - t0,
            msgs: msgs(&counts),
        });
        JobOut {
            ranks,
            counts,
            elapsed: res.elapsed,
        }
    }
}

// ---------------------------------------------------------------- inputs

/// `len` seed-derived bytes.
fn payload(seed: u64, salt: u64, len: usize) -> Bytes {
    let mut state = splitmix64(splitmix64(seed) ^ salt);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        state = splitmix64(state);
        v.extend_from_slice(&state.to_le_bytes());
    }
    v.truncate(len);
    Bytes::from(v)
}

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct PingPong {
    name: &'static str,
    spec: JobSpec,
    data: Bytes,
    rounds: u32,
    /// Channel the leg is meant to use, as an index into [`COUNTS`].
    channel: usize,
}

struct Stream {
    name: &'static str,
    spec: JobSpec,
    data: Bytes,
    window: u32,
    windows: u32,
    channel: usize,
}

struct Mixed {
    spec: JobSpec,
    data: Bytes,
    steps: u32,
}

struct Coll {
    spec: JobSpec,
    seed: u64,
    /// Elements (u64) of the small, 4 KiB, 1 KiB-per-peer, flat-range
    /// and large-range buffers.
    lens: [usize; 5],
    barriers: u32,
    iters: u32,
    large_iters: u32,
}

struct G500 {
    opt: JobSpec,
    def: JobSpec,
    cfg: Graph500Config,
}

enum Kind {
    PingPong(Vec<PingPong>),
    Stream(Vec<Stream>),
    Mixed(Mixed),
    Coll(Coll),
    G500(Box<G500>),
}

/// A workload with its inputs built: scenarios, job specs and payloads.
pub struct Prepared {
    pub workload: Workload,
    /// Modelled compute with which every rank of every job starts: 1 to
    /// 16 virtual ns, from the seed. Payload bytes do not move the
    /// virtual clock, so without it `virt_ms` would be a constant, which
    /// the driver refuses as unmeasured. It costs no host work, memory
    /// or count, and shifts each job's virtual time by exactly itself.
    skew: SimTime,
    kind: Kind,
}

/// Every job of the benchmark: ranks as fibers on one worker.
pub fn one_worker(scn: DeploymentScenario) -> JobSpec {
    JobSpec::new(scn).with_exec(ExecMode::Tasks).with_workers(1)
}

/// Build the inputs of `w` from `seed`. `div` divides the sizes (1 for
/// a measured run, 10 for `--quick`).
pub fn prepare(w: Workload, seed: u64, div: u32) -> Prepared {
    prepare_with(w, seed, div, &|spec| spec)
}

/// [`prepare`], with every job spec passed through `tweak` (the exec
/// comparisons run the same inputs on another engine configuration).
pub fn prepare_with(
    w: Workload,
    seed: u64,
    div: u32,
    tweak: &dyn Fn(JobSpec) -> JobSpec,
) -> Prepared {
    let spec = |scn| tweak(one_worker(scn));
    let share = NamespaceSharing::default();
    let pair = || DeploymentScenario::pt2pt_pair(true, true, share);
    let two_hosts = || DeploymentScenario::pt2pt_two_hosts(true, share);
    let cut = |n: u32| (n / div).max(1);
    const KIB: usize = 1024;
    let kind = match w {
        Workload::PtEager => Kind::PingPong(
            [
                ("shm_8b", pair(), 8, SHM_OPS),
                ("shm_1k", pair(), KIB, SHM_OPS),
                ("hca_1k", two_hosts(), KIB, HCA_OPS),
            ]
            .into_iter()
            .enumerate()
            .map(|(i, (name, scn, len, channel))| PingPong {
                name,
                spec: spec(scn),
                data: payload(seed, i as u64, len),
                rounds: cut(50_000),
                channel,
            })
            .collect(),
        ),
        Workload::PtRndv => Kind::Stream(
            [
                ("cma_64k", pair(), 64 * KIB, 16, 4000, CMA_OPS),
                ("cma_1m", pair(), KIB * KIB, 4, 1000, CMA_OPS),
                ("hca_64k", two_hosts(), 64 * KIB, 16, 2000, HCA_OPS),
                ("hca_1m", two_hosts(), KIB * KIB, 4, 250, HCA_OPS),
            ]
            .into_iter()
            .enumerate()
            .map(|(i, (name, scn, len, window, windows, channel))| Stream {
                name,
                spec: spec(scn),
                data: payload(seed, 16 + i as u64, len),
                window,
                windows: cut(windows),
                channel,
            })
            .collect(),
        ),
        Workload::Mixed32 => Kind::Mixed(Mixed {
            spec: spec(DeploymentScenario::containers(2, 2, 8, share)),
            data: payload(seed, 32, KIB),
            steps: cut(400),
        }),
        Workload::Scale1024 => Kind::Mixed(Mixed {
            spec: spec(DeploymentScenario::containers(64 / div.min(8), 2, 8, share))
                .with_stack_kib(128),
            data: payload(seed, 33, KIB),
            steps: 4,
        }),
        Workload::Coll64 => Kind::Coll(Coll {
            spec: spec(DeploymentScenario::collective_256(4)),
            seed,
            // 8 B, 4 KiB, 1 KiB per peer; 128 KiB, which lies between the
            // two-level threshold (64 KiB) and the large-message switch
            // and so takes the flat algorithms; 256 KiB.
            lens: [1, 512, 128, 16 * KIB, 32 * KIB],
            barriers: cut(50),
            iters: cut(20),
            large_iters: cut(4),
        }),
        Workload::Graph500 => {
            let scn = DeploymentScenario::fig1(4);
            Kind::G500(Box::new(G500 {
                opt: spec(scn.clone()).with_policy(LocalityPolicy::ContainerDetector),
                def: spec(scn).with_policy(LocalityPolicy::Hostname),
                // The default generator seed, whatever `seed` is: summed
                // BFS time spread 9.6 % over ten Kronecker graphs of this
                // size, more than any bound here.
                cfg: Graph500Config {
                    scale: if div > 1 { 11 } else { 14 },
                    edgefactor: 16,
                    num_roots: 4,
                    validate: true,
                    ..Graph500Config::default()
                },
            }))
        }
    };
    Prepared {
        workload: w,
        skew: SimTime::from_ns(1 + splitmix64(seed) % 16),
        kind,
    }
}

/// Run one repetition of a prepared workload.
pub fn run_rep(p: &Prepared, rep: u32, traced: bool) -> Rep {
    let mut acc = RepAcc {
        rep,
        traced,
        skew: p.skew,
        out: Rep::default(),
    };
    match &p.kind {
        Kind::PingPong(legs) => legs.iter().for_each(|l| pingpong(&mut acc, l)),
        Kind::Stream(legs) => legs.iter().for_each(|l| stream(&mut acc, l)),
        Kind::Mixed(m) => mixed(&mut acc, m),
        Kind::Coll(c) => coll(&mut acc, c),
        Kind::G500(g) => graph500(&mut acc, g),
    }
    acc.out
}

// ---------------------------------------------------------------- bodies

/// The leg used the channel it is meant to use, and none it must not:
/// an SHM leg that silently routes over the HCA fails here.
fn check_channel(acc: &mut RepAcc, leg: &str, counts: &Counts, channel: usize, at_least: u64) {
    // Everything but the leg's own channel must idle, except that a CMA
    // stream's 1-byte acks ride SHM.
    let idle: &[usize] = match channel {
        SHM_OPS => &[CMA_OPS, HCA_OPS],
        CMA_OPS => &[HCA_OPS],
        _ => &[SHM_OPS, CMA_OPS],
    };
    let stray: u64 = idle.iter().map(|&c| counts[c]).sum();
    acc.check(
        || {
            format!(
                "{leg}: {} = {} (want >= {at_least}), ops on channels that must idle = {stray}",
                COUNTS[channel].0, counts[channel]
            )
        },
        counts[channel] >= at_least && stray == 0,
    );
}

/// Strict ping-pong: rank 0 sends, rank 1 echoes.
fn pingpong(acc: &mut RepAcc, leg: &PingPong) {
    let (data, rounds) = (&leg.data, leg.rounds);
    let want = fnv1a(data);
    let out = acc.job(leg.name, &leg.spec, |mpi, tr| {
        if mpi.rank() == 0 {
            let mut lens_ok = true;
            let mut last = Bytes::new();
            for _ in 0..rounds {
                tr.call(Name::Send, || mpi.send_bytes(data.clone(), 1, 0));
                last = tr.call(Name::Recv, || mpi.recv_bytes(1, 0)).0;
                lens_ok &= last.len() == data.len();
            }
            lens_ok && fnv1a(&last) == want
        } else {
            for _ in 0..rounds {
                let (m, _) = tr.call(Name::Recv, || mpi.recv_bytes(0, 0));
                tr.call(Name::Send, || mpi.send_bytes(m, 0, 0));
            }
            true
        }
    });
    acc.check(
        || format!("{}: echoed payload length or checksum differs", leg.name),
        out.ranks[0],
    );
    check_channel(
        acc,
        leg.name,
        &out.counts,
        leg.channel,
        2 * u64::from(rounds),
    );
}

/// Windowed one-way stream with a 1-byte acknowledgement per window.
fn stream(acc: &mut RepAcc, leg: &Stream) {
    let (data, window, windows) = (&leg.data, leg.window, leg.windows);
    // Checksumming every megabyte would time the harness: the last 64
    // bytes of each message stand in for it.
    let tail = |m: &[u8]| fnv1a(&m[m.len().saturating_sub(64)..]);
    let want = tail(data);
    let out = acc.job(leg.name, &leg.spec, |mpi, tr| {
        let (mut bytes, mut tails_ok) = (0u64, true);
        if mpi.rank() == 0 {
            for _ in 0..windows {
                let reqs: Vec<_> = (0..window)
                    .map(|t| tr.call(Name::Isend, || mpi.isend_bytes(data.clone(), 1, t)))
                    .collect();
                for r in reqs {
                    tr.call(Name::Wait, || mpi.wait(r));
                }
                bytes += tr.call(Name::Recv, || mpi.recv_bytes(1, window)).0.len() as u64;
            }
        } else {
            let ack = Bytes::from_static(&[1]);
            for _ in 0..windows {
                let reqs: Vec<_> = (0..window)
                    .map(|t| tr.call(Name::Irecv, || mpi.irecv_bytes(0, t)))
                    .collect();
                for r in reqs {
                    let (m, _) = tr.call(Name::Wait, || mpi.wait(r)).into_recv();
                    bytes += m.len() as u64;
                    tails_ok &= tail(&m) == want;
                }
                tr.call(Name::Send, || mpi.send_bytes(ack.clone(), 0, window));
            }
        }
        (bytes, tails_ok)
    });
    let msgs = u64::from(window) * u64::from(windows);
    let want_bytes = msgs * data.len() as u64;
    acc.check(
        || {
            format!(
                "{}: received {:?}, {} ack bytes; want ({want_bytes}, true), {windows}",
                leg.name, out.ranks[1], out.ranks[0].0
            )
        },
        out.ranks[1] == (want_bytes, true) && out.ranks[0].0 == u64::from(windows),
    );
    check_channel(acc, leg.name, &out.counts, leg.channel, msgs);
}

/// `bench_ledger`'s mixed body: per step 16 receives posted
/// highest-tag-first, 16 sends of 1 KiB to the ranks at offsets 1, 2, 4
/// and 8, the waits, a 256-element allreduce and a barrier.
fn mixed(acc: &mut RepAcc, m: &Mixed) {
    const OFFSETS: [usize; 4] = [1, 2, 4, 8];
    const WINDOW: u32 = 4;
    let (data, steps) = (&m.data, m.steps);
    let out = acc.job("mixed", &m.spec, |mpi, tr| {
        let (n, r) = (mpi.size(), mpi.rank());
        let local = vec![r as u64; 256];
        let (mut sent, mut bytes, mut sums_ok) = (0u64, 0u64, true);
        for _ in 0..steps {
            let mut reqs = Vec::with_capacity(32);
            for &d in OFFSETS.iter().rev() {
                let src = (r + n - d) % n;
                for w in (0..WINDOW).rev() {
                    reqs.push(tr.call(Name::Irecv, || mpi.irecv_bytes(src, w)));
                }
            }
            for &d in &OFFSETS {
                let dst = (r + d) % n;
                for w in 0..WINDOW {
                    reqs.push(tr.call(Name::Isend, || mpi.isend_bytes(data.clone(), dst, w)));
                    sent += 1;
                }
            }
            for req in reqs {
                if let Completion::Recv(msg, _) = tr.call(Name::Wait, || mpi.wait(req)) {
                    bytes += msg.len() as u64;
                }
            }
            let sum = tr.call(Name::Allreduce, || mpi.allreduce(&local, ReduceOp::Sum));
            sums_ok &= sum.len() == 256 && sum[0] == tri(n) && sum[255] == tri(n);
            tr.call(Name::Barrier, || mpi.barrier());
        }
        (sent, bytes, sums_ok)
    });
    let n = out.ranks.len() as u64;
    let per_rank = 16 * u64::from(steps);
    acc.check(
        || "mixed: a rank sent or received the wrong number of messages or bytes".to_string(),
        out.ranks
            .iter()
            .all(|&(s, b, _)| s == per_rank && b == per_rank * data.len() as u64),
    );
    acc.check(
        || "mixed: allreduce differs from n(n-1)/2".to_string(),
        out.ranks.iter().all(|&(_, _, ok)| ok),
    );
    // 1 KiB is under SMP_EAGER_SIZE, so co-resident containers use SHM,
    // not CMA; the two hosts talk over the HCA.
    acc.check(
        || {
            format!(
                "mixed: want traffic on SHM and HCA, got {:?}",
                &out.counts[..3]
            )
        },
        out.counts[SHM_OPS] > 0 && out.counts[HCA_OPS] > 0 && msgs(&out.counts) >= n * per_rank,
    );
}

/// 0 + 1 + … + (n-1).
fn tri(n: usize) -> u64 {
    (n * (n - 1) / 2) as u64
}

/// One job that takes every `CollectiveSelector` branch: two-level at
/// 8 B and 4 KiB, flat between 64 KiB and 256 KiB, large at 256 KiB.
fn coll(acc: &mut RepAcc, c: &Coll) {
    let [one, n4k, n1k, n_flat, n_large] = c.lens;
    let salt = c.seed % 1000;
    // Element `i` of what `src` contributes in iteration `it`.
    let val =
        move |src: usize, it: u32, i: usize| salt + ((src * 64 + it as usize) * 65_536 + i) as u64;
    let out = acc.job("coll", &c.spec, |mpi, tr| {
        let (n, r) = (mpi.size(), mpi.rank());
        // [bcast, allreduce, allgather, alltoall, large]
        let mut ok = [true; 5];
        let ends = |len: usize| [0, len - 1];
        for _ in 0..c.barriers {
            tr.call(Name::Barrier, || mpi.barrier());
        }
        let bcast = |mpi: &mut Mpi, tr: &mut RankTracer, name, len: usize, it: u32| {
            let root = it as usize % n;
            let mut buf: Vec<u64> = if r == root {
                (0..len).map(|i| val(root, it, i)).collect()
            } else {
                vec![0; len]
            };
            tr.call(name, || mpi.bcast(&mut buf, root));
            ends(len).iter().all(|&i| buf[i] == val(root, it, i))
        };
        let allreduce = |mpi: &mut Mpi, tr: &mut RankTracer, name, len: usize| {
            let mine: Vec<u64> = (0..len).map(|i| (r + i) as u64).collect();
            let sum = tr.call(name, || mpi.allreduce(&mine, ReduceOp::Sum));
            sum.len() == len && ends(len).iter().all(|&i| sum[i] == tri(n) + (n * i) as u64)
        };
        for len in [one, n4k] {
            for it in 0..c.iters {
                ok[0] &= bcast(mpi, tr, Name::Bcast, len, it);
                ok[1] &= allreduce(mpi, tr, Name::Allreduce, len);
                let mine: Vec<u64> = (0..len).map(|i| val(r, it, i)).collect();
                let all = tr.call(Name::Allgather, || mpi.allgather(&mine));
                ok[2] &= all.len() == n * len
                    && (0..n).all(|s| ends(len).iter().all(|&i| all[s * len + i] == val(s, it, i)));
            }
        }
        for blk in [one, n1k] {
            for it in 0..(c.iters / 2).max(1) {
                // Block `d` of rank `s` holds val(s * n + d, it, ·).
                let mine: Vec<u64> = (0..n * blk)
                    .map(|j| val(r * n + j / blk, it, j % blk))
                    .collect();
                let got = tr.call(Name::Alltoall, || mpi.alltoall(&mine, blk));
                ok[3] &= got.len() == n * blk
                    && (0..n).all(|s| {
                        ends(blk)
                            .iter()
                            .all(|&i| got[s * blk + i] == val(s * n + r, it, i))
                    });
            }
        }
        for it in 0..c.large_iters {
            ok[0] &= bcast(mpi, tr, Name::Bcast, n_flat, it);
            ok[1] &= allreduce(mpi, tr, Name::Allreduce, n_flat);
            ok[4] &= bcast(mpi, tr, Name::Large, n_large, it);
            ok[4] &= allreduce(mpi, tr, Name::Large, n_large);
        }
        ok
    });
    for (i, what) in [
        "bcast",
        "allreduce",
        "allgather",
        "alltoall",
        "large bcast/allreduce",
    ]
    .iter()
    .enumerate()
    {
        acc.check(
            || format!("coll: {what} differs from its closed form"),
            out.ranks.iter().all(|ok| ok[i]),
        );
    }
    let sel = [COLL_FLAT, COLL_TWO_LEVEL, COLL_LARGE].map(|i| out.counts[i]);
    acc.check(
        || format!("coll: want flat, two-level and large selections, got {sel:?}"),
        sel.iter().all(|&s| s > 0),
    );
}

/// Graph 500 BFS on 16 ranks in 4 co-resident containers, once routed
/// by the container detector ("Opt") and once by hostname ("Def").
fn graph500(acc: &mut RepAcc, g: &G500) {
    let cfg = g.cfg;
    let mut mean_ms = [0.0; 2];
    let mut traversed = Vec::new();
    for (i, (name, spec)) in [("g500_opt", &g.opt), ("g500_def", &g.def)]
        .into_iter()
        .enumerate()
    {
        let out = acc.job(name, spec, |mpi, tr| {
            tr.call(Name::Graph500, || bfs::run_rank(mpi, &cfg))
        });
        // The paper's figure is the BFS phase, as the reference harness
        // reports it: per root, the slowest rank.
        let per_root: Vec<u64> = (0..cfg.num_roots)
            .map(|k| {
                out.ranks
                    .iter()
                    .map(|o| o.bfs_times[k].as_ns())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let edges: Vec<u64> = (0..cfg.num_roots)
            .map(|k| out.ranks.iter().map(|o| o.traversed_edges[k]).sum())
            .collect();
        let bfs_ns: u64 = per_root.iter().sum();
        mean_ms[i] = bfs_ns as f64 / cfg.num_roots as f64 / 1e6;
        acc.check(
            || format!("{name}: a parent tree failed validation"),
            out.ranks.iter().all(|o| o.validated) && bfs_ns > 0 && out.elapsed.as_ns() >= bfs_ns,
        );
        let (hca, local) = (
            out.counts[HCA_OPS],
            out.counts[SHM_OPS] + out.counts[CMA_OPS],
        );
        acc.check(
            || format!("{name}: hca_ops = {hca}, shm+cma ops = {local}"),
            if i == 0 {
                hca == 0 && local > 0
            } else {
                hca > 0
            },
        );
        if i == 0 {
            // Harmonic mean over the searches, per the Graph 500 rules.
            let inv: f64 = per_root
                .iter()
                .zip(&edges)
                .map(|(&t, &e)| t as f64 / 1e9 / e as f64)
                .sum();
            acc.out
                .results
                .push(("apps.g500_teps_opt", cfg.num_roots as f64 / inv));
        }
        traversed.push(edges);
    }
    acc.check(
        || "g500: Opt and Def traversed different edge counts".to_string(),
        traversed[0] == traversed[1] && traversed[0].iter().all(|&e| e > 0),
    );
    acc.out.results.extend([
        ("apps.g500_bfs_virt_ms_opt", mean_ms[0]),
        ("apps.g500_bfs_virt_ms_def", mean_ms[1]),
        ("paper.g500_opt_over_def", mean_ms[0] / mean_ms[1]),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_round_trip() {
        for w in WORKLOADS {
            assert!(crate::report::name_ok(w.name()));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(payload(7, 1, 100), payload(7, 1, 100));
        assert_ne!(payload(7, 1, 100), payload(8, 1, 100));
        assert_eq!(payload(7, 1, 13).len(), 13);
    }

    /// Every quick workload passes its own checks, its phases add up to
    /// its wall time exactly, and a traced repetition's spans agree.
    #[test]
    fn quick_repetitions_are_correct_and_phases_sum_to_wall() {
        for w in WORKLOADS {
            let p = prepare(w, 42, 10);
            let a = run_rep(&p, 1, false);
            assert!(a.failures.is_empty(), "{}: {:?}", w.name(), a.failures);
            assert!(a.attempted >= 3 && a.virt_ns > 0 && msgs(&a.counts) > 0);
            assert_eq!(a.phases.iter().sum::<u64>(), a.wall_ns, "{}", w.name());
            assert_eq!(a.legs.iter().map(|l| l.wall_ns).sum::<u64>(), a.wall_ns);
            assert!(a.spans.is_empty());

            let b = run_rep(&p, 2, true);
            assert_eq!((b.virt_ns, b.counts), (a.virt_ns, a.counts), "{}", w.name());
            let jobs: u64 = b
                .spans
                .iter()
                .filter(|s| s.name == Name::Job)
                .map(Span::dur)
                .sum();
            assert_eq!(jobs, b.wall_ns);
            assert!(b.spans.iter().all(|s| s.rep == 2 && s.end_ns >= s.start_ns));
        }
    }
}
