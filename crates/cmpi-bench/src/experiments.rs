//! The per-figure experiment drivers.

use bytes::Bytes;
use cmpi_apps::graph500::{self, Graph500Config};
use cmpi_apps::npb::{self, Kernel, NpbClass};
use cmpi_apps::pgas;
use cmpi_cluster::{
    Channel, ContainerId, DeploymentScenario, FaultPlan, HostId, MidRunTrigger, NamespaceId,
    NamespaceSharing, SimTime, Tunables,
};
use cmpi_core::{
    CallClass, CollAlgo, CollKind, JobProfile, JobSpec, JobStats, Json, LocalityPolicy, MetricId,
    Mpi, MpiError, ReduceOp, WaitClass,
};
use cmpi_osu::collective::{self, CollOp};
use cmpi_osu::{onesided, power_of_two_sizes, pt2pt};
use cmpi_shmem::locality_list::LOCALITY_SEGMENT;
use cmpi_shmem::{ContainerList, ShmRegistry};

use crate::table::Table;

/// How hard to run the experiments.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Graph 500 scale (paper: 20).
    pub graph_scale: u32,
    /// BFS roots per run (paper: 64).
    pub roots: usize,
    /// Divisor on the 16-host collective deployment (1 = the paper's 256
    /// ranks, 4 = 64 ranks).
    pub hosts_div: u32,
    /// Largest message size in sweeps.
    pub max_size: usize,
    /// Iterations per measurement.
    pub iters: usize,
    /// NPB class for Fig. 12.
    pub npb_class: NpbClass,
}

impl Effort {
    /// CI-sized: every driver finishes in seconds.
    pub fn quick() -> Self {
        Effort {
            graph_scale: 10,
            roots: 2,
            hosts_div: 4,
            max_size: 256 * 1024,
            iters: 6,
            npb_class: NpbClass::S,
        }
    }

    /// Paper-shaped: 256 ranks, scale-16 graphs, 1 MiB sweeps.
    pub fn full() -> Self {
        Effort {
            graph_scale: 16,
            roots: 4,
            hosts_div: 1,
            max_size: 1 << 20,
            iters: 12,
            npb_class: NpbClass::W,
        }
    }

    fn graph_cfg(&self) -> Graph500Config {
        Graph500Config {
            scale: self.graph_scale,
            edgefactor: 16,
            num_roots: self.roots,
            validate: self.graph_scale <= 14,
            ..Default::default()
        }
    }
}

fn ms(t: SimTime) -> String {
    format!("{:.3}", t.as_ms_f64())
}

fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// The four Fig. 1 deployment scenarios (16 ranks, one host).
fn fig1_scenarios() -> Vec<(&'static str, u32)> {
    vec![
        ("Native", 0),
        ("1-Container", 1),
        ("2-Containers", 2),
        ("4-Containers", 4),
    ]
}

/// Fig. 1: Graph500 BFS time under the *default* library.
pub fn fig01(e: &Effort) -> Table {
    let mut t = Table::new(
        "Fig. 1 — Graph500 BFS (16 ranks, 1 host), default MPI library",
        &["scenario", "bfs_ms"],
    );
    for (name, cph) in fig1_scenarios() {
        let spec =
            JobSpec::new(DeploymentScenario::fig1(cph)).with_policy(LocalityPolicy::Hostname);
        let r = graph500::run(&spec, e.graph_cfg());
        t.row(vec![name.into(), ms(r.mean_bfs_time())]);
    }
    t
}

/// Fig. 3(a): communication/computation breakdown of the Fig. 1 runs.
pub fn fig03a(e: &Effort) -> Table {
    let mut t = Table::new(
        "Fig. 3(a) — BFS time breakdown, default library",
        &[
            "scenario",
            "comm_pct",
            "compute_ms",
            "pt2pt_ms",
            "poll_ms",
            "collective_ms",
        ],
    );
    for (name, cph) in fig1_scenarios() {
        let spec =
            JobSpec::new(DeploymentScenario::fig1(cph)).with_policy(LocalityPolicy::Hostname);
        let r = spec.run(|mpi| {
            let cfg = e.graph_cfg();
            cmpi_apps::graph500::bfs::run_rank(mpi, &cfg)
        });
        let s = &r.stats.total;
        t.row(vec![
            name.into(),
            f2(r.stats.comm_fraction() * 100.0),
            ms(s.time(CallClass::Compute)),
            ms(s.time(CallClass::Pt2pt)),
            ms(s.time(CallClass::Poll)),
            ms(s.time(CallClass::Collective)),
        ]);
    }
    t
}

/// Fig. 3(b)(c): forced-channel latency and bandwidth curves.
pub fn fig03bc(e: &Effort) -> (Table, Table) {
    let sizes = power_of_two_sizes(e.max_size);
    let mut lat = Table::new(
        "Fig. 3(b) — channel latency (us), co-resident containers",
        &["size", "SHM", "CMA", "HCA"],
    );
    let mut bw = Table::new(
        "Fig. 3(c) — channel bandwidth (MB/s), co-resident containers",
        &["size", "SHM", "CMA", "HCA"],
    );
    let spec = |c| {
        JobSpec::new(DeploymentScenario::pt2pt_pair(
            true,
            true,
            NamespaceSharing::default(),
        ))
        .with_policy(LocalityPolicy::ForceChannel(c))
    };
    let curves: Vec<(Vec<_>, Vec<_>)> = [Channel::Shm, Channel::Cma, Channel::Hca]
        .into_iter()
        .map(|c| {
            (
                pt2pt::latency(&spec(c), &sizes, e.iters),
                pt2pt::bandwidth(&spec(c), &sizes, 32, 3),
            )
        })
        .collect();
    for (i, &size) in sizes.iter().enumerate() {
        lat.row(vec![
            size.to_string(),
            f2(curves[0].0[i].value),
            f2(curves[1].0[i].value),
            f2(curves[2].0[i].value),
        ]);
        bw.row(vec![
            size.to_string(),
            f2(curves[0].1[i].value),
            f2(curves[1].1[i].value),
            f2(curves[2].1[i].value),
        ]);
    }
    (lat, bw)
}

/// Table I: message-transfer operations per channel during BFS.
pub fn table1(e: &Effort) -> Table {
    let mut t = Table::new(
        "Table I — transfer operations per channel (Graph500 BFS, default library)",
        &[
            "channel",
            "Native",
            "1-Container",
            "2-Containers",
            "4-Containers",
        ],
    );
    let mut cols: Vec<Vec<u64>> = Vec::new();
    for (_, cph) in fig1_scenarios() {
        let spec =
            JobSpec::new(DeploymentScenario::fig1(cph)).with_policy(LocalityPolicy::Hostname);
        let r = spec.run(|mpi| {
            let cfg = e.graph_cfg();
            cmpi_apps::graph500::bfs::run_rank(mpi, &cfg)
        });
        cols.push(vec![
            r.stats.channel_ops(Channel::Cma),
            r.stats.channel_ops(Channel::Shm),
            r.stats.channel_ops(Channel::Hca),
        ]);
    }
    for (ci, name) in ["CMA", "SHM", "HCA"].iter().enumerate() {
        t.row(vec![
            name.to_string(),
            cols[0][ci].to_string(),
            cols[1][ci].to_string(),
            cols[2][ci].to_string(),
            cols[3][ci].to_string(),
        ]);
    }
    t
}

/// Fig. 7(a): `SMP_EAGER_SIZE` bandwidth sweep (co-resident pair).
pub fn fig07a(_e: &Effort) -> Table {
    let settings = [2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024];
    let sizes: Vec<usize> = power_of_two_sizes(64 * 1024)
        .into_iter()
        .filter(|&s| s >= 512)
        .collect();
    let mut t = Table::new(
        "Fig. 7(a) — SMP_EAGER_SIZE sweep: bandwidth (MB/s)",
        &["size", "2K", "4K", "8K", "16K", "32K"],
    );
    let mut curves = Vec::new();
    for &eager in &settings {
        let spec = JobSpec::new(DeploymentScenario::pt2pt_pair(
            true,
            true,
            NamespaceSharing::default(),
        ))
        .with_tunables(
            Tunables::default()
                .with_smp_eager_size(eager)
                .with_smpi_length_queue((eager * 16).max(128 * 1024)),
        );
        curves.push(pt2pt::bandwidth(&spec, &sizes, 32, 3));
    }
    for (i, &size) in sizes.iter().enumerate() {
        let mut row = vec![size.to_string()];
        row.extend(curves.iter().map(|c| f2(c[i].value)));
        t.row(row);
    }
    t
}

/// Fig. 7(b): `SMPI_LENGTH_QUEUE` bandwidth sweep.
pub fn fig07b(e: &Effort) -> Table {
    let settings: [(usize, &str); 5] = [
        (16 * 1024, "16K"),
        (32 * 1024, "32K"),
        (64 * 1024, "64K"),
        (128 * 1024, "128K"),
        (1024 * 1024, "1M"),
    ];
    let sizes = [1024usize, 2048, 4096, 8192];
    let mut t = Table::new(
        "Fig. 7(b) — SMPI_LENGTH_QUEUE sweep: bandwidth (MB/s)",
        &["size", "16K", "32K", "64K", "128K", "1M"],
    );
    let mut curves = Vec::new();
    for &(q, _) in &settings {
        let spec = JobSpec::new(DeploymentScenario::pt2pt_pair(
            true,
            true,
            NamespaceSharing::default(),
        ))
        .with_tunables(
            Tunables::default()
                .with_smp_eager_size(8 * 1024.min(q))
                .with_smpi_length_queue(q),
        );
        curves.push(pt2pt::bandwidth(&spec, &sizes, 64, e.iters.min(4)));
    }
    for (i, &size) in sizes.iter().enumerate() {
        let mut row = vec![size.to_string()];
        row.extend(curves.iter().map(|c| f2(c[i].value)));
        t.row(row);
    }
    t
}

/// Fig. 7(c): `MV2_IBA_EAGER_THRESHOLD` latency sweep between hosts.
pub fn fig07c(e: &Effort) -> Table {
    let settings: [(usize, &str); 4] = [
        (13 * 1024, "13K"),
        (15 * 1024, "15K"),
        (17 * 1024, "17K"),
        (19 * 1024, "19K"),
    ];
    let sizes = [
        13 * 1024usize,
        14 * 1024,
        16 * 1024,
        17 * 1024,
        18 * 1024,
        19 * 1024,
    ];
    let mut t = Table::new(
        "Fig. 7(c) — MV2_IBA_EAGER_THRESHOLD sweep: latency (us), two hosts",
        &["size", "13K", "15K", "17K", "19K"],
    );
    let mut curves = Vec::new();
    for &(thr, _) in &settings {
        let spec = JobSpec::new(DeploymentScenario::pt2pt_two_hosts(
            true,
            NamespaceSharing::default(),
        ))
        .with_tunables(Tunables::default().with_iba_eager_threshold(thr));
        curves.push(pt2pt::latency(&spec, &sizes, e.iters));
    }
    for (i, &size) in sizes.iter().enumerate() {
        let mut row = vec![size.to_string()];
        row.extend(curves.iter().map(|c| f2(c[i].value)));
        t.row(row);
    }
    t
}

/// The Fig. 8/9 configuration set.
fn pt2pt_configs(same_socket: bool) -> Vec<(&'static str, JobSpec)> {
    let sharing = NamespaceSharing::default();
    vec![
        (
            "Cont-Def",
            JobSpec::new(DeploymentScenario::pt2pt_pair(true, same_socket, sharing))
                .with_policy(LocalityPolicy::Hostname),
        ),
        (
            "Cont-Opt",
            JobSpec::new(DeploymentScenario::pt2pt_pair(true, same_socket, sharing))
                .with_policy(LocalityPolicy::ContainerDetector),
        ),
        (
            "Native",
            JobSpec::new(DeploymentScenario::pt2pt_pair(false, same_socket, sharing)),
        ),
    ]
}

/// Fig. 8: two-sided latency, bandwidth and bidirectional bandwidth.
pub fn fig08(e: &Effort) -> Vec<Table> {
    let sizes = power_of_two_sizes(e.max_size);
    let mut out = Vec::new();
    for (metric, which) in [
        ("latency (us)", 0),
        ("bandwidth (MB/s)", 1),
        ("bi-bandwidth (MB/s)", 2),
    ] {
        for same_socket in [true, false] {
            let sock = if same_socket {
                "intra-socket"
            } else {
                "inter-socket"
            };
            let mut t = Table::new(
                format!("Fig. 8 — two-sided {metric}, {sock}"),
                &["size", "Cont-Def", "Cont-Opt", "Native"],
            );
            let curves: Vec<Vec<_>> = pt2pt_configs(same_socket)
                .iter()
                .map(|(_, spec)| match which {
                    0 => pt2pt::latency(spec, &sizes, e.iters),
                    1 => pt2pt::bandwidth(spec, &sizes, 32, 3),
                    _ => pt2pt::bibandwidth(spec, &sizes, 32, 3),
                })
                .collect();
            for (i, &size) in sizes.iter().enumerate() {
                t.row(vec![
                    size.to_string(),
                    f2(curves[0][i].value),
                    f2(curves[1][i].value),
                    f2(curves[2][i].value),
                ]);
            }
            out.push(t);
        }
    }
    out
}

/// Fig. 9: one-sided put/get latency and bandwidth (intra-socket).
pub fn fig09(e: &Effort) -> Vec<Table> {
    let sizes = power_of_two_sizes(e.max_size);
    let mut out = Vec::new();
    type F = fn(&JobSpec, &[usize], usize) -> Vec<cmpi_osu::SizePoint>;
    let put_bw: F = |s, z, i| onesided::put_bandwidth(s, z, 64, i.min(3));
    let get_bw: F = |s, z, i| onesided::get_bandwidth(s, z, 64, i.min(3));
    let metrics: [(&str, F); 4] = [
        ("put latency (us)", onesided::put_latency as F),
        ("put bandwidth (MB/s)", put_bw),
        ("get latency (us)", onesided::get_latency as F),
        ("get bandwidth (MB/s)", get_bw),
    ];
    for (name, f) in metrics {
        let mut t = Table::new(
            format!("Fig. 9 — one-sided {name}, intra-socket"),
            &["size", "Cont-Def", "Cont-Opt", "Native"],
        );
        let curves: Vec<Vec<_>> = pt2pt_configs(true)
            .iter()
            .map(|(_, spec)| f(spec, &sizes, e.iters))
            .collect();
        for (i, &size) in sizes.iter().enumerate() {
            t.row(vec![
                size.to_string(),
                f2(curves[0][i].value),
                f2(curves[1][i].value),
                f2(curves[2][i].value),
            ]);
        }
        out.push(t);
    }
    out
}

/// The Section V-C/V-D deployments: Def/Opt on 4-containers-per-host,
/// plus Native.
fn cluster_configs(e: &Effort) -> Vec<(&'static str, JobSpec)> {
    vec![
        (
            "Cont-Def",
            JobSpec::new(DeploymentScenario::collective_256(e.hosts_div))
                .with_policy(LocalityPolicy::Hostname),
        ),
        (
            "Cont-Opt",
            JobSpec::new(DeploymentScenario::collective_256(e.hosts_div))
                .with_policy(LocalityPolicy::ContainerDetector),
        ),
        (
            "Native",
            JobSpec::new(DeploymentScenario::collective_256_native(e.hosts_div)),
        ),
    ]
}

/// Fig. 10: collective latencies on the 64-container deployment.
pub fn fig10(e: &Effort) -> Vec<Table> {
    let sizes: Vec<usize> = power_of_two_sizes(e.max_size.min(64 * 1024))
        .into_iter()
        .filter(|&s| s >= 64)
        .collect();
    let mut out = Vec::new();
    for op in [
        CollOp::Bcast,
        CollOp::Allreduce,
        CollOp::Allgather,
        CollOp::Alltoall,
    ] {
        let mut t = Table::new(
            format!(
                "Fig. 10 — {} latency (us), {} ranks",
                op.name(),
                DeploymentScenario::collective_256(e.hosts_div).num_ranks()
            ),
            &["size", "Cont-Def", "Cont-Opt", "Native"],
        );
        let curves: Vec<Vec<_>> = cluster_configs(e)
            .iter()
            .map(|(_, spec)| collective::latency(spec, op, &sizes, 2))
            .collect();
        for (i, &size) in sizes.iter().enumerate() {
            t.row(vec![
                size.to_string(),
                f2(curves[0][i].value),
                f2(curves[1][i].value),
                f2(curves[2][i].value),
            ]);
        }
        out.push(t);
    }
    out
}

/// Fig. 11: Graph500 under Default vs Proposed vs Native across the
/// container sweep.
pub fn fig11(e: &Effort) -> Table {
    let mut t = Table::new(
        "Fig. 11 — Graph500 BFS (16 ranks, 1 host): Default vs Proposed",
        &["scenario", "default_ms", "proposed_ms", "native_ms"],
    );
    let native = {
        let spec = JobSpec::new(DeploymentScenario::fig1(0));
        graph500::run(&spec, e.graph_cfg()).mean_bfs_time()
    };
    for (name, cph) in fig1_scenarios() {
        let def = graph500::run(
            &JobSpec::new(DeploymentScenario::fig1(cph)).with_policy(LocalityPolicy::Hostname),
            e.graph_cfg(),
        );
        let opt = graph500::run(
            &JobSpec::new(DeploymentScenario::fig1(cph))
                .with_policy(LocalityPolicy::ContainerDetector),
            e.graph_cfg(),
        );
        t.row(vec![
            name.into(),
            ms(def.mean_bfs_time()),
            ms(opt.mean_bfs_time()),
            ms(native),
        ]);
    }
    t
}

/// Fig. 12: application execution times (Graph500 + NPB kernels).
pub fn fig12(e: &Effort) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 12 — applications, {} ranks: Default vs Proposed vs Native",
            DeploymentScenario::collective_256(e.hosts_div).num_ranks()
        ),
        &[
            "app",
            "default_ms",
            "proposed_ms",
            "native_ms",
            "opt_gain_pct",
            "opt_vs_native_pct",
        ],
    );
    let configs = cluster_configs(e);
    // Graph500 row.
    let mut cfg = e.graph_cfg();
    cfg.validate = false;
    let g: Vec<SimTime> = configs
        .iter()
        .map(|(_, spec)| graph500::run(spec, cfg).mean_bfs_time())
        .collect();
    push_app_row(&mut t, "Graph500", &g);
    // NPB rows.
    for k in Kernel::ALL {
        let times: Vec<SimTime> = configs
            .iter()
            .map(|(_, spec)| {
                let r = npb::run(spec, k, e.npb_class);
                assert!(r.verified, "{} failed verification", k.name());
                r.elapsed
            })
            .collect();
        push_app_row(&mut t, k.name(), &times);
    }
    t
}

fn push_app_row(t: &mut Table, name: &str, times: &[SimTime]) {
    let (def, opt, nat) = (times[0], times[1], times[2]);
    let gain = (def.as_ns() as f64 - opt.as_ns() as f64) / def.as_ns() as f64 * 100.0;
    let overhead = (opt.as_ns() as f64 - nat.as_ns() as f64) / nat.as_ns() as f64 * 100.0;
    t.row(vec![
        name.into(),
        ms(def),
        ms(opt),
        ms(nat),
        f2(gain),
        f2(overhead),
    ]);
}

/// Ablation: what each namespace-sharing flag buys (latency of a 1 KiB
/// and a 64 KiB message between co-resident containers).
pub fn ablation_namespaces(e: &Effort) -> Table {
    let mut t = Table::new(
        "Ablation — namespace sharing: 2-sided latency (us) between co-resident containers",
        &["sharing", "1KiB", "64KiB"],
    );
    let cases: [(&str, NamespaceSharing); 4] = [
        ("ipc+pid (paper)", NamespaceSharing::default()),
        (
            "ipc only",
            NamespaceSharing {
                ipc: true,
                pid: false,
                privileged: true,
            },
        ),
        (
            "pid only",
            NamespaceSharing {
                ipc: false,
                pid: true,
                privileged: true,
            },
        ),
        ("isolated", NamespaceSharing::isolated()),
    ];
    for (name, sharing) in cases {
        let spec = JobSpec::new(DeploymentScenario::pt2pt_pair(true, true, sharing));
        let pts = pt2pt::latency(&spec, &[1024, 64 * 1024], e.iters);
        t.row(vec![name.into(), f2(pts[0].value), f2(pts[1].value)]);
    }
    t
}

/// Ablation: BFS under every injectable fault class. The first two rows
/// are the paper's fault-free Def/Opt baselines; every following row is
/// the Opt library running degraded under one fault, showing where the
/// traffic went (per-channel op counts), how many peers were downgraded
/// to the HCA, and how much recovery work (re-inits, repairs, retries)
/// the run absorbed — with the BFS answers always identical.
pub fn ablation_faults(e: &Effort) -> Table {
    let mut t = Table::new(
        "Ablation — fault injection: Graph 500 BFS, 8 ranks in 4 containers on 2 hosts",
        &[
            "config",
            "bfs_ms",
            "shm",
            "cma",
            "hca",
            "downgrades",
            "retries",
            "recoveries",
        ],
    );
    let scenario = || DeploymentScenario::containers(2, 2, 2, NamespaceSharing::default());
    let cases: Vec<(&str, LocalityPolicy, FaultPlan)> = vec![
        (
            "Def (no faults)",
            LocalityPolicy::Hostname,
            FaultPlan::none(),
        ),
        (
            "Opt (no faults)",
            LocalityPolicy::ContainerDetector,
            FaultPlan::none(),
        ),
        (
            "stale list",
            LocalityPolicy::ContainerDetector,
            FaultPlan::none().with_stale_list(HostId(0)),
        ),
        (
            "corrupt list",
            LocalityPolicy::ContainerDetector,
            FaultPlan::none().with_corrupt_list(HostId(0)),
        ),
        (
            "omitted publish",
            LocalityPolicy::ContainerDetector,
            FaultPlan::none().with_omitted_publish(1),
        ),
        (
            "torn publish",
            LocalityPolicy::ContainerDetector,
            FaultPlan::none().with_torn_publish(2),
        ),
        (
            "duplicate publish",
            LocalityPolicy::ContainerDetector,
            FaultPlan::none().with_duplicate_publish(0, 3),
        ),
        (
            "revoked ipc ns",
            LocalityPolicy::ContainerDetector,
            FaultPlan::none().with_revoked_ipc(ContainerId(1)),
        ),
        (
            "revoked pid ns",
            LocalityPolicy::ContainerDetector,
            FaultPlan::none().with_revoked_pid(ContainerId(1)),
        ),
        (
            "qp attach faults",
            LocalityPolicy::ContainerDetector,
            FaultPlan::none().with_qp_attach_failures(1, 3),
        ),
        (
            "transient send faults",
            LocalityPolicy::ContainerDetector,
            FaultPlan::none().with_send_faults(7, 2),
        ),
    ];
    let mut reference: Option<Vec<u64>> = None;
    for (name, policy, plan) in cases {
        let spec = JobSpec::new(scenario())
            .with_policy(policy)
            .with_faults(plan);
        let r = graph500::run(&spec, e.graph_cfg());
        assert!(r.validated, "{name}: BFS failed validation");
        match &reference {
            None => reference = Some(r.traversed_edges.clone()),
            Some(expect) => assert_eq!(
                &r.traversed_edges, expect,
                "{name}: degraded run changed the BFS answer"
            ),
        }
        let rec = r.stats.recovery();
        t.row(vec![
            name.into(),
            ms(r.mean_bfs_time()),
            r.stats.channel_ops(Channel::Shm).to_string(),
            r.stats.channel_ops(Channel::Cma).to_string(),
            r.stats.channel_ops(Channel::Hca).to_string(),
            rec.hca_downgrades.to_string(),
            (rec.init_retries + rec.attach_retries + rec.send_retries).to_string(),
            (rec.list_recoveries + rec.publish_conflicts).to_string(),
        ]);
    }
    t
}

/// Profile mode: Table I at rank-pair granularity. Runs Graph 500 BFS on
/// the Fig. 1 "2-Containers" deployment with the causal profiler on,
/// under Default (Hostname) and Proposed (ContainerDetector), and reports
/// (a) where cross-container traffic travelled per channel, (b) the
/// wait-state decomposition, (c) conservation and substrate pressure.
pub fn profile_tables(e: &Effort) -> Vec<Table> {
    let scenario = DeploymentScenario::fig1(2);
    let run = |policy: LocalityPolicy| {
        let spec = JobSpec::new(scenario.clone())
            .with_policy(policy)
            .with_profiling();
        let r = spec.run(|mpi| {
            let cfg = e.graph_cfg();
            cmpi_apps::graph500::bfs::run_rank(mpi, &cfg)
        });
        r.profile.expect("profiling was enabled")
    };
    let def = run(LocalityPolicy::Hostname);
    let opt = run(LocalityPolicy::ContainerDetector);
    let n = scenario.placement.num_ranks();
    let container = |r: usize| scenario.placement.loc(r).container;

    // (a) Cross-container bytes by channel: the paper's misrouting, now
    // visible per pair class instead of job-wide.
    let cross_bytes = |p: &JobProfile, ch: Channel| -> u64 {
        let mut sum = 0;
        for i in 0..n {
            for j in 0..n {
                if i != j && container(i) != container(j) {
                    sum += p.pair_channel_bytes(i, j, ch);
                }
            }
        }
        sum
    };
    let mut chans = Table::new(
        "Profile — cross-container traffic by channel (Graph500 BFS, 16 ranks, 2 containers)",
        &["channel", "default_bytes", "proposed_bytes"],
    );
    for ch in Channel::ALL {
        chans.row(vec![
            ch.name().to_string(),
            cross_bytes(&def, ch).to_string(),
            cross_bytes(&opt, ch).to_string(),
        ]);
    }

    // (b) Wait states: late-partner vs transfer time per call class.
    let mut waits = Table::new(
        "Profile — wait-state decomposition (ms)",
        &[
            "class",
            "def_late",
            "def_transfer",
            "def_blocked",
            "opt_late",
            "opt_transfer",
            "opt_blocked",
        ],
    );
    for class in WaitClass::ALL {
        let (d, o) = (def.wait_total(class), opt.wait_total(class));
        if d.samples == 0 && o.samples == 0 {
            continue;
        }
        let late = |w: &cmpi_core::WaitBreakdown| w.late_sender + w.late_receiver + w.arrival_skew;
        waits.row(vec![
            class.name().to_string(),
            ms(late(&d)),
            ms(d.transfer),
            ms(d.blocked),
            ms(late(&o)),
            ms(o.transfer),
            ms(o.blocked),
        ]);
    }

    // (c) Integrity + substrate pressure.
    let mut summary = Table::new(
        "Profile — conservation and substrate pressure",
        &["metric", "default", "proposed"],
    );
    summary.row(vec![
        "conservation_error_bytes".into(),
        def.conservation_error().to_string(),
        opt.conservation_error().to_string(),
    ]);
    summary.row(vec![
        "shm_queue_stalled_acquires".into(),
        def.queue.stalled_acquires.to_string(),
        opt.queue.stalled_acquires.to_string(),
    ]);
    summary.row(vec![
        "fabric_msgs_posted".into(),
        def.fabric.iter().map(|f| f.sends).sum::<u64>().to_string(),
        opt.fabric.iter().map(|f| f.sends).sum::<u64>().to_string(),
    ]);

    // (d) Mid-run failure detection: crash one rank and turn the
    // detector's instant trace events (death / convict / revoke /
    // shrink) into a per-survivor latency table. Conviction is
    // lease-based, so every latency is bounded below by FAILURE_LEASE.
    let scenario = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
    let dead = 3usize;
    let plan = FaultPlan::none().with_crash(dead, MidRunTrigger::AfterOps(1));
    let spec = JobSpec::new(scenario).with_faults(plan).with_tracing();
    let r = spec.run(move |mpi| -> Result<u64, MpiError> {
        let world = mpi.comm_world();
        if mpi.rank() == dead {
            mpi.try_barrier_comm(&world)?; // scripted death fires here
            return Ok(0);
        }
        // Blocking on the doomed rank completes in error at conviction.
        let _ = mpi.try_recv_bytes(dead, 9);
        let comm = mpi.try_shrink(&world)?;
        mpi.try_allreduce_one(&comm, 1, ReduceOp::Sum)
    });
    let trace = r.trace.expect("tracing was enabled");
    let death_at = trace.ranks[dead]
        .instants()
        .iter()
        .find(|i| i.name == "death")
        .map(|i| i.at)
        .unwrap_or_default();
    let mut detect = Table::new(
        "Profile — failure detection latency (4 ranks, rank 3 crashed mid-run)",
        &["rank", "death_ms", "convict_ms", "latency_ms", "shrinks"],
    );
    let mut convictions = 0usize;
    for (rank, tr) in trace.ranks.iter().enumerate() {
        if rank == dead {
            continue;
        }
        let Some(convict_at) = tr
            .instants()
            .iter()
            .find(|i| i.name == "convict" && i.peer == Some(dead))
            .map(|i| i.at)
        else {
            // A survivor that never convicted contributes no latency
            // sample; a zero row here would read as "instant detection".
            continue;
        };
        convictions += 1;
        let shrinks: u64 = tr
            .instants()
            .iter()
            .filter(|i| i.name == "shrink")
            .map(|i| i.count)
            .sum();
        detect.row(vec![
            rank.to_string(),
            ms(death_at),
            ms(convict_at),
            ms(SimTime(convict_at.as_ns().saturating_sub(death_at.as_ns()))),
            shrinks.to_string(),
        ]);
    }
    if convictions == 0 {
        // Say so explicitly instead of printing an empty (or all-zero)
        // table that silently reads as perfect detection.
        detect.row(vec![
            "-".into(),
            "no failures observed".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    vec![chans, waits, summary, detect]
}

/// `figures --fig health`: run a 32-rank mixed job (2 hosts × 4 containers
/// × 4 ranks — SHM, CMA, and HCA traffic all live) under the always-on
/// telemetry layer, round-trip its JSON exposition and flight dump, and
/// turn the health evaluator's verdict into tables.
///
/// The workload exercises every hook family: small eager and large
/// rendezvous pt2pt around a ring, a probe miss, and the collective
/// selector across flat and two-level schedules.
pub fn health_tables(e: &Effort) -> Vec<Table> {
    let scenario = DeploymentScenario::containers(2, 4, 4, NamespaceSharing::default());
    let spec = JobSpec::new(scenario).with_policy(LocalityPolicy::ContainerDetector);
    let iters = e.iters.min(6);
    let r = spec.run(move |mpi| {
        let n = mpi.size();
        let me = mpi.rank();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        for k in 0..iters as u32 {
            // Eager (1 KiB) then rendezvous (128 KiB) around the ring.
            for size in [1024usize, 128 * 1024] {
                let payload = Bytes::from(vec![k as u8; size]);
                if me % 2 == 0 {
                    mpi.send_bytes(payload, next, k);
                    let _ = mpi.recv_bytes(prev, k);
                } else {
                    let _ = mpi.recv_bytes(prev, k);
                    mpi.send_bytes(payload, next, k);
                }
            }
        }
        // A probe that misses (nothing in flight on this tag).
        let _ = mpi.iprobe(prev, 4096);
        mpi.allreduce(&[me as u64], ReduceOp::Sum);
        mpi.barrier();
    });
    let snap = r.telemetry.expect("telemetry is on by default");

    // Both documents must round-trip before anything is printed; this is
    // the CI surface for the snapshot encoders.
    Json::parse(&snap.to_json().to_string()).expect("metrics JSON must round-trip");
    Json::parse(&snap.flight_chrome_json().to_string()).expect("flight dump must round-trip");

    let health = cmpi_core::evaluate_health(&snap);
    let mut verdict = Table::new(
        format!(
            "Health — 32-rank mixed job, overall {}",
            health.status.name()
        ),
        &["scope", "rule", "status", "detail"],
    );
    if health.findings.is_empty() {
        // Same guard as the detection-latency table: an empty table must
        // not be mistaken for "nothing was checked".
        verdict.row(vec![
            "job".into(),
            "-".into(),
            "ok".into(),
            "no failures observed; all health rules passed".into(),
        ]);
    }
    for f in &health.findings {
        verdict.row(vec![
            f.rank.map_or_else(|| "job".into(), |r| format!("rank {r}")),
            f.rule.to_string(),
            f.status.name().to_string(),
            f.detail.clone(),
        ]);
    }

    let mut totals = Table::new(
        "Health — telemetry job totals (32 ranks)",
        &["metric", "job_total"],
    );
    for id in [
        MetricId::EagerMsgs,
        MetricId::RndvMsgs,
        MetricId::ShmOps,
        MetricId::CmaOps,
        MetricId::HcaOps,
        MetricId::CollFlat,
        MetricId::CollTwoLevel,
        MetricId::CollLarge,
        MetricId::ProbeMisses,
        MetricId::ShmQueueAcquires,
        MetricId::ShmQueueStalls,
        MetricId::FlightEvents,
        MetricId::FlightDropped,
    ] {
        totals.row(vec![id.name().to_string(), snap.job_total(id).to_string()]);
    }
    vec![verdict, totals]
}

/// One measured point of the rank-scaling column: the mixed job
/// ([`mixed_step`]) at `hosts × 2 containers × 8 ranks`, ranks as fibers
/// on the worker pool.
pub struct ScalingPoint {
    /// Job size (`hosts × 16`).
    pub ranks: usize,
    /// Steps actually run at this size.
    pub steps: u32,
    /// Real wall-clock for the whole job (spec build to result).
    pub wall_ms: f64,
    /// Virtual makespan the simulation reports.
    pub virt_ms: f64,
    /// Point-to-point messages sent across all ranks.
    pub msgs: u64,
    /// The process's resident-set high-water mark (`VmHWM`) once the job
    /// has finished, MiB. It never falls, so down a column of growing
    /// jobs in one process each row reads its own job's peak; 0 where
    /// `/proc/self/status` is not available.
    pub peak_rss_mb: f64,
}

/// `VmHWM` of this process in MiB (0 when `/proc` does not say).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let kib = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker count for scaling runs: the cores this machine actually has,
/// capped at 16 (oversubscribing a small box with more OS threads only
/// adds scheduler thrash, and the acceptance envelope is "≤ 16
/// workers").
pub fn scaling_workers() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
        .min(16)
}

/// One step of the mixed job: a windowed 4-neighbour exchange (offsets
/// 1/2/4/8, window 4, `payload` per message) with all 16 receives
/// posted first, highest tag first, so arrivals probe a deep posted
/// queue; then a 256-element allreduce checked against its closed form,
/// and a barrier. Returns the point-to-point messages this rank sent.
pub fn mixed_step(mpi: &mut Mpi, payload: &Bytes) -> u64 {
    let n = mpi.size();
    let me = mpi.rank();
    let offsets = [1usize, 2, 4, 8];
    let window = 4u32;
    let mut recvs = Vec::new();
    for &d in offsets.iter().rev() {
        let src = (me + n - d) % n;
        for w in (0..window).rev() {
            recvs.push(mpi.irecv_bytes(src, w));
        }
    }
    let mut sends = Vec::new();
    for &d in &offsets {
        let dst = (me + d) % n;
        for w in 0..window {
            sends.push(mpi.isend_bytes(payload.clone(), dst, w));
        }
    }
    let sent = sends.len() as u64;
    for req in recvs {
        mpi.wait(req);
    }
    for req in sends {
        mpi.wait(req);
    }
    let local = vec![me as u64; 256];
    let summed = mpi.allreduce(&local, ReduceOp::Sum);
    assert_eq!(summed[0], (n as u64 * (n as u64 - 1)) / 2);
    mpi.barrier();
    sent
}

/// Run one scaling point: `steps` of [`mixed_step`] with 1 KiB payloads
/// — the step `overhead_gate`'s `job32` kernel times at 32 ranks.
pub fn scaling_point(hosts: u32, steps: u32) -> ScalingPoint {
    let scenario = DeploymentScenario::containers(hosts, 2, 8, NamespaceSharing::default());
    let ranks = scenario.num_ranks();
    let spec = JobSpec::new(scenario)
        .with_exec(cmpi_core::ExecMode::Tasks)
        .with_workers(scaling_workers())
        // Shallow bench frames: 4096 default 1 MiB stacks would reserve
        // 4 GiB of address space for nothing.
        .with_stack_kib(128);
    let t0 = std::time::Instant::now();
    let r = spec.run(move |mpi| {
        let payload = Bytes::from(vec![42u8; 1024]);
        (0..steps).map(|_| mixed_step(mpi, &payload)).sum::<u64>()
    });
    ScalingPoint {
        ranks,
        steps,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        virt_ms: r.elapsed.as_ms_f64(),
        msgs: r.results.iter().sum(),
        peak_rss_mb: peak_rss_mb(),
    }
}

/// `figures --fig scaling`: the mixed job scaled 16× in ranks at fixed
/// total message volume (steps shrink as ranks grow), on the task
/// engine. The claim is the column's *shape*: real wall-clock grows
/// sub-linearly in rank count while per-message virtual cost stays
/// flat. Quick effort tops out at 1024 ranks; `--full` at 4096.
///
/// Each point is the best of three runs: a large job's first run pays
/// the kernel's page faults while the allocator warms up, routinely 2×,
/// and the minimum is the cost of the engine.
pub fn scaling_table(e: &Effort) -> Table {
    let mut t = Table::new(
        format!(
            "Rank scaling — mixed job, task engine ({} workers, fixed total work)",
            scaling_workers()
        ),
        &[
            "ranks",
            "hosts",
            "steps",
            "wall_ms",
            "wall_x",
            "ranks_x",
            "peak_rss_mb",
            "virt_ms",
            "msgs",
        ],
    );
    let hosts_col: &[u32] = if e.hosts_div == 1 {
        &[16, 64, 256]
    } else {
        &[4, 16, 64]
    };
    let base_ranks = hosts_col[0] * 16;
    let mut base_wall = None;
    for &hosts in hosts_col {
        let ranks = hosts * 16;
        let steps = (16 * base_ranks / ranks).max(1);
        let p = (0..3)
            .map(|_| scaling_point(hosts, steps))
            .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
            .expect("three runs");
        let base = *base_wall.get_or_insert(p.wall_ms);
        t.row(vec![
            p.ranks.to_string(),
            hosts.to_string(),
            p.steps.to_string(),
            f2(p.wall_ms),
            f2(p.wall_ms / base),
            f2(ranks as f64 / base_ranks as f64),
            f2(p.peak_rss_mb),
            f2(p.virt_ms),
            p.msgs.to_string(),
        ]);
    }
    t
}

/// `figures --fig scaling` companion: the paper's container list (Section
/// IV-B) at 10^3 / 10^5 / 10^6 ranks, in real time — one publish (the
/// rank's compare-and-swap on its own byte, here an idempotent republish
/// of a claimed slot mid-list), one full scan (`local_size`, the count
/// every rank takes at init) and the host-wide segment's size. One rank
/// in 16 has published, a 16-per-host layout. Each time is the best of
/// three batches.
pub fn container_list_table() -> Table {
    let mut t = Table::new(
        "Container list — publish and scan cost by job size (Section IV-B), best of 3",
        &[
            "ranks",
            "segment_bytes",
            "published",
            "publish_ns",
            "scan_us",
        ],
    );
    let best_ns = |iters: u32, op: &mut dyn FnMut()| -> f64 {
        (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    op();
                }
                t0.elapsed().as_nanos() as f64 / f64::from(iters)
            })
            .fold(f64::INFINITY, f64::min)
    };
    for ranks in [1_000usize, 100_000, 1_000_000] {
        let reg = ShmRegistry::new();
        let list = ContainerList::attach(&reg, HostId(0), NamespaceId(0), ranks);
        for r in (0..ranks).step_by(16) {
            list.publish(r, ContainerId((r % 4) as u32))
                .expect("fresh slot");
        }
        let mid = ranks / 32 * 16;
        let publish_ns = best_ns(100_000, &mut || {
            std::hint::black_box(list.publish(std::hint::black_box(mid), ContainerId(0)))
                .expect("idempotent republish");
        });
        let scans = (10_000_000 / ranks) as u32;
        let scan_ns = best_ns(scans, &mut || {
            std::hint::black_box(list.local_size());
        });
        let segment = reg
            .open(HostId(0), NamespaceId(0), LOCALITY_SEGMENT)
            .expect("attached");
        t.row(vec![
            ranks.to_string(),
            segment.len().to_string(),
            list.local_size().to_string(),
            f2(publish_ns),
            f2(scan_ns / 1e3),
        ]);
    }
    t
}

/// Extension: PGAS (GUPS) on co-resident containers — the paper's
/// Section VII future work, measured with the same Def/Opt/Native
/// methodology.
pub fn ext_pgas(e: &Effort) -> Table {
    let mut t = Table::new(
        "Extension — PGAS GUPS (global random access), 8 ranks in 4 containers",
        &["config", "updates_per_s", "elapsed_ms"],
    );
    let updates = (e.iters as u64) * 50;
    let mk = |name: &str, spec: JobSpec| {
        let r = spec.run(move |mpi| pgas::gups(mpi, 1 << 12, updates, 7));
        (name.to_string(), r.results[0].0, r.elapsed)
    };
    let sharing = NamespaceSharing::default();
    let rows = vec![
        mk(
            "Cont-Def",
            JobSpec::new(DeploymentScenario::containers(1, 4, 2, sharing))
                .with_policy(LocalityPolicy::Hostname),
        ),
        mk(
            "Cont-Opt",
            JobSpec::new(DeploymentScenario::containers(1, 4, 2, sharing))
                .with_policy(LocalityPolicy::ContainerDetector),
        ),
        mk("Native", JobSpec::new(DeploymentScenario::native(1, 8))),
    ];
    for (name, rate, elapsed) in rows {
        t.row(vec![name, f2(rate), ms(elapsed)]);
    }
    t
}

/// Ablation: flat vs two-level collective schedules through the
/// job's collective selector (`cmpi_core::coll_select`).
///
/// Three configurations of the same cluster deployment:
///
/// * **default** — Hostname policy: the selector sees one group per
///   container and degenerates to the flat algorithms;
/// * **proposed** — ContainerDetector: multi-container-per-host groups,
///   so the selector picks the two-level schedules;
/// * **smp_off** — ContainerDetector with `MV2_USE_SMP_COLL=0`: the
///   detector's routing stays, the two-level schedules are disabled.
///
/// The first seven rows compare per-collective latency (4 KiB payloads)
/// and report which algorithm each configuration actually recorded; the
/// remaining rows run Graph 500 and the NPB kernels end-to-end and check
/// that the answers are bit-identical whichever schedule runs.
pub fn ablation_smp_collectives(e: &Effort) -> Table {
    let mut t = Table::new(
        "Ablation — flat vs two-level collectives through the selector",
        &["row", "default", "proposed", "smp_off", "check"],
    );
    let def = || {
        JobSpec::new(DeploymentScenario::collective_256(e.hosts_div))
            .with_policy(LocalityPolicy::Hostname)
    };
    let opt = || {
        JobSpec::new(DeploymentScenario::collective_256(e.hosts_div))
            .with_policy(LocalityPolicy::ContainerDetector)
    };
    let off = || opt().with_tunables(Tunables::default().with_smp_coll_enable(false));

    // Which algorithm a configuration selects, observed from the recorded
    // per-call statistics of a probe job running every collective once.
    let probe = |spec: JobSpec| -> JobStats {
        spec.run(|mpi| {
            let n = mpi.size();
            let mine = vec![mpi.rank() as u64; 512];
            let mut buf = mine.clone();
            mpi.bcast(&mut buf, 0);
            mpi.reduce(&mine, ReduceOp::Sum, 0);
            mpi.allreduce(&mine, ReduceOp::Sum);
            mpi.gather(&mine, 0);
            mpi.allgather(&mine);
            mpi.alltoall(&vec![0u64; 512 * n], 512);
            mpi.barrier();
        })
        .stats
    };
    let dominant = |stats: &JobStats, kind: CollKind| -> &'static str {
        CollAlgo::ALL
            .into_iter()
            .max_by_key(|&a| stats.coll_selections(kind, a))
            .map(|a| a.name())
            .unwrap_or("-")
    };
    let (pd, po, pf) = (probe(def()), probe(opt()), probe(off()));

    let kinds = [
        (CollKind::Barrier, CollOp::Barrier),
        (CollKind::Bcast, CollOp::Bcast),
        (CollKind::Reduce, CollOp::Reduce),
        (CollKind::Allreduce, CollOp::Allreduce),
        (CollKind::Gather, CollOp::Gather),
        (CollKind::Allgather, CollOp::Allgather),
        (CollKind::Alltoall, CollOp::Alltoall),
    ];
    for (kind, op) in kinds {
        let lat = |spec: &JobSpec| f2(collective::latency(spec, op, &[4096], 2)[0].value);
        t.row(vec![
            op.name().into(),
            lat(&def()),
            lat(&opt()),
            lat(&off()),
            format!(
                "{}/{}/{}",
                dominant(&pd, kind),
                dominant(&po, kind),
                dominant(&pf, kind)
            ),
        ]);
    }

    // End-to-end identity: the BFS traversal counts and the NPB
    // verifications must not depend on which schedule ran.
    let mut cfg = e.graph_cfg();
    cfg.validate = false;
    let edges = |spec: &JobSpec| graph500::run(spec, cfg).traversed_edges;
    let (gd, go, gf) = (edges(&def()), edges(&opt()), edges(&off()));
    let identical = gd == go && go == gf;
    t.row(vec![
        "Graph500 edges".into(),
        gd.iter().sum::<u64>().to_string(),
        go.iter().sum::<u64>().to_string(),
        gf.iter().sum::<u64>().to_string(),
        if identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
        .into(),
    ]);
    for k in Kernel::ALL {
        let run = |spec: &JobSpec| {
            let r = npb::run(spec, k, e.npb_class);
            (r.verified, ms(r.elapsed))
        };
        let ((vd, td), (vo, to), (vf, tf)) = (run(&def()), run(&opt()), run(&off()));
        t.row(vec![
            format!("NPB {}", k.name()),
            td,
            to,
            tf,
            if vd && vo && vf { "verified" } else { "FAILED" }.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Effort {
        Effort {
            graph_scale: 9,
            roots: 1,
            hosts_div: 8,
            max_size: 16 * 1024,
            iters: 3,
            npb_class: NpbClass::S,
        }
    }

    #[test]
    fn profile_tables_show_channel_migration() {
        let tabs = profile_tables(&tiny());
        assert_eq!(tabs.len(), 4);
        let chans = &tabs[0];
        // Rows are [SHM, CMA, HCA]; Default misroutes all cross-container
        // traffic to the HCA, Proposed moves it onto the local channels.
        let hca_def: u64 = chans.cell(2, "default_bytes").parse().unwrap();
        let hca_opt: u64 = chans.cell(2, "proposed_bytes").parse().unwrap();
        let local_opt: u64 = chans.cell(0, "proposed_bytes").parse::<u64>().unwrap()
            + chans.cell(1, "proposed_bytes").parse::<u64>().unwrap();
        assert!(hca_def > 0, "default must ride the HCA loopback");
        assert_eq!(hca_opt, 0, "proposed must keep intra-host pairs off HCA");
        assert!(local_opt > 0, "proposed traffic must appear on SHM/CMA");
        // Conservation must hold in both runs.
        let summary = &tabs[2];
        assert_eq!(summary.cell(0, "default"), "0");
        assert_eq!(summary.cell(0, "proposed"), "0");
        // Detection latency is lease-bounded at every survivor, and every
        // survivor shrank.
        let detect = &tabs[3];
        let lease_ms = cmpi_core::FAILURE_LEASE.as_ms_f64();
        for row in 0..3 {
            let latency: f64 = detect.cell(row, "latency_ms").parse().unwrap();
            assert!(latency >= lease_ms, "latency {latency} below the lease");
            assert!(latency < 100.0 * lease_ms, "latency {latency} unbounded");
            assert!(detect.cell(row, "shrinks").parse::<u64>().unwrap() >= 1);
        }
    }

    #[test]
    fn fig01_degrades_with_containers() {
        let t = fig01(&tiny());
        assert_eq!(t.rows.len(), 4);
        let native = t.cell_f64(0, "bfs_ms");
        let four = t.cell_f64(3, "bfs_ms");
        assert!(four > native * 1.2, "native {native} four {four}");
    }

    #[test]
    fn table1_shifts_ops_to_hca() {
        let t = table1(&tiny());
        // Native column has zero HCA ops; 4-Containers has many.
        let hca_native: u64 = t.cell(2, "Native").parse().unwrap();
        let hca_four: u64 = t.cell(2, "4-Containers").parse().unwrap();
        let shm_native: u64 = t.cell(1, "Native").parse().unwrap();
        let shm_four: u64 = t.cell(1, "4-Containers").parse().unwrap();
        assert_eq!(hca_native, 0);
        assert!(hca_four > 0);
        // At this toy scale batches rarely fill, so CMA counts are small;
        // the load shifting from the local channels to HCA is the trend
        // that must hold (the full-effort run reproduces the CMA-dominant
        // shape of the paper's Table I).
        assert!(shm_four < shm_native);
    }

    #[test]
    fn fig11_closes_the_gap() {
        let t = fig11(&tiny());
        // Rows 2 and 3 (2- and 4-containers) are where the paper's gap
        // exists; Native/1-Container route identically under both
        // policies, so they are excluded (only jitter differs there).
        for row in 2..4 {
            let def = t.cell_f64(row, "default_ms");
            let opt = t.cell_f64(row, "proposed_ms");
            assert!(opt < def, "row {row}: opt {opt} vs def {def}");
        }
    }

    #[test]
    fn fig07c_17k_wins_overall() {
        let t = fig07c(&tiny());
        // Sum latency across the sweep sizes per setting: 17K must beat
        // 13K and 19K.
        let sum = |col: &str| -> f64 { (0..t.rows.len()).map(|r| t.cell_f64(r, col)).sum() };
        let (s13, s17, s19) = (sum("13K"), sum("17K"), sum("19K"));
        assert!(s17 < s13, "17K {s17} vs 13K {s13}");
        assert!(s17 <= s19, "17K {s17} vs 19K {s19}");
    }

    #[test]
    fn ablation_namespaces_ordering() {
        let t = ablation_namespaces(&tiny());
        let full = t.cell_f64(0, "1KiB");
        let isolated = t.cell_f64(3, "1KiB");
        assert!(isolated > 2.0 * full, "isolated {isolated} vs full {full}");
    }

    #[test]
    fn ablation_collectives_flat_vs_two_level() {
        let t = ablation_smp_collectives(&tiny());
        // The per-collective rows: the default policy and the smp-off
        // configuration stay flat, the detector picks two-level.
        for row in 0..7 {
            assert_eq!(
                t.cell(row, "check"),
                "flat/two-level/flat",
                "row {row} ({})",
                t.cell(row, "row")
            );
        }
        // End-to-end: same BFS answer and verified NPB kernels whichever
        // schedule ran.
        assert_eq!(t.cell(7, "check"), "bit-identical");
        assert_eq!(t.cell(7, "proposed"), t.cell(7, "smp_off"));
        for row in 8..t.rows.len() {
            assert_eq!(t.cell(row, "check"), "verified", "{}", t.cell(row, "row"));
        }
    }
}
