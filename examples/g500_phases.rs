//! Where the Graph 500 job spends its host time, phase by phase and
//! policy by policy.
//!
//! Runs one repetition of the benchmark's `graph500_s14` workload — the
//! "Opt" job (container detector) and then the "Def" job (hostname
//! routing) on `fig1(4)` (16 ranks in 4 co-resident containers), scale
//! 14, 4 roots, validation on — as fibers on one worker, with a barrier
//! on each side of build_graph, rank 0's validation edge set, each BFS
//! and each validate, and prints rank 0's best-of-N host milliseconds
//! per phase, one column per policy. With one worker the interval
//! between the two barriers holds every rank's work on the phase, so the
//! rows add up to the job: the table says whether a change moved the
//! generator, the search or the validator, and under which routing (the
//! Def job's BFS batches cross the HCA loopback), which the benchmark's
//! single `wall_s` cannot.
//!
//! ```text
//! cargo run --release --example g500_phases       # N = 1, a smoke run
//! cargo run --release --example g500_phases -- 7  # best of 7
//! ```

use std::time::Instant;

use container_mpi::apps::graph500::generator::bfs_root;
use container_mpi::apps::graph500::{bfs, validate, Graph500Config};
use container_mpi::prelude::*;

const PHASES: [&str; 4] = [
    "build_graph",
    "validation edge set (rank 0)",
    "bfs x4",
    "validate x4",
];

/// The repetition's two jobs, in the benchmark's order.
const POLICIES: [(&str, LocalityPolicy); 2] = [
    ("Opt", LocalityPolicy::ContainerDetector),
    ("Def", LocalityPolicy::Hostname),
];

/// What one job reports: rank 0's host ms per phase, the HCA
/// operations and the virtual makespan.
struct Job {
    ms: [f64; PHASES.len()],
    hca_ops: u64,
    elapsed: SimTime,
}

fn run_job(policy: LocalityPolicy, cfg: Graph500Config) -> Job {
    let spec = JobSpec::new(DeploymentScenario::fig1(4))
        .with_policy(policy)
        .with_exec(ExecMode::Tasks)
        .with_workers(1);
    let result = spec.run(move |mpi| {
        let mut ms = [0.0; PHASES.len()];
        // One barrier-fenced phase, added to its row.
        let mut phase = |mpi: &mut Mpi, row: usize, body: &mut dyn FnMut(&mut Mpi)| {
            mpi.barrier();
            let t0 = Instant::now();
            body(mpi);
            mpi.barrier();
            ms[row] += t0.elapsed().as_secs_f64() * 1e3;
        };
        let mut graph = None;
        phase(mpi, 0, &mut |mpi| graph = Some(bfs::build_graph(mpi, &cfg)));
        let graph = graph.expect("phase ran");
        let mut edge_set = None;
        phase(mpi, 1, &mut |mpi| {
            edge_set = (mpi.rank() == 0).then(|| validate::EdgeSet::generate(&cfg))
        });
        let mut validated = true;
        for i in 0..cfg.num_roots {
            let root = bfs_root(cfg.seed, cfg.scale, cfg.edgefactor, i as u64);
            let mut parent = Vec::new();
            phase(mpi, 2, &mut |mpi| {
                parent = bfs::bfs(mpi, &cfg, &graph, root).0
            });
            phase(mpi, 3, &mut |mpi| {
                validated &= validate::validate(mpi, &cfg, &graph, edge_set.as_ref(), root, &parent)
            });
        }
        (ms, validated)
    });
    assert!(
        result.results.iter().all(|(_, ok)| *ok),
        "a parent tree failed validation"
    );
    Job {
        ms: result.results[0].0,
        hca_ops: result.stats.channel_ops(Channel::Hca),
        elapsed: result.elapsed,
    }
}

fn main() {
    let best_of: u32 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("usage: g500_phases [N]"))
        .unwrap_or(1);
    let cfg = Graph500Config {
        scale: 14,
        edgefactor: 16,
        num_roots: 4,
        validate: true,
        ..Graph500Config::default()
    };
    let mut best = [[f64::INFINITY; PHASES.len()]; POLICIES.len()];
    let mut last = None;
    for _ in 0..best_of {
        let jobs = POLICIES.map(|(_, policy)| run_job(policy, cfg));
        for (column, job) in best.iter_mut().zip(&jobs) {
            for (b, &m) in column.iter_mut().zip(&job.ms) {
                *b = b.min(m);
            }
        }
        last = Some(jobs);
    }
    let last = last.expect("usage: g500_phases [N], N >= 1");
    println!(
        "graph500_s14 repetition, 16 ranks on one worker, best of {best_of} (host ms, rank 0):"
    );
    println!(
        "  {:<30} {:>8} {:>8}",
        "phase", POLICIES[0].0, POLICIES[1].0
    );
    for (row, name) in PHASES.iter().enumerate() {
        println!("  {name:<30} {:>8.2} {:>8.2}", best[0][row], best[1][row]);
    }
    let sums = best.map(|column| column.iter().sum::<f64>());
    println!(
        "  {:<30} {:>8.2} {:>8.2}",
        "sum of phases", sums[0], sums[1]
    );
    println!(
        "  {:<30} {:>8} {:>8}",
        "hca ops", last[0].hca_ops, last[1].hca_ops
    );
    println!(
        "  {:<30} {:>8} {:>8}",
        "virtual makespan",
        last[0].elapsed.to_string(),
        last[1].elapsed.to_string()
    );
}
