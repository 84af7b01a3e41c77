//! Graph 500 (MPI-simple flavour).
//!
//! The paper's motivating workload (Fig. 1, Fig. 3, Table I, Fig. 11,
//! Fig. 12): generate a Kronecker graph, run breadth-first searches from
//! pseudo-random roots, time the BFS phase, validate the parent tree.

pub mod bfs;
pub mod ft;
pub mod generator;
pub mod validate;

use cmpi_cluster::SimTime;
use cmpi_core::{JobResult, JobSpec, JobStats, MpiError, TelemetrySnapshot};

pub use ft::FtRankOutcome;

/// Benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct Graph500Config {
    /// log2 of the vertex count (the paper runs scale 20; tests and CI
    /// figures use smaller scales — the Default/Proposed/Native ratios are
    /// scale-independent because they come from the same code paths).
    pub scale: u32,
    /// Edges per vertex (Graph 500 default 16).
    pub edgefactor: u32,
    /// Number of BFS roots to search from (Graph 500 runs 64; we default
    /// to fewer for CI).
    pub num_roots: usize,
    /// RNG seed for graph construction and root selection.
    pub seed: u64,
    /// Modelled compute cost per traversed edge, ns.
    pub ns_per_edge: u64,
    /// Validate the parent tree after each search (gathers to rank 0 —
    /// fine at test scales).
    pub validate: bool,
}

impl Default for Graph500Config {
    fn default() -> Self {
        Graph500Config {
            scale: 12,
            edgefactor: 16,
            num_roots: 4,
            seed: 0x6a09_e667_f3bc_c908,
            ns_per_edge: 4,
            validate: true,
        }
    }
}

impl Graph500Config {
    /// Total vertex count.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Total (directed half-)edge count before deduplication.
    pub fn num_edges(&self) -> u64 {
        self.num_vertices() * self.edgefactor as u64
    }

    /// Panic unless the kernels can run this configuration: the BFS
    /// root search needs an edge between distinct vertices, and the
    /// edge set's keys and the partition's reciprocal hold ids of at
    /// most 32 bits.
    pub fn assert_runnable(&self) {
        let why = match (self.scale, self.edgefactor) {
            (0, _) => "scale 0 has no edge between distinct vertices",
            (33.., _) => "scale above 32 has vertex ids wider than 32 bits",
            (_, 0) => "edgefactor 0 has no edges",
            _ => return,
        };
        panic!("unrunnable Graph 500 config: {why}");
    }
}

/// Benchmark outcome.
#[derive(Clone, Debug)]
pub struct Graph500Result {
    /// Per-root BFS virtual times (max across ranks, like the reference
    /// harness reports).
    pub bfs_times: Vec<SimTime>,
    /// Harmonic-mean TEPS (traversed edges per second) over all searches.
    pub mean_teps: f64,
    /// Whether every parent tree validated.
    pub validated: bool,
    /// Edges traversed per search.
    pub traversed_edges: Vec<u64>,
    /// Job-wide communication/recovery statistics.
    pub stats: JobStats,
    /// The job's telemetry snapshot (absent only under
    /// `JobSpec::without_telemetry`).
    pub telemetry: Option<TelemetrySnapshot>,
}

impl Graph500Result {
    /// Mean BFS time.
    pub fn mean_bfs_time(&self) -> SimTime {
        if self.bfs_times.is_empty() {
            return SimTime::ZERO;
        }
        self.bfs_times.iter().copied().sum::<SimTime>() / self.bfs_times.len() as u64
    }
}

/// Run the full benchmark on a job spec: generation, `num_roots`
/// searches, optional validation.
pub fn run(spec: &JobSpec, cfg: Graph500Config) -> Graph500Result {
    let res: JobResult<bfs::RankOutcome> = spec.run(move |mpi| bfs::run_rank(mpi, &cfg));
    summarize(cfg, res)
}

/// Run the fault-tolerant benchmark: every rank drives the ULFM recovery
/// loop in [`ft`]; survivors report agreed outcomes, ranks scripted to
/// die report their own failure.
pub fn run_ft(spec: &JobSpec, cfg: Graph500Config) -> JobResult<Result<FtRankOutcome, MpiError>> {
    spec.run(move |mpi| ft::run_rank_ft(mpi, &cfg))
}

fn summarize(cfg: Graph500Config, res: JobResult<bfs::RankOutcome>) -> Graph500Result {
    let roots = cfg.num_roots;
    let mut bfs_times = Vec::with_capacity(roots);
    let mut traversed = vec![0u64; roots];
    for (i, tr) in traversed.iter_mut().enumerate() {
        // The reference harness reports the slowest rank per search.
        let t = res
            .results
            .iter()
            .map(|o| o.bfs_times[i])
            .fold(SimTime::ZERO, SimTime::max);
        bfs_times.push(t);
        for o in &res.results {
            *tr += o.traversed_edges[i];
        }
    }
    let validated = res.results.iter().all(|o| o.validated);
    // Harmonic mean of TEPS, per the Graph 500 spec.
    let mut inv_sum = 0.0f64;
    let mut counted = 0usize;
    for (t, &e) in bfs_times.iter().zip(&traversed) {
        if e > 0 && !t.is_zero() {
            inv_sum += t.as_secs_f64() / e as f64;
            counted += 1;
        }
    }
    let mean_teps = if counted > 0 {
        counted as f64 / inv_sum
    } else {
        0.0
    };
    Graph500Result {
        bfs_times,
        mean_teps,
        validated,
        traversed_edges: traversed,
        stats: res.stats,
        telemetry: res.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
    use cmpi_core::LocalityPolicy;

    fn tiny() -> Graph500Config {
        Graph500Config {
            scale: 9,
            edgefactor: 8,
            num_roots: 2,
            ..Default::default()
        }
    }

    /// Each entry that runs a kernel — the plain and the fault-tolerant
    /// rank body and rank 0's edge set — rejects `cfg` with the named
    /// panic before it generates anything.
    fn every_entry_rejects(cfg: Graph500Config, why: &str) {
        let spec = JobSpec::new(DeploymentScenario::native(1, 2));
        let entries: [(&str, &dyn Fn()); 3] = [
            ("run_rank", &|| drop(run(&spec, cfg))),
            ("run_rank_ft", &|| drop(run_ft(&spec, cfg))),
            ("EdgeSet::generate", &|| {
                drop(validate::EdgeSet::generate(&cfg))
            }),
        ];
        for (entry, body) in entries {
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).expect_err(entry);
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(
                msg,
                format!("unrunnable Graph 500 config: {why}"),
                "{entry}"
            );
        }
    }

    #[test]
    fn scale_zero_is_rejected_instead_of_searching_for_a_root_forever() {
        let cfg = Graph500Config { scale: 0, ..tiny() };
        every_entry_rejects(cfg, "scale 0 has no edge between distinct vertices");
    }

    #[test]
    fn scales_above_32_are_rejected() {
        let cfg = Graph500Config {
            scale: 33,
            ..tiny()
        };
        every_entry_rejects(cfg, "scale above 32 has vertex ids wider than 32 bits");
    }

    #[test]
    fn edgefactor_zero_is_rejected_instead_of_dividing_by_zero() {
        let cfg = Graph500Config {
            edgefactor: 0,
            ..tiny()
        };
        every_entry_rejects(cfg, "edgefactor 0 has no edges");
    }

    #[test]
    fn bfs_validates_on_native_and_containers() {
        for scenario in [
            DeploymentScenario::native(1, 4),
            DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default()),
        ] {
            let r = run(&JobSpec::new(scenario), tiny());
            assert!(r.validated);
            assert!(r.mean_teps > 0.0);
            assert_eq!(r.bfs_times.len(), 2);
        }
    }

    #[test]
    fn results_identical_across_policies() {
        // The locality policy must change timing, never the answer.
        let base = DeploymentScenario::containers(1, 4, 2, NamespaceSharing::default());
        let opt = run(
            &JobSpec::new(base.clone()).with_policy(LocalityPolicy::ContainerDetector),
            tiny(),
        );
        let def = run(
            &JobSpec::new(base).with_policy(LocalityPolicy::Hostname),
            tiny(),
        );
        assert!(opt.validated && def.validated);
        assert_eq!(opt.traversed_edges, def.traversed_edges);
        // And the paper's headline: the detector is faster.
        assert!(opt.mean_bfs_time() < def.mean_bfs_time());
    }

    #[test]
    fn fig1_shape_default_degrades_with_containers() {
        // Fig. 1: with the default library, more containers per host =
        // slower BFS; native and 1-container are equivalent.
        let time = |cph: u32| {
            let spec =
                JobSpec::new(DeploymentScenario::fig1(cph)).with_policy(LocalityPolicy::Hostname);
            run(
                &spec,
                Graph500Config {
                    scale: 10,
                    edgefactor: 8,
                    num_roots: 5,
                    ..Default::default()
                },
            )
            .mean_bfs_time()
        };
        let native = time(0);
        let one = time(1);
        let two = time(2);
        let four = time(4);
        // Native and 1-container route identically (all-SHM/CMA); at toy
        // scale the per-call container tax plus ANY_SOURCE arrival-order
        // jitter leaves a wider band than the paper's near-equality.
        let close = |a: SimTime, b: SimTime| {
            let (a, b) = (a.as_ns() as f64, b.as_ns() as f64);
            (a - b).abs() / b.max(1.0) < 0.30
        };
        assert!(close(native, one), "native {native} vs 1-container {one}");
        // The degradation ordering is the claim; thresholds sit below the
        // typical factors (2-cont ~1.2-1.5x, 4-cont ~1.5-2.5x at this
        // scale) to stay clear of ANY_SOURCE jitter.
        let (one_f, two_f, four_f) = (one.as_ns() as f64, two.as_ns() as f64, four.as_ns() as f64);
        assert!(two_f > 1.08 * one_f, "2 containers {two} vs {one}");
        assert!(four_f > 1.25 * one_f, "4 containers {four} vs 1 {one}");
        assert!(four_f > two_f * 0.95, "4 containers {four} vs 2 {two}");
    }

    #[test]
    fn fig11_proposed_design_flattens_the_curve() {
        // Fig. 11: with the locality-aware library all container counts
        // perform alike (the curve is flat), close to native. At this toy
        // scale the fixed per-call container overhead is amplified
        // relative to the tiny per-rank work, so the native gap bound is
        // looser than the paper's <5% (which the figure harness
        // reproduces at scale 16).
        let time = |cph: u32| {
            let spec = JobSpec::new(DeploymentScenario::fig1(cph));
            run(
                &spec,
                Graph500Config {
                    scale: 10,
                    edgefactor: 8,
                    num_roots: 3,
                    ..Default::default()
                },
            )
            .mean_bfs_time()
        };
        let native = time(0).as_ns() as f64;
        let one = time(1).as_ns() as f64;
        for (cph, t) in [(2u32, time(2)), (4, time(4))] {
            let t = t.as_ns() as f64;
            assert!(
                (t - one).abs() / one < 0.25,
                "{cph} containers: {t}ns vs 1-container {one}ns — curve must be flat"
            );
        }
        assert!(
            (one - native) / native < 0.35,
            "1-container {one} vs native {native}"
        );
    }
}
