//! NAS Parallel Benchmark kernels, re-implemented with their original
//! communication skeletons:
//!
//! | kernel | pattern (what the paper's Fig. 12 exercises)            |
//! |--------|---------------------------------------------------------|
//! | CG     | sparse mat-vec allgather + dot-product allreduce        |
//! | EP     | pure compute + one small allreduce                      |
//! | MG     | nearest-neighbour halo exchange across grid levels      |
//! | FT     | global transpose (`alltoall`) between local FFT passes  |
//! | IS     | bucket histogram allreduce + `alltoallv` key exchange   |
//! | LU     | pipelined wavefront point-to-point chain                |
//!
//! Problem sizes are reduced relative to the paper's Class D so the suite
//! runs in CI; every kernel really computes (and self-verifies) its
//! numerics, while bulk flop time is charged through the virtual-clock
//! work model.

pub mod cg;
pub mod ep;
pub mod ft;
pub mod is;
pub mod lu;
pub mod mg;

use cmpi_cluster::SimTime;
use cmpi_core::{JobSpec, JobStats, TelemetrySnapshot};

/// Problem-size class (reduced re-interpretations of the NPB classes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NpbClass {
    /// Smallest (unit tests).
    S,
    /// Workstation (integration tests).
    W,
    /// The figure harness default.
    A,
}

/// Which kernel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Conjugate gradient.
    Cg,
    /// Embarrassingly parallel.
    Ep,
    /// Multigrid.
    Mg,
    /// 2-D FFT (reduced-dimension FT).
    Ft,
    /// Integer sort.
    Is,
    /// SSOR wavefront pipeline.
    Lu,
}

impl Kernel {
    /// All kernels in the order Fig. 12 lists them.
    pub const ALL: [Kernel; 6] = [
        Kernel::Cg,
        Kernel::Ep,
        Kernel::Ft,
        Kernel::Is,
        Kernel::Lu,
        Kernel::Mg,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Cg => "CG",
            Kernel::Ep => "EP",
            Kernel::Mg => "MG",
            Kernel::Ft => "FT",
            Kernel::Is => "IS",
            Kernel::Lu => "LU",
        }
    }
}

/// Outcome of one kernel run.
#[derive(Clone, Debug)]
pub struct KernelResult {
    /// Which kernel ran.
    pub kernel: Kernel,
    /// Problem class.
    pub class: NpbClass,
    /// Self-verification passed on every rank.
    pub verified: bool,
    /// Timed-section virtual time (max across ranks).
    pub elapsed: SimTime,
    /// Job-wide communication/recovery statistics.
    pub stats: JobStats,
    /// The job's telemetry snapshot (absent only under
    /// `JobSpec::without_telemetry`).
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Run one kernel on a job spec.
pub fn run(spec: &JobSpec, kernel: Kernel, class: NpbClass) -> KernelResult {
    let r = spec.run(move |mpi| match kernel {
        Kernel::Cg => cg::run(mpi, class),
        Kernel::Ep => ep::run(mpi, class),
        Kernel::Mg => mg::run(mpi, class),
        Kernel::Ft => ft::run(mpi, class),
        Kernel::Is => is::run(mpi, class),
        Kernel::Lu => lu::run(mpi, class),
    });
    let verified = r.results.iter().all(|(ok, _)| *ok);
    let elapsed = r
        .results
        .iter()
        .map(|(_, t)| *t)
        .fold(SimTime::ZERO, SimTime::max);
    KernelResult {
        kernel,
        class,
        verified,
        elapsed,
        stats: r.stats,
        telemetry: r.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
    use cmpi_core::LocalityPolicy;

    fn spec() -> JobSpec {
        JobSpec::new(DeploymentScenario::containers(
            1,
            2,
            4,
            NamespaceSharing::default(),
        ))
    }

    #[test]
    fn every_kernel_verifies_class_s() {
        for k in Kernel::ALL {
            let r = run(&spec(), k, NpbClass::S);
            assert!(r.verified, "{} failed verification", k.name());
            assert!(r.elapsed > SimTime::ZERO, "{} recorded no time", k.name());
        }
    }

    #[test]
    fn kernels_faster_with_locality_detector() {
        // Fig. 12 shape: Opt < Def for communication-heavy kernels.
        for k in [Kernel::Cg, Kernel::Ft, Kernel::Is] {
            let opt = run(
                &spec().with_policy(LocalityPolicy::ContainerDetector),
                k,
                NpbClass::S,
            );
            let def = run(
                &spec().with_policy(LocalityPolicy::Hostname),
                k,
                NpbClass::S,
            );
            assert!(opt.verified && def.verified);
            assert!(
                opt.elapsed < def.elapsed,
                "{}: opt {} must beat def {}",
                k.name(),
                opt.elapsed,
                def.elapsed
            );
        }
    }

    #[test]
    fn ep_is_insensitive_to_policy() {
        // EP barely communicates: Def and Opt must be within a few
        // percent (paper shows EP as the flat bar in Fig. 12).
        let opt = run(
            &spec().with_policy(LocalityPolicy::ContainerDetector),
            Kernel::Ep,
            NpbClass::S,
        );
        let def = run(
            &spec().with_policy(LocalityPolicy::Hostname),
            Kernel::Ep,
            NpbClass::S,
        );
        let gap = (def.elapsed.as_ns() as f64 - opt.elapsed.as_ns() as f64).abs()
            / opt.elapsed.as_ns() as f64;
        assert!(gap < 0.05, "EP gap {gap:.3}");
    }
}
