//! # container-mpi
//!
//! A locality-aware MPI library for container-based HPC clouds — a
//! from-scratch Rust reproduction of *"High Performance MPI Library for
//! Container-Based HPC Cloud on InfiniBand Clusters"* (Zhang, Lu, Panda —
//! ICPP 2016), including every substrate the paper runs on: a simulated
//! InfiniBand fabric, host shared memory + CMA, Docker-style containers
//! with Linux-namespace semantics, the MVAPICH2-style MPI library with the
//! paper's Container Locality Detector, the OSU micro-benchmarks, and the
//! Graph 500 / NAS application workloads.
//!
//! This crate is a facade: it re-exports the workspace members under
//! stable paths and hosts the runnable examples and the cross-crate
//! integration tests.
//!
//! ```
//! use container_mpi::prelude::*;
//!
//! // Two containers on one host; the detector routes through SHM.
//! let scenario = DeploymentScenario::containers(1, 2, 1, NamespaceSharing::default());
//! let result = JobSpec::new(scenario).run(|mpi| {
//!     let sum = mpi.allreduce(&[mpi.rank() as u64 + 1], ReduceOp::Sum);
//!     sum[0]
//! });
//! assert_eq!(result.results, vec![3, 3]);
//! ```

#![forbid(unsafe_code)]
/// Simulated cluster substrate (hosts, containers, namespaces, cost
/// model, virtual time).
pub use cmpi_cluster as cluster;

/// Simulated shared memory and Cross Memory Attach.
pub use cmpi_shmem as shmem;

/// Simulated InfiniBand verbs.
pub use cmpi_fabric as fabric;

/// The MPI library (the paper's contribution).
pub use cmpi_core as mpi;

/// Causal profiling: per-peer channel matrices, wait-state analysis,
/// JSON export (the `figures --fig profile` payload).
pub use cmpi_prof as prof;

/// OSU-style micro-benchmarks.
pub use cmpi_osu as osu;

/// Graph 500, NAS Parallel Benchmark and PGAS (GUPS) applications.
pub use cmpi_apps as apps;

/// The most common imports in one place.
pub mod prelude {
    pub use cmpi_cluster::{
        Channel, ContainerId, CostModel, DeploymentScenario, FaultPlan, HostId, MidRunFault,
        MidRunTrigger, NamespaceSharing, SimTime, Tunables,
    };
    pub use cmpi_core::{
        CallClass, Comm, Completion, DowngradeReason, ExecMode, JobProfile, JobResult, JobSpec,
        JobTrace, LocalityPolicy, Mpi, MpiError, RecoveryStats, ReduceOp, Request, Status,
        WaitClass, Window, ANY_SOURCE, ANY_TAG, FAILURE_LEASE,
    };
}
