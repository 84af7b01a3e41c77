//! # cmpi-core — a locality-aware MPI library for container-based HPC clouds
//!
//! This crate is the reproduction of the paper's contribution: an MPI
//! library whose channel layer dynamically detects **co-resident
//! containers** at startup and routes intra-host inter-container traffic
//! over shared memory (SHM) and Cross Memory Attach (CMA) instead of the
//! InfiniBand HCA loopback.
//!
//! The layering mirrors MVAPICH2 (paper Fig. 5):
//!
//! ```text
//!          application (Graph 500, NAS, OSU, ...)
//!   ─────────────────────────────────────────────────
//!    ADI3-like API     [`Mpi`]: pt2pt, one-sided, collectives
//!   ─────────────────────────────────────────────────
//!    Container Locality Detector        [`locality`]
//!    Channel selection + protocols      [`channel`], [`pt2pt`]
//!   ─────────────────────────────────────────────────
//!    SHM channel   CMA channel   HCA channel
//!    (cmpi-shmem)  (cmpi-shmem)  (cmpi-fabric)
//! ```
//!
//! Ranks run as OS threads; data movement is real; elapsed time is
//! *virtual*, advanced by the calibrated [`cmpi_cluster::CostModel`], so
//! every experiment in the paper can be regenerated deterministically on a
//! laptop.
//!
//! ## Quick start
//!
//! ```
//! use cmpi_core::{JobSpec, LocalityPolicy};
//! use cmpi_cluster::DeploymentScenario;
//!
//! // Two containers on one host, locality-aware routing.
//! let scenario = DeploymentScenario::containers(1, 2, 1, Default::default());
//! let spec = JobSpec::new(scenario).with_policy(LocalityPolicy::ContainerDetector);
//! let result = spec.run(|mpi| {
//!     if mpi.rank() == 0 {
//!         mpi.send(&[1u32, 2, 3], 1, 7);
//!         0
//!     } else {
//!         let mut buf = [0u32; 3];
//!         mpi.recv(&mut buf, 0, 7);
//!         buf.iter().sum::<u32>()
//!     }
//! });
//! assert_eq!(result.results[1], 6);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
pub mod channel;
pub mod coll_select;
pub mod collectives;
pub mod collectives_large;
pub mod comm;
pub mod datatype;
pub mod error;
pub mod exec;
pub(crate) mod failure;
pub(crate) mod fasthash;
pub(crate) mod frame;
pub mod ft;
pub mod locality;
pub mod mailbox;
pub mod matching;
pub(crate) mod obs;
pub mod onesided;
pub mod packet;
pub(crate) mod peer_table;
pub mod pt2pt;
pub(crate) mod requests;
pub mod runtime;
pub mod stats;
pub mod trace;

pub use channel::{ChannelSelector, Protocol, Route};
pub use coll_select::{coll_trace_name, CollAlgo, CollKind};
pub use comm::Comm;
pub use datatype::{MpiData, ReduceOp};
pub use error::MpiError;
pub use exec::{ExecMode, ExecSpec};
pub use failure::FAILURE_LEASE;
pub use locality::{DowngradeReason, LocalityPolicy, LocalityView, PublishReport};
pub use onesided::Window;
pub use pt2pt::{Completion, Request, Status, ANY_SOURCE, ANY_TAG};
pub use runtime::{JobResult, JobSpec, Mpi};
pub use stats::{CallClass, CommStats, JobStats, RecoveryStats};
pub use trace::{flow_id, FlowEvent, InstantEvent, JobTrace, RankTrace, TraceEvent};
// Profiling vocabulary, the `{ops, bytes}` counter and the log2 histogram
// (the `JobResult::profile` payload lives in cmpi-prof; re-exported so
// downstream crates need no direct dependency).
pub use cmpi_prof::{
    ChannelCounter, HistogramSnapshot, JobProfile, Json, WaitBreakdown, WaitClass, WaitStats,
};
// Telemetry vocabulary (the `JobResult::telemetry` payload lives in
// cmpi-telemetry; re-exported for the same reason).
pub use cmpi_telemetry::{
    evaluate as evaluate_health, EventKind, FlightEvent, FlightSnapshot, HealthFinding,
    HealthReport, HealthStatus, MetricId, MetricKind, RankSnapshot, TelemetrySnapshot,
};
