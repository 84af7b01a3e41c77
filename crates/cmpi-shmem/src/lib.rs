//! # cmpi-shmem — simulated shared memory and Cross Memory Attach
//!
//! This crate stands in for the two kernel facilities the paper's
//! locality-aware design relies on:
//!
//! * **POSIX shared memory** (`/dev/shm`) — modelled by [`ShmRegistry`]:
//!   named byte segments that are visible to two execution environments
//!   exactly when they are on the same host *and* share an IPC namespace
//!   (the `docker run --ipc=host` precondition from Section II-A).
//! * **Cross Memory Attach** (`process_vm_readv`/`writev`) — modelled by
//!   the gating predicates in [`visibility`] plus the single-copy cost in
//!   [`cmpi_cluster::CostModel::cma_time`]; usable only between processes
//!   that share a PID namespace.
//!
//! It also hosts the two shared data structures the MPI library builds on
//! top of raw shared memory:
//!
//! * [`ContainerList`] — the paper's `/dev/shm/locality` structure: one
//!   byte per global MPI rank, written lock-free during `MPI_Init`, from
//!   which each rank derives the set of co-resident ranks (Section IV-B).
//! * [`PairQueue`] — the bounded `SMPI_LENGTH_QUEUE` eager queue between a
//!   pair of co-resident ranks, providing *virtual-time backpressure*: a
//!   sender that outruns the receiver has its logical clock stalled to the
//!   moment the receiver actually freed space (Section IV-C).

#![forbid(unsafe_code)]
pub mod locality_list;
pub mod queue;
pub mod segment;
pub mod visibility;

pub use locality_list::{AttachOutcome, ContainerList, PublishError};
pub use queue::{PairQueue, QueueStats};
pub use segment::{Segment, ShmRegistry};
pub use visibility::{effective_visibility, Visibility};
