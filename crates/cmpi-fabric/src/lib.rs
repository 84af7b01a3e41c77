//! # cmpi-fabric — simulated InfiniBand verbs
//!
//! A stand-in for `libibverbs` + a Mellanox ConnectX-3 FDR fabric, shaped
//! so the MPI library's HCA channel code keeps the structure it has in
//! MVAPICH2:
//!
//! * every rank **attaches** an endpoint (≈ opening the HCA and creating a
//!   reliable-connection QP per peer) — this requires the container to run
//!   `--privileged`, exactly like PCI passthrough in the paper
//!   (Section II-B);
//! * **two-sided** traffic is `post_send` / `poll_recv` with an immediate
//!   value for protocol dispatch;
//! * **one-sided** traffic is `rdma_write` / `rdma_read` against registered
//!   [`MemoryRegion`]s addressed by rkey — the zero-copy rendezvous path;
//! * every operation returns the virtual timestamps implied by the
//!   [`CostModel`](cmpi_cluster::CostModel): when the sender's clock may proceed and when the data
//!   is observable remotely. Loopback (same-host) traffic pays the
//!   adapter's loopback latency and reduced bandwidth — the performance
//!   cliff at the heart of the paper's bottleneck analysis (Fig. 3).
//!
//! Flow control is modelled as infinite eager credits: the paper's
//! experiments never exhaust MVAPICH2's credit window, so we document the
//! simplification instead of simulating it.

#![forbid(unsafe_code)]
pub mod endpoint;
pub mod mr;
mod schedule;
mod slots;

pub use endpoint::{Fabric, FabricError, FabricMsg, InlineHdr, RdmaCompletion, SendInfo};
pub use mr::{MemoryRegion, RKey};
