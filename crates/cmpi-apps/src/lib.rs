//! # cmpi-apps — end applications
//!
//! The two application workloads the paper evaluates (Section V-D), and
//! the programming model its future work (Section VII) names:
//!
//! * [`graph500`] — the Graph 500 benchmark in its MPI-simple flavour:
//!   Kronecker (R-MAT) graph generation, 1-D partitioned level-synchronous
//!   BFS driven by `Isend`/`Irecv`/`Test`/`Allreduce` (the exact call mix
//!   the paper profiles with mpiP), and parent-tree validation;
//! * [`npb`] — NAS Parallel Benchmark kernels (CG, EP, MG, FT, IS, LU)
//!   re-implemented against this crate's MPI API with their original
//!   communication skeletons and self-verification;
//! * [`pgas`] — PGAS-style global arrays over the one-sided layer and a
//!   GUPS random-access kernel on them.
//!
//! Computation is charged to the virtual clock through a per-kernel
//! work model (`ns` per edge / flop / gridpoint), so communication and
//! computation trade off exactly as in the paper's Fig. 3(a) breakdown.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
pub mod graph500;
pub mod npb;
pub mod pgas;

pub use graph500::{FtRankOutcome, Graph500Config, Graph500Result};
pub use npb::{Kernel, KernelResult, NpbClass};
