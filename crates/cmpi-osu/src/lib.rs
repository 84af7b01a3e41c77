//! # cmpi-osu — micro-benchmark suite
//!
//! Faithful re-implementations of the OSU micro-benchmarks the paper uses
//! (OSU micro-benchmarks v5.0 on MVAPICH2-2.2b), measuring *virtual* time
//! on the simulated cluster:
//!
//! * [`pt2pt`] — `osu_latency`, `osu_bw`, `osu_bibw` (Figs. 3(b)(c), 7, 8);
//! * [`onesided`] — `osu_put_lat`, `osu_put_bw`, `osu_get_lat`,
//!   `osu_get_bw` (Fig. 9);
//! * [`collective`] — `osu_barrier`, `osu_bcast`, `osu_reduce`,
//!   `osu_allreduce`, `osu_gather`, `osu_allgather`, `osu_alltoall`
//!   (Fig. 10 and the flat-vs-two-level ablation).
//!
//! Every benchmark takes a fully configured [`cmpi_core::JobSpec`], so the
//! same code measures Native, Cont-Def, Cont-Opt and forced-channel
//! configurations.

#![forbid(unsafe_code)]
pub mod collective;
mod common;
pub mod onesided;
pub mod pt2pt;

pub use common::{power_of_two_sizes, SizePoint};
