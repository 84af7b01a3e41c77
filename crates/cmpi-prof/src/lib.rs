//! # cmpi-prof — causal profiling for container-mpi
//!
//! The observability layer behind the paper's bottleneck analysis
//! (Section III): where Table I counts per-channel transfers job-wide,
//! this crate answers *which rank pairs* ride which channel, *why* a
//! rank was blocked (late sender vs. genuine transfer time), and with
//! what message-size distribution — the evidence needed to attribute a
//! slowdown to HCA-loopback misrouting rather than to the application.
//!
//! Three pieces:
//!
//! * [`Json`] — a self-contained JSON model (the vendored `serde` is
//!   marker-only), with a serializer and a strict parser so every
//!   exported document can be round-trip-checked;
//! * [`RankMatrix`] — per-peer, per-channel traffic ledgers of
//!   [`ChannelCounter`]s with a log2 size histogram per peer; the
//!   workspace's one `{ops, bytes}` counter and its one log2 histogram
//!   ([`HistogramAccumulator`] / [`HistogramSnapshot`]) live here;
//! * [`WaitStats`] / [`JobProfile`] — mpiP-style wait-state
//!   decomposition and the assembled job report.
//!
//! The crate deliberately depends only on `cmpi-cluster` (for
//! [`cmpi_cluster::Channel`] and `SimTime`); `cmpi-core` feeds it.

#![forbid(unsafe_code)]
pub mod json;
pub mod matrix;
pub mod profile;
pub mod wait;

pub use json::{Json, JsonError};
pub use matrix::{
    chan_index, size_bucket, ChannelCounter, HistogramAccumulator, HistogramSnapshot, PeerCell,
    RankMatrix, NUM_CHANNELS, SIZE_BUCKETS,
};
pub use profile::{FabricCounters, JobProfile, ProfCollector, QueuePressure};
pub use wait::{WaitBreakdown, WaitClass, WaitStats};
