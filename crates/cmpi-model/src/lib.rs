//! `cmpi-model`: correctness tooling for the lock-free hot path.
//!
//! The crate has two faces:
//!
//! 1. **A shim synchronization layer** ([`sync`]): drop-in stand-ins for
//!    `std::sync::atomic::Atomic*` and `parking_lot::{Mutex, Condvar}`.
//!    In a normal build they compile straight down to the real types
//!    (zero hot-path cost). Under
//!    `RUSTFLAGS="--cfg cmpi_model"` every load/store/RMW/lock/wait is
//!    routed through an exhaustive model-checking scheduler.
//!
//! 2. **A model checker** (`model`, only under `cfg(cmpi_model)`): a
//!    loom-style DFS over thread interleavings with a bounded number of
//!    preemptions, a C11-flavoured weak-memory store history (loads may
//!    read stale values unless happens-before forbids it), a FastTrack
//!    vector-clock race detector over [`race`] hooks, lost-wakeup
//!    (deadlock) detection, and a replayable schedule trace printed on
//!    failure.
//!
//! See `DESIGN.md` §13 for the per-structure memory-model obligations the
//! checker enforces and how to read a schedule trace.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod race;
pub mod sync;

#[cfg(cmpi_model)]
mod engine;
#[cfg(cmpi_model)]
pub mod model;
#[cfg(cmpi_model)]
mod vclock;
