//! `cmpi-model`: correctness tooling for the lock-free hot path.
//!
//! The crate has three faces:
//!
//! 1. **A shim synchronization layer** ([`sync`]): drop-in stand-ins for
//!    `std::sync::atomic::Atomic*` and `parking_lot::{Mutex, Condvar}`.
//!    In a normal build they compile straight down to the real types
//!    (zero hot-path cost). Under
//!    `RUSTFLAGS="--cfg cmpi_model"` every load/store/RMW/lock/wait is
//!    routed through an exhaustive model-checking scheduler.
//!
//! 2. **A model checker** ([`model`], only under `cfg(cmpi_model)`): a
//!    loom-style DFS over thread interleavings with a bounded number of
//!    preemptions, a C11-flavoured weak-memory store history (loads may
//!    read stale values unless happens-before forbids it), a FastTrack
//!    vector-clock race detector over [`race`] hooks, lost-wakeup
//!    (deadlock) detection, and a replayable schedule trace printed on
//!    failure.
//!
//! 3. **A repo lint** ([`lint`] + the `cmpi-lint` binary): mechanical
//!    rules the workspace must obey — `// SAFETY:` on every unsafe block,
//!    `// relaxed-ok:` on every `Ordering::Relaxed` outside whitelisted
//!    modules, no `unwrap()/expect()` in hot-path modules, and collective
//!    tag field-widths within their debug-asserted bounds.
//!
//! 4. **A whole-program analyzer** ([`analyze`], the `--analyze` face of
//!    the `cmpi-lint` binary): a dependency-free lexer ([`strip`]) plus
//!    item/impl/fn extraction and an intra-workspace call graph, running
//!    three passes no line-based lint can express — fiber-blocking taint
//!    (no OS-blocking primitive reachable from fiber-executed code),
//!    lock-order cycle detection over the global lock graph, and a
//!    Release/Acquire pairing audit over every named atomic.
//!
//! See `DESIGN.md` §13 for the per-structure memory-model obligations the
//! checker enforces and how to read a schedule trace, and §17 for the
//! static-analysis rule inventory and annotation grammar.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod analyze;
pub mod lint;
pub mod race;
pub mod strip;
pub mod sync;

#[cfg(cmpi_model)]
mod engine;
#[cfg(cmpi_model)]
pub mod model;
#[cfg(cmpi_model)]
mod vclock;
