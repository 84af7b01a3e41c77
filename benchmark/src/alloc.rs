//! Harness-owned counting allocator: allocation counts are a noise-free
//! proxy for memory traffic. Counting is off except inside
//! [`measure`], so timed repetitions pay one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: none of these publishes other data, so Relaxed.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    FREES.fetch_add(1, Relaxed);
    LIVE.fetch_sub(bytes as i64, Relaxed);
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block; the
        // caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one measured region allocated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    pub allocs: u64,
    pub frees: u64,
    pub bytes: u64,
    /// Bytes still allocated when the region ended (blocks allocated
    /// before it and freed inside count negative).
    pub live_at_end: i64,
    /// Most bytes the region held above its starting level.
    pub peak_live: i64,
}

/// Run `f` with counting on. Not re-entrant; one measurement at a time.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    for c in [&ALLOCS, &FREES, &BYTES] {
        c.store(0, Relaxed);
    }
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let stats = AllocStats {
        allocs: ALLOCS.load(Relaxed),
        frees: FREES.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live_at_end: LIVE.load(Relaxed),
        peak_live: PEAK.load(Relaxed),
    };
    (out, stats)
}
