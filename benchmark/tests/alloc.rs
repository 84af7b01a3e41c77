//! The counting allocator, installed as it is in the benchmark binary.
//! Alone in this test binary: the counters are process-global, and tests
//! of one binary run on parallel threads.

use cmpi_benchmark::alloc::{measure, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn counting_allocator_balances() {
    let ((), s) = measure(|| ());
    assert_eq!((s.allocs, s.frees, s.live_at_end), (0, 0, 0), "no-op");
    let (len, s) = measure(|| {
        let mut v: Vec<u8> = Vec::with_capacity(1000);
        v.push(1);
        std::hint::black_box(&v).len()
    });
    assert_eq!(len, 1);
    assert_eq!((s.allocs, s.frees, s.live_at_end), (1, 1, 0), "{s:?}");
    assert!(s.bytes == 1000 && s.peak_live == 1000, "{s:?}");
    // A block that outlives the region stays on its books.
    let (kept, s) = measure(|| vec![0u8; 64]);
    assert_eq!((s.allocs, s.frees, s.live_at_end), (1, 0, 64), "{s:?}");
    drop(kept);
}
