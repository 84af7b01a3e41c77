//! The yardstick: a fixed piece of ordinary code whose time says how
//! fast this host runs ordinary code right now.
//!
//! The box the benchmark runs on is a small VM on a shared host, and the
//! speed at which it runs user code drifts by a quarter to a half over
//! minutes (README, "Host drift and the yardstick"): a dependent
//! multiply chain and pointer chases through L1 and L2 barely notice,
//! chases through L3 and DRAM wander on their own, while every workload
//! here — and any code that keeps the core's issue ports busy, like
//! this — slows by about the same factor at the same time. So each child runs bursts of the yardstick right before and
//! right after its timed repetition, and the parent scales the child's
//! host times to the speed at which a burst takes [`REF_NS`].
//!
//! It calls nothing of `crates/*`, so a change there cannot move it.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Steps of one burst.
const STEPS: u64 = 350_000;

/// Host ns of one burst on the reference box in a middling phase: the
/// first quartile of 150 pairs of bursts taken in one (23.6 ms; their
/// median was 27.5 ms). Over the next three hours the median drift of ten
/// 20-second runs ranged from 0.90 to 1.13, and in the quietest stretch
/// seen a burst took 19.7 ms (drift 0.82). Corrected times are seconds at
/// the speed at which a burst takes this long.
pub const REF_NS: f64 = 24_000_000.0;

/// One burst: hash-map and queue traffic, small allocations freed out of
/// order, uncontended atomics and a lock, and some arithmetic — the mix
/// a message-passing runtime is made of, on a working set that fits L1
/// and L2. Returns the host ns it took.
pub fn burst() -> u64 {
    let t0 = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut pool: Vec<Box<[u8; 96]>> = Vec::with_capacity(80);
    let cells: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
    let lock = Mutex::new(0u64);
    let mut mix = [1u64, 2, 3, 4].map(black_box);
    for i in 0..STEPS {
        map.insert(i & 1023, i);
        queue.push_back(i);
        if queue.len() > 512 {
            let k = queue.pop_front().unwrap_or(0);
            map.remove(&(k & 1023));
        }
        pool.push(Box::new([i as u8; 96]));
        if pool.len() > 64 {
            let k = (i as usize * 7) % pool.len();
            pool.swap_remove(k);
        }
        // One thread: the orderings only make these the instructions a
        // runtime's hot path uses (locked read-modify-writes).
        cells[(i & 15) as usize].fetch_add(1, Ordering::SeqCst);
        let _ = cells[((i >> 2) & 15) as usize].compare_exchange(
            i,
            i + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        *lock.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        for (k, v) in mix.iter_mut().enumerate() {
            *v = (*v ^ (*v >> 7))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i + k as u64);
        }
    }
    black_box((map.len(), queue.len(), pool.len(), &cells, mix));
    t0.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_takes_time_and_the_reference_is_of_its_order() {
        let ns = burst() as f64;
        assert!(ns > 0.0);
        // Debug builds and other boxes are slower or faster, not by 100x.
        assert!(ns > REF_NS / 100.0 && ns < REF_NS * 100.0, "{ns}");
    }
}
