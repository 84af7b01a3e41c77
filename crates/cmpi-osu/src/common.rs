//! Shared benchmark plumbing.

use cmpi_cluster::SimTime;

/// One point of a size-sweep series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizePoint {
    /// Message size in bytes.
    pub size: usize,
    /// Metric value (µs for latency benches, MB/s for bandwidth benches).
    pub value: f64,
}

impl SizePoint {
    pub(crate) fn new(size: usize, value: f64) -> Self {
        SizePoint { size, value }
    }
}

/// The OSU default size sweep: 1, 2, 4 … `max` bytes.
pub fn power_of_two_sizes(max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut s = 1usize;
    while s <= max {
        out.push(s);
        s *= 2;
    }
    out
}

/// Latency in µs from a span covering `ops` one-way transfers.
pub(crate) fn us_per_op(span: SimTime, ops: u64) -> f64 {
    span.as_us_f64() / ops as f64
}

/// Bandwidth in MB/s from `bytes` moved over `span`.
pub(crate) fn mb_per_s(bytes: u64, span: SimTime) -> f64 {
    if span.is_zero() {
        return 0.0;
    }
    // bytes/ns * 1e9 / 1e6 = bytes/ns * 1000.
    bytes as f64 / span.as_ns() as f64 * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_is_powers_of_two() {
        assert_eq!(power_of_two_sizes(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(power_of_two_sizes(20), vec![1, 2, 4, 8, 16]);
        assert_eq!(power_of_two_sizes(1), vec![1]);
    }

    #[test]
    fn metric_conversions() {
        // 1 MB in 1 ms = 1000 MB/s.
        assert!((mb_per_s(1_000_000, SimTime::from_ms(1)) - 1000.0).abs() < 1e-9);
        // 10 ops in 50 us = 5 us/op.
        assert!((us_per_op(SimTime::from_us(50), 10) - 5.0).abs() < 1e-9);
        assert_eq!(mb_per_s(1, SimTime::ZERO), 0.0);
    }
}
