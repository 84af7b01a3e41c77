//! Kronecker (R-MAT) edge generation, Graph 500 style.
//!
//! Every edge is generated independently from a counter-based PRNG
//! (splitmix64 of `(seed, edge index, level)`), so any rank can generate
//! any slice of the edge list deterministically with no communication and
//! no shared RNG state — matching how the reference implementation
//! parallelizes generation.

/// R-MAT quadrant probabilities from the Graph 500 specification.
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;
// D = 0.05 (the remainder).

/// splitmix64: a small, high-quality counter-based generator.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `unit(h) < p` on integers, where `unit(h) = (h >> 11) as f64 / 2^53`
/// is the uniform draw in [0, 1) the R-MAT recursion compares: for
/// p in [0.5, 1) the product p · 2^53 is an integer below 2^53 (an f64
/// there is a multiple of 2^-53 and scaling by a power of two is exact),
/// and `h >> 11 < M` is `h < M << 11`.
const fn threshold(p: f64) -> u64 {
    ((p * (1u64 << 53) as f64) as u64) << 11
}

/// Upper ends of quadrants (0,0), (0,1) and (1,0) on the 64-bit hash.
const THRESHOLDS: [u64; 3] = [threshold(A), threshold(A + B), threshold(A + B + C)];

/// The R-MAT quadrant of edge `idx` at `level`, as `ubit << 1 | vbit`:
/// the number of thresholds the level's hash has passed.
#[inline]
fn quadrant(seed: u64, idx: u64, level: u32) -> u64 {
    let h = splitmix64(seed ^ splitmix64(idx ^ (level as u64) << 32 | level as u64));
    THRESHOLDS.iter().map(|&t| (h >= t) as u64).sum()
}

/// Generate the `idx`-th edge of a scale-`scale` Kronecker graph.
///
/// Branch-free: a level's quadrant is a uniformly random value no
/// predictor can learn. Two levels per iteration, so two hash chains are
/// in flight at once.
pub fn edge(seed: u64, scale: u32, idx: u64) -> (u64, u64) {
    let mut u = 0u64;
    let mut v = 0u64;
    for level in (0..scale - scale % 2).step_by(2) {
        let (q0, q1) = (quadrant(seed, idx, level), quadrant(seed, idx, level + 1));
        u = u << 2 | (q0 & 2) | q1 >> 1;
        v = v << 2 | (q0 & 1) << 1 | q1 & 1;
    }
    if scale % 2 == 1 {
        let q = quadrant(seed, idx, scale - 1);
        u = u << 1 | q >> 1;
        v = v << 1 | q & 1;
    }
    // Graph 500 scrambles vertex ids to break the generator's locality.
    (scramble(u, seed, scale), scramble(v, seed, scale))
}

/// Mix a vertex id within [0, 2^scale).
///
/// **Known defect: not a permutation.** `rotate_left` turns the 64-bit
/// word, not the `scale`-bit one, so the mask that follows drops the top
/// `scale / 2 + 1` bits and leaves the low ones zero, and the xor step is
/// no Feistel round either. With the default seed the whole vertex space
/// collapses onto 9 ids at scale 10, 12 at 12, 26 at 14 and 57 at 16
/// (`known_defect_scramble_is_not_a_bijection` pins the counts): every
/// Graph 500 graph here is a multigraph on a few dozen vertices. A
/// bijective scramble moves every Graph 500 virtual time and count, so it
/// is a change of its own (ROADMAP item 2).
fn scramble(v: u64, seed: u64, scale: u32) -> u64 {
    let mask = (1u64 << scale) - 1;
    let mut x = v;
    for round in 0..3u64 {
        x ^= splitmix64(seed ^ (round << 48) ^ (x >> (scale / 2))) & mask;
        x = (x.rotate_left(scale / 2 + 1)) & mask;
    }
    x & mask
}

/// The vertex owner under block 1-D partitioning.
#[inline]
pub fn owner(v: u64, num_vertices: u64, ranks: usize) -> usize {
    let per = num_vertices.div_ceil(ranks as u64);
    (v / per) as usize
}

/// Vertex range `[lo, hi)` owned by `rank`.
pub fn owned_range(rank: usize, num_vertices: u64, ranks: usize) -> (u64, u64) {
    let per = num_vertices.div_ceil(ranks as u64);
    let lo = (rank as u64 * per).min(num_vertices);
    let hi = ((rank as u64 + 1) * per).min(num_vertices);
    (lo, hi)
}

/// Pick the `i`-th BFS root: a vertex with at least one edge (probed
/// deterministically).
pub fn bfs_root(seed: u64, scale: u32, edgefactor: u32, i: u64) -> u64 {
    let n = 1u64 << scale;
    let m = n * edgefactor as u64;
    // Sample edges until one has distinct endpoints; use its source.
    let mut probe = splitmix64(seed ^ 0x526f_6f74_0000_0000 ^ i);
    loop {
        let e = probe % m;
        let (u, v) = edge(seed, scale, e);
        if u != v {
            return u;
        }
        probe = splitmix64(probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `Graph500Config::default().seed`.
    const DEFAULT_SEED: u64 = 0x6a09_e667_f3bc_c908;

    /// Uniform f64 in [0,1) from a hash.
    fn unit(x: u64) -> f64 {
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The float-and-branch kernel `edge` replaced: its oracle.
    fn edge_reference(seed: u64, scale: u32, idx: u64) -> (u64, u64) {
        let mut u = 0u64;
        let mut v = 0u64;
        for level in 0..scale {
            let h = splitmix64(seed ^ splitmix64(idx ^ (level as u64) << 32 | level as u64));
            let r = unit(h);
            let (ubit, vbit) = if r < A {
                (0, 0)
            } else if r < A + B {
                (0, 1)
            } else if r < A + B + C {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | ubit;
            v = (v << 1) | vbit;
        }
        (scramble(u, seed, scale), scramble(v, seed, scale))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32_768))]

        /// Odd scales take the tail level, scale 0 and 1 skip the loop.
        #[test]
        fn edge_equals_the_float_and_branch_reference(
            seed in any::<u64>(),
            scale in 0u32..=40,
            idx in prop_oneof![0u64..1 << 20, 1u64 << 40..1 << 44, any::<u64>()],
        ) {
            prop_assert_eq!(edge(seed, scale, idx), edge_reference(seed, scale, idx));
        }
    }

    #[test]
    fn edge_equals_the_reference_on_dense_index_runs() {
        for scale in 0..=40 {
            for seed in [DEFAULT_SEED, 1, 42, u64::MAX] {
                for idx in (0..400).chain((1 << 40) + 7..(1 << 40) + 27) {
                    assert_eq!(
                        edge(seed, scale, idx),
                        edge_reference(seed, scale, idx),
                        "seed {seed:#x} scale {scale} idx {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn thresholds_are_the_float_comparisons_on_integers() {
        for (t, p) in THRESHOLDS.into_iter().zip([A, A + B, A + B + C]) {
            assert!((0.5..1.0).contains(&p), "{p} outside the exact range");
            let scaled = p * (1u64 << 53) as f64;
            let m = scaled as u64;
            assert_eq!(m as f64, scaled, "{p} * 2^53 is an integer");
            assert!(m < 1 << 53);
            assert_eq!(t, m << 11);
            assert_eq!(t >> 11, m, "the shift overflowed");
            // The boundary hashes fall where the float comparison puts them.
            assert!(unit(t - 1) < p && unit(t) >= p);
        }
    }

    fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
        words
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Recorded at PR 18's parent, before the kernel was rebuilt: the
    /// generated graph must only ever change in a PR that means to.
    #[test]
    fn edge_stream_and_roots_are_the_recorded_ones() {
        let fold = |seed, scale| {
            fnv1a((0..65_536).flat_map(|idx| <[u64; 2]>::from(edge(seed, scale, idx))))
        };
        assert_eq!(fold(DEFAULT_SEED, 14), 0xf3c9_6784_8602_621f);
        assert_eq!(fold(1, 9), 0x26e1_86b8_e458_37a5);
        let roots = |seed, scale, edgefactor| -> Vec<u64> {
            (0..8)
                .map(|i| bfs_root(seed, scale, edgefactor, i))
                .collect()
        };
        assert_eq!(
            roots(DEFAULT_SEED, 14, 16),
            [15_360, 10_496, 6_144, 0, 2_816, 6_144, 6_656, 1_024]
        );
        assert_eq!(roots(1, 9, 8), [224, 224, 128, 128, 320, 160, 160, 160]);
    }

    /// `scramble` collapses the vertex space (see its doc comment). The
    /// fix re-records every Graph 500 golden and has to delete this test
    /// knowingly.
    #[test]
    fn known_defect_scramble_is_not_a_bijection() {
        for (scale, survivors) in [(10u32, 9usize), (12, 12), (14, 26), (16, 57)] {
            let n = 1u64 << scale;
            let mut image = vec![false; n as usize];
            (0..n).for_each(|v| image[scramble(v, DEFAULT_SEED, scale) as usize] = true);
            assert_eq!(
                image.iter().filter(|&&hit| hit).count(),
                survivors,
                "scale {scale}"
            );
            // Every image vertex has a non-loop edge: these are the
            // graph's non-isolated vertices, out of 2^scale.
            let mut touched = vec![false; n as usize];
            for idx in 0..n * 16 {
                let (u, v) = edge(DEFAULT_SEED, scale, idx);
                touched[u as usize] |= u != v;
                touched[v as usize] |= u != v;
            }
            assert!(touched == image, "scale {scale}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for idx in [0u64, 1, 999, 123_456] {
            assert_eq!(edge(42, 16, idx), edge(42, 16, idx));
        }
        assert_ne!(edge(42, 16, 0), edge(43, 16, 0));
    }

    #[test]
    fn edges_stay_in_range() {
        let scale = 10;
        let n = 1u64 << scale;
        for idx in 0..5_000 {
            let (u, v) = edge(7, scale, idx);
            assert!(u < n && v < n, "edge {idx} = ({u},{v})");
        }
    }

    #[test]
    fn rmat_skew_produces_hubs() {
        // R-MAT graphs are highly skewed: the max degree must far exceed
        // the average.
        let scale = 10;
        let n = 1usize << scale;
        let m = (n * 8) as u64;
        let mut deg = vec![0u32; n];
        for idx in 0..m {
            let (u, v) = edge(1, scale, idx);
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let avg = 2.0 * m as f64 / n as f64;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(
            max > 5.0 * avg,
            "max degree {max} vs avg {avg} — not skewed enough"
        );
    }

    #[test]
    fn ownership_partitions_every_vertex_exactly_once() {
        let n = 1000u64;
        for ranks in [1usize, 3, 7, 16] {
            let mut counts = vec![0u64; ranks];
            for v in 0..n {
                let o = owner(v, n, ranks);
                assert!(o < ranks);
                let (lo, hi) = owned_range(o, n, ranks);
                assert!(v >= lo && v < hi);
                counts[o] += 1;
            }
            assert_eq!(counts.iter().sum::<u64>(), n);
        }
    }

    #[test]
    fn roots_are_valid_and_distinct_enough() {
        let mut roots = Vec::new();
        for i in 0..8 {
            let r = bfs_root(99, 10, 8, i);
            assert!(r < 1 << 10);
            roots.push(r);
        }
        roots.sort_unstable();
        roots.dedup();
        assert!(roots.len() >= 4, "roots collapsed: {roots:?}");
    }
}
