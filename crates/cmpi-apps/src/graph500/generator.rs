//! Kronecker (R-MAT) edge generation, Graph 500 style.
//!
//! Every edge is generated independently from a counter-based PRNG
//! (splitmix64 of `(seed, edge index, level)`), so any rank can generate
//! any slice of the edge list deterministically with no communication and
//! no shared RNG state — matching how the reference implementation
//! parallelizes generation.

use std::ops::Range;

/// R-MAT quadrant probabilities from the Graph 500 specification.
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;
// D = 0.05 (the remainder).

/// splitmix64: a small, high-quality counter-based generator.
#[inline(always)]
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

/// Generate the `idx`-th edge of a scale-`scale` Kronecker graph: the
/// kernel at one lane, and the reference every width must equal.
pub fn edge(seed: u64, scale: u32, idx: u64) -> (u64, u64) {
    let [e] = edge_lanes::<1>(seed, scale, idx);
    e
}

/// Edges per dispatched call of [`for_each_edge`]: four 16-lane passes.
const CHUNK: usize = 64;

/// Visit edges `range` of a scale-`scale` Kronecker graph in index
/// order, as `f(idx, edge(seed, scale, idx))`, generated in bulk by
/// `edges_into`.
pub fn for_each_edge(seed: u64, scale: u32, range: Range<u64>, mut f: impl FnMut(u64, (u64, u64))) {
    let mut buf = [(0, 0); CHUNK];
    let mut first = range.start;
    while first < range.end {
        let out = &mut buf[..(range.end - first).min(CHUNK as u64) as usize];
        edges_into(seed, scale, first, out);
        for (idx, &e) in (first..).zip(out.iter()) {
            f(idx, e);
        }
        first += out.len() as u64;
    }
}

/// Fill `out[i]` with `edge(seed, scale, first + i)`: sixteen edges per
/// pass where the CPU has AVX-512, one elsewhere (without 64-bit vector
/// multiplies a wider pass is slower than one lane).
#[allow(unsafe_code)]
fn edges_into(seed: u64, scale: u32, first: u64, out: &mut [(u64, u64)]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
    {
        // SAFETY: the three features `edges_into_avx512` enables were
        // just detected on this CPU.
        return unsafe { edges_into_avx512(seed, scale, first, out) };
    }
    edges_into_lanes::<1>(seed, scale, first, out);
}

/// [`edges_into_lanes`] at sixteen lanes, compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn edges_into_avx512(seed: u64, scale: u32, first: u64, out: &mut [(u64, u64)]) {
    edges_into_lanes::<16>(seed, scale, first, out);
}

/// [`edges_into`] in passes of `L` lanes, the tail one lane at a time.
#[inline(always)]
fn edges_into_lanes<const L: usize>(seed: u64, scale: u32, first: u64, out: &mut [(u64, u64)]) {
    let mut passes = out.chunks_exact_mut(L);
    let mut idx = first;
    for pass in &mut passes {
        pass.copy_from_slice(&edge_lanes::<L>(seed, scale, idx));
        idx += L as u64;
    }
    for (e, idx) in passes.into_remainder().iter_mut().zip(idx..) {
        [*e] = edge_lanes::<1>(seed, scale, idx);
    }
}

/// The R-MAT quadrants of edges `first .. first + L` at `level`, one
/// per lane, each as `ubit << 1 | vbit`: the number of thresholds the
/// level's hash has passed. Branch-free: a quadrant is a uniformly
/// random value no predictor can learn.
#[inline(always)]
fn quadrants<const L: usize>(seed: u64, first: u64, level: u32) -> [u64; L] {
    std::array::from_fn(|lane| {
        let idx = first.wrapping_add(lane as u64);
        let h = splitmix64(seed ^ splitmix64(idx ^ (level as u64) << 32 | level as u64));
        THRESHOLDS.iter().map(|&t| (h >= t) as u64).sum()
    })
}

/// Edges `first .. first + L`, one per lane: the one body of every
/// width. A level's hash depends on neither the other levels nor the
/// other lanes, so each level is `L` independent hash chains that a
/// vector unit with 64-bit multiplies runs side by side. Two levels per
/// step keep two chains in flight even at one lane (one level per step
/// measured 7–9 % slower there).
#[inline(always)]
fn edge_lanes<const L: usize>(seed: u64, scale: u32, first: u64) -> [(u64, u64); L] {
    let mut u = [0u64; L];
    let mut v = [0u64; L];
    let mut descend = |q: [u64; L]| {
        for (lane, (u, v)) in u.iter_mut().zip(&mut v).enumerate() {
            *u = *u << 1 | q[lane] >> 1;
            *v = *v << 1 | q[lane] & 1;
        }
    };
    for level in (0..scale - scale % 2).step_by(2) {
        let q0 = quadrants::<L>(seed, first, level);
        let q1 = quadrants::<L>(seed, first, level + 1);
        descend(q0);
        descend(q1);
    }
    if scale % 2 == 1 {
        descend(quadrants::<L>(seed, first, scale - 1));
    }
    // Graph 500 scrambles vertex ids to break the generator's locality.
    let mut out = [(0, 0); L];
    for (e, (&u, &v)) in out.iter_mut().zip(u.iter().zip(&v)) {
        *e = (scramble(u, seed, scale), scramble(v, seed, scale));
    }
    out
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
/// is a change of its own, on the ROADMAP.
#[inline(always)]
fn scramble(v: u64, seed: u64, scale: u32) -> u64 {
    let mask = (1u64 << scale) - 1;
    let mut x = v;
    for round in 0..3u64 {
        x ^= splitmix64(seed ^ (round << 48) ^ (x >> (scale / 2))) & mask;
        x = (x.rotate_left(scale / 2 + 1)) & mask;
    }
    x & mask
}

/// Block 1-D partitioning of `n` ids over `parts` ranks: rank `r` owns
/// the `r`-th block of `n.div_ceil(parts)` ids. Built once per job, so
/// the owner of an id below 2^32 is a multiply-high, not a division.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    n: u64,
    parts: usize,
    block: u64,
    /// `(2^64 - 1) / block`: `(v + 1) * recip >> 64` falls short of
    /// `(v + 1) / block` by at most `(v + 1) / 2^64`, too little to
    /// cross below `v / block` while `v < 2^32`.
    recip: u64,
}

impl Partition {
    /// The partition of `n` ids over `parts` ranks.
    pub fn new(n: u64, parts: usize) -> Self {
        let block = n.div_ceil(parts as u64).max(1);
        Partition {
            n,
            parts,
            block,
            recip: u64::MAX / block,
        }
    }

    /// Number of ranks.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Ids per block (the last non-empty block may hold fewer).
    pub fn block(&self) -> u64 {
        self.block
    }

    /// The rank that owns vertex `v`.
    #[inline]
    pub fn owner(&self, v: u64) -> usize {
        if v >> 32 == 0 {
            (((v as u128 + 1) * self.recip as u128) >> 64) as usize
        } else {
            (v / self.block) as usize
        }
    }

    /// Vertices `lo..hi` owned by `rank`.
    pub fn range(&self, rank: usize) -> Range<u64> {
        let lo = (rank as u64 * self.block).min(self.n);
        let hi = ((rank as u64 + 1) * self.block).min(self.n);
        lo..hi
    }
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

    /// The bulk entry runs the widest arm this CPU has (sixteen lanes
    /// under AVX-512, one elsewhere); both widths of the portable body
    /// are compared on every CPU. Every run has a ragged tail and most
    /// start off a multiple of sixteen.
    #[test]
    fn edge_equals_the_reference_on_dense_index_runs() {
        let runs = [
            0..400,
            1..38,
            17..18,
            333..400,
            (1 << 40) + 7..(1 << 40) + 27,
        ];
        for scale in 0..=40 {
            for seed in [DEFAULT_SEED, 1, 42, u64::MAX] {
                for run in runs.clone() {
                    let len = (run.end - run.start) as usize;
                    let bulk: [Vec<_>; 3] = std::array::from_fn(|arm| {
                        let mut out = vec![(0, 0); len];
                        match arm {
                            0 => edges_into(seed, scale, run.start, &mut out),
                            1 => edges_into_lanes::<1>(seed, scale, run.start, &mut out),
                            _ => edges_into_lanes::<16>(seed, scale, run.start, &mut out),
                        }
                        out
                    });
                    for (i, idx) in run.enumerate() {
                        let e = edge(seed, scale, idx);
                        let at = format!("seed {seed:#x} scale {scale} idx {idx}");
                        assert_eq!(e, edge_reference(seed, scale, idx), "{at}");
                        for (arm, out) in bulk.iter().enumerate() {
                            assert_eq!(out[i], e, "bulk arm {arm}, {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn for_each_edge_visits_each_index_once_in_order() {
        let straddle = CHUNK as u64 - 5..2 * CHUNK as u64 + 9;
        for range in [7..7, 0..1, 3..18, 5..5 + 15, straddle] {
            let mut seen = Vec::new();
            for_each_edge(9, 12, range.clone(), |idx, e| seen.push((idx, e)));
            let expected: Vec<_> = range.map(|idx| (idx, edge(9, 12, idx))).collect();
            assert_eq!(seen, expected);
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
        let fold_bulk = |seed, scale| {
            let mut words = Vec::new();
            for_each_edge(seed, scale, 0..65_536, |_, (u, v)| words.extend([u, v]));
            fnv1a(words.into_iter())
        };
        for fold in [&fold as &dyn Fn(u64, u32) -> u64, &fold_bulk] {
            assert_eq!(fold(DEFAULT_SEED, 14), 0xf3c9_6784_8602_621f);
            assert_eq!(fold(1, 9), 0x26e1_86b8_e458_37a5);
        }
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

    /// `owner` against the division it replaces, and against `range`,
    /// for every id of small partitions (`parts > n`, blocks that are no
    /// power of two, the 12-rank golden's short tail) and for the ids
    /// around every block edge and around the reciprocal's 2^32 limit of
    /// large ones.
    #[test]
    fn partition_owner_is_the_block_division() {
        let check = |part: &Partition, n: u64, parts: usize, v: u64| {
            let per = n.div_ceil(parts as u64);
            let o = part.owner(v);
            assert_eq!(o as u64, v / per, "n {n}, parts {parts}, v {v}");
            assert!(o < parts, "n {n}, parts {parts}, v {v}");
            assert!(part.range(o).contains(&v), "n {n}, parts {parts}, v {v}");
        };
        for n in [1u64, 2, 5, 7, 64, 1000, 1 << 10, 1 << 12, 12_345] {
            for parts in [1usize, 2, 3, 7, 12, 16, 63, 64, 100, 2000] {
                let part = Partition::new(n, parts);
                let mut owned = 0;
                for r in 0..parts {
                    owned += part.range(r).end - part.range(r).start;
                }
                assert_eq!(owned, n, "n {n}, parts {parts}: ranges tile 0..n");
                for v in 0..n {
                    check(&part, n, parts, v);
                }
            }
        }
        const LIMIT: u64 = 1 << 32;
        for n in [LIMIT, LIMIT + 1, 3 * LIMIT + 7, 1 << 40, u64::MAX / 2] {
            for parts in [1usize, 3, 12, 16, 1000, 4096, 65_537] {
                let part = Partition::new(n, parts);
                let per = n.div_ceil(parts as u64);
                let mut probes = vec![0, 1, LIMIT - 2, LIMIT - 1, LIMIT, LIMIT + 1, n - 1];
                for b in (1..parts as u64).step_by(parts / 64 + 1) {
                    probes.extend([b * per - 1, b * per]);
                }
                for v in probes.into_iter().filter(|&v| v < n) {
                    check(&part, n, parts, v);
                }
            }
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
