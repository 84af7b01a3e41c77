//! Parent-tree validation (Graph 500 kernel 2 verification).
//!
//! Parent arrays are gathered to rank 0, which regenerates the edge list
//! once per job ([`EdgeSet`]) and checks each root's tree against the
//! Graph 500 validation rules:
//!
//! 1. the root's parent is itself;
//! 2. every other visited vertex has a visited parent and a real edge to
//!    it;
//! 3. parent chains terminate at the root (no cycles);
//! 4. connectivity: each edge's endpoints are either both visited or both
//!    unvisited (BFS covers the root's whole component).
//!
//! The edge set holds one 8-byte key per distinct edge, `min << 32 |
//! max`, so key order is `(min, max)` order: half the bytes of the
//! `(min, max)` tuples it replaced, sorted by `sort_unstable` (an LSD
//! radix sort, which needs a second buffer of fresh pages, measured
//! slower).
//!
//! This is a test-scale verifier (it centralizes the tree); the figure
//! harness disables it for its largest runs.

use cmpi_core::Mpi;

use super::bfs::NO_PARENT;
use super::generator::for_each_edge;
use super::{bfs::LocalGraph, Graph500Config};

/// Padding marker for the gather of unequal local slices.
const PAD: u64 = u64::MAX - 1;

/// The graph's undirected edge set as sorted, deduplicated keys
/// `min << 32 | max` (vertex ids fit 32 bits up to scale 32).
/// Regenerating the Kronecker list is the expensive part of validation
/// and does not depend on the root, so rank 0 builds it once and checks
/// every root's tree against it.
pub struct EdgeSet {
    keys: Vec<u64>,
}

/// The key of edge `{u, v}`.
fn key(u: u64, v: u64) -> u64 {
    u.min(v) << 32 | u.max(v)
}

impl EdgeSet {
    /// Regenerate the edge list of `cfg`'s graph (self-loops dropped).
    pub fn generate(cfg: &Graph500Config) -> Self {
        cfg.assert_runnable();
        // Reserved whole: grown by doubling, the list's last step fits
        // in place or moves to fresh pages depending on where the job's
        // small blocks happen to sit, so dropping one unrelated 640 B
        // block per rank once moved the 16-rank job's peak RSS by
        // 2.9 MiB.
        let mut keys = Vec::with_capacity(cfg.num_edges() as usize);
        for_each_edge(cfg.seed, cfg.scale, 0..cfg.num_edges(), |_, (u, v)| {
            if u != v {
                keys.push(key(u, v));
            }
        });
        keys.sort_unstable();
        keys.dedup();
        // Kept for the whole job: give back what the duplicates held.
        keys.shrink_to_fit();
        EdgeSet { keys }
    }

    fn contains(&self, u: u64, v: u64) -> bool {
        self.keys.binary_search(&key(u, v)).is_ok()
    }
}

/// Gather the distributed parent array and validate on rank 0; the
/// verdict is broadcast so every rank returns the same bool. `edges` is
/// rank 0's edge set (other ranks pass `None`).
pub fn validate(
    mpi: &mut Mpi,
    cfg: &Graph500Config,
    g: &LocalGraph,
    edges: Option<&EdgeSet>,
    root: u64,
    parent: &[u64],
) -> bool {
    let per = g.owners.block() as usize;
    let mut padded = Vec::with_capacity(per);
    padded.extend_from_slice(parent);
    padded.resize(per, PAD);
    debug_assert_eq!(g.local_n(), parent.len());
    let gathered = mpi.gather(&padded, 0);
    let ok = if let Some(all) = gathered {
        let full: Vec<u64> = all.into_iter().filter(|&x| x != PAD).collect();
        let edges = edges.expect("the gather root holds the edge set");
        check_tree_against(cfg, edges, root, &full) as u64
    } else {
        0
    };
    let mut verdict = [ok];
    mpi.bcast(&mut verdict, 0);
    verdict[0] == 1
}

/// Rank 0's sequential check of the assembled parent array for `root`.
pub fn check_tree_against(
    cfg: &Graph500Config,
    edges: &EdgeSet,
    root: u64,
    parent: &[u64],
) -> bool {
    let n = cfg.num_vertices() as usize;
    if parent.len() != n {
        return false;
    }
    let ri = root as usize;
    if parent[ri] != root {
        return false;
    }
    // Rule 2: tree edges are real edges.
    for (v, &p) in parent.iter().enumerate() {
        if p == NO_PARENT || v == ri {
            continue;
        }
        if p as usize >= n || parent[p as usize] == NO_PARENT {
            return false;
        }
        if !edges.contains(v as u64, p) {
            return false;
        }
    }
    // Rule 3: chains terminate at the root. Memoized walk.
    let mut state = vec![0u8; n]; // 0 unknown, 1 in-progress, 2 ok
    state[ri] = 2;
    let mut path = Vec::new();
    for v in 0..n {
        if parent[v] == NO_PARENT {
            continue;
        }
        let mut cur = v;
        while state[cur] == 0 {
            state[cur] = 1;
            path.push(cur);
            cur = parent[cur] as usize;
            if state[cur] == 1 {
                return false; // cycle
            }
        }
        if state[cur] != 2 {
            return false;
        }
        for x in path.drain(..) {
            state[x] = 2;
        }
    }
    // Rule 4: component coverage.
    for &k in &edges.keys {
        let (u, v) = (k >> 32, k & u32::MAX as u64);
        let uv = parent[u as usize] != NO_PARENT;
        let vv = parent[v as usize] != NO_PARENT;
        if uv != vv {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph500::generator::{bfs_root, edge};
    use proptest::prelude::*;

    /// Sequential check of one assembled parent array, regenerating the
    /// edge set for it.
    fn check_tree(cfg: &Graph500Config, root: u64, parent: &[u64]) -> bool {
        check_tree_against(cfg, &EdgeSet::generate(cfg), root, parent)
    }

    fn tiny_cfg() -> Graph500Config {
        Graph500Config {
            scale: 6,
            edgefactor: 8,
            ..Default::default()
        }
    }

    /// The edge set the packed keys replaced: `(min, max)` tuples, 16 B
    /// per edge, sorted and deduplicated.
    struct PairEdgeSet {
        edges: Vec<(u64, u64)>,
    }

    impl PairEdgeSet {
        fn generate(cfg: &Graph500Config) -> Self {
            let mut edges = Vec::new();
            for_each_edge(cfg.seed, cfg.scale, 0..cfg.num_edges(), |_, (u, v)| {
                if u != v {
                    edges.push((u.min(v), u.max(v)));
                }
            });
            edges.sort_unstable();
            edges.dedup();
            PairEdgeSet { edges }
        }

        fn contains(&self, u: u64, v: u64) -> bool {
            self.edges.binary_search(&(u.min(v), u.max(v))).is_ok()
        }
    }

    /// `check_tree_against` as it read over the tuple set.
    fn check_tree_reference(
        cfg: &Graph500Config,
        edges: &PairEdgeSet,
        root: u64,
        parent: &[u64],
    ) -> bool {
        let n = cfg.num_vertices() as usize;
        if parent.len() != n {
            return false;
        }
        let ri = root as usize;
        if parent[ri] != root {
            return false;
        }
        for (v, &p) in parent.iter().enumerate() {
            if p == NO_PARENT || v == ri {
                continue;
            }
            if p as usize >= n || parent[p as usize] == NO_PARENT {
                return false;
            }
            if !edges.contains(v as u64, p) {
                return false;
            }
        }
        let mut state = vec![0u8; n];
        state[ri] = 2;
        let mut path = Vec::new();
        for v in 0..n {
            if parent[v] == NO_PARENT {
                continue;
            }
            let mut cur = v;
            while state[cur] == 0 {
                state[cur] = 1;
                path.push(cur);
                cur = parent[cur] as usize;
                if state[cur] == 1 {
                    return false;
                }
            }
            if state[cur] != 2 {
                return false;
            }
            for x in path.drain(..) {
                state[x] = 2;
            }
        }
        for &(u, v) in &edges.edges {
            let uv = parent[u as usize] != NO_PARENT;
            let vv = parent[v as usize] != NO_PARENT;
            if uv != vv {
                return false;
            }
        }
        true
    }

    /// Sequential reference BFS over the regenerated edge list.
    fn reference_parents(cfg: &Graph500Config, root: u64) -> Vec<u64> {
        let n = cfg.num_vertices() as usize;
        let mut adj = vec![Vec::new(); n];
        for idx in 0..cfg.num_edges() {
            let (u, v) = edge(cfg.seed, cfg.scale, idx);
            if u != v {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
        }
        let mut parent = vec![NO_PARENT; n];
        parent[root as usize] = root;
        let mut q = std::collections::VecDeque::from([root as usize]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if parent[v as usize] == NO_PARENT {
                    parent[v as usize] = u as u64;
                    q.push_back(v as usize);
                }
            }
        }
        parent
    }

    /// Broken variants of the good tree `good` for `root`, each breaking
    /// one rule: the root's parent, a fabricated tree edge (when some
    /// visited pair is no edge), a 2-cycle (when two non-root vertices
    /// are visited) and the length.
    fn corruptions(edges: &PairEdgeSet, root: u64, good: &[u64]) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        let visited = |v: usize| v as u64 != root && good[v] != NO_PARENT;

        let mut bad = good.to_vec();
        bad[root as usize] = NO_PARENT;
        out.push(bad);

        let fake = (0..good.len()).filter(|&v| visited(v)).find_map(|victim| {
            (0..good.len() as u64)
                .find(|&cand| {
                    cand != victim as u64
                        && good[cand as usize] != NO_PARENT
                        && !edges.contains(victim as u64, cand)
                })
                .map(|cand| (victim, cand))
        });
        if let Some((victim, cand)) = fake {
            let mut bad = good.to_vec();
            bad[victim] = cand;
            out.push(bad);
        }

        let mut pair = (0..good.len()).filter(|&v| visited(v));
        if let (Some(a), Some(b)) = (pair.next(), pair.next()) {
            let mut bad = good.to_vec();
            (bad[a], bad[b]) = (b as u64, a as u64);
            out.push(bad);
        }

        out.push(good[..good.len() - 1].to_vec());
        out
    }

    #[test]
    fn reference_tree_validates() {
        let cfg = tiny_cfg();
        let root = bfs_root(cfg.seed, cfg.scale, cfg.edgefactor, 0);
        let parent = reference_parents(&cfg, root);
        assert!(check_tree(&cfg, root, &parent));
    }

    #[test]
    fn one_edge_set_serves_every_root() {
        let cfg = tiny_cfg();
        let edges = EdgeSet::generate(&cfg);
        assert!(edges.keys.windows(2).all(|w| w[0] < w[1]));
        for i in 0..4 {
            let root = bfs_root(cfg.seed, cfg.scale, cfg.edgefactor, i);
            let mut parent = reference_parents(&cfg, root);
            assert!(check_tree_against(&cfg, &edges, root, &parent));
            // Another root's tree is not this root's tree.
            parent[root as usize] = NO_PARENT;
            assert!(!check_tree_against(&cfg, &edges, root, &parent));
        }
    }

    #[test]
    fn corrupted_trees_are_rejected() {
        let cfg = tiny_cfg();
        let root = bfs_root(cfg.seed, cfg.scale, cfg.edgefactor, 0);
        let good = reference_parents(&cfg, root);
        let bad = corruptions(&PairEdgeSet::generate(&cfg), root, &good);
        assert!(bad.len() >= 3, "only {} corruptions apply", bad.len());
        for bad in bad {
            assert!(!check_tree(&cfg, root, &bad));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The packed set against the tuple set on the same graph: the
        /// same membership on every probed pair, the same verdict on
        /// reference trees and on every corruption of them.
        #[test]
        fn packed_edge_set_agrees_with_the_pair_reference(
            scale in 4u32..=10,
            edgefactor in 1u32..=16,
            seed in any::<u64>(),
            probes in proptest::collection::vec((any::<u64>(), any::<u64>()), 64),
        ) {
            let cfg = Graph500Config { scale, edgefactor, seed, ..Default::default() };
            let packed = EdgeSet::generate(&cfg);
            let pairs = PairEdgeSet::generate(&cfg);
            prop_assert!(packed.keys.iter().copied().eq(pairs.edges.iter().map(|&(u, v)| key(u, v))));
            let n = cfg.num_vertices();
            let mut touched: Vec<u64> = pairs.edges.iter().flat_map(|&(u, v)| [u, v]).collect();
            touched.sort_unstable();
            touched.dedup();
            touched.truncate(48);
            let near = touched.iter().flat_map(|&u| touched.iter().map(move |&v| (u, v)));
            let far = probes.iter().map(|&(u, v)| (u % n, v % n));
            for (u, v) in near.chain(far) {
                prop_assert_eq!(packed.contains(u, v), pairs.contains(u, v), "({}, {})", u, v);
            }
            // A graph of self-loops only has no BFS root to search from.
            let roots = if pairs.edges.is_empty() { 0 } else { 2 };
            for i in 0..roots {
                let root = bfs_root(seed, scale, edgefactor, i);
                let good = reference_parents(&cfg, root);
                prop_assert!(check_tree_against(&cfg, &packed, root, &good));
                prop_assert!(check_tree_reference(&cfg, &pairs, root, &good));
                for bad in corruptions(&pairs, root, &good) {
                    prop_assert_eq!(
                        check_tree_against(&cfg, &packed, root, &bad),
                        check_tree_reference(&cfg, &pairs, root, &bad)
                    );
                }
            }
        }
    }
}
