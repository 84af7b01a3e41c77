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
//! This is a test-scale verifier (it centralizes the tree); the figure
//! harness disables it for its largest runs.

use cmpi_core::Mpi;

use super::bfs::NO_PARENT;
use super::generator::for_each_edge;
use super::{bfs::LocalGraph, Graph500Config};

/// Padding marker for the gather of unequal local slices.
const PAD: u64 = u64::MAX - 1;

/// The graph's undirected edge set, normalised to `(min, max)`, sorted
/// and deduplicated. Regenerating the Kronecker list is the expensive
/// part of validation and does not depend on the root, so rank 0 builds
/// it once and checks every root's tree against it.
pub struct EdgeSet {
    edges: Vec<(u64, u64)>,
}

impl EdgeSet {
    /// Regenerate the edge list of `cfg`'s graph (self-loops dropped).
    pub fn generate(cfg: &Graph500Config) -> Self {
        // Reserved whole: grown by doubling, the list's last 4 MiB step
        // (scale 14) fits in place or moves to fresh pages depending on
        // where the job's small blocks happen to sit, so dropping one
        // unrelated 640 B block per rank once moved the 16-rank job's
        // peak RSS by 2.9 MiB.
        let mut edges = Vec::with_capacity(cfg.num_edges() as usize);
        for_each_edge(cfg.seed, cfg.scale, 0..cfg.num_edges(), |_, (u, v)| {
            if u != v {
                edges.push((u.min(v), u.max(v)));
            }
        });
        edges.sort_unstable();
        edges.dedup();
        // Kept for the whole job: give back what the duplicates held.
        edges.shrink_to_fit();
        EdgeSet { edges }
    }

    fn contains(&self, u: u64, v: u64) -> bool {
        self.edges.binary_search(&(u.min(v), u.max(v))).is_ok()
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
    let n = cfg.num_vertices();
    let per = n.div_ceil(mpi.size() as u64) as usize;
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

/// Sequential check of one assembled parent array, regenerating the
/// edge set for it.
pub fn check_tree(cfg: &Graph500Config, root: u64, parent: &[u64]) -> bool {
    check_tree_against(cfg, &EdgeSet::generate(cfg), root, parent)
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
    for &(u, v) in &edges.edges {
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
    use crate::graph500::generator::edge;
    use std::collections::HashSet;

    fn tiny_cfg() -> Graph500Config {
        Graph500Config {
            scale: 6,
            edgefactor: 8,
            ..Default::default()
        }
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

    #[test]
    fn reference_tree_validates() {
        let cfg = tiny_cfg();
        let root = super::super::generator::bfs_root(cfg.seed, cfg.scale, cfg.edgefactor, 0);
        let parent = reference_parents(&cfg, root);
        assert!(check_tree(&cfg, root, &parent));
    }

    #[test]
    fn one_edge_set_serves_every_root() {
        let cfg = tiny_cfg();
        let edges = EdgeSet::generate(&cfg);
        assert!(edges.edges.windows(2).all(|w| w[0] < w[1]));
        for i in 0..4 {
            let root = super::super::generator::bfs_root(cfg.seed, cfg.scale, cfg.edgefactor, i);
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
        let root = super::super::generator::bfs_root(cfg.seed, cfg.scale, cfg.edgefactor, 0);
        let good = reference_parents(&cfg, root);

        // Wrong root parent.
        let mut bad = good.clone();
        bad[root as usize] = NO_PARENT;
        assert!(!check_tree(&cfg, root, &bad));

        // A fabricated edge: point some visited vertex at a non-neighbor.
        let mut bad = good.clone();
        let victim = (0..bad.len())
            .find(|&v| v as u64 != root && bad[v] != NO_PARENT && bad[v] != (v as u64 + 1) % 7)
            .unwrap();
        // Parent it to a vertex at distance "random"; ensure no real edge.
        let mut fake = None;
        for cand in 0..bad.len() as u64 {
            if cand != victim as u64 && bad[cand as usize] != NO_PARENT {
                let cfg2 = tiny_cfg();
                let mut edges = HashSet::new();
                for idx in 0..cfg2.num_edges() {
                    let (u, v) = edge(cfg2.seed, cfg2.scale, idx);
                    edges.insert((u.min(v), u.max(v)));
                }
                let key = ((victim as u64).min(cand), (victim as u64).max(cand));
                if !edges.contains(&key) {
                    fake = Some(cand);
                    break;
                }
            }
        }
        if let Some(f) = fake {
            bad[victim] = f;
            assert!(!check_tree(&cfg, root, &bad));
        }

        // A 2-cycle between visited vertices.
        let mut bad = good.clone();
        let a = (0..bad.len())
            .find(|&v| v as u64 != root && bad[v] != NO_PARENT)
            .unwrap();
        let p = bad[a] as usize;
        if p != root as usize {
            bad[p] = a as u64;
            assert!(!check_tree(&cfg, root, &bad));
        }

        // Wrong length.
        assert!(!check_tree(&cfg, root, &good[..good.len() - 1]));
    }
}
