//! Distributed level-synchronous BFS (MPI-simple flavour).
//!
//! Communication skeleton, matching the paper's mpiP profile exactly:
//! `MPI_Isend` of batched `(vertex, predecessor)` pairs, `MPI_Irecv` +
//! `MPI_Test` polling on the receive side, and one `MPI_Allreduce` per
//! level to detect termination.

use bytes::{BufMut, Bytes, BytesMut};
use cmpi_cluster::SimTime;
use cmpi_core::{Completion, Mpi, ReduceOp, ANY_SOURCE, ANY_TAG};

use super::generator::{bfs_root, edge, owned_range, owner};
use super::validate;
use super::Graph500Config;

/// Not-yet-visited marker in the parent array.
pub const NO_PARENT: u64 = u64::MAX;

const TAG_DATA: u32 = 101;
const TAG_END: u32 = 102;

/// Batched pairs per full message: 520 pairs = 8320 bytes, just above the
/// 8 KiB `SMP_EAGER_SIZE` — the paper sets the BFS message size to 8K, so
/// full batches travel the CMA rendezvous path while stragglers and end
/// markers stay on SHM (this is what makes CMA dominate Table I).
const BATCH_PAIRS: usize = 520;

/// What each rank reports back to the driver.
#[derive(Clone, Debug)]
pub struct RankOutcome {
    /// Per-root BFS time on this rank.
    pub bfs_times: Vec<SimTime>,
    /// Per-root edges traversed by this rank.
    pub traversed_edges: Vec<u64>,
    /// All validations passed (as broadcast from rank 0).
    pub validated: bool,
}

/// This rank's slice of the graph in CSR form.
pub struct LocalGraph {
    /// First owned vertex (global id).
    pub lo: u64,
    /// One past the last owned vertex.
    pub hi: u64,
    /// CSR row offsets (`hi - lo + 1` entries).
    pub xadj: Vec<usize>,
    /// CSR adjacency (global vertex ids).
    pub adj: Vec<u64>,
}

impl LocalGraph {
    /// Number of owned vertices.
    pub fn local_n(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Neighbours of owned vertex `v` (global id).
    pub fn neighbors(&self, v: u64) -> &[u64] {
        let i = (v - self.lo) as usize;
        &self.adj[self.xadj[i]..self.xadj[i + 1]]
    }
}

pub(super) fn encode_pairs(pairs: &[(u64, u64)]) -> Bytes {
    let mut b = BytesMut::with_capacity(pairs.len() * 16);
    for &(v, u) in pairs {
        b.put_u64_le(v);
        b.put_u64_le(u);
    }
    b.freeze()
}

pub(super) fn decode_pairs(data: &[u8]) -> Vec<(u64, u64)> {
    assert_eq!(data.len() % 16, 0, "corrupt pair batch");
    data.chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[0..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..16].try_into().unwrap()),
            )
        })
        .collect()
}

/// Build this rank's CSR slice: every rank generates an equal share of
/// the global edge list, routes each endpoint to its owner with
/// `alltoallv`, and assembles local adjacency.
pub fn build_graph(mpi: &mut Mpi, cfg: &Graph500Config) -> LocalGraph {
    let n = cfg.num_vertices();
    let m = cfg.num_edges();
    let p = mpi.size();
    let rank = mpi.rank();
    let (lo, hi) = owned_range(rank, n, p);

    // Generate our share of edges and bucket both directions by owner.
    let per = m.div_ceil(p as u64);
    let e_lo = (rank as u64 * per).min(m);
    let e_hi = ((rank as u64 + 1) * per).min(m);
    let mut buckets: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
    for idx in e_lo..e_hi {
        let (u, v) = edge(cfg.seed, cfg.scale, idx);
        if u == v {
            continue; // Graph 500 drops self-loops
        }
        buckets[owner(u, n, p)].push((u, v));
        buckets[owner(v, n, p)].push((v, u));
    }
    // Generation cost: the reference kernel 1 is compute-heavy.
    mpi.compute_items(e_hi - e_lo, 12);

    let blocks: Vec<Bytes> = buckets.iter().map(|b| encode_pairs(b)).collect();
    drop(buckets);
    let incoming = mpi.alltoallv_bytes(blocks);

    // Assemble CSR.
    let local_n = (hi - lo) as usize;
    let mut degree = vec![0usize; local_n];
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for block in &incoming {
        for (src_v, dst_v) in decode_pairs(block) {
            debug_assert!(src_v >= lo && src_v < hi);
            degree[(src_v - lo) as usize] += 1;
            edges.push((src_v, dst_v));
        }
    }
    let mut xadj = vec![0usize; local_n + 1];
    for i in 0..local_n {
        xadj[i + 1] = xadj[i] + degree[i];
    }
    let mut cursor = xadj.clone();
    let mut adj = vec![0u64; edges.len()];
    for (src_v, dst_v) in edges {
        let i = (src_v - lo) as usize;
        adj[cursor[i]] = dst_v;
        cursor[i] += 1;
    }
    mpi.compute_items(adj.len() as u64, 6);
    LocalGraph { lo, hi, xadj, adj }
}

/// One full benchmark run on one rank.
pub fn run_rank(mpi: &mut Mpi, cfg: &Graph500Config) -> RankOutcome {
    let graph = build_graph(mpi, cfg);
    let mut bfs_times = Vec::with_capacity(cfg.num_roots);
    let mut traversed = Vec::with_capacity(cfg.num_roots);
    let mut validated = true;
    // The validation's gather root checks every tree against one
    // regenerated edge set.
    let edge_set = (cfg.validate && mpi.rank() == 0).then(|| validate::EdgeSet::generate(cfg));
    for i in 0..cfg.num_roots {
        let root = bfs_root(cfg.seed, cfg.scale, cfg.edgefactor, i as u64);
        mpi.barrier();
        let t0 = mpi.now();
        let (parent, edges_scanned) = bfs(mpi, cfg, &graph, root);
        let t = mpi.now() - t0;
        bfs_times.push(t);
        traversed.push(edges_scanned);
        if cfg.validate {
            validated &= validate::validate(mpi, cfg, &graph, edge_set.as_ref(), root, &parent);
        }
    }
    RankOutcome {
        bfs_times,
        traversed_edges: traversed,
        validated,
    }
}

/// Level-synchronous BFS from `root`. Returns the local parent array and
/// the number of edges this rank scanned.
pub fn bfs(mpi: &mut Mpi, cfg: &Graph500Config, g: &LocalGraph, root: u64) -> (Vec<u64>, u64) {
    let n = cfg.num_vertices();
    let p = mpi.size();
    let rank = mpi.rank();
    let mut parent = vec![NO_PARENT; g.local_n()];
    let mut frontier: Vec<u64> = Vec::new();
    if owner(root, n, p) == rank {
        parent[(root - g.lo) as usize] = root;
        frontier.push(root);
    }
    let mut edges_scanned = 0u64;

    loop {
        let mut next: Vec<u64> = Vec::new();
        let mut out: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
        let mut send_reqs = Vec::new();

        // Scan the frontier, coalescing remote discoveries.
        for &u in &frontier {
            let nbrs = g.neighbors(u);
            edges_scanned += nbrs.len() as u64;
            mpi.compute_items(nbrs.len() as u64, cfg.ns_per_edge);
            for &v in nbrs {
                let o = owner(v, n, p);
                if o == rank {
                    let li = (v - g.lo) as usize;
                    if parent[li] == NO_PARENT {
                        parent[li] = u;
                        next.push(v);
                    }
                } else {
                    out[o].push((v, u));
                    if out[o].len() >= BATCH_PAIRS {
                        let batch = encode_pairs(&out[o]);
                        out[o].clear();
                        send_reqs.push(mpi.isend_bytes(batch, o, TAG_DATA));
                    }
                }
            }
        }
        // Flush remainders and fence each peer with an end marker.
        for (o, pending) in out.iter_mut().enumerate() {
            if o == rank {
                continue;
            }
            if !pending.is_empty() {
                let batch = encode_pairs(pending);
                pending.clear();
                send_reqs.push(mpi.isend_bytes(batch, o, TAG_DATA));
            }
            send_reqs.push(mpi.isend_bytes(Bytes::new(), o, TAG_END));
        }

        // Drain incoming batches until every peer's end marker arrived,
        // polling with MPI_Test like the reference implementation.
        let mut ends = 0usize;
        if p > 1 {
            let mut req = mpi.irecv_bytes(ANY_SOURCE, ANY_TAG);
            loop {
                match mpi.test(&req) {
                    Some(Completion::Recv(data, st)) => {
                        match st.tag {
                            TAG_END => ends += 1,
                            TAG_DATA => {
                                let pairs = decode_pairs(&data);
                                mpi.compute_items(pairs.len() as u64, cfg.ns_per_edge);
                                for (v, u) in pairs {
                                    let li = (v - g.lo) as usize;
                                    if parent[li] == NO_PARENT {
                                        parent[li] = u;
                                        next.push(v);
                                    }
                                }
                            }
                            t => panic!("unexpected tag {t}"),
                        }
                        if ends == p - 1 {
                            break;
                        }
                        req = mpi.irecv_bytes(ANY_SOURCE, ANY_TAG);
                    }
                    Some(Completion::Send) => unreachable!(),
                    None => mpi.idle_wait(),
                }
            }
        }
        mpi.waitall(send_reqs);

        // Level termination: one allreduce, as profiled in Fig. 3(a).
        let global_next = mpi.allreduce(&[next.len() as u64], ReduceOp::Sum)[0];
        if global_next == 0 {
            break;
        }
        frontier = next;
    }
    (parent, edges_scanned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_codec_roundtrips() {
        let pairs = vec![(1u64, 2u64), (u64::MAX, 0), (42, 43)];
        assert_eq!(decode_pairs(&encode_pairs(&pairs)), pairs);
        assert!(decode_pairs(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "corrupt pair batch")]
    fn truncated_batch_is_rejected() {
        decode_pairs(&[0u8; 15]);
    }
}
