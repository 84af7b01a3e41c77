//! Distributed level-synchronous BFS (MPI-simple flavour).
//!
//! Communication skeleton, matching the paper's mpiP profile exactly:
//! `MPI_Isend` of batched `(vertex, predecessor)` pairs, `MPI_Irecv` +
//! `MPI_Test` polling on the receive side, and one `MPI_Allreduce` per
//! level to detect termination.
//!
//! One pair codec serves every exchange, here and in [`super::ft`]: a
//! pair is written once, straight into the wire image that ships it
//! (`put_pair`), and read back in place (`decode_pairs`). Vertex
//! ownership is the job's one [`Partition`], carried by its
//! [`LocalGraph`].

use std::ops::Range;

use bytes::Bytes;
use cmpi_cluster::SimTime;
use cmpi_core::{Completion, Mpi, ReduceOp, ANY_SOURCE, ANY_TAG};

use super::generator::{bfs_root, for_each_edge, Partition};
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

/// Wire size of one `(vertex, predecessor)` pair: two little-endian `u64`.
const PAIR_BYTES: usize = 16;

/// A wire image being written, one element per pair: its `len()` is
/// the pair count, and [`ship`] hands its bytes over without a copy.
pub(super) type PairWire = Vec<[u8; PAIR_BYTES]>;

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
    /// The job's vertex partition, which this slice is one block of.
    pub owners: Partition,
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
    /// Assemble the CSR slice of `part`'s block of `owners` from received
    /// pair batches `(owned vertex, neighbour)` in two decode passes:
    /// count each row into `xadj`, prefix-sum, fill. A row lists its
    /// neighbours in block order and, within a block, in wire order — the
    /// order that decides BFS parents.
    pub fn from_blocks(owners: Partition, part: usize, blocks: &[Bytes]) -> LocalGraph {
        let Range { start: lo, end: hi } = owners.range(part);
        let local_n = (hi - lo) as usize;
        let mut xadj = vec![0usize; local_n + 1];
        for block in blocks {
            for (src_v, _) in decode_pairs(block) {
                debug_assert!(src_v >= lo && src_v < hi);
                xadj[(src_v - lo) as usize + 1] += 1;
            }
        }
        for i in 0..local_n {
            xadj[i + 1] += xadj[i];
        }
        let mut cursor = xadj[..local_n].to_vec();
        let mut adj = vec![0u64; xadj[local_n]];
        for block in blocks {
            for (src_v, dst_v) in decode_pairs(block) {
                let at = &mut cursor[(src_v - lo) as usize];
                adj[*at] = dst_v;
                *at += 1;
            }
        }
        LocalGraph {
            owners,
            lo,
            hi,
            xadj,
            adj,
        }
    }

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

/// Append pair `(v, u)` to `wire` as [`decode_pairs`] reads it: vertex
/// first, predecessor second, both little-endian.
#[inline(always)]
pub(super) fn put_pair(wire: &mut PairWire, v: u64, u: u64) {
    wire.push((v as u128 | (u as u128) << 64).to_le_bytes());
}

/// The bytes of `wire`, its allocation trimmed to them: a shipped image
/// lives until its receiver has drained it.
pub(super) fn ship(mut wire: PairWire) -> Bytes {
    wire.shrink_to_fit();
    Bytes::from(wire.into_flattened())
}

/// The pairs of one batch, front to back, borrowed from the wire image;
/// `len()` is the batch's pair count.
pub(super) fn decode_pairs(data: &[u8]) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
    let (pairs, rest) = data.as_chunks::<PAIR_BYTES>();
    assert!(rest.is_empty(), "corrupt pair batch");
    pairs.iter().map(|pair| {
        let both = u128::from_le_bytes(*pair);
        (both as u64, (both >> 64) as u64)
    })
}

/// Generate share `part` of the global edge list (the edges split into
/// as many blocks as `owners` has parts) and write both directions of
/// every edge into the wire image for the owner of its first vertex,
/// charging kernel 1's compute.
pub(super) fn bucket_edges(
    mpi: &mut Mpi,
    cfg: &Graph500Config,
    owners: &Partition,
    part: usize,
) -> Vec<Bytes> {
    let parts = owners.parts();
    let share = Partition::new(cfg.num_edges(), parts).range(part);
    let generated = share.end - share.start;
    // Two pairs per edge, spread over `parts` owners.
    let expected = 2 * generated as usize / parts;
    let mut wires: Vec<PairWire> = (0..parts).map(|_| Vec::with_capacity(expected)).collect();
    for_each_edge(cfg.seed, cfg.scale, share, |_, (u, v)| {
        if u != v {
            // Graph 500 drops self-loops.
            put_pair(&mut wires[owners.owner(u)], u, v);
            put_pair(&mut wires[owners.owner(v)], v, u);
        }
    });
    // Generation cost: the reference kernel 1 is compute-heavy.
    mpi.compute_items(generated, 12);
    wires.into_iter().map(ship).collect()
}

/// Build this rank's CSR slice: every rank generates an equal share of
/// the global edge list, routes each endpoint to its owner with
/// `alltoallv`, and assembles local adjacency.
pub fn build_graph(mpi: &mut Mpi, cfg: &Graph500Config) -> LocalGraph {
    let owners = Partition::new(cfg.num_vertices(), mpi.size());
    let blocks = bucket_edges(mpi, cfg, &owners, mpi.rank());
    let incoming = mpi.alltoallv_bytes(blocks);
    let graph = LocalGraph::from_blocks(owners, mpi.rank(), &incoming);
    mpi.compute_items(graph.adj.len() as u64, 6);
    graph
}

/// One full benchmark run on one rank.
pub fn run_rank(mpi: &mut Mpi, cfg: &Graph500Config) -> RankOutcome {
    cfg.assert_runnable();
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
    let p = mpi.size();
    let rank = mpi.rank();
    let mut parent = vec![NO_PARENT; g.local_n()];
    let mut frontier: Vec<u64> = Vec::new();
    if g.owners.owner(root) == rank {
        parent[(root - g.lo) as usize] = root;
        frontier.push(root);
    }
    let mut edges_scanned = 0u64;
    // Per-destination batches; a shipped one leaves an empty wire, whose
    // next pair reserves a whole batch.
    let mut out: Vec<PairWire> = vec![Vec::new(); p];

    loop {
        let mut next: Vec<u64> = Vec::new();
        let mut send_reqs = Vec::new();

        // Scan the frontier, coalescing remote discoveries.
        for &u in &frontier {
            let nbrs = g.neighbors(u);
            edges_scanned += nbrs.len() as u64;
            mpi.compute_items(nbrs.len() as u64, cfg.ns_per_edge);
            for &v in nbrs {
                let o = g.owners.owner(v);
                if o == rank {
                    let li = (v - g.lo) as usize;
                    if parent[li] == NO_PARENT {
                        parent[li] = u;
                        next.push(v);
                    }
                } else {
                    let wire = &mut out[o];
                    if wire.capacity() == 0 {
                        wire.reserve_exact(BATCH_PAIRS);
                    }
                    put_pair(wire, v, u);
                    if wire.len() == BATCH_PAIRS {
                        let batch = ship(std::mem::take(wire));
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
                let batch = ship(std::mem::take(pending));
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
    use proptest::prelude::*;

    /// The encoder `put_pair` replaced: pairs staged as tuples, then
    /// copied into an exact-size wire image. The pair writer must emit
    /// its bytes exactly.
    fn encode_pairs(pairs: &[(u64, u64)]) -> Bytes {
        let wire: Vec<[u8; PAIR_BYTES]> = pairs
            .iter()
            .map(|&(v, u)| (v as u128 | (u as u128) << 64).to_le_bytes())
            .collect();
        Bytes::from(wire.into_flattened())
    }

    fn write_pairs(pairs: &[(u64, u64)]) -> Bytes {
        let mut wire = PairWire::new();
        for &(v, u) in pairs {
            put_pair(&mut wire, v, u);
        }
        ship(wire)
    }

    #[test]
    fn pair_codec_roundtrips() {
        for len in [0u64, 1, BATCH_PAIRS as u64] {
            let pairs: Vec<(u64, u64)> = (0..len).map(|i| (u64::MAX - i, i * i + 42)).collect();
            let wire = write_pairs(&pairs);
            assert_eq!(wire.len(), pairs.len() * PAIR_BYTES);
            let decoded = decode_pairs(&wire);
            assert_eq!(decoded.len(), pairs.len());
            assert_eq!(decoded.collect::<Vec<_>>(), pairs);
        }
        // Vertex first, predecessor second, both little-endian.
        let wire = write_pairs(&[(0x0102, 0x0304)]);
        assert_eq!(wire[..], [2, 1, 0, 0, 0, 0, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "corrupt pair batch")]
    fn truncated_batch_is_rejected() {
        let _ = decode_pairs(&[0u8; 15]);
    }

    /// The assembly `from_blocks` replaced: every incoming pair
    /// materialised beside a degree vector, then one fill pass.
    fn assemble_reference(lo: u64, hi: u64, blocks: &[Bytes]) -> (Vec<usize>, Vec<u64>) {
        let local_n = (hi - lo) as usize;
        let mut degree = vec![0usize; local_n];
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for block in blocks {
            for (src_v, dst_v) in decode_pairs(block) {
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
        (xadj, adj)
    }

    #[test]
    fn a_rank_that_owns_nothing_gets_an_empty_slice() {
        // More ranks than vertices: the partition hands out `[n, n)`.
        let g = LocalGraph::from_blocks(Partition::new(8, 16), 9, &[Bytes::new(), Bytes::new()]);
        assert_eq!((g.lo, g.hi), (8, 8));
        assert_eq!((g.local_n(), g.xadj, g.adj), (0, vec![0], vec![]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Byte for byte, batch sizes from empty to past a full batch.
        #[test]
        fn the_pair_writer_emits_the_retired_encoders_bytes(
            pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..2 * BATCH_PAIRS),
        ) {
            prop_assert_eq!(&write_pairs(&pairs)[..], &encode_pairs(&pairs)[..]);
        }

        /// Adjacency order included: it decides BFS parents.
        #[test]
        fn from_blocks_matches_the_edge_vector_assembly(
            n in 1u64..1000,
            parts in 1usize..40,
            part in 0usize..40,
            raw in proptest::collection::vec(
                proptest::collection::vec((any::<u64>(), any::<u64>()), 0..60),
                0..8,
            ),
        ) {
            let owners = Partition::new(n, parts);
            let part = part % parts;
            let Range { start: lo, end: hi } = owners.range(part);
            let local_n = hi - lo;
            let blocks: Vec<Bytes> = raw
                .iter()
                .map(|block| {
                    let mut wire = PairWire::new();
                    for &(src, dst) in block.iter().filter(|_| local_n > 0) {
                        put_pair(&mut wire, lo + src % local_n, dst);
                    }
                    ship(wire)
                })
                .collect();
            let g = LocalGraph::from_blocks(owners, part, &blocks);
            let (xadj, adj) = assemble_reference(lo, hi, &blocks);
            prop_assert_eq!(g.local_n() as u64, local_n);
            prop_assert_eq!(&g.xadj, &xadj);
            prop_assert_eq!(&g.adj, &adj);
            for v in lo..lo + local_n {
                let i = (v - lo) as usize;
                prop_assert_eq!(g.neighbors(v), &adj[xadj[i]..xadj[i + 1]]);
            }
        }
    }
}
