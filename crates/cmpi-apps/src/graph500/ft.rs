//! Fault-tolerant Graph 500: the same Kronecker build and
//! level-synchronous BFS, parameterized over a communicator and driven
//! through the ULFM recovery loop (revoke → shrink → rebuild →
//! recompute), so the job completes even when ranks die mid-run.
//!
//! The communication skeleton differs from the plain runner in one
//! deliberate way: the wildcard `Irecv(ANY_SOURCE)` polling loop is
//! replaced by deterministic pairwise `try_sendrecv_comm` rounds in ring
//! order. Every transfer names its exact peer, so the parent tree — and
//! therefore the reported checksums — are a pure function of the
//! survivor membership. The chaos suite leans on this: two runs with the
//! same fault plan must report bit-identical outcomes even though the
//! deaths themselves resolve rendezvous races nondeterministically in
//! real time.

use bytes::Bytes;
use cmpi_core::{Comm, Mpi, MpiError, ReduceOp};

use super::bfs::{bucket_edges, decode_pairs, put_pair, ship, LocalGraph, PairWire, NO_PARENT};
use super::generator::{bfs_root, Partition};
use super::Graph500Config;

const TAG_BUILD: u32 = 201;
const TAG_BFS: u32 = 202;

/// What each surviving rank reports from a fault-tolerant run. Every
/// field is agreed (allreduced or shrink-agreed), so the chaos tests can
/// assert survivors return *equal* outcomes and that outcomes are
/// identical across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FtRankOutcome {
    /// World ranks of the final (possibly shrunk) communicator.
    pub comm_ranks: Vec<usize>,
    /// Per-root global reached-vertex count.
    pub reached: Vec<u64>,
    /// Per-root global parent-tree checksum (wrapping sum of
    /// `v ^ parent[v]` over reached vertices).
    pub checksums: Vec<u64>,
    /// How many revoke-shrink recoveries this rank performed.
    pub recoveries: u64,
}

/// Drive the full fault-tolerant benchmark on one rank. Survivors keep
/// recovering (revoke, shrink, rebuild the graph over the survivor
/// partition, recompute every root) until an attempt completes; a rank
/// scripted to die returns its own failure.
pub fn run_rank_ft(mpi: &mut Mpi, cfg: &Graph500Config) -> Result<FtRankOutcome, MpiError> {
    cfg.assert_runnable();
    let mut comm = mpi.comm_world();
    let mut recoveries = 0u64;
    // Each genuine recovery removes at least one rank, so more shrink
    // cycles than ranks means the error is not survivable — give up
    // rather than loop.
    let max_recoveries = mpi.size() as u64 + 1;
    loop {
        match attempt(mpi, cfg, &comm) {
            Ok((reached, checksums)) => {
                return Ok(FtRankOutcome {
                    comm_ranks: comm.ranks().to_vec(),
                    reached,
                    checksums,
                    recoveries,
                });
            }
            Err(e @ MpiError::ProcessFailed { peer }) if peer == mpi.rank() => {
                // This rank itself is the casualty: no recovery, report it.
                return Err(e);
            }
            Err(MpiError::ProcessFailed { .. } | MpiError::Revoked)
                if recoveries < max_recoveries =>
            {
                mpi.revoke(&comm);
                comm = mpi.try_shrink(&comm)?;
                recoveries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One complete attempt over `comm`: build the graph partitioned across
/// the communicator, then run and checksum every root.
fn attempt(
    mpi: &mut Mpi,
    cfg: &Graph500Config,
    comm: &Comm,
) -> Result<(Vec<u64>, Vec<u64>), MpiError> {
    let g = build_graph_ft(mpi, cfg, comm)?;
    let mut reached = Vec::with_capacity(cfg.num_roots);
    let mut checksums = Vec::with_capacity(cfg.num_roots);
    for i in 0..cfg.num_roots {
        let root = bfs_root(cfg.seed, cfg.scale, cfg.edgefactor, i as u64);
        mpi.try_barrier_comm(comm)?;
        let parent = bfs_ft(mpi, cfg, comm, &g, root)?;
        let mut local_reached = 0u64;
        let mut local_sum = 0u64;
        for (i, &pv) in parent.iter().enumerate() {
            if pv != NO_PARENT {
                local_reached += 1;
                local_sum = local_sum.wrapping_add((g.lo + i as u64) ^ pv);
            }
        }
        reached.push(mpi.try_allreduce_one(comm, local_reached, ReduceOp::Sum)?);
        checksums.push(mpi.try_allreduce_one(comm, local_sum, ReduceOp::Sum)?);
    }
    Ok((reached, checksums))
}

/// Build this rank's CSR slice with vertices and edge generation
/// partitioned over the *communicator* (so a shrunk communicator
/// repartitions the whole graph across the survivors). The alltoallv of
/// the plain builder becomes a deterministic pairwise ring exchange.
fn build_graph_ft(
    mpi: &mut Mpi,
    cfg: &Graph500Config,
    comm: &Comm,
) -> Result<LocalGraph, MpiError> {
    let p = comm.size();
    let me = comm
        .comm_rank_of(mpi.rank())
        .expect("rank not in communicator");
    let owners = Partition::new(cfg.num_vertices(), p);
    let mut blocks = bucket_edges(mpi, cfg, &owners, me);

    let mut incoming: Vec<Bytes> = Vec::with_capacity(p);
    incoming.push(std::mem::take(&mut blocks[me]));
    for step in 1..p {
        let dst = (me + step) % p;
        let src = (me + p - step) % p;
        let block = std::mem::take(&mut blocks[dst]);
        let (data, _) = mpi.try_sendrecv_comm(comm, block, dst, TAG_BUILD, src, TAG_BUILD)?;
        incoming.push(data);
    }

    let graph = LocalGraph::from_blocks(owners, me, &incoming);
    mpi.compute_items(graph.adj.len() as u64, 6);
    Ok(graph)
}

/// Level-synchronous BFS over `comm`, all transfers fault-tolerant.
/// Returns the local parent array.
fn bfs_ft(
    mpi: &mut Mpi,
    cfg: &Graph500Config,
    comm: &Comm,
    g: &LocalGraph,
    root: u64,
) -> Result<Vec<u64>, MpiError> {
    let p = comm.size();
    let me = comm
        .comm_rank_of(mpi.rank())
        .expect("rank not in communicator");
    let mut parent = vec![NO_PARENT; g.local_n()];
    let mut frontier: Vec<u64> = Vec::new();
    if g.owners.owner(root) == me {
        parent[(root - g.lo) as usize] = root;
        frontier.push(root);
    }

    loop {
        let mut next: Vec<u64> = Vec::new();
        let mut out: Vec<PairWire> = vec![Vec::new(); p];
        for &u in &frontier {
            let nbrs = g.neighbors(u);
            mpi.compute_items(nbrs.len() as u64, cfg.ns_per_edge);
            for &v in nbrs {
                let o = g.owners.owner(v);
                if o == me {
                    let li = (v - g.lo) as usize;
                    if parent[li] == NO_PARENT {
                        parent[li] = u;
                        next.push(v);
                    }
                } else {
                    put_pair(&mut out[o], v, u);
                }
            }
        }
        // Exchange the level's discoveries pairwise: at step s everyone
        // sends to `me + s` and receives from `me - s`, so each transfer
        // names its exact peer and discovery order is reproducible.
        for step in 1..p {
            let dst = (me + step) % p;
            let src = (me + p - step) % p;
            let level = ship(std::mem::take(&mut out[dst]));
            let (data, _) = mpi.try_sendrecv_comm(comm, level, dst, TAG_BFS, src, TAG_BFS)?;
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
        let global_next = mpi.try_allreduce_one(comm, next.len() as u64, ReduceOp::Sum)?;
        if global_next == 0 {
            break;
        }
        frontier = next;
    }
    Ok(parent)
}
