//! Communicators: sub-groups of ranks with their own context id, created
//! collectively with [`Mpi::comm_split`] (≈ `MPI_Comm_split`).
//!
//! Collectives over a communicator run the same algorithms as the
//! world-level ones but on the communicator's rank list, and their
//! traffic is isolated by the communicator's context id so concurrent
//! collectives on disjoint communicators can never cross-match.

use crate::datatype::{from_bytes, to_bytes, MpiData, ReduceOp, Reducible};
use crate::pt2pt::CTX_COLL;
use crate::runtime::Mpi;
use crate::stats::CallClass;

/// A communicator: an ordered group of world ranks plus a context id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comm {
    ctx: u32,
    ranks: Vec<usize>,
}

impl Comm {
    /// Assemble a communicator from an agreed context id and member list
    /// (used by `comm_split` and the fault-tolerance `shrink` path, which
    /// derive both fields from an agreement protocol).
    pub(crate) fn from_parts(ctx: u32, ranks: Vec<usize>) -> Comm {
        Comm { ctx, ranks }
    }

    /// The communicator's context id.
    pub fn ctx(&self) -> u32 {
        self.ctx
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The world ranks in communicator order.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Translate a communicator rank to a world rank.
    pub fn world_rank(&self, comm_rank: usize) -> usize {
        self.ranks[comm_rank]
    }

    /// Translate a world rank to its communicator rank, if a member.
    pub fn comm_rank_of(&self, world_rank: usize) -> Option<usize> {
        self.ranks.iter().position(|&r| r == world_rank)
    }
}

/// Internal op-id space for communicator collectives (kept clear of the
/// world collectives' ids; contexts already isolate them, this is for
/// debuggability).
pub(crate) mod cop {
    pub const SPLIT: u32 = 32;
    pub const BARRIER: u32 = 33;
    pub const BCAST: u32 = 34;
    pub const REDUCE: u32 = 35;
    pub const ALLREDUCE: u32 = 36;
    pub const GATHER: u32 = 37;
}

impl Mpi {
    /// The communicator containing every rank (≈ `MPI_COMM_WORLD`).
    pub fn comm_world(&self) -> Comm {
        Comm {
            ctx: CTX_COLL,
            ranks: (0..self.n).collect(),
        }
    }

    /// Collectively split `parent` into sub-communicators by `color`;
    /// `key` (then world rank) orders ranks inside each new group
    /// (≈ `MPI_Comm_split`). Every member of `parent` must call this.
    pub fn comm_split(&mut self, parent: &Comm, color: u64, key: u64) -> Comm {
        let t0 = self.enter();
        // Agree on a fresh context id: the maximum of the members'
        // counters. Context ids only need to be unique among communicators
        // that share a member, which this guarantees (each member bumps
        // its counter past the agreed id).
        let agreed = self.allreduce_inner_ctx(
            &[self.next_ctx as u64],
            ReduceOp::Max,
            parent.ranks(),
            cop::SPLIT,
            parent.ctx(),
        )[0] as u32;
        self.next_ctx = agreed + 1;
        // Exchange (color, key, world rank) across the parent.
        let mine = [color, key, self.rank as u64];
        let all = self
            .try_allgather_list(&mine, parent.ranks(), cop::SPLIT + 16, parent.ctx())
            .unwrap_or_else(|e| panic!("comm_split failed: {e}"));
        let mut members: Vec<(u64, u64, usize)> = all
            .chunks_exact(3)
            .filter(|c| c[0] == color)
            .map(|c| (c[1], c[2], c[2] as usize))
            .collect();
        members.sort_by_key(|&(k, wr, _)| (k, wr));
        let ranks: Vec<usize> = members.into_iter().map(|(_, _, r)| r).collect();
        // Remember the membership so failure checks and revocation floods
        // know who participates in this context.
        self.ctx_members
            .insert(agreed, std::sync::Arc::new(ranks.clone()));
        self.exit(CallClass::Collective, t0);
        Comm { ctx: agreed, ranks }
    }

    /// Barrier over a communicator.
    pub fn barrier_comm(&mut self, comm: &Comm) {
        let t0 = self.enter();
        self.barrier_inner_ctx(comm.ranks(), cop::BARRIER, comm.ctx());
        self.exit(CallClass::Collective, t0);
    }

    /// Broadcast over a communicator from communicator-rank `root`.
    pub fn bcast_comm<T: MpiData>(&mut self, comm: &Comm, buf: &mut [T], root: usize) {
        let t0 = self.enter();
        let seed = (self.rank == comm.world_rank(root)).then(|| to_bytes(buf));
        let out = self.bcast_inner_ctx(seed, comm.ranks(), root, cop::BCAST, comm.ctx());
        if self.rank != comm.world_rank(root) {
            from_bytes(&out, buf);
        }
        self.exit(CallClass::Collective, t0);
    }

    /// Reduce over a communicator to communicator-rank `root`.
    pub fn reduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Option<Vec<T>> {
        let t0 = self.enter();
        let acc = self.reduce_inner_ctx(data, rop, comm.ranks(), root, cop::REDUCE, comm.ctx());
        self.exit(CallClass::Collective, t0);
        (self.rank == comm.world_rank(root)).then_some(acc)
    }

    /// Allreduce over a communicator.
    pub fn allreduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
    ) -> Vec<T> {
        let t0 = self.enter();
        let out = self.allreduce_inner_ctx(data, rop, comm.ranks(), cop::ALLREDUCE, comm.ctx());
        self.exit(CallClass::Collective, t0);
        out
    }

    /// Allgather over a communicator (communicator-rank order).
    pub fn allgather_comm<T: MpiData>(&mut self, comm: &Comm, data: &[T]) -> Vec<T> {
        let t0 = self.enter();
        let out = self.try_allgather_list(data, comm.ranks(), cop::GATHER, comm.ctx());
        self.exit(CallClass::Collective, t0);
        out.unwrap_or_else(|e| panic!("allgather failed: {e}"))
    }
}
