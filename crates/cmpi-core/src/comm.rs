//! Communicators: sub-groups of ranks with their own context id, created
//! collectively with [`Mpi::comm_split`] (≈ `MPI_Comm_split`), and the
//! per-context table every rank keeps about the ones it belongs to.
//!
//! Collectives over a communicator run the list algorithms of
//! [`crate::collectives`] on the communicator's rank list, and their
//! traffic is isolated by the communicator's context id so concurrent
//! collectives on disjoint communicators can never cross-match. Each
//! comes as a plain entry (`X_comm`, a failure ends the rank) and a
//! fault-tolerant one (`try_X_comm`, a failure is the caller's to
//! handle); the two share one body and differ only in how the bracket
//! ([`Mpi::try_collective`]) is entered and left.

use std::sync::Arc;

use crate::coll_select::CollKind;
use crate::collectives::{op, Call, SmpTopo};
use crate::datatype::{from_bytes, to_bytes, MpiData, ReduceOp, Reducible};
use crate::error::MpiError;
use crate::pt2pt::CTX_COLL;
use crate::runtime::Mpi;

/// A communicator: an ordered group of world ranks plus a context id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comm {
    ctx: u32,
    ranks: Arc<Vec<usize>>,
}

/// What a rank knows about one communicator context it belongs to — one
/// entry of `Mpi::comms`. The world is a communicator like any other: its
/// entry (under both of its context ids) shares the job-wide member list
/// and topology.
#[derive(Clone)]
pub(crate) struct CommEntry {
    /// World ranks in communicator order: who a wildcard receive depends
    /// on and whom a revocation floods.
    pub(crate) members: Arc<Vec<usize>>,
    /// The members' locality groups with the selector sized to them: the
    /// job's topology for the world, the survivor topology `try_shrink`
    /// derives for a shrunk communicator, `None` for a split-produced one
    /// (nothing derives its groups). Only the world's selector picks
    /// algorithms; communicator collectives run flat, and a shrunk
    /// communicator's topology is a reported fact ([`Mpi::comm_groups`]).
    pub(crate) topo: Option<Arc<SmpTopo>>,
}

impl Comm {
    /// Assemble a communicator from an agreed context id and member list
    /// (used by `comm_split` and the fault-tolerance `shrink` path, which
    /// derive both fields from an agreement protocol).
    pub(crate) fn from_parts(ctx: u32, ranks: Arc<Vec<usize>>) -> Comm {
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

impl Mpi {
    /// The communicator containing every rank (≈ `MPI_COMM_WORLD`).
    pub fn comm_world(&self) -> Comm {
        Comm::from_parts(CTX_COLL, self.world_ranks())
    }

    /// Collectively split `parent` into sub-communicators by `color`;
    /// `key` (then world rank) orders ranks inside each new group
    /// (≈ `MPI_Comm_split`). Every member of `parent` must call this.
    pub fn comm_split(&mut self, parent: &Comm, color: u64, key: u64) -> Comm {
        self.collective(Call::Fixed("comm_split"), |mpi, _| {
            // Agree on a fresh context id: the maximum of the members'
            // counters. Context ids only need to be unique among
            // communicators that share a member, which this guarantees
            // (each member bumps its counter past the agreed id).
            let agreed = mpi.allreduce_list(
                &[mpi.next_ctx as u64],
                ReduceOp::Max,
                parent.ranks(),
                op::COMM_SPLIT,
                parent.ctx(),
            )?[0] as u32;
            mpi.next_ctx = agreed + 1;
            // Exchange (color, key, world rank) across the parent.
            let mine = [color, key, mpi.rank as u64];
            let all =
                mpi.allgather_list(&mine, parent.ranks(), op::COMM_SPLIT_GATHER, parent.ctx())?;
            let mut members: Vec<(u64, u64, usize)> = all
                .chunks_exact(3)
                .filter(|c| c[0] == color)
                .map(|c| (c[1], c[2], c[2] as usize))
                .collect();
            members.sort_by_key(|&(k, wr, _)| (k, wr));
            let ranks = Arc::new(members.into_iter().map(|(_, _, r)| r).collect());
            // Remember the membership so failure checks and revocation
            // floods know who participates in this context.
            let entry = CommEntry {
                members: Arc::clone(&ranks),
                topo: None,
            };
            mpi.comms.insert(agreed, entry);
            Ok(Comm::from_parts(agreed, ranks))
        })
    }

    // ---- communicator collectives: one body, a plain and a `try_` entry -------

    /// Barrier over a communicator.
    pub fn barrier_comm(&mut self, comm: &Comm) {
        self.collective(Call::Flat(CollKind::Barrier), |mpi, _| {
            mpi.barrier_list(comm.ranks(), op::COMM_BARRIER, comm.ctx())
        })
    }

    /// Fault-tolerant [`Mpi::barrier_comm`].
    pub fn try_barrier_comm(&mut self, comm: &Comm) -> Result<(), MpiError> {
        self.try_collective(true, Call::Flat(CollKind::Barrier), |mpi, _| {
            mpi.barrier_list(comm.ranks(), op::COMM_BARRIER, comm.ctx())
        })
    }

    fn bcast_comm_body<T: MpiData>(
        &mut self,
        comm: &Comm,
        buf: &mut [T],
        root: usize,
    ) -> Result<(), MpiError> {
        let at_root = self.rank == comm.world_rank(root);
        let seed = at_root.then(|| to_bytes(buf));
        let out = self.bcast_list(seed, comm.ranks(), root, op::COMM_BCAST, comm.ctx())?;
        if !at_root {
            from_bytes(&out, buf);
        }
        Ok(())
    }

    /// Broadcast over a communicator from communicator-rank `root`.
    pub fn bcast_comm<T: MpiData>(&mut self, comm: &Comm, buf: &mut [T], root: usize) {
        self.collective(Call::Flat(CollKind::Bcast), |mpi, _| {
            mpi.bcast_comm_body(comm, buf, root)
        })
    }

    /// Fault-tolerant [`Mpi::bcast_comm`].
    pub fn try_bcast_comm<T: MpiData>(
        &mut self,
        comm: &Comm,
        buf: &mut [T],
        root: usize,
    ) -> Result<(), MpiError> {
        self.try_collective(true, Call::Flat(CollKind::Bcast), |mpi, _| {
            mpi.bcast_comm_body(comm, buf, root)
        })
    }

    fn reduce_comm_body<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Result<Option<Vec<T>>, MpiError> {
        let acc = self.reduce_list(data, rop, comm.ranks(), root, op::COMM_REDUCE, comm.ctx())?;
        Ok((self.rank == comm.world_rank(root)).then_some(acc))
    }

    /// Reduce over a communicator to communicator-rank `root`.
    pub fn reduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Option<Vec<T>> {
        self.collective(Call::Flat(CollKind::Reduce), |mpi, _| {
            mpi.reduce_comm_body(comm, data, rop, root)
        })
    }

    /// Fault-tolerant [`Mpi::reduce_comm`].
    pub fn try_reduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Result<Option<Vec<T>>, MpiError> {
        self.try_collective(true, Call::Flat(CollKind::Reduce), |mpi, _| {
            mpi.reduce_comm_body(comm, data, rop, root)
        })
    }

    /// Allreduce over a communicator.
    pub fn allreduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
    ) -> Vec<T> {
        self.collective(Call::Flat(CollKind::Allreduce), |mpi, _| {
            mpi.allreduce_list(data, rop, comm.ranks(), op::COMM_ALLREDUCE, comm.ctx())
        })
    }

    /// Fault-tolerant [`Mpi::allreduce_comm`].
    pub fn try_allreduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
    ) -> Result<Vec<T>, MpiError> {
        self.try_collective(true, Call::Flat(CollKind::Allreduce), |mpi, _| {
            mpi.allreduce_list(data, rop, comm.ranks(), op::COMM_ALLREDUCE, comm.ctx())
        })
    }

    /// Allgather over a communicator (communicator-rank order).
    pub fn allgather_comm<T: MpiData>(&mut self, comm: &Comm, data: &[T]) -> Vec<T> {
        self.collective(Call::Flat(CollKind::Allgather), |mpi, _| {
            mpi.allgather_list(data, comm.ranks(), op::COMM_ALLGATHER, comm.ctx())
        })
    }

    /// Fault-tolerant [`Mpi::allgather_comm`].
    pub fn try_allgather_comm<T: MpiData>(
        &mut self,
        comm: &Comm,
        data: &[T],
    ) -> Result<Vec<T>, MpiError> {
        self.try_collective(true, Call::Flat(CollKind::Allgather), |mpi, _| {
            mpi.allgather_list(data, comm.ranks(), op::COMM_ALLGATHER, comm.ctx())
        })
    }
}
