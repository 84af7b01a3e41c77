//! Communicators: sub-groups of ranks with their own context id, created
//! collectively with [`Mpi::comm_split`] (≈ `MPI_Comm_split`), and the
//! per-context table every rank keeps about the ones it belongs to.
//!
//! A communicator's collectives are the world's bodies run over its
//! [`Scope`]: its ranks, the holder's position among them (found once,
//! when the communicator is made) and its context id, which keeps
//! concurrent collectives on disjoint communicators apart. `X_comm` and
//! `try_X_comm` both call `X_in` and differ only in how they enter and
//! leave the bracket ([`Mpi::try_collective`]). The scope carries no
//! topology, so every call records `(kind, Flat)`.

use std::sync::Arc;

use crate::collectives::{op, plain, Call, Scope, SmpTopo};
use crate::datatype::{MpiData, ReduceOp, Reducible};
use crate::error::MpiError;
use crate::runtime::Mpi;

/// A communicator: an ordered group of world ranks plus a context id, as
/// one of its members holds it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comm {
    ctx: u32,
    ranks: Arc<Vec<usize>>,
    /// The holder's position in `ranks`.
    pub(crate) me: usize,
}

/// What a rank knows about one communicator context it belongs to — one
/// entry of `Mpi::comms`. The world is a communicator like any other: its
/// entry (under both of its context ids) shares the job-wide member list
/// and topology.
#[derive(Clone)]
pub(crate) struct CommEntry {
    /// World ranks in communicator order: who a wildcard receive depends
    /// on and whom a revocation notifies.
    pub(crate) members: Arc<Vec<usize>>,
    /// The members' locality groups with the selector sized to them: the
    /// job's topology for the world, the survivors' for a shrunk
    /// communicator (a reported fact, [`Mpi::comm_groups`]: its scope
    /// leaves it out), `None` for a split-produced one.
    pub(crate) topo: Option<Arc<SmpTopo>>,
}

impl Comm {
    /// Assemble a communicator from an agreed context id, member list and
    /// the holder's position in it (used by `comm_world`, `comm_split` and
    /// the fault-tolerance `shrink` path, which derive the fields from an
    /// agreement protocol).
    pub(crate) fn from_parts(ctx: u32, ranks: Arc<Vec<usize>>, me: usize) -> Comm {
        Comm { ctx, ranks, me }
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

    /// Where this communicator's collectives run: its ranks, the holder's
    /// position, its context and no topology (they run flat).
    pub(crate) fn scope(&self) -> Scope {
        Scope {
            ranks: Arc::clone(&self.ranks),
            me: self.me,
            ctx: self.ctx,
            topo: None,
        }
    }
}

impl Mpi {
    /// The communicator containing every rank (≈ `MPI_COMM_WORLD`).
    pub fn comm_world(&self) -> Comm {
        let world = self.world_scope();
        Comm::from_parts(world.ctx, world.ranks, world.me)
    }

    /// Collectively split `parent` into sub-communicators by `color`;
    /// `key` (then world rank) orders ranks inside each new group
    /// (≈ `MPI_Comm_split`). Every member of `parent` must call this.
    pub fn comm_split(&mut self, parent: &Comm, color: u64, key: u64) -> Comm {
        let scope = parent.scope();
        self.collective(&scope, Call::Fixed("comm_split"), |mpi, _| {
            // Agree on a fresh context id: the maximum of the members'
            // counters. Context ids only need to be unique among
            // communicators that share a member, which this guarantees
            // (each member bumps its counter past the agreed id).
            let counter = [mpi.next_ctx as u64];
            let agreed = mpi.allreduce_list(&counter, ReduceOp::Max, &scope, op::COMM_SPLIT)?[0];
            let agreed = agreed as u32;
            mpi.next_ctx = agreed + 1;
            // Exchange (color, key, world rank) across the parent.
            let mine = [color, key, mpi.rank as u64];
            let all = mpi.allgather_list(&mine, &scope, op::COMM_SPLIT_GATHER)?;
            let mut members: Vec<(u64, u64)> = all
                .chunks_exact(3)
                .filter(|c| c[0] == color)
                .map(|c| (c[1], c[2]))
                .collect();
            members.sort_unstable();
            let me = members
                .binary_search(&(key, mpi.rank as u64))
                .expect("a splitting rank is in its own color");
            let ranks = Arc::new(members.into_iter().map(|(_, r)| r as usize).collect());
            // Remember the membership so failure checks and revocation
            // notices know who participates in this context.
            let entry = CommEntry {
                members: Arc::clone(&ranks),
                topo: None,
            };
            mpi.comms.insert(agreed, entry);
            Ok(Comm::from_parts(agreed, ranks, me))
        })
    }

    // ---- communicator collectives: one body, a plain and a `try_` entry -------

    /// Barrier over a communicator.
    pub fn barrier_comm(&mut self, comm: &Comm) {
        plain("barrier", self.barrier_in(false, &comm.scope()))
    }

    /// Fault-tolerant [`Mpi::barrier_comm`].
    pub fn try_barrier_comm(&mut self, comm: &Comm) -> Result<(), MpiError> {
        self.barrier_in(true, &comm.scope())
    }

    /// Broadcast over a communicator from communicator-rank `root`.
    pub fn bcast_comm<T: MpiData>(&mut self, comm: &Comm, buf: &mut [T], root: usize) {
        plain("bcast", self.bcast_in(false, &comm.scope(), buf, root))
    }

    /// Fault-tolerant [`Mpi::bcast_comm`].
    pub fn try_bcast_comm<T: MpiData>(
        &mut self,
        comm: &Comm,
        buf: &mut [T],
        root: usize,
    ) -> Result<(), MpiError> {
        self.bcast_in(true, &comm.scope(), buf, root)
    }

    /// Reduce over a communicator to communicator-rank `root`.
    pub fn reduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Option<Vec<T>> {
        let scope = comm.scope();
        plain("reduce", self.reduce_in(false, &scope, data, rop, root))
    }

    /// Fault-tolerant [`Mpi::reduce_comm`].
    pub fn try_reduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Result<Option<Vec<T>>, MpiError> {
        self.reduce_in(true, &comm.scope(), data, rop, root)
    }

    /// Allreduce over a communicator.
    pub fn allreduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
    ) -> Vec<T> {
        let scope = comm.scope();
        plain("allreduce", self.allreduce_in(false, &scope, data, rop))
    }

    /// Fault-tolerant [`Mpi::allreduce_comm`].
    pub fn try_allreduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
    ) -> Result<Vec<T>, MpiError> {
        self.allreduce_in(true, &comm.scope(), data, rop)
    }

    /// Allgather over a communicator (communicator-rank order).
    pub fn allgather_comm<T: MpiData>(&mut self, comm: &Comm, data: &[T]) -> Vec<T> {
        plain("allgather", self.allgather_in(false, &comm.scope(), data))
    }

    /// Fault-tolerant [`Mpi::allgather_comm`].
    pub fn try_allgather_comm<T: MpiData>(
        &mut self,
        comm: &Comm,
        data: &[T],
    ) -> Result<Vec<T>, MpiError> {
        self.allgather_in(true, &comm.scope(), data)
    }
}
