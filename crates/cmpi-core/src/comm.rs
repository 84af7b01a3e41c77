//! Communicators: the world and the survivor communicators
//! [`Mpi::try_shrink`] builds, and the per-context table every rank keeps
//! about the ones it belongs to.
//!
//! A communicator's collectives are the world's bodies run over its
//! [`Scope`]: its ranks, the holder's position among them (found once,
//! when the communicator is made) and its context id. They exist for
//! ULFM recovery (DESIGN §10), so only the fault-tolerant barrier and
//! allreduce have communicator entries; `try_X_comm` calls the same
//! `X_in` body as the world's `X`, entering the bracket
//! ([`Mpi::try_collective`]) the fault-tolerant way. The scope carries no
//! topology, so every call records `(kind, Flat)`.

use std::sync::Arc;

use crate::collectives::{Scope, SmpTopo};
use crate::datatype::{ReduceOp, Reducible};
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
    /// leaves it out).
    pub(crate) topo: Arc<SmpTopo>,
}

impl Comm {
    /// Assemble a communicator from an agreed context id, member list and
    /// the holder's position in it (used by `comm_world` and the
    /// fault-tolerance `shrink` path, which derives the fields from an
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

    /// Fault-tolerant barrier over a communicator.
    pub fn try_barrier_comm(&mut self, comm: &Comm) -> Result<(), MpiError> {
        self.barrier_in(true, &comm.scope())
    }

    /// Fault-tolerant allreduce over a communicator.
    pub fn try_allreduce_comm<T: Reducible>(
        &mut self,
        comm: &Comm,
        data: &[T],
        rop: ReduceOp,
    ) -> Result<Vec<T>, MpiError> {
        self.allreduce_in(true, &comm.scope(), data, rop)
    }
}
