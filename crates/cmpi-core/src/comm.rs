//! Communicators: the world and the survivor communicators
//! [`Mpi::try_shrink`] builds. A communicator is its context id and its
//! member list, world ranks ascending; a rank's table of the ones it
//! belongs to (`Mpi::comms`) maps each shrunk context to that list.
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

use crate::collectives::Scope;
use crate::datatype::{ReduceOp, Reducible};
use crate::error::MpiError;
use crate::runtime::Mpi;

/// A communicator: an ascending group of world ranks plus a context id, as
/// one of its members holds it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comm {
    ctx: u32,
    ranks: Arc<Vec<usize>>,
    /// The holder's position in `ranks`.
    pub(crate) me: usize,
}

impl Comm {
    /// Assemble a communicator from an agreed context id, member list and
    /// the holder's position in it (used by `comm_world` and the
    /// fault-tolerance `shrink` path, which derives the fields from an
    /// agreement protocol). The members ascend: shrink and
    /// [`Comm::comm_rank_of`] binary-search them.
    pub(crate) fn from_parts(ctx: u32, ranks: Arc<Vec<usize>>, me: usize) -> Comm {
        debug_assert!(
            ranks.windows(2).all(|w| w[0] < w[1]),
            "communicator members must ascend"
        );
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
        self.ranks.binary_search(&world_rank).ok()
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
