//! ULFM-style recovery: [`Mpi::revoke`], [`Mpi::try_shrink`] and the
//! fault-tolerant communicator point-to-point exchange. (The `try_X_comm`
//! collectives sit in [`crate::comm`]: each runs the body of its world
//! entry over the communicator's scope.)
//!
//! The recovery protocol mirrors User-Level Failure Mitigation as
//! MVAPICH2/Open MPI implement it:
//!
//! 1. any operation touching a convicted rank (or a revoked context)
//!    completes with [`MpiError::ProcessFailed`] / [`MpiError::Revoked`];
//! 2. a survivor calls [`Mpi::revoke`], pushing one revocation notice
//!    into every other member's mailbox (receivers forward nothing; see
//!    `Mpi::revoke_ctx` for why none needs to) so *every* member fails
//!    fast instead of deadlocking on the dead rank;
//! 3. every survivor calls [`Mpi::try_shrink`], which agrees on the dead
//!    set and produces the survivor communicator.
//!
//! **Callers must revoke before shrinking** (the standard ULFM
//! discipline): without the revocation, members still blocked inside a
//! collective over the broken communicator may never reach `try_shrink`.
//!
//! Agreement runs as a binomial-tree reduction of the dead-set bitmask
//! over the locally-believed survivor list, on the dedicated — and never
//! revocable — [`CTX_FT`] context. It tolerates failures *during*
//! agreement: every blocking step watches the detector epoch and restarts
//! the attempt when a new death lands, and the committed outcome is a
//! write-once [`Decision`] keyed by `(parent ctx, shrink generation)`, so
//! racing attempts (including two ranks that both believe they are the
//! tree root) converge on one answer. A decision may still miss deaths
//! that land after its epoch — then the next operation on the shrunk
//! communicator errors and the caller shrinks again at generation + 1,
//! exactly like iterated `MPI_Comm_shrink`. Stale messages from aborted
//! attempts carry attempt-distinct tags (epoch and tree level are packed
//! into the round field) and rot harmlessly in the unexpected buckets,
//! bounded by deaths × tree depth.
//!
//! Two non-goals, both deliberate: context ids of shrunk communicators
//! are *not* run-deterministic (they come from a shared allocator raced
//! by redundant commits — assert membership and results, never ctx
//! values), and the shrunk communicator's collectives run flat: its
//! topology (the world's restricted to the survivors, each mapped to its
//! survivor position) is kept in its table entry, exposed via
//! [`Mpi::comm_groups`], but left out of its scope.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;

use crate::collectives::{op, plain, tag};
use crate::comm::{Comm, CommEntry};
use crate::datatype::{ReduceOp, Reducible};
use crate::error::MpiError;
use crate::failure::Decision;
use crate::obs::{Detail, Incident};
use crate::pt2pt::{Completion, Status, CTX_FT};
use crate::requests::{Req, Slot};
use crate::runtime::Mpi;
use crate::stats::CallClass;

/// Base op id of agreement tags: the 256 ids from here up (the shrink
/// generation is folded in mod 256 so consecutive generations never
/// cross-match) lie above the collective id table.
const AGREE_OP_BASE: u32 = 2048;
const _: () = assert!(AGREE_OP_BASE >= op::END);

/// Pack an agreement attempt's identity into the 20-bit tag round field:
/// detector epoch (mod 2^14) in the high bits, tree level (< 64) in the
/// low bits — messages from an aborted attempt can never match a later
/// one.
fn agree_round(epoch: u64, level: u32) -> u32 {
    (((epoch % (1 << 14)) as u32) << 6) | level
}

/// Outcome of one abortable agreement step.
enum AgreeStep {
    /// The transfer completed (payload for receives, empty for sends).
    Data(Bytes),
    /// Another attempt already committed the decision for this key.
    Decided(Arc<Decision>),
    /// The detector epoch moved: a death landed mid-agreement, restart.
    Restart,
}

impl Mpi {
    // ---- revoke -------------------------------------------------------------

    /// Revoke `comm` (≈ `MPI_Comm_revoke`): after this, every pending and
    /// future operation on it — at every member, once this rank's notice
    /// reaches them — completes with [`MpiError::Revoked`]. Idempotent
    /// and purely local plus one notice per member: no agreement,
    /// callable from any member.
    pub fn revoke(&mut self, comm: &Comm) {
        let revoked = self.pt2pt(false, |mpi| {
            mpi.revoke_ctx(comm.ctx());
            Ok(())
        });
        plain("revoke", revoked)
    }

    /// Whether `comm` has been revoked (locally observed).
    pub fn is_revoked(&self, comm: &Comm) -> bool {
        self.revoked.contains(&comm.ctx())
    }

    // ---- shrink -------------------------------------------------------------

    /// Agree on the dead set and build the survivor communicator
    /// (≈ `MPI_Comm_shrink`). Blocking and collective over the survivors
    /// of `comm`; returns the same membership at every survivor. Errors
    /// only if the *calling* rank is scripted to die during the call.
    pub fn try_shrink(&mut self, comm: &Comm) -> Result<Comm, MpiError> {
        let t0 = self.ft_enter()?;
        let out = self.try_shrink_inner(comm);
        self.exit_named(CallClass::Collective, t0, "shrink");
        out
    }

    fn try_shrink_inner(&mut self, comm: &Comm) -> Result<Comm, MpiError> {
        let parent = comm.ctx();
        let gen = self.shrink_gen.get(&parent).copied().unwrap_or(0);
        let key = (parent, gen);
        'attempt: loop {
            if let Some(d) = self.state.decisions.get(key) {
                return Ok(self.adopt_decision(comm, gen, &d));
            }
            // The dead set and the epoch it is current for, read from the
            // down table together.
            let (epoch, all_dead) = self.state.detector.snapshot();
            for d in &all_dead {
                if comm.ranks().contains(&d.rank) {
                    self.convict(*d);
                }
            }
            let dead_ranks: Vec<usize> = all_dead.iter().map(|d| d.rank).collect();
            let survivors: Vec<usize> = comm
                .ranks()
                .iter()
                .copied()
                .filter(|r| !dead_ranks.contains(r))
                .collect();
            let s = survivors.len();
            let me = survivors
                .iter()
                .position(|&r| r == self.rank)
                .expect("shrinking rank is not a survivor of its own communicator");
            let op_id = AGREE_OP_BASE + (gen % 256) as u32;
            let mut acc = vec![0u8; self.n.div_ceil(8)];
            for &r in &dead_ranks {
                acc[r / 8] |= 1 << (r % 8);
            }
            // Binomial-tree reduction of the mask to position 0 of the
            // survivor list.
            let mut mask = 1usize;
            let mut level = 0u32;
            while mask < s {
                let t = tag(op_id, agree_round(epoch, level));
                if me & mask == 0 {
                    let child = me | mask;
                    if child < s {
                        let id = self.irecv_inner(Some(survivors[child]), Some(t), CTX_FT);
                        match self.agree_step(Req::Slot(id), key, epoch) {
                            AgreeStep::Data(b) => {
                                for (a, byte) in acc.iter_mut().zip(b.iter()) {
                                    *a |= byte;
                                }
                            }
                            AgreeStep::Decided(d) => return Ok(self.adopt_decision(comm, gen, &d)),
                            AgreeStep::Restart => continue 'attempt,
                        }
                    }
                } else {
                    let parent_pos = me ^ mask;
                    let up = Bytes::copy_from_slice(&acc);
                    let id = self.isend_inner(up, survivors[parent_pos], t, CTX_FT);
                    match self.agree_step(id, key, epoch) {
                        AgreeStep::Data(_) => {}
                        AgreeStep::Decided(d) => return Ok(self.adopt_decision(comm, gen, &d)),
                        AgreeStep::Restart => continue 'attempt,
                    }
                    break;
                }
                mask <<= 1;
                level += 1;
            }
            if me == 0 {
                // Root: commit the union (write-once — a racing root's
                // earlier commit wins and is returned instead).
                let dead: Vec<usize> = (0..self.n)
                    .filter(|&r| acc[r / 8] & (1 << (r % 8)) != 0)
                    .collect();
                let new_ctx = self.state.ft_ctx.fetch_add(1, Ordering::SeqCst);
                let d = self.state.decisions.commit(
                    key,
                    Decision {
                        dead,
                        new_ctx,
                        at: self.now,
                    },
                );
                // Wake every blocked survivor so they observe the log.
                self.state.poke_all();
                return Ok(self.adopt_decision(comm, gen, &d));
            }
            // Non-root: the decision arrives through the write-once log
            // (not a down-tree broadcast — the log survives any subset of
            // ranks dying after commit).
            loop {
                self.progress();
                if let Some(d) = self.state.decisions.get(key) {
                    return Ok(self.adopt_decision(comm, gen, &d));
                }
                if self.state.detector.epoch() != epoch {
                    continue 'attempt;
                }
                self.sleep_if_idle();
            }
        }
    }

    /// Apply a committed shrink decision: bump the generation, adopt the
    /// decision's timestamp, derive the survivor communicator and its
    /// locality/selector topology.
    fn adopt_decision(&mut self, comm: &Comm, gen: u64, d: &Decision) -> Comm {
        self.shrink_gen.insert(comm.ctx(), gen + 1);
        self.now = self.now.max(d.at);
        let alive = |r: &&usize| !d.dead.contains(r);
        let survivors: Arc<Vec<usize>> =
            Arc::new(comm.ranks().iter().filter(alive).copied().collect());
        // The survivors before this rank in communicator order.
        let me = comm.ranks()[..comm.me].iter().filter(alive).count();
        let topo = self.world_topo().restricted(&survivors);
        let entry = CommEntry {
            members: Arc::clone(&survivors),
            topo: Arc::new(topo),
        };
        self.comms.insert(d.new_ctx, entry);
        let detail = Detail {
            a: d.new_ctx as u64,
            b: survivors.len() as u64,
            ..Detail::default()
        };
        self.obs
            .incident(Incident::SHRINK, self.now, None, detail, 1);
        Comm::from_parts(d.new_ctx, survivors, me)
    }

    /// The locality groups of `comm`'s members: re-derived over the
    /// survivors for a shrink-produced communicator, the policy groups for
    /// the world, `None` for a context this rank never registered.
    pub fn comm_groups(&self, comm: &Comm) -> Option<Vec<Vec<usize>>> {
        Some(self.comms.get(&comm.ctx())?.topo.groups())
    }

    /// Whether the collective selector sized to `comm`'s groups would
    /// schedule hierarchically (`None` where [`Mpi::comm_groups`] is).
    pub fn comm_hierarchical(&self, comm: &Comm) -> Option<bool> {
        Some(self.comms.get(&comm.ctx())?.topo.selector().hierarchical())
    }

    // ---- abortable agreement steps ------------------------------------------

    /// Run one agreement transfer — a posted receive or a started send —
    /// to an outcome, abandoning it if a decision or a fresh death
    /// preempts it. The peer is a believed survivor, but it may never
    /// answer (it adopted a decision or restarted on a newer epoch) —
    /// hence the watchful loop instead of a plain wait. A send carries a
    /// few mask bytes, so on SHM/HCA it completes locally; only a CMA
    /// (rendezvous-only) route can park it on the receiver, and that
    /// receiver is inside the same watchful protocol.
    fn agree_step(&mut self, req: Req, key: (u32, u64), epoch: u64) -> AgreeStep {
        let t_enter = self.now;
        loop {
            self.progress();
            // A finished transfer counts even if the attempt is preempted.
            if let Req::Slot(id) = req {
                if !self.reqs.get(id).is_some_and(Slot::is_done) {
                    let moved = self.state.detector.epoch() != epoch;
                    let decided = self.state.decisions.get(key).map(AgreeStep::Decided);
                    if let Some(step) = decided.or(moved.then_some(AgreeStep::Restart)) {
                        self.cancel(id);
                        return step;
                    }
                }
            }
            match self.try_complete(req, t_enter) {
                Ok(Some(Completion::Recv(data, _))) => return AgreeStep::Data(data),
                Ok(Some(Completion::Send)) => return AgreeStep::Data(Bytes::new()),
                Ok(None) => self.sleep_if_idle(),
                // The peer died after this attempt's snapshot: a fresh
                // death like any other.
                Err(_) => return AgreeStep::Restart,
            }
        }
    }

    // ---- fault-tolerant communicator point-to-point -------------------------

    /// Fault-tolerant pairwise exchange on `comm` (communicator ranks).
    /// User tags on a communicator must stay below `1 << 20` (the space
    /// above is reserved for the library's internal collective tags). The
    /// returned status carries *world* ranks.
    pub fn try_sendrecv_comm(
        &mut self,
        comm: &Comm,
        data: Bytes,
        dst: usize,
        stag: u32,
        src: usize,
        rtag: u32,
    ) -> Result<(Bytes, Status), MpiError> {
        assert!(
            stag < 1 << 20 && rtag < 1 << 20,
            "communicator user tag out of range"
        );
        self.pt2pt(true, |mpi| {
            let to = (comm.world_rank(dst), stag);
            let from = (Some(comm.world_rank(src)), Some(rtag));
            mpi.sendrecv_inner(data, to, from, comm.ctx())
        })
    }

    /// Fault-tolerant typed allreduce convenience used by recovery loops:
    /// reduce a single value over the communicator.
    pub fn try_allreduce_one<T: Reducible>(
        &mut self,
        comm: &Comm,
        value: T,
        rop: ReduceOp,
    ) -> Result<T, MpiError> {
        Ok(self.try_allreduce_comm(comm, &[value], rop)?[0])
    }
}
