//! Collective operations over the point-to-point engine.
//!
//! Algorithms follow the MVAPICH2/MPICH defaults the paper runs on:
//! dissemination barrier, binomial broadcast/reduce/gather/scatter,
//! recursive-doubling allreduce, ring allgather and pairwise alltoall.
//! Because every collective decomposes into pt2pt transfers, the
//! locality-aware channel selection benefits collectives exactly the way
//! Section V-C reports: the intra-host fraction of the traffic moves from
//! the HCA loopback to SHM/CMA.
//!
//! On top of the flat defaults the module holds a *two-level*
//! (SMP-aware) family that stages through per-group leaders (host-local
//! fan-in, inter-leader exchange, host-local fan-out). Nothing names an
//! algorithm from outside: every public entry goes through one bracket
//! ([`Mpi::try_collective`]) and the
//! [`crate::coll_select::CollectiveSelector`] is the only thing that
//! picks, so `ContainerDetector` jobs schedule hierarchically while the
//! `Hostname` ("Default") policy degenerates to the flat paths, and a
//! test or an ablation pins an algorithm the way a user would — policy
//! plus `Tunables`.
//!
//! Every algorithm returns `Result`: what a failure means is decided
//! once, by the entry (the plain API panics in [`plain`], the `try_` API
//! hands the error to the caller), not by a second copy of the algorithm.

use std::sync::Arc;

use bytes::Bytes;

use cmpi_cluster::Tunables;

use crate::coll_select::{coll_trace_name, CollAlgo, CollKind, CollectiveSelector};
use crate::datatype::{
    extend_from_bytes, from_bytes, reduce_bytes, reduce_from_bytes, to_bytes, vec_from_bytes,
    zeroed, MpiData, ReduceOp, Reducible,
};
use crate::error::MpiError;
use crate::frame::{frames_ok, FrameWriter, FRAME_HEADER};
use crate::locality::LocalityPolicy;
use crate::pt2pt::CTX_COLL;
use crate::runtime::{JobState, Mpi};
use crate::stats::CallClass;

/// Every op id the library bakes into an internal tag (high bits), in one
/// table so `cmpi-lint`'s `tag-width` rule sees all of them: distinct,
/// non-zero, inside the id field and below [`op::END`]. An algorithm that
/// needs two message classes names two ids or separates them in the round
/// field — never `id + 1`.
pub(crate) mod op {
    pub const BARRIER: u32 = 1;
    pub const BCAST: u32 = 2;
    pub const REDUCE: u32 = 3;
    pub const ALLREDUCE: u32 = 4;
    pub const GATHER: u32 = 5;
    pub const SCATTER: u32 = 6;
    pub const ALLGATHER: u32 = 7;
    pub const ALLTOALL: u32 = 8;
    pub const ALLTOALLV: u32 = 9;
    // Two-level bcast/allreduce phases (the ids the original SMP variants
    // shipped with; kept stable so traces stay comparable).
    pub const SMP_PHASE0: u32 = 10;
    pub const SMP_PHASE1: u32 = 11;
    pub const SMP_PHASE2: u32 = 12;
    // The barriers inside `win_allocate` and `fence`.
    pub const WIN_ALLOCATE: u32 = 13;
    pub const WIN_FENCE: u32 = 14;
    /// Root→leader shuttle for rooted two-level ops whose root is not its
    /// group's leader.
    pub const SMP_SHUTTLE: u32 = 15;
    pub const SMP_REDUCE0: u32 = 16;
    pub const SMP_REDUCE1: u32 = 17;
    pub const SMP_REDUCE2: u32 = 18;
    pub const SMP_GATHER0: u32 = 20;
    pub const SMP_GATHER1: u32 = 21;
    pub const SMP_GATHER2: u32 = 22;
    pub const SMP_AG0: u32 = 24;
    pub const SMP_AG1: u32 = 25;
    pub const SMP_AG2: u32 = 26;
    pub const SMP_AG3: u32 = 27;
    pub const SMP_BAR0: u32 = 28;
    pub const SMP_BAR1: u32 = 29;
    pub const SMP_BAR2: u32 = 30;
    pub const SMP_A2A0: u32 = 32;
    pub const SMP_A2A1: u32 = 33;
    pub const SMP_A2A2: u32 = 34;
    pub const SMP_A2A3: u32 = 35;
    pub const SCAN: u32 = 40;
    pub const EXSCAN: u32 = 41;
    pub const REDUCE_SCATTER: u32 = 42;
    pub const GATHERV: u32 = 44;
    pub const ALLGATHERV: u32 = 45;
    pub const RABENSEIFNER: u32 = 48;
    pub const SCATTER_ALLGATHER: u32 = 50;
    // Communicator collectives. `comm_world()` shares `CTX_COLL` with the
    // world collectives above, so the context id alone does not keep the
    // two families apart — distinct ids do.
    pub const COMM_SPLIT: u32 = 52;
    pub const COMM_SPLIT_GATHER: u32 = 53;
    pub const COMM_BARRIER: u32 = 54;
    pub const COMM_BCAST: u32 = 55;
    pub const COMM_REDUCE: u32 = 56;
    pub const COMM_ALLREDUCE: u32 = 57;
    pub const COMM_ALLGATHER: u32 = 58;
    /// One past the table: id spaces outside it (the agreement tags of
    /// `ft.rs`) start at or above this.
    pub const END: u32 = 64;
}

/// Width of the round field in an internal collective tag.
const TAG_ROUND_BITS: u32 = 20;

/// Pack a collective op id and round counter into one internal tag.
///
/// The round occupies the low [`TAG_ROUND_BITS`] bits; it is masked (and
/// bound-checked in debug builds) so an overflowing round can never
/// silently corrupt the op id and cross-match a different collective.
pub(crate) fn tag(op_id: u32, round: u32) -> u32 {
    debug_assert!(
        op_id < (1 << (32 - TAG_ROUND_BITS)),
        "collective op id {op_id} does not fit the tag"
    );
    debug_assert!(
        round < (1 << TAG_ROUND_BITS),
        "collective round {round} overflows the tag's round field"
    );
    (op_id << TAG_ROUND_BITS) | (round & ((1 << TAG_ROUND_BITS) - 1))
}

/// What a tree node sends up a binomial gather: its own block framed
/// under its rank, then the bundles its children sent, as they arrived.
/// Children arrive in ascending relative order and each bundle is itself
/// ascending, so the frames are in tree-relative order.
fn subtree_bundle<T: MpiData>(rank: usize, mine: &[T], children: &[Bytes]) -> Bytes {
    let forwarded: usize = children.iter().map(Bytes::len).sum();
    let mut w = FrameWriter::with_capacity(1, mine.len() * T::SIZE + forwarded);
    w.put(rank, mine);
    for bundle in children {
        w.append(bundle);
    }
    w.finish()
}

/// Decode every `(rank, block)` frame of `bundle` into its rank's slot of
/// the rank-ordered `all`.
fn place_blocks<T: MpiData>(bundle: &[u8], block: usize, all: &mut [T], what: &str) {
    for (r, part) in frames_ok(bundle, what) {
        from_bytes(part, &mut all[r * block..(r + 1) * block]);
    }
}

/// The locality groups `state.policy` induces over all `n` ranks: each
/// group sorted, groups ordered by smallest member. A pure function of
/// job-wide state, so every rank computes the same partition.
pub(crate) fn policy_groups_of(state: &JobState, n: usize) -> Vec<Vec<usize>> {
    let mut keyed: Vec<(String, usize)> = (0..n)
        .map(|r| {
            let loc = state.placement.loc(r);
            let cont = state.cluster.container(loc.container);
            let key = match state.policy {
                LocalityPolicy::Hostname => format!("h:{}:{}", loc.host, cont.hostname),
                _ => format!("d:{}:{}", loc.host, cont.ipc_ns.0),
            };
            (key, r)
        })
        .collect();
    keyed.sort();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut cur_key: Option<String> = None;
    for (k, r) in keyed {
        if cur_key.as_deref() == Some(k.as_str()) {
            groups.last_mut().unwrap().push(r);
        } else {
            cur_key = Some(k);
            groups.push(vec![r]);
        }
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort_by_key(|g| g[0]);
    groups
}

/// A communicator's two-level collective topology: its members' locality
/// groups, their leaders, a rank→group index, and the algorithm selector
/// sized to that shape. The world's instance serves every rank of the job
/// (see `JobState::smp_topo`), so every rank decides identically.
///
/// Leaders are *always* each group's smallest rank — one rule for every
/// phase of every collective, so two phases of one call can never
/// disagree about who the leader is. Rooted collectives whose root is not
/// its group's leader shuttle the payload between the two explicitly.
pub(crate) struct SmpTopo {
    groups: Vec<Vec<usize>>,
    leaders: Vec<usize>,
    /// Index into `groups` of each rank's group.
    group_idx: Vec<u32>,
    selector: CollectiveSelector,
}

impl SmpTopo {
    /// Index the locality groups: disjoint sets of ranks below `n`, each
    /// sorted ascending. The world's groups partition `0..n`; a shrunk
    /// communicator's leave its dead in no group.
    pub(crate) fn new(
        groups: Vec<Vec<usize>>,
        n: usize,
        policy: LocalityPolicy,
        tunables: Tunables,
    ) -> SmpTopo {
        let members = groups.iter().map(Vec::len).sum();
        let selector = CollectiveSelector::new(policy, tunables, &groups, members);
        let leaders = groups.iter().map(|g| g[0]).collect();
        let mut group_idx = vec![u32::MAX; n];
        for (gi, g) in groups.iter().enumerate() {
            for &r in g {
                group_idx[r] = gi as u32;
            }
        }
        SmpTopo {
            groups,
            leaders,
            group_idx,
            selector,
        }
    }

    /// The selector sized to these groups.
    pub(crate) fn selector(&self) -> &CollectiveSelector {
        &self.selector
    }

    /// The locality groups, ordered by smallest member.
    pub(crate) fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Position of `rank`'s group in `groups` (and of its leader in
    /// `leaders`).
    fn group_index(&self, rank: usize) -> usize {
        self.group_idx[rank] as usize
    }

    /// The members of `rank`'s group, ascending.
    fn group_of(&self, rank: usize) -> &[usize] {
        &self.groups[self.group_index(rank)]
    }

    fn leader_of(&self, rank: usize) -> usize {
        self.leaders[self.group_index(rank)]
    }
}

/// What the bracket needs to know about the call it wraps.
#[derive(Clone, Copy)]
pub(crate) enum Call {
    /// A world collective the selector schedules; the `usize` is the
    /// per-rank message size it selects on.
    Selected(CollKind, usize),
    /// A communicator collective: the flat list algorithm, always.
    Flat(CollKind),
    /// A collective with one algorithm and no row in the selection ledger.
    Fixed(&'static str),
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Selected(kind, _) | Call::Flat(kind) => kind.name(),
            Call::Fixed(name) => name,
        }
    }
}

/// The plain API's failure mode, in one place: a program that did not opt
/// into the `try_` calls cannot continue past a collective that lost a
/// member, so the error ends the rank under the operation's name.
pub(crate) fn plain<R>(what: &str, out: Result<R, MpiError>) -> R {
    out.unwrap_or_else(|e| panic!("{what} failed: {e}"))
}

impl Mpi {
    // ---- the call path ---------------------------------------------------------

    /// The one bracket every collective entry runs in: enter, pick and
    /// record the algorithm, run `body` with it, exit under the picked
    /// algorithm's call name. `ft` is the only difference between the
    /// plain and the fault-tolerant entry of one collective: the
    /// fault-tolerant one counts the op and executes the rank's scripted
    /// fate on the way in, and hands the error back on the way out.
    pub(crate) fn try_collective<R>(
        &mut self,
        ft: bool,
        call: Call,
        body: impl FnOnce(&mut Mpi, CollAlgo) -> Result<R, MpiError>,
    ) -> Result<R, MpiError> {
        let t0 = if ft { self.ft_enter()? } else { self.enter() };
        let picked = match call {
            Call::Selected(kind, bytes) => {
                Some((kind, self.world_topo().selector().select(kind, bytes)))
            }
            Call::Flat(kind) => Some((kind, CollAlgo::Flat)),
            Call::Fixed(_) => None,
        };
        let (algo, name) = match picked {
            Some((kind, algo)) => {
                self.obs.coll(kind, algo);
                (algo, coll_trace_name(kind, algo))
            }
            None => (CollAlgo::Flat, CallClass::Collective.name()),
        };
        let out = body(self, algo);
        self.exit_named(CallClass::Collective, t0, name);
        out
    }

    /// [`Mpi::try_collective`] for the plain API.
    pub(crate) fn collective<R>(
        &mut self,
        call: Call,
        body: impl FnOnce(&mut Mpi, CollAlgo) -> Result<R, MpiError>,
    ) -> R {
        plain(call.name(), self.try_collective(false, call, body))
    }

    // ---- message helpers (no time-class attribution) ---------------------------

    pub(crate) fn try_coll_send(
        &mut self,
        data: Bytes,
        dst: usize,
        t: u32,
        ctx: u32,
    ) -> Result<(), MpiError> {
        let id = self.isend_inner(data, dst, t, ctx);
        self.try_wait_send_inner(id)
    }

    pub(crate) fn try_coll_recv(
        &mut self,
        src: usize,
        t: u32,
        ctx: u32,
    ) -> Result<Bytes, MpiError> {
        let id = self.irecv_inner(Some(src), Some(t), ctx);
        Ok(self.try_wait_recv_inner(id)?.0)
    }

    pub(crate) fn try_coll_sendrecv(
        &mut self,
        data: Bytes,
        dst: usize,
        src: usize,
        t: u32,
        ctx: u32,
    ) -> Result<Bytes, MpiError> {
        Ok(self
            .sendrecv_inner(data, (dst, t), (Some(src), Some(t)), ctx)?
            .0)
    }

    // ---- list algorithms -------------------------------------------------------
    //
    // Each runs over an explicit rank list (positions in `list` act as
    // virtual ranks) on an explicit context, fails fast at entry on a
    // revoked context or convicted member, and in flight when a partner
    // dies mid-round. The world, a two-level phase and a communicator
    // call all run these same bodies.

    /// Flat fan-in to `list[0]`: every member posts one empty message to
    /// the leader and moves on; the leader absorbs them all. On an
    /// oversubscribed host this beats a tree for synchronization-only
    /// traffic — members never wait on each other (no intermediate
    /// park/wake chain), only the leader blocks — mirroring the
    /// shared-memory flag barrier MVAPICH2 uses for its SMP phase.
    fn fanin_list(&mut self, list: &[usize], op_id: u32) -> Result<(), MpiError> {
        let leader = list[0];
        if self.rank == leader {
            for &r in &list[1..] {
                self.try_coll_recv(r, tag(op_id, 0), CTX_COLL)?;
            }
            Ok(())
        } else {
            self.try_coll_send(Bytes::new(), leader, tag(op_id, 0), CTX_COLL)
        }
    }

    /// Flat fan-out from `list[0]`: the leader releases every member with
    /// one empty message. Counterpart of [`Mpi::fanin_list`].
    fn fanout_list(&mut self, list: &[usize], op_id: u32) -> Result<(), MpiError> {
        let leader = list[0];
        if self.rank == leader {
            for &r in &list[1..] {
                self.try_coll_send(Bytes::new(), r, tag(op_id, 1), CTX_COLL)?;
            }
        } else {
            self.try_coll_recv(leader, tag(op_id, 1), CTX_COLL)?;
        }
        Ok(())
    }

    /// Dissemination barrier.
    pub(crate) fn barrier_list(
        &mut self,
        list: &[usize],
        op_id: u32,
        ctx: u32,
    ) -> Result<(), MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        if n <= 1 {
            return Ok(());
        }
        let me = list
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank not in barrier group");
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let dst = list[(me + dist) % n];
            let src = list[(me + n - dist % n) % n];
            self.try_coll_sendrecv(Bytes::new(), dst, src, tag(op_id, k), ctx)?;
            dist <<= 1;
            k += 1;
        }
        Ok(())
    }

    /// Binomial broadcast; `root_pos` indexes `list`. Every rank returns
    /// the payload. Its messages travel in round 1 of `op_id` and those of
    /// [`Mpi::reduce_list`] and [`Mpi::gather_list`] in round 0, so a
    /// composition that reduces or gathers and then broadcasts under one
    /// id keeps the two message classes apart.
    pub(crate) fn bcast_list(
        &mut self,
        data: Option<Bytes>,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        ctx: u32,
    ) -> Result<Bytes, MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        let me = list
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank not in bcast group");
        let relative = (me + n - root_pos) % n;
        let mut payload = data.unwrap_or_default();
        // Receive phase.
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src_pos = (relative ^ mask) % n; // relative - mask
                let src = list[(src_pos + root_pos) % n];
                payload = self.try_coll_recv(src, tag(op_id, 1), ctx)?;
                break;
            }
            mask <<= 1;
        }
        // Forward phase.
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let dst = list[((relative + mask) + root_pos) % n];
                self.try_coll_send(payload.clone(), dst, tag(op_id, 1), ctx)?;
            }
            mask >>= 1;
        }
        Ok(payload)
    }

    /// Binomial reduce; only the root's return value is meaningful.
    pub(crate) fn reduce_list<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        ctx: u32,
    ) -> Result<Vec<T>, MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        let me = list
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank not in reduce group");
        let relative = (me + n - root_pos) % n;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let peer_rel = relative | mask;
                if peer_rel < n {
                    let peer = list[(peer_rel + root_pos) % n];
                    let bytes = self.try_coll_recv(peer, tag(op_id, 0), ctx)?;
                    reduce_from_bytes(rop, &mut acc, &bytes);
                }
            } else {
                let peer_rel = relative ^ mask;
                let peer = list[(peer_rel + root_pos) % n];
                self.try_coll_send(to_bytes(&acc), peer, tag(op_id, 0), ctx)?;
                break;
            }
            mask <<= 1;
        }
        Ok(acc)
    }

    /// Recursive-doubling allreduce (reduce + bcast when the group size
    /// is not a power of two).
    pub(crate) fn allreduce_list<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        list: &[usize],
        op_id: u32,
        ctx: u32,
    ) -> Result<Vec<T>, MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        if n == 1 {
            return Ok(data.to_vec());
        }
        if !n.is_power_of_two() {
            let red = self.reduce_list(data, rop, list, 0, op_id, ctx)?;
            let root = self.rank == list[0];
            let seed = root.then(|| to_bytes(&red));
            let bytes = self.bcast_list(seed, list, 0, op_id, ctx)?;
            return Ok(if root {
                red
            } else {
                vec_from_bytes(&bytes, data.len())
            });
        }
        let me = list
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank not in allreduce group");
        // The accumulator lives as its wire image: a round sends it as
        // it is and folds the partner's image in with one pass.
        let mut acc = to_bytes(data);
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < n {
            let peer = list[me ^ mask];
            let theirs = self.try_coll_sendrecv(acc.clone(), peer, peer, tag(op_id, round), ctx)?;
            acc = reduce_bytes::<T>(rop, &acc, &theirs);
            mask <<= 1;
            round += 1;
        }
        Ok(vec_from_bytes(&acc, data.len()))
    }

    /// Binomial gather of one block per rank. The root's return value is
    /// the bundles of its child subtrees as they arrived — `(rank, block)`
    /// frames in tree-relative order, its own block not among them; other
    /// ranks' return values are meaningless.
    pub(crate) fn gather_list<T: MpiData>(
        &mut self,
        mine: &[T],
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        ctx: u32,
    ) -> Result<Vec<Bytes>, MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        let me = list
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank not in gather group");
        let relative = (me + n - root_pos) % n;
        let mut children: Vec<Bytes> = Vec::new();
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < n {
                    let src = list[(src_rel + root_pos) % n];
                    children.push(self.try_coll_recv(src, tag(op_id, 0), ctx)?);
                }
            } else {
                let dst_rel = relative ^ mask;
                let dst = list[(dst_rel + root_pos) % n];
                let up = subtree_bundle(self.rank, mine, &children);
                self.try_coll_send(up, dst, tag(op_id, 0), ctx)?;
                break;
            }
            mask <<= 1;
        }
        Ok(children)
    }

    /// Ring allgather of one `data.len()`-element block per member of
    /// `list`; the list-ordered concatenation on every member.
    pub(crate) fn allgather_list<T: MpiData>(
        &mut self,
        data: &[T],
        list: &[usize],
        op_id: u32,
        ctx: u32,
    ) -> Result<Vec<T>, MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        let me = list
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank not in allgather group");
        let block = data.len();
        let mut all = zeroed(block * n);
        all[me * block..(me + 1) * block].copy_from_slice(data);
        let right = list[(me + 1) % n];
        let left = list[(me + n - 1) % n];
        // Step `s` sends block `me - s`, which is what step `s - 1`
        // received: each hop passes on the handle that just arrived.
        let mut carry = to_bytes(data);
        for step in 0..n - 1 {
            let recv_block = (me + n - step - 1) % n;
            carry = self.try_coll_sendrecv(carry, right, left, tag(op_id, step as u32), ctx)?;
            from_bytes(
                &carry,
                &mut all[recv_block * block..(recv_block + 1) * block],
            );
        }
        Ok(all)
    }

    // ---- public collectives --------------------------------------------------

    /// Synchronize all ranks (`MPI_Barrier`).
    pub fn barrier(&mut self) {
        self.collective(
            Call::Selected(CollKind::Barrier, 0),
            |mpi, algo| match algo {
                CollAlgo::TwoLevel => mpi.barrier_two_level(),
                _ => mpi.barrier_list(&mpi.world_ranks(), op::BARRIER, CTX_COLL),
            },
        )
    }

    /// Broadcast `buf` from `root` to every rank (`MPI_Bcast`).
    pub fn bcast<T: MpiData>(&mut self, buf: &mut [T], root: usize) {
        let call = Call::Selected(CollKind::Bcast, std::mem::size_of_val(buf));
        self.collective(call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.bcast_two_level(buf, root),
            CollAlgo::Large => mpi.bcast_scatter_allgather(buf, root),
            CollAlgo::Flat => {
                let seed = (mpi.rank == root).then(|| to_bytes(buf));
                let out = mpi.bcast_list(seed, &mpi.world_ranks(), root, op::BCAST, CTX_COLL)?;
                if mpi.rank != root {
                    from_bytes(&out, buf);
                }
                Ok(())
            }
        })
    }

    /// Reduce elementwise to `root` (`MPI_Reduce`). Returns `Some(result)`
    /// at the root, `None` elsewhere.
    pub fn reduce<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Option<Vec<T>> {
        let call = Call::Selected(CollKind::Reduce, std::mem::size_of_val(data));
        let acc = self.collective(call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.reduce_two_level(data, rop, root),
            _ => mpi.reduce_list(data, rop, &mpi.world_ranks(), root, op::REDUCE, CTX_COLL),
        });
        (self.rank == root).then_some(acc)
    }

    /// Elementwise reduction visible on every rank (`MPI_Allreduce`).
    pub fn allreduce<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        let call = Call::Selected(CollKind::Allreduce, std::mem::size_of_val(data));
        self.collective(call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.allreduce_two_level(data, rop),
            CollAlgo::Large => mpi.allreduce_rabenseifner(data, rop),
            CollAlgo::Flat => {
                mpi.allreduce_list(data, rop, &mpi.world_ranks(), op::ALLREDUCE, CTX_COLL)
            }
        })
    }

    /// Gather equal-size contributions to `root` (`MPI_Gather`). Returns
    /// the rank-ordered concatenation at the root.
    pub fn gather<T: MpiData>(&mut self, data: &[T], root: usize) -> Option<Vec<T>> {
        let call = Call::Selected(CollKind::Gather, std::mem::size_of_val(data));
        let all = self.collective(call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.gather_two_level(data, root),
            _ => mpi.gather_binomial(data, root),
        });
        (self.rank == root).then_some(all)
    }

    /// Binomial gather over the world; the rank-ordered concatenation at
    /// the root, empty elsewhere.
    fn gather_binomial<T: MpiData>(&mut self, data: &[T], root: usize) -> Result<Vec<T>, MpiError> {
        let children = self.gather_list(data, &self.world_ranks(), root, op::GATHER, CTX_COLL)?;
        if self.rank != root {
            return Ok(Vec::new());
        }
        let block = data.len();
        let mut all = zeroed(block * self.n);
        all[root * block..(root + 1) * block].copy_from_slice(data);
        for bundle in &children {
            place_blocks(bundle, block, &mut all, "gather subtree bundle");
        }
        Ok(all)
    }

    /// Scatter equal-size blocks from `root` (`MPI_Scatter`). `data` is
    /// required at the root (length `n * block`), ignored elsewhere;
    /// returns this rank's block.
    pub fn scatter<T: MpiData>(&mut self, data: Option<&[T]>, block: usize, root: usize) -> Vec<T> {
        self.collective(Call::Fixed("scatter"), |mpi, _| {
            mpi.scatter_binomial(data, block, root)
        })
    }

    fn scatter_binomial<T: MpiData>(
        &mut self,
        data: Option<&[T]>,
        block: usize,
        root: usize,
    ) -> Result<Vec<T>, MpiError> {
        let n = self.n;
        let relative = (self.rank + n - root) % n;
        // Every block travels as one frame keyed by its *relative*
        // position, and a subtree's frames are consecutive: `held` starts
        // at the frame of position `first`, and each child is sent the
        // slice that covers its own subtree.
        let frame = FRAME_HEADER + block * T::SIZE;
        let (out, held, first, mut span) = if self.rank == root {
            let data = data.expect("scatter root must supply data");
            assert_eq!(
                data.len(),
                block * n,
                "scatter data must be n * block elements"
            );
            // The root encodes once; its own block never leaves `data`.
            let mut w = FrameWriter::with_capacity(n - 1, (n - 1) * block * T::SIZE);
            for rel in 1..n {
                let abs = (rel + root) % n;
                w.put(rel, &data[abs * block..(abs + 1) * block]);
            }
            let out = data[root * block..(root + 1) * block].to_vec();
            // The root's span is the whole tree.
            (out, w.finish(), 1, n.next_power_of_two())
        } else {
            // The parent clears my lowest set bit, which also bounds my
            // subtree: it sends the frames of relative..relative + span.
            let mut span = 1usize;
            while relative & span == 0 {
                span <<= 1;
            }
            let parent = ((relative ^ span) + root) % n;
            let held = self.try_coll_recv(parent, tag(op::SCATTER, 0), CTX_COLL)?;
            let covered = span.min(n - relative);
            assert_eq!(
                held.len(),
                covered * frame,
                "scatter subtree bundle must hold {covered} frames of {frame} bytes"
            );
            let (rel, mine) = frames_ok(&held, "scatter subtree bundle")
                .next()
                .expect("scatter block never arrived");
            assert_eq!(
                rel, relative,
                "scatter subtree bundle starts at the wrong block"
            );
            (vec_from_bytes(mine, block), held, relative, span)
        };
        // Forward children's subtrees: the child at relative + m covers
        // [relative + m, relative + 2m).
        span >>= 1;
        while span > 0 {
            if relative + span < n {
                let lo = relative + span;
                let hi = (relative + 2 * span).min(n);
                let part = held.slice((lo - first) * frame..(hi - first) * frame);
                let dst = (lo + root) % n;
                self.try_coll_send(part, dst, tag(op::SCATTER, 0), CTX_COLL)?;
            }
            span >>= 1;
        }
        Ok(out)
    }

    /// All-to-all gather of equal contributions (`MPI_Allgather`). Returns
    /// the rank-ordered concatenation.
    pub fn allgather<T: MpiData>(&mut self, data: &[T]) -> Vec<T> {
        let call = Call::Selected(CollKind::Allgather, std::mem::size_of_val(data));
        self.collective(call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.allgather_two_level(data),
            _ => mpi.allgather_list(data, &mpi.world_ranks(), op::ALLGATHER, CTX_COLL),
        })
    }

    /// Personalized all-to-all exchange (`MPI_Alltoall`). `data` holds one
    /// `block`-element slab per destination; returns one slab per source.
    pub fn alltoall<T: MpiData>(&mut self, data: &[T], block: usize) -> Vec<T> {
        assert_eq!(
            data.len(),
            block * self.n,
            "alltoall data must be n * block elements"
        );
        let call = Call::Selected(CollKind::Alltoall, block * T::SIZE);
        self.collective(call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.alltoall_two_level(data, block),
            _ => mpi.alltoall_pairwise(data, block),
        })
    }

    /// Pairwise alltoall over the world.
    fn alltoall_pairwise<T: MpiData>(
        &mut self,
        data: &[T],
        block: usize,
    ) -> Result<Vec<T>, MpiError> {
        let n = self.n;
        let bs = block * T::SIZE;
        let mut out = zeroed(block * n);
        out[self.rank * block..(self.rank + 1) * block]
            .copy_from_slice(&data[self.rank * block..(self.rank + 1) * block]);
        // One wire image of every slab; each step sends a slice of it.
        let image = to_bytes(data);
        for step in 1..n {
            let dst = (self.rank + step) % n;
            let src = (self.rank + n - step) % n;
            let got = self.try_coll_sendrecv(
                image.slice(dst * bs..(dst + 1) * bs),
                dst,
                src,
                tag(op::ALLTOALL, step as u32),
                CTX_COLL,
            )?;
            from_bytes(&got, &mut out[src * block..(src + 1) * block]);
        }
        Ok(out)
    }

    /// Variable-size personalized all-to-all (`MPI_Alltoallv`): one byte
    /// payload per destination; returns one payload per source.
    pub fn alltoallv_bytes(&mut self, blocks: Vec<Bytes>) -> Vec<Bytes> {
        self.collective(Call::Fixed("alltoallv"), |mpi, _| {
            let n = mpi.n;
            assert_eq!(blocks.len(), n, "alltoallv needs one block per rank");
            let mut out: Vec<Bytes> = vec![Bytes::new(); n];
            out[mpi.rank] = blocks[mpi.rank].clone();
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for step in 1..n {
                let dst = (mpi.rank + step) % n;
                let src = (mpi.rank + n - step) % n;
                sends.push(mpi.isend_inner(
                    blocks[dst].clone(),
                    dst,
                    tag(op::ALLTOALLV, 0),
                    CTX_COLL,
                ));
                recvs.push((
                    src,
                    mpi.irecv_inner(Some(src), Some(tag(op::ALLTOALLV, 0)), CTX_COLL),
                ));
            }
            for (src, rid) in recvs {
                out[src] = mpi.try_wait_recv_inner(rid)?.0;
            }
            for sid in sends {
                mpi.try_wait_send_inner(sid)?;
            }
            Ok(out)
        })
    }

    // ---- two-level (SMP-aware) algorithms ------------------------------------

    /// The locality groups the active policy induces (each group sorted,
    /// groups ordered by smallest member). All ranks compute the same
    /// partition.
    pub fn policy_groups(&self) -> Vec<Vec<usize>> {
        self.world_topo().groups().to_vec()
    }

    /// The job's two-level topology (see `JobState::smp_topo`): a
    /// refcount bump lends it around the `&mut self` phases of one call.
    fn topo(&self) -> Arc<SmpTopo> {
        Arc::clone(self.world_topo())
    }

    /// Two-level broadcast: root → its group's leader → inter-leader
    /// binomial tree → host-local binomial trees.
    fn bcast_two_level<T: MpiData>(&mut self, buf: &mut [T], root: usize) -> Result<(), MpiError> {
        let topo = self.topo();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        let root_leader = topo.leader_of(root);
        let mut payload: Option<Bytes> = (self.rank == root).then(|| to_bytes(buf));
        // Phase 0: shuttle to the root's group leader when the root is
        // not a leader itself.
        if root != root_leader {
            if self.rank == root {
                let b = payload.clone().expect("root payload missing");
                self.try_coll_send(b, root_leader, tag(op::SMP_SHUTTLE, 0), CTX_COLL)?;
            } else if self.rank == root_leader {
                payload = Some(self.try_coll_recv(root, tag(op::SMP_SHUTTLE, 0), CTX_COLL)?);
            }
        }
        // Phase 1: inter-leader broadcast.
        if self.rank == my_leader && topo.leaders.len() > 1 {
            let root_pos = topo.group_index(root);
            let seed = payload.take();
            let out = self.bcast_list(seed, &topo.leaders, root_pos, op::SMP_PHASE0, CTX_COLL)?;
            payload = Some(out);
        }
        // Phase 2: host-local broadcast from the leader.
        if my_group.len() > 1 {
            let out = self.bcast_list(payload.take(), my_group, 0, op::SMP_PHASE1, CTX_COLL)?;
            payload = Some(out);
        }
        if self.rank != root {
            from_bytes(&payload.expect("bcast payload missing"), buf);
        }
        Ok(())
    }

    /// Two-level allreduce: host-local reduce to the leader, inter-leader
    /// allreduce, host-local broadcast.
    fn allreduce_two_level<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
    ) -> Result<Vec<T>, MpiError> {
        let topo = self.topo();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        let mut acc = if my_group.len() > 1 {
            self.reduce_list(data, rop, my_group, 0, op::SMP_PHASE0, CTX_COLL)?
        } else {
            data.to_vec()
        };
        if self.rank == my_leader && topo.leaders.len() > 1 {
            acc = self.allreduce_list(&acc, rop, &topo.leaders, op::SMP_PHASE1, CTX_COLL)?;
        }
        if my_group.len() > 1 {
            let seed = (self.rank == my_leader).then(|| to_bytes(&acc));
            let out = self.bcast_list(seed, my_group, 0, op::SMP_PHASE2, CTX_COLL)?;
            if self.rank != my_leader {
                from_bytes(&out, &mut acc);
            }
        }
        Ok(acc)
    }

    /// Two-level reduce: host-local reduce to the leader, inter-leader
    /// reduce rooted at the root's leader, leader → root shuttle.
    fn reduce_two_level<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Result<Vec<T>, MpiError> {
        let topo = self.topo();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        let root_leader = topo.leader_of(root);
        // Phase 0: host-local fan-in to the group leader.
        let mut acc = if my_group.len() > 1 {
            self.reduce_list(data, rop, my_group, 0, op::SMP_REDUCE0, CTX_COLL)?
        } else {
            data.to_vec()
        };
        // Phase 1: inter-leader reduce rooted at the root's leader.
        if self.rank == my_leader && topo.leaders.len() > 1 {
            let root_pos = topo.group_index(root);
            acc = self.reduce_list(
                &acc,
                rop,
                &topo.leaders,
                root_pos,
                op::SMP_REDUCE1,
                CTX_COLL,
            )?;
        }
        // Phase 2: shuttle to a non-leader root.
        if root != root_leader {
            if self.rank == root_leader {
                self.try_coll_send(to_bytes(&acc), root, tag(op::SMP_REDUCE2, 0), CTX_COLL)?;
            } else if self.rank == root {
                let b = self.try_coll_recv(root_leader, tag(op::SMP_REDUCE2, 0), CTX_COLL)?;
                acc = vec_from_bytes(&b, data.len());
            }
        }
        Ok(acc)
    }

    /// Two-level gather: host-local gather to the leader, leaders gather
    /// the per-group bundles to the root's leader, leader → root shuttle.
    /// The rank-ordered concatenation at the root, empty elsewhere.
    fn gather_two_level<T: MpiData>(
        &mut self,
        data: &[T],
        root: usize,
    ) -> Result<Vec<T>, MpiError> {
        let topo = self.topo();
        let my_group = topo.group_of(self.rank);
        let root_leader = topo.leader_of(root);
        let block = data.len();
        // Phase 0: host-local gather to the group leader.
        let members = self.gather_list(data, my_group, 0, op::SMP_GATHER0, CTX_COLL)?;
        // Phase 1: leaders gather their groups' bundles, one frame per
        // group, to the root's leader.
        let mut mine = Bytes::new();
        let mut others = Vec::new();
        if self.rank == my_group[0] {
            mine = subtree_bundle(self.rank, data, &members);
            if topo.leaders.len() > 1 {
                let root_pos = topo.group_index(root);
                others = self.gather_list(
                    &mine[..],
                    &topo.leaders,
                    root_pos,
                    op::SMP_GATHER1,
                    CTX_COLL,
                )?;
            }
        }
        let mut all = Vec::new();
        if self.rank == root_leader {
            // Every group's bundle of (rank, block) frames, by leader.
            let mut groups: Vec<(usize, &[u8])> = vec![(self.rank, &mine[..])];
            for bundle in &others {
                groups.extend(frames_ok(bundle, "gather-smp leader bundle"));
            }
            groups.sort_unstable_by_key(|&(leader, _)| leader);
            if self.rank == root {
                all = zeroed(block * self.n);
                for (_, group) in groups {
                    place_blocks(group, block, &mut all, "gather-smp group bundle");
                }
            } else {
                // Phase 2: shuttle the flattened bundle to a non-leader
                // root.
                let flat = groups.iter().map(|(_, group)| group.len()).sum();
                let mut w = FrameWriter::with_capacity(0, flat);
                for (_, group) in groups {
                    w.append(group);
                }
                self.try_coll_send(w.finish(), root, tag(op::SMP_GATHER2, 0), CTX_COLL)?;
            }
        } else if self.rank == root {
            let b = self.try_coll_recv(root_leader, tag(op::SMP_GATHER2, 0), CTX_COLL)?;
            all = zeroed(block * self.n);
            place_blocks(&b, block, &mut all, "gather-smp root bundle");
        }
        Ok(all)
    }

    /// Two-level allgather: host-local gather to the leaders, leaders
    /// assemble and redistribute the world bundle, host-local broadcast.
    /// The rank-ordered concatenation on every rank.
    fn allgather_two_level<T: MpiData>(&mut self, data: &[T]) -> Result<Vec<T>, MpiError> {
        let topo = self.topo();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        let block = data.len();
        // Phase 0: host-local gather to the leader.
        let members = self.gather_list(data, my_group, 0, op::SMP_AG0, CTX_COLL)?;
        // Phases 1+2: leaders assemble the world bundle at the first
        // leader and broadcast it back over the leader tree.
        let mut world: Option<Bytes> = None;
        if self.rank == my_leader {
            let mine = subtree_bundle(self.rank, data, &members);
            if topo.leaders.len() > 1 {
                let others =
                    self.gather_list(&mine[..], &topo.leaders, 0, op::SMP_AG1, CTX_COLL)?;
                let seed = (self.rank == topo.leaders[0]).then(|| {
                    let mut blocks: Vec<(usize, &[u8])> =
                        frames_ok(&mine, "allgather-smp group bundle").collect();
                    for bundle in &others {
                        for (_, group) in frames_ok(bundle, "allgather-smp leader bundle") {
                            blocks.extend(frames_ok(group, "allgather-smp group bundle"));
                        }
                    }
                    blocks.sort_unstable_by_key(|&(r, _)| r);
                    let payload = blocks.iter().map(|(_, part)| part.len()).sum();
                    let mut w = FrameWriter::with_capacity(blocks.len(), payload);
                    for (r, part) in blocks {
                        w.put_bytes(r, part);
                    }
                    w.finish()
                });
                world = Some(self.bcast_list(seed, &topo.leaders, 0, op::SMP_AG2, CTX_COLL)?);
            } else {
                world = Some(mine);
            }
        }
        // Phase 3: host-local broadcast of the world bundle.
        let world = if my_group.len() > 1 {
            self.bcast_list(world, my_group, 0, op::SMP_AG3, CTX_COLL)?
        } else {
            world.expect("allgather-smp world bundle missing")
        };
        // The world bundle is rank-ordered, so the result fills front to
        // back.
        let mut all = Vec::with_capacity(block * self.n);
        let mut ranks = 0..self.n;
        for (r, part) in frames_ok(&world, "allgather-smp world bundle") {
            assert_eq!(
                ranks.next(),
                Some(r),
                "allgather-smp world bundle out of rank order"
            );
            extend_from_bytes(part, block, &mut all);
        }
        assert!(ranks.is_empty(), "allgather-smp world bundle is short");
        Ok(all)
    }

    /// Two-level barrier: host-local fan-in to the leaders, inter-leader
    /// dissemination barrier, host-local fan-out.
    fn barrier_two_level(&mut self) -> Result<(), MpiError> {
        let topo = self.topo();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        // Phase 0: host-local flat fan-in (members post-and-go, only the
        // leader blocks — no intermediate tree hops to schedule).
        if my_group.len() > 1 {
            self.fanin_list(my_group, op::SMP_BAR0)?;
        }
        // Phase 1: inter-leader dissemination barrier.
        if self.rank == my_leader && topo.leaders.len() > 1 {
            self.barrier_list(&topo.leaders, op::SMP_BAR1, CTX_COLL)?;
        }
        // Phase 2: host-local fan-out releases the group.
        if my_group.len() > 1 {
            self.fanout_list(my_group, op::SMP_BAR2)?;
        }
        Ok(())
    }

    /// Hierarchical alltoall: intra-group slabs exchange directly;
    /// inter-group slabs are bundled through the leaders so only one
    /// (aggregated) message crosses each group pair.
    fn alltoall_two_level<T: MpiData>(
        &mut self,
        data: &[T],
        block: usize,
    ) -> Result<Vec<T>, MpiError> {
        let topo = self.topo();
        let my_group = topo.group_of(self.rank);
        let my_gi = topo.group_index(self.rank);
        let my_leader = my_group[0];
        let n = self.n;
        let m = my_group.len();
        let bs = block * T::SIZE;
        let my_pos = my_group
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank not in its group");
        let slab = |r: usize| &data[r * block..(r + 1) * block];
        let mut out = zeroed(block * n);
        out[self.rank * block..(self.rank + 1) * block].copy_from_slice(slab(self.rank));
        // Phase A: intra-group pairwise exchange (local channels); every
        // send is a slice of one wire image of the group's slabs.
        if m > 1 {
            let mut image = Vec::with_capacity(m * bs);
            for &member in my_group {
                T::encode(slab(member).iter().copied(), &mut image);
            }
            let image = Bytes::from(image);
            for step in 1..m {
                let to = (my_pos + step) % m;
                let src = my_group[(my_pos + m - step) % m];
                let got = self.try_coll_sendrecv(
                    image.slice(to * bs..(to + 1) * bs),
                    my_group[to],
                    src,
                    tag(op::SMP_A2A0, step as u32),
                    CTX_COLL,
                )?;
                from_bytes(&got, &mut out[src * block..(src + 1) * block]);
            }
        }
        let num_leaders = topo.leaders.len();
        if num_leaders == 1 {
            return Ok(out);
        }
        let external = |d: &usize| topo.group_index(*d) != my_gi;
        if self.rank != my_leader {
            // Phase B: hand the externally-destined slabs to the leader,
            // framed straight out of `data`, keyed by destination rank.
            let mut w = FrameWriter::with_capacity(n - m, (n - m) * bs);
            for d in (0..n).filter(external) {
                w.put(d, slab(d));
            }
            self.try_coll_send(w.finish(), my_leader, tag(op::SMP_A2A1, 0), CTX_COLL)?;
            // Phase D: the leader returns what the other groups sent
            // here, keyed by source rank.
            let b = self.try_coll_recv(my_leader, tag(op::SMP_A2A3, 0), CTX_COLL)?;
            place_blocks(&b, block, &mut out, "alltoall-smp distribution bundle");
            return Ok(out);
        }
        // Phase B at the leader: stage every external slab of the group
        // once, by destination group — one aggregate per peer group,
        // frames keyed src * n + dst, sources in group order and
        // destinations ascending within each.
        let mut staged: Vec<FrameWriter> = (topo.groups.iter())
            .enumerate()
            .map(|(gi, group)| {
                let parts = if gi == my_gi { 0 } else { m * group.len() };
                FrameWriter::with_capacity(parts, parts * bs)
            })
            .collect();
        for d in (0..n).filter(external) {
            staged[topo.group_index(d)].put(self.rank * n + d, slab(d));
        }
        for &member in &my_group[1..] {
            let b = self.try_coll_recv(member, tag(op::SMP_A2A1, 0), CTX_COLL)?;
            for (d, part) in frames_ok(&b, "alltoall-smp member bundle") {
                staged[topo.group_index(d)].put_bytes(member * n + d, part);
            }
        }
        // Phase C: leaders exchange the aggregates pairwise.
        let mut incoming: Vec<Bytes> = Vec::with_capacity(num_leaders - 1);
        for step in 1..num_leaders {
            let to = (my_gi + step) % num_leaders;
            let from = (my_gi + num_leaders - step) % num_leaders;
            incoming.push(self.try_coll_sendrecv(
                std::mem::take(&mut staged[to]).finish(),
                topo.leaders[to],
                topo.leaders[from],
                tag(op::SMP_A2A2, step as u32),
                CTX_COLL,
            )?);
        }
        // Phase D: sort the incoming slabs by member position once and
        // hand each member its own, keyed by source rank.
        let mut per_member: Vec<FrameWriter> = (0..m)
            .map(|pos| {
                let parts = if pos == 0 { 0 } else { n - m };
                FrameWriter::with_capacity(parts, parts * bs)
            })
            .collect();
        for b in &incoming {
            for (key, part) in frames_ok(b, "alltoall-smp leader bundle") {
                let (s, d) = (key / n, key % n);
                match my_group.binary_search(&d) {
                    Ok(0) => from_bytes(part, &mut out[s * block..(s + 1) * block]),
                    Ok(pos) => per_member[pos].put_bytes(s, part),
                    Err(_) => panic!("alltoall-smp slab for rank {d} reached rank {my_leader}"),
                }
            }
        }
        for (w, &member) in per_member.into_iter().zip(my_group).skip(1) {
            self.try_coll_send(w.finish(), member, tag(op::SMP_A2A3, 0), CTX_COLL)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_packs_op_and_round() {
        assert_eq!(tag(op::BARRIER, 0), 1 << TAG_ROUND_BITS);
        // The maximal round fits without touching the op id.
        let max_round = (1 << TAG_ROUND_BITS) - 1;
        assert_eq!(tag(3, max_round) >> TAG_ROUND_BITS, 3);
        assert_eq!(tag(3, max_round) & max_round, max_round);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overflows the tag")]
    fn tag_rejects_round_overflow() {
        let _ = tag(op::BARRIER, 1 << TAG_ROUND_BITS);
    }
}
