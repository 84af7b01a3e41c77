//! Collective operations over the point-to-point engine.
//!
//! Algorithms follow the MVAPICH2/MPICH defaults the paper runs on:
//! dissemination barrier, binomial broadcast/reduce/gather,
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
//! Every algorithm runs over the [`Scope`] it is given — members, this
//! rank's position among them, context, and the members' topology where
//! one is attached — and knows nothing else about where it runs. The
//! world is the scope its entries build; a communicator is the scope its
//! `Comm` describes. Barrier and allreduce, the two kinds with a
//! communicator entry, have one body, `X_in(ft, scope, …)`, shared by
//! the world's `X` and `try_X_comm`.
//!
//! Every algorithm returns `Result`: what a failure means is decided
//! once, by the entry (the plain API panics in [`plain`], the `try_` API
//! hands the error to the caller), not by a second copy of the algorithm.

use std::sync::Arc;

use bytes::Bytes;

use cmpi_cluster::{Cluster, Placement, Tunables};

use crate::coll_select::{coll_trace_name, CollAlgo, CollKind, CollectiveSelector};
use crate::datatype::{
    decoded, extend_from_bytes, from_bytes, reduce_images, spare, to_bytes, zeroed, MpiData,
    ReduceOp, Reducible,
};
use crate::error::MpiError;
use crate::fasthash::FastMap;
use crate::frame::{frames_ok, FrameWriter};
use crate::locality::LocalityPolicy;
use crate::runtime::Mpi;
use crate::stats::CallClass;

/// Declares the op-id table: one `pub const` per entry, and a
/// compile-time check that the ids are distinct, non-zero and below
/// `END`, and that `END` fits the id field above [`TAG_ROUND_BITS`].
macro_rules! op_table {
    ($(#[$end_doc:meta])* END = $end:expr; $($(#[$doc:meta])* $name:ident = $id:expr,)+) => {
        $(#[$end_doc])*
        pub const END: u32 = $end;
        $($(#[$doc])* pub const $name: u32 = $id;)+
        const _: () = assert!(
            crate::packet::ids_fit(&[$($name),+], END),
            "op ids must be distinct, non-zero and below END"
        );
        const _: () = assert!(END <= 1 << (32 - super::TAG_ROUND_BITS), "END overflows the id field");
    };
}

/// Every op id the library bakes into an internal tag (high bits), in one
/// table whose compile-time check holds all of them distinct, non-zero,
/// inside the id field and below [`op::END`]. An algorithm that
/// needs two message classes names two ids or separates them in the round
/// field — never `id + 1`. Communicator calls use the world's ids, even
/// on `comm_world()`'s shared context (DESIGN §10 says why that is safe).
pub(crate) mod op {
    op_table! {
        /// One past the table: id spaces outside it (the agreement tags of
        /// `ft.rs`) start at or above this.
        END = 64;
        BARRIER = 1,
        BCAST = 2,
        REDUCE = 3,
        ALLREDUCE = 4,
        GATHER = 5,
        ALLGATHER = 7,
        ALLTOALL = 8,
        ALLTOALLV = 9,
        // Two-level bcast/allreduce phases (the ids the original SMP
        // variants shipped with; kept stable so traces stay comparable).
        SMP_PHASE0 = 10,
        SMP_PHASE1 = 11,
        SMP_PHASE2 = 12,
        // The barriers inside `win_allocate` and `fence`.
        WIN_ALLOCATE = 13,
        WIN_FENCE = 14,
        /// Root→leader shuttle for rooted two-level ops whose root is not
        /// its group's leader.
        SMP_SHUTTLE = 15,
        SMP_REDUCE0 = 16,
        SMP_REDUCE1 = 17,
        SMP_REDUCE2 = 18,
        SMP_GATHER0 = 20,
        SMP_GATHER1 = 21,
        SMP_GATHER2 = 22,
        SMP_AG0 = 24,
        SMP_AG1 = 25,
        SMP_AG2 = 26,
        SMP_AG3 = 27,
        SMP_BAR0 = 28,
        SMP_BAR1 = 29,
        SMP_BAR2 = 30,
        SMP_A2A0 = 32,
        SMP_A2A1 = 33,
        SMP_A2A2 = 34,
        SMP_A2A3 = 35,
        RABENSEIFNER = 48,
        SCATTER_ALLGATHER = 50,
    }
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
/// under its key, then the bundles its children sent, as they arrived.
/// Children arrive in ascending relative order and each bundle is itself
/// ascending, so the frames are in tree-relative order.
fn subtree_bundle<T: MpiData>(key: usize, mine: &[T], children: &[Bytes]) -> Bytes {
    let forwarded: usize = children.iter().map(Bytes::len).sum();
    let mut w = FrameWriter::with_capacity(1, mine.len() * T::SIZE + forwarded);
    w.put(key, mine);
    for bundle in children {
        w.append(bundle);
    }
    w.finish()
}

/// Decode every `(position, block)` frame of `bundle` into its slot of
/// the position-ordered `all`.
fn place_blocks<T: MpiData>(bundle: &[u8], block: usize, all: &mut [T], what: &str) {
    for (p, part) in frames_ok(bundle, what) {
        from_bytes(part, &mut all[p * block..(p + 1) * block]);
    }
}

/// The locality groups `policy` induces over every placed rank: ranks
/// on one host that share a hostname (`Hostname`) or an IPC namespace
/// (every other policy), each group ascending, groups ordered by smallest
/// member. A pure function of job-wide state, computed once per job.
pub(crate) fn policy_groups_of(
    cluster: &Cluster,
    placement: &Placement,
    policy: LocalityPolicy,
) -> Vec<Vec<usize>> {
    let mut by_key: FastMap<_, Vec<usize>> = FastMap::default();
    for r in 0..placement.num_ranks() {
        let loc = placement.loc(r);
        let cont = cluster.container(loc.container);
        let key = match policy {
            LocalityPolicy::Hostname => (loc.host, cont.hostname.as_str(), None),
            _ => (loc.host, "", Some(cont.ipc_ns)),
        };
        by_key.entry(key).or_default().push(r);
    }
    let mut groups: Vec<Vec<usize>> = by_key.into_values().collect();
    groups.sort_unstable_by_key(|g| g[0]);
    groups
}

/// A scope's two-level collective topology: its members' locality groups,
/// their leaders, a rank→group index, the scope position of each member
/// and the algorithm selector sized to that shape. The world's instance
/// serves every rank of the job (see `JobState::world`), so every rank
/// decides identically.
///
/// Leaders are *always* each group's smallest rank — one rule for every
/// phase of every collective, so two phases of one call can never
/// disagree about who the leader is. Rooted collectives whose root is not
/// its group's leader shuttle the payload between the two explicitly.
pub(crate) struct SmpTopo {
    groups: Vec<Arc<Vec<usize>>>,
    leaders: Arc<Vec<usize>>,
    /// Index into `groups` of each rank's group, by world rank.
    group_idx: Vec<u32>,
    /// Scope position of each member, by world rank; empty where the two
    /// coincide (the world).
    pos: Vec<u32>,
    selector: CollectiveSelector,
}

impl SmpTopo {
    /// Index the locality groups: disjoint sets of ranks below `n`, each
    /// sorted ascending. The world's groups partition `0..n`; a restricted
    /// topology's leave non-members in no group.
    pub(crate) fn new(
        groups: Vec<Vec<usize>>,
        n: usize,
        policy: LocalityPolicy,
        tunables: Tunables,
    ) -> SmpTopo {
        let members = groups.iter().map(Vec::len).sum();
        let selector = CollectiveSelector::new(policy, tunables, &groups, members);
        let leaders = Arc::new(groups.iter().map(|g| g[0]).collect());
        let mut group_idx = vec![u32::MAX; n];
        for (gi, g) in groups.iter().enumerate() {
            for &r in g {
                group_idx[r] = gi as u32;
            }
        }
        SmpTopo {
            groups: groups.into_iter().map(Arc::new).collect(),
            leaders,
            group_idx,
            pos: Vec::new(),
            selector,
        }
    }

    /// This topology restricted to `members` (world ranks in scope
    /// order): each group keeps the members it holds, empty groups go, and
    /// every member maps to its position in `members`.
    pub(crate) fn restricted(&self, members: &[usize]) -> SmpTopo {
        let mut pos = vec![u32::MAX; self.group_idx.len()];
        for (p, &r) in members.iter().enumerate() {
            pos[r] = p as u32;
        }
        let groups = (self.groups.iter())
            .map(|g| g.iter().copied().filter(|&r| pos[r] != u32::MAX).collect())
            .filter(|g: &Vec<usize>| !g.is_empty())
            .collect();
        let (policy, tunables) = (self.selector.policy(), *self.selector.tunables());
        SmpTopo {
            pos,
            ..SmpTopo::new(groups, self.group_idx.len(), policy, tunables)
        }
    }

    /// The selector sized to these groups.
    pub(crate) fn selector(&self) -> &CollectiveSelector {
        &self.selector
    }

    /// The locality groups, ordered by smallest member.
    pub(crate) fn groups(&self) -> Vec<Vec<usize>> {
        self.groups.iter().map(|g| g.to_vec()).collect()
    }

    /// Position of `rank`'s group in `groups` (and of its leader in
    /// `leaders`).
    fn group_index(&self, rank: usize) -> usize {
        self.group_idx[rank] as usize
    }

    /// The scope position of member `rank`.
    fn position(&self, rank: usize) -> usize {
        self.pos.get(rank).map_or(rank, |&p| p as usize)
    }
}

/// Where a collective runs: the members' world ranks in order, this
/// rank's position among them, the context and, where one is attached,
/// the members' topology, whose selector picks the algorithm. A root, a
/// block index or a result slot is a position in `ranks`.
pub(crate) struct Scope {
    pub(crate) ranks: Arc<Vec<usize>>,
    pub(crate) me: usize,
    pub(crate) ctx: u32,
    pub(crate) topo: Option<Arc<SmpTopo>>,
}

impl Scope {
    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.ranks.len()
    }

    /// The world rank at position `pos`.
    pub(crate) fn rank(&self, pos: usize) -> usize {
        self.ranks[pos]
    }

    /// A root outside the scope is a usage error, like a buffer of the
    /// wrong length: it panics.
    pub(crate) fn check_root(&self, what: &str, root: usize) {
        let n = self.len();
        assert!(root < n, "{what}: root {root} out of range for {n} members");
    }

    /// The topology a two-level body stages through (the selector picks
    /// two-level only where there is one).
    fn topo(&self) -> &SmpTopo {
        self.topo.as_deref().expect("no topology")
    }

    /// A flat scope over `ranks` on this scope's context.
    fn part(&self, ranks: &Arc<Vec<usize>>, me: usize) -> Scope {
        Scope {
            ranks: Arc::clone(ranks),
            me,
            ctx: self.ctx,
            topo: None,
        }
    }

    /// This rank's locality group as a scope of its own: members
    /// ascending, its leader at position 0.
    fn group(&self) -> Scope {
        let (topo, rank) = (self.topo(), self.rank(self.me));
        let members = &topo.groups[topo.group_index(rank)];
        let me = members.binary_search(&rank).expect("rank not in its group");
        self.part(members, me)
    }

    /// The group leaders as a scope; this rank's position is its group's
    /// index, which is its own position only at a leader.
    fn leaders(&self) -> Scope {
        let topo = self.topo();
        self.part(&topo.leaders, topo.group_index(self.rank(self.me)))
    }
}

/// What the bracket needs to know about the call it wraps.
#[derive(Clone, Copy)]
pub(crate) enum Call {
    /// A collective the scope's selector schedules; the `usize` is the
    /// per-rank message size it selects on.
    Selected(CollKind, usize),
    /// A collective with one algorithm and no row in the selection ledger.
    Fixed(&'static str),
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Selected(kind, _) => kind.name(),
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
    /// record the algorithm from `scope`, run `body` with it, exit under
    /// the picked algorithm's call name. `ft` is the only difference
    /// between the plain and the fault-tolerant entry of one collective:
    /// the fault-tolerant one counts the op and executes the rank's
    /// scripted fate on the way in, and hands the error back on the way
    /// out.
    pub(crate) fn try_collective<R>(
        &mut self,
        ft: bool,
        scope: &Scope,
        call: Call,
        body: impl FnOnce(&mut Mpi, CollAlgo) -> Result<R, MpiError>,
    ) -> Result<R, MpiError> {
        let t0 = if ft { self.ft_enter()? } else { self.enter() };
        let (algo, name) = match call {
            Call::Selected(kind, bytes) => {
                // A scope without a topology runs flat.
                let topo = scope.topo.as_ref();
                let algo = topo.map_or(CollAlgo::Flat, |t| t.selector.select(kind, bytes));
                self.obs.coll(kind, algo);
                (algo, coll_trace_name(kind, algo))
            }
            Call::Fixed(_) => (CollAlgo::Flat, CallClass::Collective.name()),
        };
        let out = body(self, algo);
        self.exit_named(CallClass::Collective, t0, name);
        out
    }

    /// [`Mpi::try_collective`] for the plain API.
    pub(crate) fn collective<R>(
        &mut self,
        scope: &Scope,
        call: Call,
        body: impl FnOnce(&mut Mpi, CollAlgo) -> Result<R, MpiError>,
    ) -> R {
        plain(call.name(), self.try_collective(false, scope, call, body))
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
    // Each fails fast at entry on a revoked context or convicted member,
    // and in flight when a partner dies mid-round. The world, a two-level
    // phase and a communicator call all run these same bodies.

    /// Dissemination barrier.
    pub(crate) fn barrier_list(&mut self, scope: &Scope, op_id: u32) -> Result<(), MpiError> {
        self.check_op_failure(scope.ctx, None)?;
        let (n, me) = (scope.len(), scope.me);
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let dst = scope.rank((me + dist) % n);
            let src = scope.rank((me + n - dist % n) % n);
            self.try_coll_sendrecv(Bytes::new(), dst, src, tag(op_id, k), scope.ctx)?;
            dist <<= 1;
            k += 1;
        }
        Ok(())
    }

    /// Binomial broadcast from position `root`. Every rank returns the
    /// payload. Its messages travel in round 1 of `op_id` and those of
    /// [`Mpi::reduce_list`] and [`Mpi::gather_list`] in round 0, so a
    /// composition that reduces or gathers and then broadcasts under one
    /// id keeps the two message classes apart.
    pub(crate) fn bcast_list(
        &mut self,
        data: Option<Bytes>,
        scope: &Scope,
        root: usize,
        op_id: u32,
    ) -> Result<Bytes, MpiError> {
        self.check_op_failure(scope.ctx, None)?;
        let n = scope.len();
        let relative = (scope.me + n - root) % n;
        let mut payload = data.unwrap_or_default();
        // Receive phase.
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src = scope.rank(((relative ^ mask) + root) % n); // relative - mask
                payload = self.try_coll_recv(src, tag(op_id, 1), scope.ctx)?;
                break;
            }
            mask <<= 1;
        }
        // Forward phase.
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let dst = scope.rank((relative + mask + root) % n);
                self.try_coll_send(payload.clone(), dst, tag(op_id, 1), scope.ctx)?;
            }
            mask >>= 1;
        }
        Ok(payload)
    }

    /// Binomial reduce of the wire image `acc` (elements of `T`) to
    /// position `root`: the reduced image at the root, an empty one
    /// elsewhere. The accumulator stays an image from the first fold to
    /// the send that ends a non-root's part: each child's image is folded
    /// in with one pass ([`reduce_images`]), into whichever of the two
    /// this rank holds alone, and the send hands the image over as it is.
    pub(crate) fn reduce_list<T: Reducible>(
        &mut self,
        mut acc: Bytes,
        rop: ReduceOp,
        scope: &Scope,
        root: usize,
        op_id: u32,
    ) -> Result<Bytes, MpiError> {
        self.check_op_failure(scope.ctx, None)?;
        let n = scope.len();
        let relative = (scope.me + n - root) % n;
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let peer_rel = relative | mask;
                if peer_rel < n {
                    let peer = scope.rank((peer_rel + root) % n);
                    let theirs = self.try_coll_recv(peer, tag(op_id, 0), scope.ctx)?;
                    acc = reduce_images::<T>(rop, acc, theirs);
                }
            } else {
                let peer = scope.rank(((relative ^ mask) + root) % n);
                self.try_coll_send(acc, peer, tag(op_id, 0), scope.ctx)?;
                return Ok(Bytes::new());
            }
            mask <<= 1;
        }
        Ok(acc)
    }

    /// Recursive-doubling allreduce of the wire image `acc` (reduce +
    /// bcast when the group size is not a power of two); every member
    /// returns the reduced image.
    pub(crate) fn allreduce_list<T: Reducible>(
        &mut self,
        mut acc: Bytes,
        rop: ReduceOp,
        scope: &Scope,
        op_id: u32,
    ) -> Result<Bytes, MpiError> {
        self.check_op_failure(scope.ctx, None)?;
        let n = scope.len();
        if n == 1 {
            return Ok(acc);
        }
        if !n.is_power_of_two() {
            let red = self.reduce_list::<T>(acc, rop, scope, 0, op_id)?;
            return self.bcast_list((scope.me == 0).then_some(red), scope, 0, op_id);
        }
        // A round sends the image as it is and folds the partner's in
        // with one pass, into whichever of the two this rank holds alone
        // by then.
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < n {
            let peer = scope.rank(scope.me ^ mask);
            let t = tag(op_id, round);
            let theirs = self.try_coll_sendrecv(acc.clone(), peer, peer, t, scope.ctx)?;
            acc = reduce_images::<T>(rop, acc, theirs);
            mask <<= 1;
            round += 1;
        }
        Ok(acc)
    }

    /// Binomial gather of one block per member to position `root`, each
    /// framed under its member's `key` (its position in the scope the
    /// caller serves). The root's return value is the bundles of its child
    /// subtrees as they arrived — `(key, block)` frames in tree-relative
    /// order, its own block not among them; other ranks' return values are
    /// meaningless.
    pub(crate) fn gather_list<T: MpiData>(
        &mut self,
        mine: &[T],
        scope: &Scope,
        root: usize,
        op_id: u32,
        key: usize,
    ) -> Result<Vec<Bytes>, MpiError> {
        self.check_op_failure(scope.ctx, None)?;
        let n = scope.len();
        let relative = (scope.me + n - root) % n;
        let mut children: Vec<Bytes> = Vec::new();
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < n {
                    let src = scope.rank((src_rel + root) % n);
                    children.push(self.try_coll_recv(src, tag(op_id, 0), scope.ctx)?);
                }
            } else {
                let dst = scope.rank(((relative ^ mask) + root) % n);
                let up = subtree_bundle(key, mine, &children);
                self.try_coll_send(up, dst, tag(op_id, 0), scope.ctx)?;
                break;
            }
            mask <<= 1;
        }
        Ok(children)
    }

    /// Ring allgather of one `data.len()`-element block per member; the
    /// concatenation in scope order on every member.
    pub(crate) fn allgather_list<T: MpiData>(
        &mut self,
        data: &[T],
        scope: &Scope,
        op_id: u32,
    ) -> Result<Vec<T>, MpiError> {
        self.check_op_failure(scope.ctx, None)?;
        let (n, me) = (scope.len(), scope.me);
        let block = data.len();
        let mut all = zeroed(block * n);
        all[me * block..(me + 1) * block].copy_from_slice(data);
        let right = scope.rank((me + 1) % n);
        let left = scope.rank((me + n - 1) % n);
        // Step `s` sends block `me - s`, which is what step `s - 1`
        // received: each hop passes on the handle that just arrived.
        let mut carry = to_bytes(data);
        for step in 0..n - 1 {
            let recv_block = (me + n - step - 1) % n;
            let t = tag(op_id, step as u32);
            carry = self.try_coll_sendrecv(carry, right, left, t, scope.ctx)?;
            from_bytes(
                &carry,
                &mut all[recv_block * block..(recv_block + 1) * block],
            );
        }
        Ok(all)
    }

    // ---- public collectives and their bodies -----------------------------------

    /// Synchronize all ranks (`MPI_Barrier`).
    pub fn barrier(&mut self) {
        plain("barrier", self.barrier_in(false, &self.world_scope()))
    }

    /// The barrier body of the world and communicator entries; `ft`
    /// picks the bracket's entry ([`Mpi::try_collective`]).
    pub(crate) fn barrier_in(&mut self, ft: bool, scope: &Scope) -> Result<(), MpiError> {
        let call = Call::Selected(CollKind::Barrier, 0);
        self.try_collective(ft, scope, call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.barrier_two_level(scope),
            _ => mpi.barrier_list(scope, op::BARRIER),
        })
    }

    /// Broadcast `buf` from `root` to every rank (`MPI_Bcast`).
    pub fn bcast<T: MpiData>(&mut self, buf: &mut [T], root: usize) {
        let world = self.world_scope();
        world.check_root("bcast", root);
        let call = Call::Selected(CollKind::Bcast, std::mem::size_of_val(buf));
        self.collective(&world, call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.bcast_two_level(&world, buf, root),
            CollAlgo::Large => mpi.bcast_scatter_allgather(&world, buf, root),
            CollAlgo::Flat => {
                let at_root = world.me == root;
                let out =
                    mpi.bcast_list(at_root.then(|| to_bytes(buf)), &world, root, op::BCAST)?;
                if !at_root {
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
        let world = self.world_scope();
        world.check_root("reduce", root);
        let call = Call::Selected(CollKind::Reduce, std::mem::size_of_val(data));
        let acc = self.collective(&world, call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.reduce_two_level(&world, data, rop, root),
            _ => mpi.reduce_list::<T>(to_bytes(data), rop, &world, root, op::REDUCE),
        });
        (world.me == root).then(|| decoded(acc, data.len()))
    }

    /// Elementwise reduction visible on every rank (`MPI_Allreduce`).
    pub fn allreduce<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        let world = self.world_scope();
        plain("allreduce", self.allreduce_in(false, &world, data, rop))
    }

    /// The allreduce body of the world and communicator entries.
    pub(crate) fn allreduce_in<T: Reducible>(
        &mut self,
        ft: bool,
        scope: &Scope,
        data: &[T],
        rop: ReduceOp,
    ) -> Result<Vec<T>, MpiError> {
        let call = Call::Selected(CollKind::Allreduce, std::mem::size_of_val(data));
        self.try_collective(ft, scope, call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.allreduce_two_level(scope, data, rop),
            CollAlgo::Large => mpi.allreduce_rabenseifner(scope, data, rop),
            CollAlgo::Flat => mpi
                .allreduce_list::<T>(to_bytes(data), rop, scope, op::ALLREDUCE)
                .map(|acc| decoded(acc, data.len())),
        })
    }

    /// Gather equal-size contributions to `root` (`MPI_Gather`). Returns
    /// the rank-ordered concatenation at the root.
    pub fn gather<T: MpiData>(&mut self, data: &[T], root: usize) -> Option<Vec<T>> {
        let world = self.world_scope();
        world.check_root("gather", root);
        let call = Call::Selected(CollKind::Gather, std::mem::size_of_val(data));
        let all = self.collective(&world, call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.gather_two_level(&world, data, root),
            _ => mpi.gather_binomial(&world, data, root),
        });
        (world.me == root).then_some(all)
    }

    /// Binomial gather to position `root`: the concatenation in scope
    /// order at the root, empty elsewhere.
    fn gather_binomial<T: MpiData>(
        &mut self,
        scope: &Scope,
        data: &[T],
        root: usize,
    ) -> Result<Vec<T>, MpiError> {
        let children = self.gather_list(data, scope, root, op::GATHER, scope.me)?;
        if scope.me != root {
            return Ok(Vec::new());
        }
        let block = data.len();
        let mut all = zeroed(block * scope.len());
        all[root * block..(root + 1) * block].copy_from_slice(data);
        for bundle in &children {
            place_blocks(bundle, block, &mut all, "gather subtree bundle");
        }
        Ok(all)
    }

    /// All-to-all gather of equal contributions (`MPI_Allgather`). Returns
    /// the rank-ordered concatenation.
    pub fn allgather<T: MpiData>(&mut self, data: &[T]) -> Vec<T> {
        let world = self.world_scope();
        let call = Call::Selected(CollKind::Allgather, std::mem::size_of_val(data));
        self.collective(&world, call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.allgather_two_level(&world, data),
            _ => mpi.allgather_list(data, &world, op::ALLGATHER),
        })
    }

    /// Personalized all-to-all exchange (`MPI_Alltoall`). `data` holds one
    /// `block`-element slab per destination; returns one slab per source.
    pub fn alltoall<T: MpiData>(&mut self, data: &[T], block: usize) -> Vec<T> {
        let world = self.world_scope();
        assert_eq!(
            data.len(),
            block * world.len(),
            "alltoall data must be n * block elements"
        );
        let call = Call::Selected(CollKind::Alltoall, block * T::SIZE);
        self.collective(&world, call, |mpi, algo| match algo {
            CollAlgo::TwoLevel => mpi.alltoall_two_level(&world, data, block),
            _ => mpi.alltoall_pairwise(&world, data, block),
        })
    }

    /// Pairwise alltoall: step `s` sends to position `me + s` and receives
    /// from `me - s`.
    fn alltoall_pairwise<T: MpiData>(
        &mut self,
        scope: &Scope,
        data: &[T],
        block: usize,
    ) -> Result<Vec<T>, MpiError> {
        let (n, me) = (scope.len(), scope.me);
        let bs = block * T::SIZE;
        let mut out = zeroed(block * n);
        out[me * block..(me + 1) * block].copy_from_slice(&data[me * block..(me + 1) * block]);
        // One wire image of every slab; each step sends a slice of it.
        let image = to_bytes(data);
        for step in 1..n {
            let dst = (me + step) % n;
            let src = (me + n - step) % n;
            let got = self.try_coll_sendrecv(
                image.slice(dst * bs..(dst + 1) * bs),
                scope.rank(dst),
                scope.rank(src),
                tag(op::ALLTOALL, step as u32),
                scope.ctx,
            )?;
            from_bytes(&got, &mut out[src * block..(src + 1) * block]);
        }
        Ok(out)
    }

    /// Variable-size personalized all-to-all (`MPI_Alltoallv`): one byte
    /// payload per destination; returns one payload per source.
    pub fn alltoallv_bytes(&mut self, blocks: Vec<Bytes>) -> Vec<Bytes> {
        let world = self.world_scope();
        self.collective(&world, Call::Fixed("alltoallv"), |mpi, _| {
            let (n, me) = (world.len(), world.me);
            assert_eq!(blocks.len(), n, "alltoallv needs one block per rank");
            let t = tag(op::ALLTOALLV, 0);
            let mut out: Vec<Bytes> = vec![Bytes::new(); n];
            out[me] = blocks[me].clone();
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for step in 1..n {
                let dst = (me + step) % n;
                let src = (me + n - step) % n;
                sends.push(mpi.isend_inner(blocks[dst].clone(), world.rank(dst), t, world.ctx));
                let from = Some(world.rank(src));
                recvs.push((src, mpi.irecv_inner(from, Some(t), world.ctx)));
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
    //
    // Each phase runs a list algorithm over this rank's group or over the
    // group leaders, both scopes of their own (`Scope::group` / `leaders`).

    /// Two-level broadcast: root → its group's leader → inter-leader
    /// binomial tree → host-local binomial trees.
    fn bcast_two_level<T: MpiData>(
        &mut self,
        scope: &Scope,
        buf: &mut [T],
        root: usize,
    ) -> Result<(), MpiError> {
        let (topo, group, leaders) = (scope.topo(), scope.group(), scope.leaders());
        let root_rank = scope.rank(root);
        let root_gi = topo.group_index(root_rank);
        let root_leader = leaders.rank(root_gi);
        let at_root = scope.me == root;
        let mut payload: Option<Bytes> = at_root.then(|| to_bytes(buf));
        // Phase 0: shuttle to the root's group leader when the root is
        // not a leader itself.
        if root_rank != root_leader {
            let t = tag(op::SMP_SHUTTLE, 0);
            if at_root {
                let b = payload.clone().expect("root payload missing");
                self.try_coll_send(b, root_leader, t, scope.ctx)?;
            } else if self.rank == root_leader {
                payload = Some(self.try_coll_recv(root_rank, t, scope.ctx)?);
            }
        }
        // Phase 1: inter-leader broadcast.
        if group.me == 0 && leaders.len() > 1 {
            let seed = payload.take();
            payload = Some(self.bcast_list(seed, &leaders, root_gi, op::SMP_PHASE0)?);
        }
        // Phase 2: host-local broadcast from the leader.
        if group.len() > 1 {
            payload = Some(self.bcast_list(payload.take(), &group, 0, op::SMP_PHASE1)?);
        }
        if !at_root {
            from_bytes(&payload.expect("bcast payload missing"), buf);
        }
        Ok(())
    }

    /// Two-level allreduce: host-local reduce to the leader, inter-leader
    /// allreduce, host-local broadcast. The accumulator is one wire image
    /// throughout (a member holds none between its send and the
    /// broadcast), decoded once at the end.
    fn allreduce_two_level<T: Reducible>(
        &mut self,
        scope: &Scope,
        data: &[T],
        rop: ReduceOp,
    ) -> Result<Vec<T>, MpiError> {
        let (group, leaders) = (scope.group(), scope.leaders());
        let mut acc = to_bytes(data);
        if group.len() > 1 {
            acc = self.reduce_list::<T>(acc, rop, &group, 0, op::SMP_PHASE0)?;
        }
        if group.me == 0 && leaders.len() > 1 {
            acc = self.allreduce_list::<T>(acc, rop, &leaders, op::SMP_PHASE1)?;
        }
        if group.len() > 1 {
            acc = self.bcast_list((group.me == 0).then_some(acc), &group, 0, op::SMP_PHASE2)?;
        }
        Ok(decoded(acc, data.len()))
    }

    /// Two-level reduce: host-local reduce to the leader, inter-leader
    /// reduce rooted at the root's leader, leader → root shuttle. Like
    /// [`Mpi::reduce_list`], the reduced wire image at the root.
    fn reduce_two_level<T: Reducible>(
        &mut self,
        scope: &Scope,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Result<Bytes, MpiError> {
        let (topo, group, leaders) = (scope.topo(), scope.group(), scope.leaders());
        let root_rank = scope.rank(root);
        let root_gi = topo.group_index(root_rank);
        let root_leader = leaders.rank(root_gi);
        // Phase 0: host-local fan-in to the group leader.
        let mut acc = to_bytes(data);
        if group.len() > 1 {
            acc = self.reduce_list::<T>(acc, rop, &group, 0, op::SMP_REDUCE0)?;
        }
        // Phase 1: inter-leader reduce rooted at the root's leader.
        if group.me == 0 && leaders.len() > 1 {
            acc = self.reduce_list::<T>(acc, rop, &leaders, root_gi, op::SMP_REDUCE1)?;
        }
        // Phase 2: shuttle to a non-leader root.
        if root_rank != root_leader {
            let t = tag(op::SMP_REDUCE2, 0);
            if self.rank == root_leader {
                self.try_coll_send(std::mem::take(&mut acc), root_rank, t, scope.ctx)?;
            } else if scope.me == root {
                acc = self.try_coll_recv(root_leader, t, scope.ctx)?;
            }
        }
        Ok(acc)
    }

    /// Two-level gather: host-local gather to the leader, leaders gather
    /// the per-group bundles to the root's leader, leader → root shuttle.
    /// The concatenation in scope order at the root, empty elsewhere.
    fn gather_two_level<T: MpiData>(
        &mut self,
        scope: &Scope,
        data: &[T],
        root: usize,
    ) -> Result<Vec<T>, MpiError> {
        let (topo, group, leaders) = (scope.topo(), scope.group(), scope.leaders());
        let root_rank = scope.rank(root);
        let root_gi = topo.group_index(root_rank);
        let root_leader = leaders.rank(root_gi);
        let block = data.len();
        // Phase 0: host-local gather to the group leader.
        let members = self.gather_list(data, &group, 0, op::SMP_GATHER0, scope.me)?;
        // Phase 1: leaders gather their groups' bundles, one frame per
        // group, to the root's leader.
        let mut mine = Bytes::new();
        let mut others = Vec::new();
        if group.me == 0 {
            mine = subtree_bundle(scope.me, data, &members);
            if leaders.len() > 1 {
                others =
                    self.gather_list(&mine[..], &leaders, root_gi, op::SMP_GATHER1, scope.me)?;
            }
        }
        let mut all = Vec::new();
        if self.rank == root_leader {
            // Every group's bundle of (position, block) frames, by leader.
            let mut groups: Vec<(usize, &[u8])> = vec![(scope.me, &mine[..])];
            for bundle in &others {
                groups.extend(frames_ok(bundle, "gather-smp leader bundle"));
            }
            groups.sort_unstable_by_key(|&(leader, _)| leader);
            if scope.me == root {
                all = zeroed(block * scope.len());
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
                let t = tag(op::SMP_GATHER2, 0);
                self.try_coll_send(w.finish(), root_rank, t, scope.ctx)?;
            }
        } else if scope.me == root {
            let b = self.try_coll_recv(root_leader, tag(op::SMP_GATHER2, 0), scope.ctx)?;
            all = zeroed(block * scope.len());
            place_blocks(&b, block, &mut all, "gather-smp root bundle");
        }
        Ok(all)
    }

    /// Two-level allgather: host-local gather to the leaders, leaders
    /// assemble and redistribute the scope's bundle, host-local
    /// broadcast. The concatenation in scope order on every rank.
    fn allgather_two_level<T: MpiData>(
        &mut self,
        scope: &Scope,
        data: &[T],
    ) -> Result<Vec<T>, MpiError> {
        let (group, leaders) = (scope.group(), scope.leaders());
        let block = data.len();
        // Phase 0: host-local gather to the leader.
        let members = self.gather_list(data, &group, 0, op::SMP_AG0, scope.me)?;
        // Phases 1+2: leaders assemble the scope's bundle at the first
        // leader and broadcast it back over the leader tree.
        let mut whole: Option<Bytes> = None;
        if group.me == 0 {
            let mine = subtree_bundle(scope.me, data, &members);
            if leaders.len() > 1 {
                let others = self.gather_list(&mine[..], &leaders, 0, op::SMP_AG1, scope.me)?;
                let seed = (leaders.me == 0).then(|| {
                    let mut blocks: Vec<(usize, &[u8])> =
                        frames_ok(&mine, "allgather-smp group bundle").collect();
                    for bundle in &others {
                        for (_, group) in frames_ok(bundle, "allgather-smp leader bundle") {
                            blocks.extend(frames_ok(group, "allgather-smp group bundle"));
                        }
                    }
                    blocks.sort_unstable_by_key(|&(p, _)| p);
                    let payload = blocks.iter().map(|(_, part)| part.len()).sum();
                    let mut w = FrameWriter::with_capacity(blocks.len(), payload);
                    for (p, part) in blocks {
                        w.put_bytes(p, part);
                    }
                    w.finish()
                });
                whole = Some(self.bcast_list(seed, &leaders, 0, op::SMP_AG2)?);
            } else {
                whole = Some(mine);
            }
        }
        // Phase 3: host-local broadcast of the scope's bundle.
        let whole = if group.len() > 1 {
            self.bcast_list(whole, &group, 0, op::SMP_AG3)?
        } else {
            whole.expect("allgather-smp bundle missing")
        };
        // The bundle is in scope order, so the result fills front to back.
        let mut all = Vec::with_capacity(block * scope.len());
        let mut positions = 0..scope.len();
        for (p, part) in frames_ok(&whole, "allgather-smp bundle") {
            assert_eq!(
                positions.next(),
                Some(p),
                "allgather-smp bundle out of order"
            );
            extend_from_bytes(part, block, &mut all);
        }
        assert!(positions.is_empty(), "allgather-smp bundle is short");
        Ok(all)
    }

    /// Two-level barrier: host-local flat fan-in to the leader,
    /// inter-leader dissemination barrier, host-local flat fan-out. On an
    /// oversubscribed host a flat fan beats a tree for synchronization-only
    /// traffic — members post one empty message and move on, only the
    /// leader blocks, no intermediate park/wake chain — mirroring the
    /// shared-memory flag barrier MVAPICH2 uses for its SMP phase.
    fn barrier_two_level(&mut self, scope: &Scope) -> Result<(), MpiError> {
        let (group, leaders) = (scope.group(), scope.leaders());
        let (leader, members, ctx) = (group.rank(0), &group.ranks[1..], scope.ctx);
        let (fan_in, fan_out) = (tag(op::SMP_BAR0, 0), tag(op::SMP_BAR2, 1));
        if group.me != 0 {
            self.try_coll_send(Bytes::new(), leader, fan_in, ctx)?;
            self.try_coll_recv(leader, fan_out, ctx)?;
            return Ok(());
        }
        for &r in members {
            self.try_coll_recv(r, fan_in, ctx)?;
        }
        if leaders.len() > 1 {
            self.barrier_list(&leaders, op::SMP_BAR1)?;
        }
        for &r in members {
            self.try_coll_send(Bytes::new(), r, fan_out, ctx)?;
        }
        Ok(())
    }

    /// Hierarchical alltoall: intra-group slabs exchange directly;
    /// inter-group slabs are bundled through the leaders so only one
    /// (aggregated) message crosses each group pair. Slabs, frame keys and
    /// result slots are scope positions.
    fn alltoall_two_level<T: MpiData>(
        &mut self,
        scope: &Scope,
        data: &[T],
        block: usize,
    ) -> Result<Vec<T>, MpiError> {
        let (topo, group, leaders) = (scope.topo(), scope.group(), scope.leaders());
        let (n, me, m, my_gi) = (scope.len(), scope.me, group.len(), leaders.me);
        let bs = block * T::SIZE;
        let slab = |p: usize| &data[p * block..(p + 1) * block];
        let mut out = zeroed(block * n);
        out[me * block..(me + 1) * block].copy_from_slice(slab(me));
        // Phase A: intra-group pairwise exchange (local channels); every
        // send is a slice of one wire image of the group's slabs.
        if m > 1 {
            let mut image = spare::take(m * bs);
            for &member in group.ranks.iter() {
                T::encode(slab(topo.position(member)), &mut image);
            }
            let image = Bytes::from(image);
            for step in 1..m {
                let to = (group.me + step) % m;
                let src = group.rank((group.me + m - step) % m);
                let got = self.try_coll_sendrecv(
                    image.slice(to * bs..(to + 1) * bs),
                    group.rank(to),
                    src,
                    tag(op::SMP_A2A0, step as u32),
                    scope.ctx,
                )?;
                let s = topo.position(src);
                from_bytes(&got, &mut out[s * block..(s + 1) * block]);
            }
        }
        if leaders.len() == 1 {
            return Ok(out);
        }
        let group_of = |p: usize| topo.group_index(scope.rank(p));
        let external = |p: &usize| group_of(*p) != my_gi;
        let leader = group.rank(0);
        if group.me != 0 {
            // Phase B: hand the externally-destined slabs to the leader,
            // framed straight out of `data`, keyed by destination.
            let mut w = FrameWriter::with_capacity(n - m, (n - m) * bs);
            for d in (0..n).filter(external) {
                w.put(d, slab(d));
            }
            self.try_coll_send(w.finish(), leader, tag(op::SMP_A2A1, 0), scope.ctx)?;
            // Phase D: the leader returns what the other groups sent
            // here, keyed by source.
            let b = self.try_coll_recv(leader, tag(op::SMP_A2A3, 0), scope.ctx)?;
            place_blocks(&b, block, &mut out, "alltoall-smp distribution bundle");
            spare::give(b);
            return Ok(out);
        }
        // Phase B at the leader: stage every external slab of the group
        // once, by destination group — one aggregate per peer group,
        // frames keyed src * n + dst, sources in group order and
        // destinations ascending within each.
        let mut staged: Vec<FrameWriter> = (topo.groups.iter())
            .enumerate()
            .map(|(gi, g)| {
                let parts = if gi == my_gi { 0 } else { m * g.len() };
                FrameWriter::with_capacity(parts, parts * bs)
            })
            .collect();
        for d in (0..n).filter(external) {
            staged[group_of(d)].put(me * n + d, slab(d));
        }
        for &member in &group.ranks[1..] {
            let b = self.try_coll_recv(member, tag(op::SMP_A2A1, 0), scope.ctx)?;
            let src = topo.position(member);
            for (d, part) in frames_ok(&b, "alltoall-smp member bundle") {
                staged[group_of(d)].put_bytes(src * n + d, part);
            }
            spare::give(b);
        }
        // Phase C: leaders exchange the aggregates pairwise.
        let num_leaders = leaders.len();
        let mut incoming: Vec<Bytes> = Vec::with_capacity(num_leaders - 1);
        for step in 1..num_leaders {
            let to = (my_gi + step) % num_leaders;
            let from = (my_gi + num_leaders - step) % num_leaders;
            incoming.push(self.try_coll_sendrecv(
                std::mem::take(&mut staged[to]).finish(),
                leaders.rank(to),
                leaders.rank(from),
                tag(op::SMP_A2A2, step as u32),
                scope.ctx,
            )?);
        }
        // Phase D: sort the incoming slabs by member once and hand each
        // member its own, keyed by source.
        let mut per_member: Vec<FrameWriter> = (0..m)
            .map(|pos| {
                let parts = if pos == 0 { 0 } else { n - m };
                FrameWriter::with_capacity(parts, parts * bs)
            })
            .collect();
        for b in incoming {
            for (key, part) in frames_ok(&b, "alltoall-smp leader bundle") {
                let (s, d) = (key / n, scope.rank(key % n));
                match group.ranks.binary_search(&d) {
                    Ok(0) => from_bytes(part, &mut out[s * block..(s + 1) * block]),
                    Ok(pos) => per_member[pos].put_bytes(s, part),
                    Err(_) => panic!("alltoall-smp slab for rank {d} reached rank {leader}"),
                }
            }
            spare::give(b);
        }
        for (w, &member) in per_member.into_iter().zip(group.ranks.iter()).skip(1) {
            self.try_coll_send(w.finish(), member, tag(op::SMP_A2A3, 0), scope.ctx)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::vec_from_bytes;
    use crate::runtime::JobSpec;
    use cmpi_cluster::{DeploymentScenario, NamespaceSharing};

    /// Every two-level body, and the two large-message ones, on a scope
    /// that is not the world: each parity half of 2 hosts × 2 containers
    /// × 2 ranks in reverse rank order, so positions and world ranks
    /// disagree, on a context of its own with the world's topology
    /// restricted to it (two groups of two; position 0 leads no group, so
    /// rooted bodies shuttle). Each must return what the flat body
    /// returns on the same scope.
    #[test]
    fn scope_bodies_match_flat_on_a_split_communicator() {
        let scenario = DeploymentScenario::containers(2, 2, 2, NamespaceSharing::default());
        JobSpec::new(scenario).run(|mpi| {
            let (n, r) = (mpi.size(), mpi.rank());
            let half: Vec<usize> = (0..n).rev().filter(|s| s % 2 == r % 2).collect();
            let me = half.iter().position(|&s| s == r).unwrap();
            let topo = mpi.world_topo().restricted(&half);
            assert!(topo.selector().hierarchical(), "{:?}", topo.groups());
            let ranks = Arc::new(half);
            let scope = |topo| Scope {
                ranks: Arc::clone(&ranks),
                me,
                ctx: 16,
                topo,
            };
            let (flat, staged) = (scope(None), scope(Some(Arc::new(topo))));
            let (m, me, root) = (flat.len(), flat.me, 0);
            let mine = [r as u64 * 10 + 1, r as u64 * 10 + 2, r as u64 * 10 + 3];
            let slabs: Vec<u64> = (0..m * 3).map(|i| (r * 100 + i) as u64).collect();

            mpi.barrier_two_level(&staged).unwrap();
            mpi.barrier_list(&flat, op::BARRIER).unwrap();

            let seed = if me == root { mine } else { [0; 3] };
            let (mut two, mut large) = (seed, seed);
            mpi.bcast_two_level(&staged, &mut two, root).unwrap();
            mpi.bcast_scatter_allgather(&flat, &mut large, root)
                .unwrap();
            let at_root = (me == root).then(|| to_bytes(&mine));
            let out = mpi.bcast_list(at_root, &flat, root, op::BCAST).unwrap();
            assert_eq!(two.to_vec(), vec_from_bytes::<u64>(&out, 3));
            assert_eq!(large, two);

            let two = mpi.reduce_two_level(&staged, &mine, ReduceOp::Sum, root);
            let one =
                mpi.reduce_list::<u64>(to_bytes(&mine), ReduceOp::Sum, &flat, root, op::REDUCE);
            if me == root {
                assert_eq!(two.unwrap(), one.unwrap());
            }

            let two = mpi
                .allreduce_two_level(&staged, &mine, ReduceOp::Sum)
                .unwrap();
            let large = mpi
                .allreduce_rabenseifner(&flat, &mine, ReduceOp::Sum)
                .unwrap();
            let one =
                mpi.allreduce_list::<u64>(to_bytes(&mine), ReduceOp::Sum, &flat, op::ALLREDUCE);
            assert_eq!(two, vec_from_bytes::<u64>(&one.unwrap(), 3));
            assert_eq!(large, two);

            let two = mpi.gather_two_level(&staged, &mine, root).unwrap();
            let one = mpi.gather_binomial(&flat, &mine, root).unwrap();
            assert_eq!(two, one);

            let two = mpi.allgather_two_level(&staged, &mine).unwrap();
            let one = mpi.allgather_list(&mine, &flat, op::ALLGATHER).unwrap();
            assert_eq!(two, one);
            let in_scope_order = ranks.iter().flat_map(|&s| (1..=3).map(move |i| s * 10 + i));
            assert!(two.iter().map(|&v| v as usize).eq(in_scope_order));

            let two = mpi.alltoall_two_level(&staged, &slabs, 3).unwrap();
            let one = mpi.alltoall_pairwise(&flat, &slabs, 3).unwrap();
            assert_eq!(two, one);
        });
    }

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
