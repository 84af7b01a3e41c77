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
//! On top of the flat defaults the module provides a *two-level*
//! (SMP-aware) family — [`Mpi::bcast_smp`], [`Mpi::allreduce_smp`],
//! [`Mpi::reduce_smp`], [`Mpi::gather_smp`], [`Mpi::allgather_smp`],
//! [`Mpi::barrier_smp`], [`Mpi::alltoall_smp`] — that stages through
//! per-group leaders (host-local fan-in, inter-leader exchange,
//! host-local fan-out). The public entry points route through the
//! [`crate::coll_select::CollectiveSelector`], so `ContainerDetector`
//! jobs pick up hierarchical scheduling automatically while the
//! `Hostname` ("Default") policy degenerates to the flat paths.

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use crate::coll_select::{coll_trace_name, CollAlgo, CollKind};
use crate::datatype::{from_bytes, reduce_into, to_bytes, zeroed, MpiData, ReduceOp, Reducible};
use crate::error::MpiError;
use crate::locality::LocalityPolicy;
use crate::pt2pt::CTX_COLL;
use crate::runtime::{JobState, Mpi};
use crate::stats::CallClass;

/// Collective op ids baked into internal tags (high bits).
mod op {
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

/// Serialize `(rank, payload)` pairs for tree bundles.
fn bundle(parts: &[(usize, Bytes)]) -> Bytes {
    let mut out = BytesMut::new();
    for (rank, data) in parts {
        out.put_u32_le(*rank as u32);
        out.put_u32_le(data.len() as u32);
        out.extend_from_slice(data);
    }
    out.freeze()
}

/// Inverse of [`bundle`], length-checked: a truncated or odd-length
/// bundle surfaces as [`MpiError::CorruptBundle`] instead of a slice
/// panic, so a torn frame is diagnosable.
fn unbundle(data: &Bytes) -> Result<Vec<(usize, Bytes)>, MpiError> {
    let mut parts = Vec::new();
    let mut off = 0usize;
    while off < data.len() {
        if data.len() - off < 8 {
            return Err(MpiError::CorruptBundle {
                offset: off,
                len: data.len(),
            });
        }
        let rank = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap()) as usize;
        off += 8;
        if data.len() - off < len {
            return Err(MpiError::CorruptBundle {
                offset: off,
                len: data.len(),
            });
        }
        parts.push((rank, data.slice(off..off + len)));
        off += len;
    }
    Ok(parts)
}

/// [`unbundle`] for payloads that must be intact (tree-internal frames the
/// library itself produced); panics with the structured diagnostic.
fn unbundle_ok(data: &Bytes, what: &str) -> Vec<(usize, Bytes)> {
    unbundle(data).unwrap_or_else(|e| panic!("{what}: {e}"))
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

/// The job's two-level collective topology: the policy's locality
/// groups, their leaders, and a rank→group index. One instance serves
/// every rank (see `JobState::smp_topo`).
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
}

impl SmpTopo {
    /// Index the locality groups (a partition of ranks `0..n`, each group
    /// sorted ascending).
    pub(crate) fn new(groups: Vec<Vec<usize>>, n: usize) -> SmpTopo {
        let leaders = groups.iter().map(|g| g[0]).collect();
        let mut group_idx = vec![u32::MAX; n];
        for (gi, g) in groups.iter().enumerate() {
            for &r in g {
                group_idx[r] = gi as u32;
            }
        }
        assert!(!group_idx.contains(&u32::MAX), "rank in no group");
        SmpTopo {
            groups,
            leaders,
            group_idx,
        }
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

impl Mpi {
    // ---- internal helpers (no time-class attribution) ----------------------

    fn coll_send(&mut self, data: Bytes, dst: usize, t: u32, ctx: u32) {
        let id = self.isend_inner(data, dst, t, ctx);
        self.wait_send_inner(id);
    }

    fn coll_recv(&mut self, src: usize, t: u32, ctx: u32) -> Bytes {
        let id = self.irecv_inner(Some(src), Some(t), ctx);
        self.wait_recv_inner(id).0
    }

    fn coll_sendrecv(&mut self, data: Bytes, dst: usize, src: usize, t: u32, ctx: u32) -> Bytes {
        let sid = self.isend_inner(data, dst, t, ctx);
        let rid = self.irecv_inner(Some(src), Some(t), ctx);
        let out = self.wait_recv_inner(rid).0;
        self.wait_send_inner(sid);
        out
    }

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

    /// Both halves run to an outcome so neither request leaks on error.
    pub(crate) fn try_coll_sendrecv(
        &mut self,
        data: Bytes,
        dst: usize,
        src: usize,
        t: u32,
        ctx: u32,
    ) -> Result<Bytes, MpiError> {
        let sid = self.isend_inner(data, dst, t, ctx);
        let rid = self.irecv_inner(Some(src), Some(t), ctx);
        let rout = self.try_wait_recv_inner(rid);
        let sout = self.try_wait_send_inner(sid);
        let out = rout?;
        sout?;
        Ok(out.0)
    }

    /// Flat fan-in to `list[0]`: every member posts one empty message to
    /// the leader and moves on; the leader absorbs them all. On an
    /// oversubscribed host this beats a tree for synchronization-only
    /// traffic — members never wait on each other (no intermediate
    /// park/wake chain), only the leader blocks — mirroring the
    /// shared-memory flag barrier MVAPICH2 uses for its SMP phase.
    pub(crate) fn coll_fanin_inner(&mut self, list: &[usize], op_id: u32) {
        let leader = list[0];
        if self.rank == leader {
            for &r in &list[1..] {
                let _ = self.coll_recv(r, tag(op_id, 0), CTX_COLL);
            }
        } else {
            self.coll_send(Bytes::new(), leader, tag(op_id, 0), CTX_COLL);
        }
    }

    /// Flat fan-out from `list[0]`: the leader releases every member with
    /// one empty message. Counterpart of [`Mpi::coll_fanin_inner`].
    pub(crate) fn coll_fanout_inner(&mut self, list: &[usize], op_id: u32) {
        let leader = list[0];
        if self.rank == leader {
            for &r in &list[1..] {
                self.coll_send(Bytes::new(), r, tag(op_id, 1), CTX_COLL);
            }
        } else {
            let _ = self.coll_recv(leader, tag(op_id, 1), CTX_COLL);
        }
    }

    /// Dissemination barrier over an explicit rank list (positions in
    /// `list` act as virtual ranks).
    pub(crate) fn barrier_inner(&mut self, list: &[usize], op_id: u32) {
        self.barrier_inner_ctx(list, op_id, CTX_COLL)
    }

    /// [`Mpi::barrier_inner`] on an explicit communicator context.
    pub(crate) fn barrier_inner_ctx(&mut self, list: &[usize], op_id: u32, ctx: u32) {
        self.try_barrier_inner_ctx(list, op_id, ctx)
            .unwrap_or_else(|e| panic!("barrier failed: {e}"))
    }

    /// Fault-tolerant [`Mpi::barrier_inner_ctx`]: fails fast at entry on a
    /// revoked context or convicted member, and in flight when a partner
    /// dies mid-round.
    pub(crate) fn try_barrier_inner_ctx(
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

    /// Binomial broadcast over an explicit rank list; `root_pos` indexes
    /// `list`. Every rank returns the payload.
    pub(crate) fn bcast_inner(
        &mut self,
        data: Option<Bytes>,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
    ) -> Bytes {
        self.bcast_inner_ctx(data, list, root_pos, op_id, CTX_COLL)
    }

    /// [`Mpi::bcast_inner`] on an explicit communicator context.
    pub(crate) fn bcast_inner_ctx(
        &mut self,
        data: Option<Bytes>,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        ctx: u32,
    ) -> Bytes {
        self.try_bcast_inner_ctx(data, list, root_pos, op_id, ctx)
            .unwrap_or_else(|e| panic!("bcast failed: {e}"))
    }

    /// Fault-tolerant [`Mpi::bcast_inner_ctx`].
    pub(crate) fn try_bcast_inner_ctx(
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
                payload = self.try_coll_recv(src, tag(op_id, 0), ctx)?;
                break;
            }
            mask <<= 1;
        }
        // Forward phase.
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let dst = list[((relative + mask) + root_pos) % n];
                self.try_coll_send(payload.clone(), dst, tag(op_id, 0), ctx)?;
            }
            mask >>= 1;
        }
        Ok(payload)
    }

    /// Binomial reduce over a rank list; only the root's return value is
    /// meaningful.
    pub(crate) fn reduce_inner<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
    ) -> Vec<T> {
        self.reduce_inner_ctx(data, rop, list, root_pos, op_id, CTX_COLL)
    }

    /// [`Mpi::reduce_inner`] on an explicit communicator context.
    pub(crate) fn reduce_inner_ctx<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        ctx: u32,
    ) -> Vec<T> {
        self.try_reduce_inner_ctx(data, rop, list, root_pos, op_id, ctx)
            .unwrap_or_else(|e| panic!("reduce failed: {e}"))
    }

    /// Fault-tolerant [`Mpi::reduce_inner_ctx`].
    pub(crate) fn try_reduce_inner_ctx<T: Reducible>(
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
                    let mut tmp = zeroed(acc.len());
                    from_bytes(&bytes, &mut tmp);
                    reduce_into(rop, &mut acc, &tmp);
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

    /// Recursive-doubling allreduce over a rank list (falls back to
    /// reduce+bcast when the group size is not a power of two).
    pub(crate) fn allreduce_inner<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        list: &[usize],
        op_id: u32,
    ) -> Vec<T> {
        self.allreduce_inner_ctx(data, rop, list, op_id, CTX_COLL)
    }

    /// [`Mpi::allreduce_inner`] on an explicit communicator context.
    pub(crate) fn allreduce_inner_ctx<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        list: &[usize],
        op_id: u32,
        ctx: u32,
    ) -> Vec<T> {
        self.try_allreduce_inner_ctx(data, rop, list, op_id, ctx)
            .unwrap_or_else(|e| panic!("allreduce failed: {e}"))
    }

    /// Fault-tolerant [`Mpi::allreduce_inner_ctx`].
    pub(crate) fn try_allreduce_inner_ctx<T: Reducible>(
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
            let red = self.try_reduce_inner_ctx(data, rop, list, 0, op_id, ctx)?;
            let seed = if self.rank == list[0] {
                Some(to_bytes(&red))
            } else {
                None
            };
            let bytes = self.try_bcast_inner_ctx(seed, list, 0, op_id + 1, ctx)?;
            let mut out = zeroed(data.len());
            from_bytes(&bytes, &mut out);
            return Ok(out);
        }
        let me = list
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank not in allreduce group");
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < n {
            let peer = list[me ^ mask];
            let bytes =
                self.try_coll_sendrecv(to_bytes(&acc), peer, peer, tag(op_id, round), ctx)?;
            let mut tmp = zeroed(acc.len());
            from_bytes(&bytes, &mut tmp);
            reduce_into(rop, &mut acc, &tmp);
            mask <<= 1;
            round += 1;
        }
        Ok(acc)
    }

    /// Binomial gather of per-rank payloads; only the root's return value
    /// (rank-ordered payloads) is meaningful.
    pub(crate) fn gather_inner(
        &mut self,
        mine: Bytes,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
    ) -> Vec<(usize, Bytes)> {
        self.gather_inner_ctx(mine, list, root_pos, op_id, CTX_COLL)
    }

    /// [`Mpi::gather_inner`] on an explicit communicator context.
    pub(crate) fn gather_inner_ctx(
        &mut self,
        mine: Bytes,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        ctx: u32,
    ) -> Vec<(usize, Bytes)> {
        self.try_gather_inner_ctx(mine, list, root_pos, op_id, ctx)
            .unwrap_or_else(|e| panic!("gather failed: {e}"))
    }

    /// Fault-tolerant [`Mpi::gather_inner_ctx`].
    pub(crate) fn try_gather_inner_ctx(
        &mut self,
        mine: Bytes,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        ctx: u32,
    ) -> Result<Vec<(usize, Bytes)>, MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        let me = list
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank not in gather group");
        let relative = (me + n - root_pos) % n;
        let mut parts: Vec<(usize, Bytes)> = vec![(self.rank, mine)];
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < n {
                    let src = list[(src_rel + root_pos) % n];
                    let b = self.try_coll_recv(src, tag(op_id, 0), ctx)?;
                    parts.extend(unbundle_ok(&b, "gather subtree bundle"));
                }
            } else {
                let dst_rel = relative ^ mask;
                let dst = list[(dst_rel + root_pos) % n];
                self.try_coll_send(bundle(&parts), dst, tag(op_id, 0), ctx)?;
                break;
            }
            mask <<= 1;
        }
        parts.sort_by_key(|&(r, _)| r);
        Ok(parts)
    }

    // ---- public collectives --------------------------------------------------

    /// Synchronize all ranks (`MPI_Barrier`).
    pub fn barrier(&mut self) {
        let t0 = self.enter();
        let algo = self.coll.select(CollKind::Barrier, 0);
        self.record_coll_sel(CollKind::Barrier, algo);
        if algo == CollAlgo::TwoLevel {
            self.barrier_smp_inner();
        } else {
            self.with_world_list(|mpi, list| mpi.barrier_inner(list, op::BARRIER));
        }
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Barrier, algo),
        );
    }

    /// Broadcast `buf` from `root` to every rank (`MPI_Bcast`).
    pub fn bcast<T: MpiData>(&mut self, buf: &mut [T], root: usize) {
        let t0 = self.enter();
        let algo = self
            .coll
            .select(CollKind::Bcast, std::mem::size_of_val(buf));
        self.record_coll_sel(CollKind::Bcast, algo);
        match algo {
            CollAlgo::TwoLevel => self.bcast_smp_inner(buf, root),
            CollAlgo::Large => self.bcast_scatter_allgather_inner(buf, root),
            CollAlgo::Flat => {
                let seed = (self.rank == root).then(|| to_bytes(buf));
                let out =
                    self.with_world_list(|mpi, list| mpi.bcast_inner(seed, list, root, op::BCAST));
                if self.rank != root {
                    from_bytes(&out, buf);
                }
            }
        }
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Bcast, algo),
        );
    }

    /// Reduce elementwise to `root` (`MPI_Reduce`). Returns `Some(result)`
    /// at the root, `None` elsewhere.
    pub fn reduce<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Option<Vec<T>> {
        let t0 = self.enter();
        let algo = self
            .coll
            .select(CollKind::Reduce, std::mem::size_of_val(data));
        self.record_coll_sel(CollKind::Reduce, algo);
        let acc = if algo == CollAlgo::TwoLevel {
            self.reduce_smp_inner(data, rop, root)
        } else {
            self.with_world_list(|mpi, list| mpi.reduce_inner(data, rop, list, root, op::REDUCE))
        };
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Reduce, algo),
        );
        (self.rank == root).then_some(acc)
    }

    /// Elementwise reduction visible on every rank (`MPI_Allreduce`).
    pub fn allreduce<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        let t0 = self.enter();
        let algo = self
            .coll
            .select(CollKind::Allreduce, std::mem::size_of_val(data));
        self.record_coll_sel(CollKind::Allreduce, algo);
        let out = match algo {
            CollAlgo::TwoLevel => self.allreduce_smp_inner(data, rop),
            CollAlgo::Large => self.allreduce_rabenseifner_inner(data, rop),
            CollAlgo::Flat => self
                .with_world_list(|mpi, list| mpi.allreduce_inner(data, rop, list, op::ALLREDUCE)),
        };
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Allreduce, algo),
        );
        out
    }

    /// Gather equal-size contributions to `root` (`MPI_Gather`). Returns
    /// the rank-ordered concatenation at the root.
    pub fn gather<T: MpiData>(&mut self, data: &[T], root: usize) -> Option<Vec<T>> {
        let t0 = self.enter();
        let algo = self
            .coll
            .select(CollKind::Gather, std::mem::size_of_val(data));
        self.record_coll_sel(CollKind::Gather, algo);
        let out = if algo == CollAlgo::TwoLevel {
            let all = self.gather_smp_inner(data, root);
            (self.rank == root).then_some(all)
        } else {
            let parts = self.with_world_list(|mpi, list| {
                mpi.gather_inner(to_bytes(data), list, root, op::GATHER)
            });
            if self.rank == root {
                let mut all = zeroed(data.len() * self.n);
                for (r, b) in parts {
                    from_bytes(&b, &mut all[r * data.len()..(r + 1) * data.len()]);
                }
                Some(all)
            } else {
                None
            }
        };
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Gather, algo),
        );
        out
    }

    /// Scatter equal-size blocks from `root` (`MPI_Scatter`). `data` is
    /// required at the root (length `n * block`), ignored elsewhere;
    /// returns this rank's block.
    pub fn scatter<T: MpiData>(&mut self, data: Option<&[T]>, block: usize, root: usize) -> Vec<T> {
        let t0 = self.enter();
        let n = self.n;
        let relative = (self.rank + n - root) % n;
        // Bundle keyed by *relative* position.
        let mut mine: Option<Bytes> = None;
        let mut held: Vec<(usize, Bytes)> = Vec::new();
        if self.rank == root {
            let data = data.expect("scatter root must supply data");
            assert_eq!(
                data.len(),
                block * n,
                "scatter data must be n * block elements"
            );
            for rel in 0..n {
                let abs = (rel + root) % n;
                let b = to_bytes(&data[abs * block..(abs + 1) * block]);
                if rel == 0 {
                    mine = Some(b);
                } else {
                    held.push((rel, b));
                }
            }
        } else {
            // Receive my subtree's bundle from the parent.
            let mut mask = 1usize;
            while mask < n {
                if relative & mask != 0 {
                    let parent = ((relative ^ mask) + root) % n;
                    let b = self.coll_recv(parent, tag(op::SCATTER, 0), CTX_COLL);
                    for (rel, part) in unbundle_ok(&b, "scatter subtree bundle") {
                        if rel == relative {
                            mine = Some(part);
                        } else {
                            held.push((rel, part));
                        }
                    }
                    break;
                }
                mask <<= 1;
            }
        }
        // Forward children's subtrees: child subtree rooted at
        // relative+mask covers [relative+mask, relative+2*mask).
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                break;
            }
            mask <<= 1;
        }
        // `mask` is now above my subtree span; walk down. The root's span
        // is the whole tree.
        let mut m_cur = if relative == 0 {
            n.next_power_of_two() >> 1
        } else {
            mask >> 1
        };
        while m_cur > 0 {
            if relative + m_cur < n {
                let lo = relative + m_cur;
                let hi = (relative + 2 * m_cur).min(n);
                let parts: Vec<(usize, Bytes)> = held
                    .iter()
                    .filter(|(rel, _)| *rel >= lo && *rel < hi)
                    .cloned()
                    .collect();
                held.retain(|(rel, _)| *rel < lo || *rel >= hi);
                let dst = list_abs(lo, root, n);
                self.coll_send(bundle(&parts), dst, tag(op::SCATTER, 0), CTX_COLL);
            }
            m_cur >>= 1;
        }
        let bytes = mine.expect("scatter block never arrived");
        let mut out = zeroed(block);
        from_bytes(&bytes, &mut out);
        self.exit(CallClass::Collective, t0);
        out
    }

    /// All-to-all gather of equal contributions (`MPI_Allgather`). Returns
    /// the rank-ordered concatenation.
    pub fn allgather<T: MpiData>(&mut self, data: &[T]) -> Vec<T> {
        let t0 = self.enter();
        let algo = self
            .coll
            .select(CollKind::Allgather, std::mem::size_of_val(data));
        self.record_coll_sel(CollKind::Allgather, algo);
        let all = if algo == CollAlgo::TwoLevel {
            self.allgather_smp_inner(data)
        } else {
            self.allgather_flat_inner(data)
        };
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Allgather, algo),
        );
        all
    }

    /// Ring allgather over the world.
    fn allgather_flat_inner<T: MpiData>(&mut self, data: &[T]) -> Vec<T> {
        let n = self.n;
        let block = data.len();
        let mut all = zeroed(block * n);
        all[self.rank * block..(self.rank + 1) * block].copy_from_slice(data);
        if n > 1 {
            let right = (self.rank + 1) % n;
            let left = (self.rank + n - 1) % n;
            for step in 0..n - 1 {
                let send_block = (self.rank + n - step) % n;
                let recv_block = (self.rank + n - step - 1) % n;
                let payload = to_bytes(&all[send_block * block..(send_block + 1) * block]);
                let got = self.coll_sendrecv(
                    payload,
                    right,
                    left,
                    tag(op::ALLGATHER, step as u32),
                    CTX_COLL,
                );
                from_bytes(&got, &mut all[recv_block * block..(recv_block + 1) * block]);
            }
        }
        all
    }

    /// Personalized all-to-all exchange (`MPI_Alltoall`). `data` holds one
    /// `block`-element slab per destination; returns one slab per source.
    pub fn alltoall<T: MpiData>(&mut self, data: &[T], block: usize) -> Vec<T> {
        let t0 = self.enter();
        assert_eq!(
            data.len(),
            block * self.n,
            "alltoall data must be n * block elements"
        );
        let algo = self.coll.select(CollKind::Alltoall, block * T::SIZE);
        self.record_coll_sel(CollKind::Alltoall, algo);
        let out = if algo == CollAlgo::TwoLevel {
            self.alltoall_smp_inner(data, block)
        } else {
            self.alltoall_flat_inner(data, block)
        };
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Alltoall, algo),
        );
        out
    }

    /// Pairwise alltoall over the world.
    fn alltoall_flat_inner<T: MpiData>(&mut self, data: &[T], block: usize) -> Vec<T> {
        let n = self.n;
        let mut out = zeroed(block * n);
        out[self.rank * block..(self.rank + 1) * block]
            .copy_from_slice(&data[self.rank * block..(self.rank + 1) * block]);
        for step in 1..n {
            let dst = (self.rank + step) % n;
            let src = (self.rank + n - step) % n;
            let payload = to_bytes(&data[dst * block..(dst + 1) * block]);
            let got =
                self.coll_sendrecv(payload, dst, src, tag(op::ALLTOALL, step as u32), CTX_COLL);
            from_bytes(&got, &mut out[src * block..(src + 1) * block]);
        }
        out
    }

    /// Variable-size personalized all-to-all (`MPI_Alltoallv`): one byte
    /// payload per destination; returns one payload per source.
    pub fn alltoallv_bytes(&mut self, blocks: Vec<Bytes>) -> Vec<Bytes> {
        let t0 = self.enter();
        let n = self.n;
        assert_eq!(blocks.len(), n, "alltoallv needs one block per rank");
        let mut out: Vec<Bytes> = vec![Bytes::new(); n];
        out[self.rank] = blocks[self.rank].clone();
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for step in 1..n {
            let dst = (self.rank + step) % n;
            let src = (self.rank + n - step) % n;
            sends.push(self.isend_inner(blocks[dst].clone(), dst, tag(op::ALLTOALLV, 0), CTX_COLL));
            recvs.push((
                src,
                self.irecv_inner(Some(src), Some(tag(op::ALLTOALLV, 0)), CTX_COLL),
            ));
        }
        for (src, rid) in recvs {
            out[src] = self.wait_recv_inner(rid).0;
        }
        for sid in sends {
            self.wait_send_inner(sid);
        }
        self.exit(CallClass::Collective, t0);
        out
    }

    // ---- two-level (SMP-aware) variants --------------------------------------

    /// The locality groups the active policy induces (each group sorted,
    /// groups ordered by smallest member). All ranks compute the same
    /// partition.
    pub fn policy_groups(&self) -> Vec<Vec<usize>> {
        self.smp_topo.groups().to_vec()
    }

    /// The job's two-level topology. Built once per job (the world
    /// locality groups never change after init; shrink-produced
    /// communicators carry their own groups in `ctx_coll`), so every
    /// collective call pays a refcount bump instead of re-cloning the
    /// whole group structure.
    fn smp_topology(&self) -> Arc<SmpTopo> {
        Arc::clone(&self.smp_topo)
    }

    /// Two-level broadcast: root → its group's leader → inter-leader
    /// binomial tree → host-local binomial trees.
    pub fn bcast_smp<T: MpiData>(&mut self, buf: &mut [T], root: usize) {
        let t0 = self.enter();
        self.bcast_smp_inner(buf, root);
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Bcast, CollAlgo::TwoLevel),
        );
    }

    fn bcast_smp_inner<T: MpiData>(&mut self, buf: &mut [T], root: usize) {
        let topo = self.smp_topology();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        let root_leader = topo.leader_of(root);
        let mut payload: Option<Bytes> = (self.rank == root).then(|| to_bytes(buf));
        // Phase 0: shuttle to the root's group leader when the root is
        // not a leader itself.
        if root != root_leader {
            if self.rank == root {
                let b = payload.clone().expect("root payload missing");
                self.coll_send(b, root_leader, tag(op::SMP_SHUTTLE, 0), CTX_COLL);
            } else if self.rank == root_leader {
                payload = Some(self.coll_recv(root, tag(op::SMP_SHUTTLE, 0), CTX_COLL));
            }
        }
        // Phase 1: inter-leader broadcast.
        if self.rank == my_leader && topo.leaders.len() > 1 {
            let root_pos = topo.group_index(root);
            let out = self.bcast_inner(payload.take(), &topo.leaders, root_pos, op::SMP_PHASE0);
            payload = Some(out);
        }
        // Phase 2: host-local broadcast from the leader.
        if my_group.len() > 1 {
            let out = self.bcast_inner(payload.take(), my_group, 0, op::SMP_PHASE1);
            payload = Some(out);
        }
        if self.rank != root {
            from_bytes(&payload.expect("bcast payload missing"), buf);
        }
    }

    /// Two-level allreduce: host-local reduce to the leader, inter-leader
    /// allreduce, host-local broadcast.
    pub fn allreduce_smp<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        let t0 = self.enter();
        let out = self.allreduce_smp_inner(data, rop);
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Allreduce, CollAlgo::TwoLevel),
        );
        out
    }

    fn allreduce_smp_inner<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        let topo = self.smp_topology();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        let mut acc = if my_group.len() > 1 {
            self.reduce_inner(data, rop, my_group, 0, op::SMP_PHASE0)
        } else {
            data.to_vec()
        };
        if self.rank == my_leader && topo.leaders.len() > 1 {
            acc = self.allreduce_inner(&acc, rop, &topo.leaders, op::SMP_PHASE1);
        }
        if my_group.len() > 1 {
            let seed = (self.rank == my_leader).then(|| to_bytes(&acc));
            let out = self.bcast_inner(seed, my_group, 0, op::SMP_PHASE2);
            from_bytes(&out, &mut acc);
        }
        acc
    }

    /// Two-level reduce: host-local reduce to the leader, inter-leader
    /// reduce rooted at the root's leader, leader → root shuttle.
    pub fn reduce_smp<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Option<Vec<T>> {
        let t0 = self.enter();
        let acc = self.reduce_smp_inner(data, rop, root);
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Reduce, CollAlgo::TwoLevel),
        );
        (self.rank == root).then_some(acc)
    }

    fn reduce_smp_inner<T: Reducible>(&mut self, data: &[T], rop: ReduceOp, root: usize) -> Vec<T> {
        let topo = self.smp_topology();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        let root_leader = topo.leader_of(root);
        // Phase 0: host-local fan-in to the group leader.
        let mut acc = if my_group.len() > 1 {
            self.reduce_inner(data, rop, my_group, 0, op::SMP_REDUCE0)
        } else {
            data.to_vec()
        };
        // Phase 1: inter-leader reduce rooted at the root's leader.
        if self.rank == my_leader && topo.leaders.len() > 1 {
            let root_pos = topo.group_index(root);
            acc = self.reduce_inner(&acc, rop, &topo.leaders, root_pos, op::SMP_REDUCE1);
        }
        // Phase 2: shuttle to a non-leader root.
        if root != root_leader {
            if self.rank == root_leader {
                self.coll_send(to_bytes(&acc), root, tag(op::SMP_REDUCE2, 0), CTX_COLL);
            } else if self.rank == root {
                let b = self.coll_recv(root_leader, tag(op::SMP_REDUCE2, 0), CTX_COLL);
                acc = zeroed(data.len());
                from_bytes(&b, &mut acc);
            }
        }
        acc
    }

    /// Two-level gather: host-local gather to the leader, leaders gather
    /// the per-group bundles to the root's leader, leader → root shuttle.
    /// Returns the rank-ordered concatenation at the root.
    pub fn gather_smp<T: MpiData>(&mut self, data: &[T], root: usize) -> Option<Vec<T>> {
        let t0 = self.enter();
        let all = self.gather_smp_inner(data, root);
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Gather, CollAlgo::TwoLevel),
        );
        (self.rank == root).then_some(all)
    }

    fn gather_smp_inner<T: MpiData>(&mut self, data: &[T], root: usize) -> Vec<T> {
        let topo = self.smp_topology();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        let root_leader = topo.leader_of(root);
        // Phase 0: host-local gather to the group leader.
        let parts = self.gather_inner(to_bytes(data), my_group, 0, op::SMP_GATHER0);
        // Phase 1: leaders gather their groups' bundles to the root's
        // leader, which flattens them back to per-rank payloads.
        let mut flat: Vec<(usize, Bytes)> = Vec::new();
        if self.rank == my_leader {
            if topo.leaders.len() > 1 {
                let root_pos = topo.group_index(root);
                let nested =
                    self.gather_inner(bundle(&parts), &topo.leaders, root_pos, op::SMP_GATHER1);
                if self.rank == root_leader {
                    for (_, group_bundle) in &nested {
                        flat.extend(unbundle_ok(group_bundle, "gather-smp group bundle"));
                    }
                }
            } else if self.rank == root_leader {
                flat = parts;
            }
        }
        // Phase 2: shuttle the flattened bundle to a non-leader root.
        if root != root_leader {
            if self.rank == root_leader {
                self.coll_send(bundle(&flat), root, tag(op::SMP_GATHER2, 0), CTX_COLL);
            } else if self.rank == root {
                let b = self.coll_recv(root_leader, tag(op::SMP_GATHER2, 0), CTX_COLL);
                flat = unbundle_ok(&b, "gather-smp root bundle");
            }
        }
        if self.rank == root {
            let mut all = zeroed(data.len() * self.n);
            for (r, b) in flat {
                from_bytes(&b, &mut all[r * data.len()..(r + 1) * data.len()]);
            }
            all
        } else {
            Vec::new()
        }
    }

    /// Two-level allgather: host-local gather to the leaders, leaders
    /// assemble and redistribute the world bundle, host-local broadcast.
    /// Returns the rank-ordered concatenation on every rank.
    pub fn allgather_smp<T: MpiData>(&mut self, data: &[T]) -> Vec<T> {
        let t0 = self.enter();
        let all = self.allgather_smp_inner(data);
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Allgather, CollAlgo::TwoLevel),
        );
        all
    }

    fn allgather_smp_inner<T: MpiData>(&mut self, data: &[T]) -> Vec<T> {
        let topo = self.smp_topology();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        let block = data.len();
        // Phase 0: host-local gather to the leader.
        let parts = self.gather_inner(to_bytes(data), my_group, 0, op::SMP_AG0);
        // Phases 1+2: leaders assemble the world bundle at the first
        // leader and broadcast it back over the leader tree.
        let mut world: Option<Bytes> = None;
        if self.rank == my_leader {
            let mine = bundle(&parts);
            if topo.leaders.len() > 1 {
                let nested = self.gather_inner(mine, &topo.leaders, 0, op::SMP_AG1);
                let seed = (self.rank == topo.leaders[0]).then(|| {
                    let mut flat: Vec<(usize, Bytes)> = Vec::new();
                    for (_, gb) in &nested {
                        flat.extend(unbundle_ok(gb, "allgather-smp group bundle"));
                    }
                    flat.sort_by_key(|&(r, _)| r);
                    bundle(&flat)
                });
                world = Some(self.bcast_inner(seed, &topo.leaders, 0, op::SMP_AG2));
            } else {
                world = Some(mine);
            }
        }
        // Phase 3: host-local broadcast of the world bundle.
        let world = if my_group.len() > 1 {
            self.bcast_inner(world, my_group, 0, op::SMP_AG3)
        } else {
            world.expect("allgather-smp world bundle missing")
        };
        let mut all = zeroed(block * self.n);
        for (r, b) in unbundle_ok(&world, "allgather-smp world bundle") {
            from_bytes(&b, &mut all[r * block..(r + 1) * block]);
        }
        all
    }

    /// Two-level barrier: host-local fan-in to the leaders, inter-leader
    /// dissemination barrier, host-local fan-out.
    pub fn barrier_smp(&mut self) {
        let t0 = self.enter();
        self.barrier_smp_inner();
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Barrier, CollAlgo::TwoLevel),
        );
    }

    fn barrier_smp_inner(&mut self) {
        let topo = self.smp_topology();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        // Phase 0: host-local flat fan-in (members post-and-go, only the
        // leader blocks — no intermediate tree hops to schedule).
        if my_group.len() > 1 {
            self.coll_fanin_inner(my_group, op::SMP_BAR0);
        }
        // Phase 1: inter-leader dissemination barrier.
        if self.rank == my_leader && topo.leaders.len() > 1 {
            self.barrier_inner(&topo.leaders, op::SMP_BAR1);
        }
        // Phase 2: host-local fan-out releases the group.
        if my_group.len() > 1 {
            self.coll_fanout_inner(my_group, op::SMP_BAR2);
        }
    }

    /// Hierarchical alltoall: intra-group slabs exchange directly;
    /// inter-group slabs are bundled through the leaders so only one
    /// (aggregated) message crosses each group pair.
    pub fn alltoall_smp<T: MpiData>(&mut self, data: &[T], block: usize) -> Vec<T> {
        let t0 = self.enter();
        assert_eq!(
            data.len(),
            block * self.n,
            "alltoall data must be n * block elements"
        );
        let out = self.alltoall_smp_inner(data, block);
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Alltoall, CollAlgo::TwoLevel),
        );
        out
    }

    fn alltoall_smp_inner<T: MpiData>(&mut self, data: &[T], block: usize) -> Vec<T> {
        let topo = self.smp_topology();
        let my_group = topo.group_of(self.rank);
        let my_leader = my_group[0];
        let n = self.n;
        let m = my_group.len();
        let my_pos = my_group
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank not in its group");
        let mut out = zeroed(block * n);
        out[self.rank * block..(self.rank + 1) * block]
            .copy_from_slice(&data[self.rank * block..(self.rank + 1) * block]);
        // Phase A: intra-group pairwise exchange (local channels).
        for step in 1..m {
            let dst = my_group[(my_pos + step) % m];
            let src = my_group[(my_pos + m - step) % m];
            let payload = to_bytes(&data[dst * block..(dst + 1) * block]);
            let got =
                self.coll_sendrecv(payload, dst, src, tag(op::SMP_A2A0, step as u32), CTX_COLL);
            from_bytes(&got, &mut out[src * block..(src + 1) * block]);
        }
        let num_leaders = topo.leaders.len();
        if num_leaders == 1 {
            return out;
        }
        // Phase B: members hand their externally-destined slabs to the
        // leader, keyed by destination rank.
        let externals: Vec<(usize, Bytes)> = (0..n)
            .filter(|d| !my_group.contains(d))
            .map(|d| (d, to_bytes(&data[d * block..(d + 1) * block])))
            .collect();
        if self.rank != my_leader {
            self.coll_send(
                bundle(&externals),
                my_leader,
                tag(op::SMP_A2A1, 0),
                CTX_COLL,
            );
        }
        let mut staged: Vec<(usize, usize, Bytes)> = Vec::new();
        if self.rank == my_leader {
            staged.extend(externals.iter().map(|(d, b)| (self.rank, *d, b.clone())));
            for &member in my_group {
                if member == self.rank {
                    continue;
                }
                let b = self.coll_recv(member, tag(op::SMP_A2A1, 0), CTX_COLL);
                for (d, slab) in unbundle_ok(&b, "alltoall-smp member bundle") {
                    staged.push((member, d, slab));
                }
            }
            // Phase C: leaders exchange per-group aggregates pairwise,
            // frames keyed by src*n+dst.
            let my_lpos = topo.group_index(self.rank);
            let mut incoming: Vec<(usize, usize, Bytes)> = Vec::new();
            for step in 1..num_leaders {
                let dst_leader = topo.leaders[(my_lpos + step) % num_leaders];
                let src_leader = topo.leaders[(my_lpos + num_leaders - step) % num_leaders];
                let dst_group = topo.group_of(dst_leader);
                let frames: Vec<(usize, Bytes)> = staged
                    .iter()
                    .filter(|(_, d, _)| dst_group.contains(d))
                    .map(|(s, d, b)| (s * n + d, b.clone()))
                    .collect();
                let got = self.coll_sendrecv(
                    bundle(&frames),
                    dst_leader,
                    src_leader,
                    tag(op::SMP_A2A2, step as u32),
                    CTX_COLL,
                );
                for (key, slab) in unbundle_ok(&got, "alltoall-smp leader bundle") {
                    incoming.push((key / n, key % n, slab));
                }
            }
            // Phase D: distribute incoming slabs to the group, keyed by
            // source rank.
            for &member in my_group {
                if member == self.rank {
                    for (s, _, slab) in incoming.iter().filter(|(_, d, _)| *d == member) {
                        from_bytes(slab, &mut out[s * block..(s + 1) * block]);
                    }
                } else {
                    let frames: Vec<(usize, Bytes)> = incoming
                        .iter()
                        .filter(|(_, d, _)| *d == member)
                        .map(|(s, _, b)| (*s, b.clone()))
                        .collect();
                    self.coll_send(bundle(&frames), member, tag(op::SMP_A2A3, 0), CTX_COLL);
                }
            }
        } else {
            let b = self.coll_recv(my_leader, tag(op::SMP_A2A3, 0), CTX_COLL);
            for (s, slab) in unbundle_ok(&b, "alltoall-smp distribution bundle") {
                from_bytes(&slab, &mut out[s * block..(s + 1) * block]);
            }
        }
        out
    }
}

/// Absolute rank of relative position `rel` for root `root` in a group of
/// `n` (world-list variant).
fn list_abs(rel: usize, root: usize, n: usize) -> usize {
    (rel + root) % n
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

    #[test]
    fn bundle_round_trips() {
        let parts = vec![
            (3usize, Bytes::from_static(b"abc")),
            (7usize, Bytes::new()),
            (0usize, Bytes::from_static(b"xy")),
        ];
        assert_eq!(unbundle(&bundle(&parts)).unwrap(), parts);
        assert_eq!(unbundle(&Bytes::new()).unwrap(), vec![]);
    }

    #[test]
    fn unbundle_rejects_torn_bundles() {
        let whole = bundle(&[(1usize, Bytes::from_static(b"payload"))]);
        // Truncated header: fewer than 8 framing bytes remain.
        let torn = whole.slice(0..5);
        assert!(matches!(
            unbundle(&torn),
            Err(MpiError::CorruptBundle { offset: 0, len: 5 })
        ));
        // Truncated payload: the frame promises more bytes than exist.
        let torn = whole.slice(0..whole.len() - 2);
        let err = unbundle(&torn).unwrap_err();
        assert!(matches!(err, MpiError::CorruptBundle { offset: 8, .. }));
        assert!(err.to_string().contains("overruns"));
        // Odd trailing garbage after a valid frame.
        let mut garbled = whole.to_vec();
        garbled.extend_from_slice(&[0xff; 3]);
        assert!(unbundle(&Bytes::from(garbled)).is_err());
    }
}
