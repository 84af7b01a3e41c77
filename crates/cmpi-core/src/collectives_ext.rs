//! Extended collectives: prefix scans, reduce-scatter and the
//! variable-size gather family.
//!
//! These round out the MPI surface the NAS kernels and downstream users
//! expect beyond the paper's core set; algorithms follow the MPICH
//! defaults (simultaneous-binomial scan, root-staged reduce-scatter and
//! v-collectives). Each has one algorithm and a world entry only, which
//! runs that body over the world's [`Scope`] in the bracket
//! ([`Mpi::collective`]); the body sees positions, not the world.

use bytes::Bytes;

use crate::collectives::{op, tag, Call, Scope};
use crate::datatype::{reduce_from_bytes, to_bytes, vec_from_bytes, ReduceOp, Reducible};
use crate::error::MpiError;
use crate::frame::{frames_ok, FrameWriter, FRAME_HEADER};
use crate::runtime::Mpi;

impl Mpi {
    /// Inclusive prefix reduction (`MPI_Scan`): rank `r` receives
    /// `data_0 op data_1 op … op data_r`.
    pub fn scan<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        let world = self.world_scope();
        self.collective(&world, Call::Fixed("scan"), |mpi, _| {
            let result = mpi.prefix_scan(&world, data, rop, op::SCAN, true)?;
            Ok(result.expect("an inclusive scan has a result everywhere"))
        })
    }

    /// Exclusive prefix reduction (`MPI_Exscan`): rank `r > 0` receives
    /// `data_0 op … op data_{r-1}`; rank 0 receives `None`.
    pub fn exscan<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Option<Vec<T>> {
        let world = self.world_scope();
        self.collective(&world, Call::Fixed("exscan"), |mpi, _| {
            mpi.prefix_scan(&world, data, rop, op::EXSCAN, false)
        })
    }

    /// Simultaneous binomial scan: `partial` covers a contiguous window
    /// ending at this position, and every lower window that arrives folds
    /// into it and into the result. An `inclusive` scan seeds the result
    /// with this position's own data; an exclusive one with the first
    /// lower window, so position 0 has none.
    fn prefix_scan<T: Reducible>(
        &mut self,
        scope: &Scope,
        data: &[T],
        rop: ReduceOp,
        op_id: u32,
        inclusive: bool,
    ) -> Result<Option<Vec<T>>, MpiError> {
        let (n, me) = (scope.len(), scope.me);
        let mut partial = data.to_vec();
        let mut result = inclusive.then(|| data.to_vec());
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < n {
            let t = tag(op_id, round);
            let sreq = (me + mask < n)
                .then(|| self.isend_inner(to_bytes(&partial), scope.rank(me + mask), t, scope.ctx));
            if me >= mask {
                let lower = self.try_coll_recv(scope.rank(me - mask), t, scope.ctx)?;
                // Fold the lower window in (it belongs on the left, but
                // every `ReduceOp` is commutative).
                reduce_from_bytes(rop, &mut partial, &lower);
                match &mut result {
                    Some(acc) => reduce_from_bytes(rop, acc, &lower),
                    None => result = Some(vec_from_bytes(&lower, data.len())),
                }
            }
            if let Some(id) = sreq {
                self.try_wait_send_inner(id)?;
            }
            mask <<= 1;
            round += 1;
        }
        Ok(result)
    }

    /// Reduce `data` elementwise, then scatter equal `block`-element
    /// slabs: rank `r` receives elements `[r*block, (r+1)*block)` of the
    /// reduction (`MPI_Reduce_scatter_block`). `data.len()` must equal
    /// `block * size`.
    pub fn reduce_scatter_block<T: Reducible>(
        &mut self,
        data: &[T],
        block: usize,
        rop: ReduceOp,
    ) -> Vec<T> {
        let world = self.world_scope();
        self.collective(&world, Call::Fixed("reduce_scatter"), |mpi, _| {
            let n = world.len();
            assert_eq!(
                data.len(),
                block * n,
                "reduce_scatter data must be size * block elements"
            );
            // Stage 1: binomial reduce to position 0.
            let reduced = mpi.reduce_list(data, rop, &world, 0, op::REDUCE_SCATTER)?;
            // Stage 2: position 0 scatters the blocks linearly, each a
            // slice of one wire image of the reduction.
            let t = tag(op::REDUCE_SCATTER, 1);
            if world.me != 0 {
                let mine = mpi.try_coll_recv(world.rank(0), t, world.ctx)?;
                return Ok(vec_from_bytes(&mine, block));
            }
            let bs = block * T::SIZE;
            let image = to_bytes(&reduced);
            let part = |p: usize| image.slice(p * bs..(p + 1) * bs);
            let reqs: Vec<u64> = (1..n)
                .map(|p| mpi.isend_inner(part(p), world.rank(p), t, world.ctx))
                .collect();
            for id in reqs {
                mpi.try_wait_send_inner(id)?;
            }
            Ok(reduced[..block].to_vec())
        })
    }

    /// Variable-size gather (`MPI_Gatherv`): every rank contributes an
    /// arbitrary byte payload; the root receives them rank-ordered.
    pub fn gatherv_bytes(&mut self, data: Bytes, root: usize) -> Option<Vec<Bytes>> {
        let world = self.world_scope();
        world.check_root("gatherv", root);
        self.collective(&world, Call::Fixed("gatherv"), |mpi, _| {
            mpi.gatherv_linear(&world, data, root, tag(op::GATHERV, 0))
        })
    }

    /// Variable-size allgather (`MPI_Allgatherv`): every rank receives
    /// every rank's byte payload, rank-ordered.
    pub fn allgatherv_bytes(&mut self, data: Bytes) -> Vec<Bytes> {
        let world = self.world_scope();
        self.collective(&world, Call::Fixed("allgatherv"), |mpi, _| {
            let n = world.len();
            // Gather to position 0, then broadcast the framed bundle.
            let gathered = mpi.gatherv_linear(&world, data, 0, tag(op::ALLGATHERV, 0))?;
            let bundle = gathered.map(|all| {
                let payload = all.iter().map(Bytes::len).sum();
                let mut w = FrameWriter::with_capacity(n, payload);
                for (p, b) in all.iter().enumerate() {
                    w.put_bytes(p, b);
                }
                w.finish()
            });
            let framed = mpi.bcast_list(bundle, &world, 0, op::ALLGATHERV)?;
            // Every payload is handed out as a slice of the one bundle.
            let mut out = Vec::with_capacity(n);
            let mut off = 0;
            for (p, part) in frames_ok(&framed, "allgatherv bundle") {
                assert_eq!(p, out.len(), "allgatherv bundle out of order");
                off += FRAME_HEADER;
                out.push(framed.slice(off..off + part.len()));
                off += part.len();
            }
            assert_eq!(out.len(), n, "allgatherv bundle is short");
            Ok(out)
        })
    }

    /// Linear gather of one byte payload per member to position `root`
    /// under tag `t`: the payloads in scope order at the root, `None`
    /// elsewhere.
    fn gatherv_linear(
        &mut self,
        scope: &Scope,
        data: Bytes,
        root: usize,
        t: u32,
    ) -> Result<Option<Vec<Bytes>>, MpiError> {
        if scope.me != root {
            self.try_coll_send(data, scope.rank(root), t, scope.ctx)?;
            return Ok(None);
        }
        let mut all: Vec<Bytes> = vec![Bytes::new(); scope.len()];
        all[root] = data;
        let reqs: Vec<(usize, u64)> = (0..scope.len())
            .filter(|&p| p != root)
            .map(|p| (p, self.irecv_inner(Some(scope.rank(p)), Some(t), scope.ctx)))
            .collect();
        for (p, rid) in reqs {
            all[p] = self.try_wait_recv_inner(rid)?.0;
        }
        Ok(Some(all))
    }
}
