//! Extended collectives: prefix scans, reduce-scatter and the
//! variable-size gather family.
//!
//! These round out the MPI surface the NAS kernels and downstream users
//! expect beyond the paper's core set; algorithms follow the MPICH
//! defaults (simultaneous-binomial scan, root-staged reduce-scatter and
//! v-collectives). Each has one algorithm over the world, so its entry is
//! the bracket ([`Mpi::collective`]) around that one body.

use bytes::Bytes;

use crate::collectives::{op, tag, Call};
use crate::datatype::{reduce_from_bytes, to_bytes, vec_from_bytes, ReduceOp, Reducible};
use crate::error::MpiError;
use crate::frame::{frames_ok, FrameWriter, FRAME_HEADER};
use crate::pt2pt::CTX_COLL;
use crate::runtime::Mpi;

impl Mpi {
    /// Inclusive prefix reduction (`MPI_Scan`): rank `r` receives
    /// `data_0 op data_1 op … op data_r`.
    pub fn scan<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        self.collective(Call::Fixed("scan"), |mpi, _| {
            let n = mpi.n;
            let rank = mpi.rank;
            // Simultaneous binomial scan: `partial` covers a contiguous
            // window ending at this rank; `result` accumulates all lower
            // windows.
            let mut partial = data.to_vec();
            let mut result = data.to_vec();
            let mut mask = 1usize;
            let mut round = 0u32;
            while mask < n {
                let t = tag(op::SCAN, round);
                let mut sreq = None;
                if rank + mask < n {
                    sreq = Some(mpi.isend_inner(to_bytes(&partial), rank + mask, t, CTX_COLL));
                }
                if rank >= mask {
                    let lower = mpi.try_coll_recv(rank - mask, t, CTX_COLL)?;
                    // Fold the lower window in (it belongs on the left, but
                    // every `ReduceOp` is commutative).
                    reduce_from_bytes(rop, &mut partial, &lower);
                    reduce_from_bytes(rop, &mut result, &lower);
                }
                if let Some(id) = sreq {
                    mpi.try_wait_send_inner(id)?;
                }
                mask <<= 1;
                round += 1;
            }
            Ok(result)
        })
    }

    /// Exclusive prefix reduction (`MPI_Exscan`): rank `r > 0` receives
    /// `data_0 op … op data_{r-1}`; rank 0 receives `None`.
    pub fn exscan<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Option<Vec<T>> {
        self.collective(Call::Fixed("exscan"), |mpi, _| {
            let n = mpi.n;
            let rank = mpi.rank;
            let mut partial = data.to_vec();
            let mut result: Option<Vec<T>> = None;
            let mut mask = 1usize;
            let mut round = 0u32;
            while mask < n {
                let t = tag(op::EXSCAN, round);
                let mut sreq = None;
                if rank + mask < n {
                    sreq = Some(mpi.isend_inner(to_bytes(&partial), rank + mask, t, CTX_COLL));
                }
                if rank >= mask {
                    let lower = mpi.try_coll_recv(rank - mask, t, CTX_COLL)?;
                    reduce_from_bytes(rop, &mut partial, &lower);
                    match &mut result {
                        None => result = Some(vec_from_bytes(&lower, data.len())),
                        Some(acc) => reduce_from_bytes(rop, acc, &lower),
                    }
                }
                if let Some(id) = sreq {
                    mpi.try_wait_send_inner(id)?;
                }
                mask <<= 1;
                round += 1;
            }
            Ok(result)
        })
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
        self.collective(Call::Fixed("reduce_scatter"), |mpi, _| {
            let n = mpi.n;
            assert_eq!(
                data.len(),
                block * n,
                "reduce_scatter data must be size * block elements"
            );
            // Stage 1: binomial reduce to rank 0.
            let world = mpi.world_ranks();
            let reduced = mpi.reduce_list(data, rop, &world, 0, op::REDUCE_SCATTER, CTX_COLL)?;
            // Stage 2: rank 0 scatters the blocks linearly, each a slice
            // of one wire image of the reduction.
            let t = tag(op::REDUCE_SCATTER, 1);
            if mpi.rank != 0 {
                return Ok(vec_from_bytes(&mpi.try_coll_recv(0, t, CTX_COLL)?, block));
            }
            let bs = block * T::SIZE;
            let image = to_bytes(&reduced);
            let reqs: Vec<u64> = (1..n)
                .map(|r| mpi.isend_inner(image.slice(r * bs..(r + 1) * bs), r, t, CTX_COLL))
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
        self.collective(Call::Fixed("gatherv"), |mpi, _| {
            mpi.gatherv_linear(data, root, tag(op::GATHERV, 0))
        })
    }

    /// Variable-size allgather (`MPI_Allgatherv`): every rank receives
    /// every rank's byte payload, rank-ordered.
    pub fn allgatherv_bytes(&mut self, data: Bytes) -> Vec<Bytes> {
        self.collective(Call::Fixed("allgatherv"), |mpi, _| {
            let n = mpi.n;
            // Gather to rank 0, then broadcast the framed bundle.
            let gathered = mpi.gatherv_linear(data, 0, tag(op::ALLGATHERV, 0))?;
            let bundle = gathered.map(|all| {
                let payload = all.iter().map(Bytes::len).sum();
                let mut w = FrameWriter::with_capacity(n, payload);
                for (r, b) in all.iter().enumerate() {
                    w.put_bytes(r, b);
                }
                w.finish()
            });
            let world = mpi.world_ranks();
            let framed = mpi.bcast_list(bundle, &world, 0, op::ALLGATHERV, CTX_COLL)?;
            // Every payload is handed out as a slice of the one bundle.
            let mut out = Vec::with_capacity(n);
            let mut off = 0;
            for (r, part) in frames_ok(&framed, "allgatherv bundle") {
                assert_eq!(r, out.len(), "allgatherv bundle out of rank order");
                off += FRAME_HEADER;
                out.push(framed.slice(off..off + part.len()));
                off += part.len();
            }
            assert_eq!(out.len(), n, "allgatherv bundle is short");
            Ok(out)
        })
    }

    /// Linear gather of one byte payload per rank to `root` under tag `t`:
    /// the rank-ordered payloads at the root, `None` elsewhere.
    fn gatherv_linear(
        &mut self,
        data: Bytes,
        root: usize,
        t: u32,
    ) -> Result<Option<Vec<Bytes>>, MpiError> {
        if self.rank != root {
            self.try_coll_send(data, root, t, CTX_COLL)?;
            return Ok(None);
        }
        let n = self.n;
        let mut all: Vec<Bytes> = vec![Bytes::new(); n];
        all[root] = data;
        let reqs: Vec<(usize, u64)> = (0..n)
            .filter(|&r| r != root)
            .map(|r| (r, self.irecv_inner(Some(r), Some(t), CTX_COLL)))
            .collect();
        for (r, rid) in reqs {
            all[r] = self.try_wait_recv_inner(rid)?.0;
        }
        Ok(Some(all))
    }
}
