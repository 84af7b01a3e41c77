//! Extended collectives: prefix scans, reduce-scatter and the
//! variable-size gather family.
//!
//! These round out the MPI surface the NAS kernels and downstream users
//! expect beyond the paper's core set; algorithms follow the MPICH
//! defaults (simultaneous-binomial scan, root-staged reduce-scatter and
//! v-collectives).

use bytes::Bytes;

use crate::collectives::tag;
use crate::datatype::{reduce_from_bytes, to_bytes, vec_from_bytes, ReduceOp, Reducible};
use crate::pt2pt::CTX_COLL;
use crate::runtime::Mpi;
use crate::stats::CallClass;

mod xop {
    pub const SCAN: u32 = 40;
    pub const EXSCAN: u32 = 41;
    pub const RSCAT: u32 = 42;
    pub const GATHERV: u32 = 44;
    pub const ALLGATHERV: u32 = 45;
}

impl Mpi {
    /// Inclusive prefix reduction (`MPI_Scan`): rank `r` receives
    /// `data_0 op data_1 op … op data_r`.
    pub fn scan<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        let t0 = self.enter();
        let n = self.n;
        let rank = self.rank;
        // Simultaneous binomial scan: `partial` covers a contiguous
        // window ending at this rank; `result` accumulates all lower
        // windows.
        let mut partial = data.to_vec();
        let mut result = data.to_vec();
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < n {
            let mut sreq = None;
            if rank + mask < n {
                sreq = Some(self.isend_inner(
                    to_bytes(&partial),
                    rank + mask,
                    tag(xop::SCAN, round),
                    CTX_COLL,
                ));
            }
            if rank >= mask {
                let rid =
                    self.irecv_inner(Some(rank - mask), Some(tag(xop::SCAN, round)), CTX_COLL);
                let lower = self.wait_recv_inner(rid).0;
                // Fold the lower window in (it belongs on the left, but
                // every `ReduceOp` is commutative).
                reduce_from_bytes(rop, &mut partial, &lower);
                reduce_from_bytes(rop, &mut result, &lower);
            }
            if let Some(id) = sreq {
                self.wait_send_inner(id);
            }
            mask <<= 1;
            round += 1;
        }
        self.exit(CallClass::Collective, t0);
        result
    }

    /// Exclusive prefix reduction (`MPI_Exscan`): rank `r > 0` receives
    /// `data_0 op … op data_{r-1}`; rank 0 receives `None`.
    pub fn exscan<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Option<Vec<T>> {
        let t0 = self.enter();
        let n = self.n;
        let rank = self.rank;
        let mut partial = data.to_vec();
        let mut result: Option<Vec<T>> = None;
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < n {
            let mut sreq = None;
            if rank + mask < n {
                sreq = Some(self.isend_inner(
                    to_bytes(&partial),
                    rank + mask,
                    tag(xop::EXSCAN, round),
                    CTX_COLL,
                ));
            }
            if rank >= mask {
                let rid =
                    self.irecv_inner(Some(rank - mask), Some(tag(xop::EXSCAN, round)), CTX_COLL);
                let lower = self.wait_recv_inner(rid).0;
                reduce_from_bytes(rop, &mut partial, &lower);
                match &mut result {
                    None => result = Some(vec_from_bytes(&lower, data.len())),
                    Some(acc) => reduce_from_bytes(rop, acc, &lower),
                }
            }
            if let Some(id) = sreq {
                self.wait_send_inner(id);
            }
            mask <<= 1;
            round += 1;
        }
        self.exit(CallClass::Collective, t0);
        result
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
        let t0 = self.enter();
        let n = self.n;
        assert_eq!(
            data.len(),
            block * n,
            "reduce_scatter data must be size * block elements"
        );
        let list: Vec<usize> = (0..n).collect();
        // Stage 1: binomial reduce to rank 0.
        let reduced = self.reduce_inner_ctx(data, rop, &list, 0, xop::RSCAT, CTX_COLL);
        // Stage 2: rank 0 scatters the blocks linearly, each a slice of
        // one wire image of the reduction.
        let mine = if self.rank == 0 {
            let bs = block * T::SIZE;
            let image = to_bytes(&reduced);
            let mut reqs = Vec::new();
            for r in 1..n {
                reqs.push(self.isend_inner(
                    image.slice(r * bs..(r + 1) * bs),
                    r,
                    tag(xop::RSCAT, 1),
                    CTX_COLL,
                ));
            }
            for id in reqs {
                self.wait_send_inner(id);
            }
            reduced[..block].to_vec()
        } else {
            let rid = self.irecv_inner(Some(0), Some(tag(xop::RSCAT, 1)), CTX_COLL);
            vec_from_bytes(&self.wait_recv_inner(rid).0, block)
        };
        self.exit(CallClass::Collective, t0);
        mine
    }

    /// Variable-size gather (`MPI_Gatherv`): every rank contributes an
    /// arbitrary byte payload; the root receives them rank-ordered.
    pub fn gatherv_bytes(&mut self, data: Bytes, root: usize) -> Option<Vec<Bytes>> {
        let t0 = self.enter();
        let n = self.n;
        let out = if self.rank == root {
            let mut all: Vec<Bytes> = vec![Bytes::new(); n];
            all[root] = data;
            let reqs: Vec<(usize, u64)> = (0..n)
                .filter(|&r| r != root)
                .map(|r| {
                    (
                        r,
                        self.irecv_inner(Some(r), Some(tag(xop::GATHERV, 0)), CTX_COLL),
                    )
                })
                .collect();
            for (r, rid) in reqs {
                all[r] = self.wait_recv_inner(rid).0;
            }
            Some(all)
        } else {
            let id = self.isend_inner(data, root, tag(xop::GATHERV, 0), CTX_COLL);
            self.wait_send_inner(id);
            None
        };
        self.exit(CallClass::Collective, t0);
        out
    }

    /// Variable-size allgather (`MPI_Allgatherv`): every rank receives
    /// every rank's byte payload, rank-ordered.
    pub fn allgatherv_bytes(&mut self, data: Bytes) -> Vec<Bytes> {
        let t0 = self.enter();
        let n = self.n;
        // Gather to rank 0, then broadcast the framed bundle.
        let gathered = self.gatherv_bytes_inner(data);
        let bundle = if self.rank == 0 {
            let mut framed = Vec::new();
            for b in gathered.as_ref().unwrap() {
                framed.extend_from_slice(&(b.len() as u32).to_le_bytes());
                framed.extend_from_slice(b);
            }
            Some(Bytes::from(framed))
        } else {
            None
        };
        let list: Vec<usize> = (0..n).collect();
        let framed = self.bcast_inner_ctx(bundle, &list, 0, xop::ALLGATHERV, CTX_COLL);
        let mut out = Vec::with_capacity(n);
        let mut off = 0usize;
        while off < framed.len() {
            let len = u32::from_le_bytes(framed[off..off + 4].try_into().unwrap()) as usize;
            off += 4;
            out.push(framed.slice(off..off + len));
            off += len;
        }
        assert_eq!(out.len(), n, "allgatherv frame corrupt");
        self.exit(CallClass::Collective, t0);
        out
    }

    /// `gatherv_bytes` without the public time attribution (used by
    /// allgatherv, which attributes the whole operation itself).
    fn gatherv_bytes_inner(&mut self, data: Bytes) -> Option<Vec<Bytes>> {
        let n = self.n;
        if self.rank == 0 {
            let mut all: Vec<Bytes> = vec![Bytes::new(); n];
            all[0] = data;
            let reqs: Vec<(usize, u64)> = (1..n)
                .map(|r| {
                    (
                        r,
                        self.irecv_inner(Some(r), Some(tag(xop::ALLGATHERV, 9)), CTX_COLL),
                    )
                })
                .collect();
            for (r, rid) in reqs {
                all[r] = self.wait_recv_inner(rid).0;
            }
            Some(all)
        } else {
            let id = self.isend_inner(data, 0, tag(xop::ALLGATHERV, 9), CTX_COLL);
            self.wait_send_inner(id);
            None
        }
    }
}
