//! Large-message collective algorithms and size-based algorithm
//! selection (MVAPICH2-style tuning).
//!
//! The default algorithms (binomial bcast, recursive-doubling allreduce)
//! move the full vector every round — optimal for latency, wasteful for
//! bandwidth. Above a switch size the library uses:
//!
//! * **Rabenseifner allreduce**: reduce-scatter by recursive halving,
//!   then allgather by recursive doubling — each rank moves `2·len·(n-1)/n`
//!   elements instead of `len·log2(n)`;
//! * **scatter–allgather broadcast**: the root scatters blocks down the
//!   binomial tree, then a ring allgather reassembles — same bandwidth
//!   bound.
//!
//! Both fall back to the latency-optimal algorithms for small messages or
//! non-power-of-two groups (like MVAPICH2's tuning tables). The main
//! entry points (`Mpi::bcast`, `Mpi::allreduce`) reach these algorithms
//! through the [`crate::coll_select::CollectiveSelector`] once the
//! message crosses `MV2_COLL_LARGE_MSG`; the `*_tuned` wrappers keep the
//! original fixed-threshold behaviour for the ablation benchmarks.

use bytes::Bytes;

use crate::coll_select::{coll_trace_name, CollAlgo, CollKind};
use crate::collectives::tag;
use crate::datatype::{from_bytes, reduce_from_bytes, to_bytes, MpiData, ReduceOp, Reducible};
use crate::pt2pt::CTX_COLL;
use crate::runtime::Mpi;
use crate::stats::CallClass;

/// Message size (bytes) above which the `*_tuned` wrappers select the
/// bandwidth-optimal algorithms (MVAPICH2 switches in the tens of KiB).
pub const LARGE_COLL_THRESHOLD: usize = 32 * 1024;

mod lop {
    pub const RABEN: u32 = 48;
    pub const SA_BCAST: u32 = 50;
}

impl Mpi {
    /// Allreduce with automatic algorithm selection: recursive doubling
    /// below [`LARGE_COLL_THRESHOLD`], Rabenseifner above (power-of-two
    /// rank counts; otherwise the default algorithm).
    pub fn allreduce_tuned<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        let bytes = std::mem::size_of_val(data);
        if bytes >= LARGE_COLL_THRESHOLD && self.n.is_power_of_two() && self.n > 1 {
            self.allreduce_rabenseifner(data, rop)
        } else {
            self.allreduce(data, rop)
        }
    }

    /// Rabenseifner's algorithm: recursive-halving reduce-scatter then
    /// recursive-doubling allgather. Requires a power-of-two rank count.
    pub fn allreduce_rabenseifner<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        let t0 = self.enter();
        let out = self.allreduce_rabenseifner_inner(data, rop);
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Allreduce, CollAlgo::Large),
        );
        out
    }

    pub(crate) fn allreduce_rabenseifner_inner<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
    ) -> Vec<T> {
        let n = self.n;
        assert!(
            n.is_power_of_two(),
            "Rabenseifner requires a power-of-two group"
        );
        let rank = self.rank;
        // Pad so the vector splits into n equal chunks. Padded positions
        // only ever combine with other ranks' padding and are dropped at
        // the end, so their values are irrelevant.
        let chunk = data.len().div_ceil(n).max(1);
        let mut vec = Vec::with_capacity(chunk * n);
        vec.extend_from_slice(data);
        vec.resize(chunk * n, T::ZERO);

        // Phase 1: reduce-scatter by recursive halving. `lo..hi` is the
        // chunk range this rank is still responsible for.
        let mut lo = 0usize;
        let mut hi = n;
        let mut mask = n / 2;
        let mut round = 0u32;
        while mask > 0 {
            let partner = rank ^ mask;
            let mid = (lo + hi) / 2;
            // The half containing my rank index stays mine.
            let (keep_lo, keep_hi, send_lo, send_hi) = if rank & mask == 0 {
                (lo, mid, mid, hi)
            } else {
                (mid, hi, lo, mid)
            };
            let payload = to_bytes(&vec[send_lo * chunk..send_hi * chunk]);
            let t = tag(lop::RABEN, round);
            let bytes = self.coll_sendrecv(payload, partner, partner, t, CTX_COLL);
            reduce_from_bytes(rop, &mut vec[keep_lo * chunk..keep_hi * chunk], &bytes);
            lo = keep_lo;
            hi = keep_hi;
            mask >>= 1;
            round += 1;
        }
        debug_assert_eq!(hi - lo, 1, "reduce-scatter must end with one chunk");

        // Phase 2: allgather by recursive doubling, reversing the halving.
        let mut mask = 1usize;
        while mask < n {
            let partner = rank ^ mask;
            // The region owned before this round has `mask` chunks,
            // aligned to a multiple of `mask`; the partner owns the
            // mirror region.
            let region = mask;
            let my_lo = lo & !(region - 1);
            let partner_lo = my_lo ^ region;
            let payload = to_bytes(&vec[my_lo * chunk..(my_lo + region) * chunk]);
            let t = tag(lop::RABEN, round);
            let bytes = self.coll_sendrecv(payload, partner, partner, t, CTX_COLL);
            from_bytes(
                &bytes,
                &mut vec[partner_lo * chunk..(partner_lo + region) * chunk],
            );
            mask <<= 1;
            round += 1;
        }
        vec.truncate(data.len());
        vec
    }

    /// Broadcast with automatic algorithm selection: binomial below
    /// [`LARGE_COLL_THRESHOLD`], scatter + ring allgather above.
    pub fn bcast_tuned<T: MpiData>(&mut self, buf: &mut [T], root: usize) {
        let bytes = std::mem::size_of_val(buf);
        if bytes >= LARGE_COLL_THRESHOLD && self.n > 1 {
            self.bcast_scatter_allgather(buf, root);
        } else {
            self.bcast(buf, root);
        }
    }

    /// Scatter–allgather broadcast: the root scatters `n` blocks, a ring
    /// allgather reassembles them everywhere.
    pub fn bcast_scatter_allgather<T: MpiData>(&mut self, buf: &mut [T], root: usize) {
        let t0 = self.enter();
        self.bcast_scatter_allgather_inner(buf, root);
        self.exit_named(
            CallClass::Collective,
            t0,
            coll_trace_name(CollKind::Bcast, CollAlgo::Large),
        );
    }

    pub(crate) fn bcast_scatter_allgather_inner<T: MpiData>(&mut self, buf: &mut [T], root: usize) {
        let n = self.n;
        let rank = self.rank;
        let chunk = buf.len().div_ceil(n).max(1);
        let cb = chunk * T::SIZE;
        // Block `i` is elements i*chunk.. of `buf`, zero-padded to `chunk`
        // on the wire; whoever receives it keeps the part that exists.
        let keep = |buf: &mut [T], i: usize, wire: &[u8]| {
            assert_eq!(wire.len(), cb, "datatype mismatch: bcast block size");
            let lo = (i * chunk).min(buf.len());
            let hi = ((i + 1) * chunk).min(buf.len());
            from_bytes(&wire[..(hi - lo) * T::SIZE], &mut buf[lo..hi]);
        };
        // Scatter: root sends block i to rank (root + i) % n (linear; the
        // per-block size already amortizes the latency). It encodes the
        // padded vector once and every block is a slice of that image.
        let my_block_idx = (rank + n - root) % n;
        let mut carry: Bytes = if rank == root {
            let mut image = Vec::with_capacity(cb * n);
            T::encode(buf.iter().copied(), &mut image);
            image.resize(cb * n, 0);
            let image = Bytes::from(image);
            let mut reqs = Vec::new();
            for i in 1..n {
                let dst = (root + i) % n;
                let payload = image.slice(i * cb..(i + 1) * cb);
                reqs.push(self.isend_inner(payload, dst, tag(lop::SA_BCAST, 0), CTX_COLL));
            }
            for id in reqs {
                self.wait_send_inner(id);
            }
            image.slice(..cb)
        } else {
            let rid = self.irecv_inner(Some(root), Some(tag(lop::SA_BCAST, 0)), CTX_COLL);
            let mine = self.wait_recv_inner(rid).0;
            keep(buf, my_block_idx, &mine);
            mine
        };
        // Ring allgather of the blocks: step `s` sends block
        // `my_block_idx - s`, which is what step `s - 1` received, so
        // each hop passes on the handle that just arrived.
        let right = (rank + 1) % n;
        let left = (rank + n - 1) % n;
        for step in 0..n - 1 {
            let recv_block = (my_block_idx + n - step - 1) % n;
            let t = tag(lop::SA_BCAST, 1 + step as u32);
            carry = self.coll_sendrecv(carry, right, left, t, CTX_COLL);
            if rank != root {
                keep(buf, recv_block, &carry);
            }
        }
    }
}
