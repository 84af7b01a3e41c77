//! Large-message collective algorithms (MVAPICH2-style tuning).
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
//! Nothing calls these by name: the bcast and allreduce bodies reach them
//! through their scope's [`crate::coll_select::CollectiveSelector`] once
//! the message crosses `MV2_COLL_LARGE_MSG` (`Tunables::coll_large_msg`,
//! the one large-message threshold), and the selector keeps Rabenseifner
//! to power-of-two scopes, like MVAPICH2's tuning tables. Partners and
//! blocks are positions in the [`Scope`] they run over.

use bytes::Bytes;

use crate::collectives::{op, tag, Scope};
use crate::datatype::{from_bytes, reduce_from_bytes, to_bytes, MpiData, ReduceOp, Reducible};
use crate::error::MpiError;
use crate::runtime::Mpi;

impl Mpi {
    /// Rabenseifner's algorithm: recursive-halving reduce-scatter then
    /// recursive-doubling allgather. Requires a power-of-two scope.
    #[inline(never)]
    pub(crate) fn allreduce_rabenseifner<T: Reducible>(
        &mut self,
        scope: &Scope,
        data: &[T],
        rop: ReduceOp,
    ) -> Result<Vec<T>, MpiError> {
        let (n, me) = (scope.len(), scope.me);
        assert!(
            n.is_power_of_two(),
            "Rabenseifner requires a power-of-two group"
        );
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
            let partner = scope.rank(me ^ mask);
            let mid = (lo + hi) / 2;
            // The half containing my position stays mine.
            let (keep_lo, keep_hi, send_lo, send_hi) = if me & mask == 0 {
                (lo, mid, mid, hi)
            } else {
                (mid, hi, lo, mid)
            };
            let payload = to_bytes(&vec[send_lo * chunk..send_hi * chunk]);
            let t = tag(op::RABENSEIFNER, round);
            let bytes = self.try_coll_sendrecv(payload, partner, partner, t, scope.ctx)?;
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
            let partner = scope.rank(me ^ mask);
            // The region owned before this round has `mask` chunks,
            // aligned to a multiple of `mask`; the partner owns the
            // mirror region.
            let region = mask;
            let my_lo = lo & !(region - 1);
            let partner_lo = my_lo ^ region;
            let payload = to_bytes(&vec[my_lo * chunk..(my_lo + region) * chunk]);
            let t = tag(op::RABENSEIFNER, round);
            let bytes = self.try_coll_sendrecv(payload, partner, partner, t, scope.ctx)?;
            from_bytes(
                &bytes,
                &mut vec[partner_lo * chunk..(partner_lo + region) * chunk],
            );
            mask <<= 1;
            round += 1;
        }
        vec.truncate(data.len());
        Ok(vec)
    }

    /// Scatter–allgather broadcast from position `root`: the root scatters
    /// `n` blocks, a ring allgather reassembles them everywhere.
    pub(crate) fn bcast_scatter_allgather<T: MpiData>(
        &mut self,
        scope: &Scope,
        buf: &mut [T],
        root: usize,
    ) -> Result<(), MpiError> {
        let (n, me) = (scope.len(), scope.me);
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
        // Scatter: root sends block i to position (root + i) % n (linear; the
        // per-block size already amortizes the latency). It encodes the
        // padded vector once and every block is a slice of that image.
        let my_block_idx = (me + n - root) % n;
        let mut carry: Bytes = if me == root {
            let mut image = Vec::with_capacity(cb * n);
            T::encode(buf, &mut image);
            image.resize(cb * n, 0);
            let image = Bytes::from(image);
            let mut reqs = Vec::new();
            for i in 1..n {
                let dst = scope.rank((root + i) % n);
                let payload = image.slice(i * cb..(i + 1) * cb);
                let t = tag(op::SCATTER_ALLGATHER, 0);
                reqs.push(self.isend_inner(payload, dst, t, scope.ctx));
            }
            for id in reqs {
                self.try_wait_send_inner(id)?;
            }
            image.slice(..cb)
        } else {
            let t = tag(op::SCATTER_ALLGATHER, 0);
            let mine = self.try_coll_recv(scope.rank(root), t, scope.ctx)?;
            keep(buf, my_block_idx, &mine);
            mine
        };
        // Ring allgather of the blocks: step `s` sends block
        // `my_block_idx - s`, which is what step `s - 1` received, so
        // each hop passes on the handle that just arrived.
        let right = scope.rank((me + 1) % n);
        let left = scope.rank((me + n - 1) % n);
        for step in 0..n - 1 {
            let recv_block = (my_block_idx + n - step - 1) % n;
            let t = tag(op::SCATTER_ALLGATHER, 1 + step as u32);
            carry = self.try_coll_sendrecv(carry, right, left, t, scope.ctx)?;
            if me != root {
                keep(buf, recv_block, &carry);
            }
        }
        Ok(())
    }
}
