//! PGAS-style global arrays.
//!
//! The paper's future work (Section VII) proposes "exploring the
//! performance characterization of other programming models (e.g. PGAS)
//! in container-based HPC cloud". This module provides that programming
//! model on top of the locality-aware one-sided layer: a
//! [`GlobalArray`] is a block-distributed array any rank can read and
//! write by *global index*, with the channel selection — SHM direct copy,
//! CMA, or RDMA — inherited from the underlying MPI library. The same
//! container-locality effect the paper demonstrates for MPI therefore
//! carries over verbatim: under the hostname policy every remote access
//! between co-resident containers pays the HCA loopback; under the
//! container detector it is a shared-memory access.
//!
//! ```
//! use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
//! use cmpi_core::JobSpec;
//! use cmpi_apps::pgas::GlobalArray;
//!
//! let scenario = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
//! let r = JobSpec::new(scenario).run(|mpi| {
//!     let mut ga = GlobalArray::<u64>::new(mpi, 64);
//!     // Every rank writes its rank id at global index = its rank.
//!     ga.write(mpi, mpi.rank() as u64, &[mpi.rank() as u64]);
//!     ga.sync(mpi);
//!     // Everyone reads the whole array.
//!     let mut out = vec![0u64; 4];
//!     ga.read(mpi, 0, &mut out);
//!     out
//! });
//! assert_eq!(r.results[0][..4], [0, 1, 2, 3]);
//! ```

use std::marker::PhantomData;

use cmpi_core::{Mpi, MpiData, Window};

/// A block-distributed global array of fixed-size elements.
pub struct GlobalArray<T: MpiData> {
    win: Window,
    len: u64,
    /// Elements per rank (block size).
    per: u64,
    ranks: usize,
    _elem: PhantomData<T>,
}

impl<T: MpiData> GlobalArray<T> {
    /// Collectively create a global array of `len` elements,
    /// block-distributed over all ranks (the last block may be short).
    pub fn new(mpi: &mut Mpi, len: u64) -> Self {
        let ranks = mpi.size();
        let per = len.div_ceil(ranks as u64).max(1);
        let win = mpi.win_allocate((per as usize) * T::SIZE);
        GlobalArray {
            win,
            len,
            per,
            ranks,
            _elem: PhantomData,
        }
    }

    /// Total element count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements per rank block.
    pub fn block(&self) -> u64 {
        self.per
    }

    /// The (owner rank, byte offset) of global index `idx`.
    pub fn locate(&self, idx: u64) -> (usize, usize) {
        assert!(
            idx < self.len,
            "global index {idx} out of bounds ({})",
            self.len
        );
        let rank = (idx / self.per) as usize;
        debug_assert!(rank < self.ranks);
        (rank, (idx % self.per) as usize * T::SIZE)
    }

    /// The global index range `[lo, hi)` owned by `rank`.
    pub fn owned_range(&self, rank: usize) -> (u64, u64) {
        let lo = (rank as u64 * self.per).min(self.len);
        let hi = ((rank as u64 + 1) * self.per).min(self.len);
        (lo, hi)
    }

    /// Write `data` starting at global index `idx` (may span block
    /// boundaries). Remote completion is deferred to [`GlobalArray::sync`]
    /// / [`GlobalArray::flush`].
    pub fn write(&mut self, mpi: &mut Mpi, idx: u64, data: &[T]) {
        let mut off = 0usize;
        while off < data.len() {
            let gidx = idx + off as u64;
            let (rank, byte_off) = self.locate(gidx);
            let (_, hi) = self.owned_range(rank);
            let n = ((hi - gidx) as usize).min(data.len() - off);
            mpi.put(&mut self.win, rank, byte_off, &data[off..off + n]);
            off += n;
        }
    }

    /// Read `out.len()` elements starting at global index `idx`.
    pub fn read(&mut self, mpi: &mut Mpi, idx: u64, out: &mut [T]) {
        let mut off = 0usize;
        while off < out.len() {
            let gidx = idx + off as u64;
            let (rank, byte_off) = self.locate(gidx);
            let (_, hi) = self.owned_range(rank);
            let n = ((hi - gidx) as usize).min(out.len() - off);
            mpi.get(&mut self.win, rank, byte_off, &mut out[off..off + n]);
            off += n;
        }
    }

    /// Complete this rank's outstanding writes to `target`.
    pub fn flush(&mut self, mpi: &mut Mpi, target: usize) {
        mpi.flush(&mut self.win, target);
    }

    /// Global synchronization: all outstanding writes complete and every
    /// rank observes them (an RMA fence).
    pub fn sync(&mut self, mpi: &mut Mpi) {
        mpi.fence(&mut self.win);
    }

    /// Read this rank's own block (no communication).
    pub fn read_local(&self, mpi: &Mpi, out: &mut [T]) {
        let (lo, hi) = self.owned_range(mpi.rank());
        assert!(out.len() <= (hi - lo) as usize, "local read past block");
        mpi.win_read_local(&self.win, 0, out);
    }

    /// Write this rank's own block (no communication).
    pub fn write_local(&self, mpi: &Mpi, data: &[T]) {
        let (lo, hi) = self.owned_range(mpi.rank());
        assert!(data.len() <= (hi - lo) as usize, "local write past block");
        mpi.win_write_local(&self.win, 0, data);
    }
}

/// A GUPS-style random-access kernel: each rank performs `updates`
/// read-modify-writes at pseudo-random global indices, then the table is
/// checksummed. Returns (updates/second in virtual time, checksum).
///
/// This is the classic PGAS stress test: tiny accesses, no locality —
/// precisely the pattern that suffers most when co-resident containers
/// are mis-detected as remote. Unlike the original GUPS (which tolerates
/// a small fraction of lost updates from races), ranks here update
/// *disjoint* index sets (`idx ≡ rank (mod size)`), so the final table is
/// exactly reproducible — remote-access behaviour is unchanged because
/// the strided indices still land on every block.
///
/// # Panics
///
/// If `table_len` is smaller than the job: a rank would then have no
/// index of its own, and two ranks would update the same element.
pub fn gups(mpi: &mut Mpi, table_len: u64, updates: u64, seed: u64) -> (f64, u64) {
    let ranks = mpi.size() as u64;
    assert!(
        table_len >= ranks,
        "gups needs one table slot per rank: table_len {table_len} < {ranks} ranks"
    );
    let mut ga = GlobalArray::<u64>::new(mpi, table_len);
    // Initialize our block to the identity pattern.
    let (lo, hi) = ga.owned_range(mpi.rank());
    let init: Vec<u64> = (lo..hi).collect();
    ga.write_local(mpi, &init);
    ga.sync(mpi);

    let t0 = mpi.now();
    let slots = table_len / ranks;
    let mut x = seed ^ (mpi.rank() as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
    for _ in 0..updates {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = (x % slots) * ranks + mpi.rank() as u64;
        let mut v = [0u64];
        ga.read(mpi, idx, &mut v);
        v[0] ^= x;
        ga.write(mpi, idx, &v);
        ga.flush(mpi, ga.locate(idx).0);
    }
    ga.sync(mpi);
    let span = mpi.now() - t0;

    // Checksum our block after everyone's updates.
    let mut block = vec![0u64; (hi - lo) as usize];
    ga.read_local(mpi, &mut block);
    let local_sum: u64 = block.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    let total = mpi.allreduce(&[local_sum], cmpi_core::ReduceOp::Sum)[0];
    let rate = if span.is_zero() {
        0.0
    } else {
        updates as f64 / span.as_secs_f64()
    };
    (rate, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
    use cmpi_core::{JobSpec, LocalityPolicy};

    fn spec() -> JobSpec {
        JobSpec::new(DeploymentScenario::containers(
            1,
            2,
            2,
            NamespaceSharing::default(),
        ))
    }

    #[test]
    fn block_distribution_covers_every_index() {
        let r = spec().run(|mpi| {
            let ga = GlobalArray::<u32>::new(mpi, 103); // deliberately uneven
            let mut seen = vec![0u32; 103];
            for idx in 0..103u64 {
                let (rank, off) = ga.locate(idx);
                assert!(rank < mpi.size());
                assert_eq!(off % 4, 0);
                let (lo, hi) = ga.owned_range(rank);
                assert!(idx >= lo && idx < hi);
                seen[idx as usize] += 1;
            }
            seen.iter().all(|&c| c == 1)
        });
        assert!(r.results.iter().all(|&ok| ok));
    }

    #[test]
    fn cross_block_write_and_read() {
        let r = spec().run(|mpi| {
            let mut ga = GlobalArray::<u64>::new(mpi, 40); // 10 per rank
            if mpi.rank() == 0 {
                // Spans blocks 0..4.
                let data: Vec<u64> = (0..35).map(|i| i * 7).collect();
                ga.write(mpi, 3, &data);
                for t in 0..mpi.size() {
                    ga.flush(mpi, t);
                }
            }
            ga.sync(mpi);
            let mut out = vec![0u64; 35];
            ga.read(mpi, 3, &mut out);
            out
        });
        let expect: Vec<u64> = (0..35).map(|i| i * 7).collect();
        for v in &r.results {
            assert_eq!(v, &expect);
        }
    }

    #[test]
    fn gups_checksum_is_policy_invariant_and_opt_is_faster() {
        let run = |policy| {
            let r = spec()
                .with_policy(policy)
                .run(|mpi| gups(mpi, 1 << 10, 200, 42));
            // All ranks agree on the checksum.
            let (_, sum0) = r.results[0];
            assert!(r.results.iter().all(|&(_, s)| s == sum0));
            (r.results[0].1, r.elapsed)
        };
        let (sum_opt, t_opt) = run(LocalityPolicy::ContainerDetector);
        let (sum_def, t_def) = run(LocalityPolicy::Hostname);
        assert_eq!(sum_opt, sum_def, "updates must be policy-independent");
        assert!(t_opt < t_def, "opt {t_opt} must beat def {t_def}");
    }

    #[test]
    #[should_panic(expected = "table_len 3 < 4 ranks")]
    fn gups_rejects_a_table_smaller_than_the_job() {
        spec().run(|mpi| gups(mpi, 3, 10, 1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_access_panics() {
        spec().run(|mpi| {
            let ga = GlobalArray::<u8>::new(mpi, 10);
            ga.locate(10);
        });
    }
}
