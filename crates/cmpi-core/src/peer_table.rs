//! Per-peer rank state whose storage follows the peers a rank actually
//! talks to.
//!
//! A dense `Vec<T>` of length `n` per rank is the O(n²) term of a job's
//! memory (two of them cost 64 KiB per rank at 4096 ranks, all of it
//! zeroed at init). [`PeerTable`] keeps the dense table's interface —
//! index by world rank, absent entries read as `T::default()` — but
//! splits it into [`BLOCK`]-peer pages behind an `n / BLOCK` directory
//! and allocates a page on the first write to one of its peers. A lookup
//! is two dependent loads and no hashing, so the message path pays one
//! extra load over the `Vec` index it replaces; a rank that exchanges
//! messages with its host neighbours and a handful of tree partners
//! holds two or three pages whatever the job size.

/// Peers per page. 64 entries of the runtime's 16-byte peer state make a
/// 1 KiB page; a host's ranks are contiguous, so one page usually covers
/// every co-resident peer.
pub(crate) const BLOCK: usize = 64;

/// A rank-indexed table of `T` with first-write page allocation.
pub(crate) struct PeerTable<T> {
    n: usize,
    pages: Box<[Option<Box<[T; BLOCK]>>]>,
}

impl<T: Copy + Default> PeerTable<T> {
    /// An all-default table over ranks `0..n`. Allocates the directory
    /// only.
    pub(crate) fn new(n: usize) -> Self {
        PeerTable {
            n,
            pages: (0..n.div_ceil(BLOCK)).map(|_| None).collect(),
        }
    }

    /// The entry of `peer` (`T::default()` until first written).
    ///
    /// # Panics
    /// Panics if `peer` is not a rank of the job, like the `Vec` index
    /// this replaces.
    #[inline]
    pub(crate) fn get(&self, peer: usize) -> T {
        assert!(peer < self.n, "peer {peer} out of range 0..{}", self.n);
        match &self.pages[peer / BLOCK] {
            Some(page) => page[peer % BLOCK],
            None => T::default(),
        }
    }

    /// Mutable entry of `peer`, allocating its page on first use.
    ///
    /// # Panics
    /// Panics if `peer` is not a rank of the job.
    #[inline]
    pub(crate) fn get_mut(&mut self, peer: usize) -> &mut T {
        assert!(peer < self.n, "peer {peer} out of range 0..{}", self.n);
        let page = self.pages[peer / BLOCK].get_or_insert_with(|| Box::new([T::default(); BLOCK]));
        &mut page[peer % BLOCK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Job sizes around the page boundary, including the degenerate job.
    const EDGE_SIZES: [usize; 5] = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17];

    proptest! {
        /// Any get/update sequence observes exactly what a dense `Vec`
        /// would, and only pages holding a written peer exist.
        #[test]
        fn behaves_like_a_dense_vec(
            edge in 0usize..2 * EDGE_SIZES.len(),
            free_n in 1usize..300,
            ops in proptest::collection::vec((0u8..3, any::<usize>(), any::<u64>()), 0..200),
        ) {
            let n = EDGE_SIZES.get(edge).copied().unwrap_or(free_n);
            let mut table = PeerTable::<u64>::new(n);
            let mut dense = vec![0u64; n];
            let mut written = vec![false; n.div_ceil(BLOCK)];
            for (kind, peer, v) in ops {
                let p = peer % n;
                match kind {
                    0 => prop_assert_eq!(table.get(p), dense[p]),
                    1 => {
                        *table.get_mut(p) = v;
                        dense[p] = v;
                        written[p / BLOCK] = true;
                    }
                    _ => {
                        let slot = table.get_mut(p);
                        *slot = slot.wrapping_add(1);
                        dense[p] = dense[p].wrapping_add(1);
                        written[p / BLOCK] = true;
                    }
                }
            }
            for (p, want) in dense.iter().enumerate() {
                prop_assert_eq!(table.get(p), *want);
            }
            let resident: Vec<bool> = table.pages.iter().map(Option::is_some).collect();
            prop_assert_eq!(resident, written);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_a_slot_past_n_inside_the_last_page() {
        // n = 65 leaves 63 spare slots in page 1; they are not ranks.
        PeerTable::<u64>::new(BLOCK + 1).get(BLOCK + 1);
    }
}
