//! Per-peer rank state whose storage follows the peers a rank actually
//! talks to.
//!
//! A dense `Vec<T>` of length `n` per rank is the O(n²) term of a job's
//! memory (two of them cost 64 KiB per rank at 4096 ranks, all of it
//! zeroed at init). [`PeerTable`] keeps the dense table's interface —
//! index by world rank, absent entries read as `T::default()` — but holds
//! only the peers that were written, in a small open-addressing table:
//! one allocation of `(peer, T)` slots, a power of two of them, at most
//! three quarters full, probed linearly from a Fibonacci hash of the
//! rank. Nothing in it is sized by `n`: a rank that exchanges messages
//! with its host neighbours and a handful of tree partners holds a
//! 16-slot table whatever the job size. A lookup is a multiply, a shift
//! and, at that load, one or two slot compares; an absent peer costs a
//! probe up to the next empty slot.

/// The key of an empty slot (no job has `u32::MAX` ranks).
const EMPTY: u32 = u32::MAX;

/// The first allocation's slot count.
const MIN_SLOTS: usize = 4;

struct Slot<T> {
    peer: u32,
    value: T,
}

/// A rank-indexed table of `T` that stores only written peers.
pub(crate) struct PeerTable<T> {
    /// `MIN_SLOTS << k` slots, or none before the first write.
    slots: Box<[Slot<T>]>,
    /// Occupied slots.
    len: u32,
    /// The job's rank count: every key is below it.
    n: u32,
}

impl<T: Default> PeerTable<T> {
    /// An empty table over ranks `0..n`. Allocates nothing.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n < EMPTY as usize, "{n} ranks overflow the peer key");
        PeerTable {
            slots: Box::default(),
            len: 0,
            n: n as u32,
        }
    }

    /// The home slot of `peer` in a table of `slots` slots: the top bits
    /// of a Fibonacci hash (the hash scaled to `0..slots`), so ranks a
    /// power of two apart (tree partners) spread instead of sharing low
    /// bits.
    #[inline]
    fn home(peer: u32, slots: usize) -> usize {
        ((u64::from(peer.wrapping_mul(0x9e37_79b9)) * slots as u64) >> 32) as usize
    }

    /// The slot holding `peer`, or the empty slot where it would go.
    /// The table must have slots.
    #[inline]
    fn probe(&self, peer: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(peer, self.slots.len());
        // At most three quarters full, so an empty slot ends every probe.
        while self.slots[i].peer != peer && self.slots[i].peer != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    #[inline]
    fn key(&self, peer: usize) -> u32 {
        assert!(
            peer < self.n as usize,
            "peer {peer} out of range 0..{}",
            self.n
        );
        peer as u32
    }

    /// The entry of `peer`, if it was ever written.
    ///
    /// # Panics
    /// Panics if `peer` is not a rank of the job, like the `Vec` index
    /// this replaces.
    #[inline(always)]
    fn find(&self, peer: usize) -> Option<&T> {
        let key = self.key(peer);
        if self.slots.is_empty() {
            return None;
        }
        let slot = &self.slots[self.probe(key)];
        (slot.peer == key).then_some(&slot.value)
    }

    /// Mutable entry of `peer`, inserting `T::default()` on first use.
    ///
    /// # Panics
    /// Panics if `peer` is not a rank of the job.
    #[inline(always)]
    pub(crate) fn get_mut(&mut self, peer: usize) -> &mut T {
        let key = self.key(peer);
        if !self.slots.is_empty() {
            let i = self.probe(key);
            if self.slots[i].peer == key {
                return &mut self.slots[i].value;
            }
        }
        self.insert(key)
    }

    /// Insert `peer` (absent), growing first when the insert would take
    /// the table past three quarters full.
    #[cold]
    #[inline(never)]
    fn insert(&mut self, peer: u32) -> &mut T {
        let slots = self.slots.len();
        if 4 * (self.len as usize + 1) > 3 * slots {
            self.grow((2 * slots).max(MIN_SLOTS));
        }
        let i = self.probe(peer);
        self.slots[i].peer = peer;
        self.len += 1;
        &mut self.slots[i].value
    }

    fn grow(&mut self, slots: usize) {
        let fresh = (0..slots)
            .map(|_| Slot {
                peer: EMPTY,
                value: T::default(),
            })
            .collect();
        let old = std::mem::replace(&mut self.slots, fresh);
        for slot in old.into_vec() {
            if slot.peer != EMPTY {
                let i = self.probe(slot.peer);
                self.slots[i] = slot;
            }
        }
    }

    /// Every written peer and its entry, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let written = self.slots.iter().filter(|s| s.peer != EMPTY);
        written.map(|s| (s.peer as usize, &s.value))
    }
}

impl<T: Copy + Default> PeerTable<T> {
    /// The entry of `peer` (`T::default()` until first written).
    ///
    /// # Panics
    /// Panics if `peer` is not a rank of the job.
    #[inline]
    pub(crate) fn get(&self, peer: usize) -> T {
        self.find(peer).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Job sizes around the slot counts the table grows through,
    /// including the degenerate job.
    const EDGE_SIZES: [usize; 5] = [1, 3, 4, 64, 1024 + 17];

    proptest! {
        /// Any get/update sequence observes exactly what a dense `Vec`
        /// would, and exactly the written peers are resident.
        #[test]
        fn behaves_like_a_dense_vec(
            edge in 0usize..2 * EDGE_SIZES.len(),
            free_n in 1usize..300,
            ops in proptest::collection::vec((0u8..3, any::<usize>(), any::<u64>()), 0..200),
        ) {
            let n = EDGE_SIZES.get(edge).copied().unwrap_or(free_n);
            let mut table = PeerTable::<u64>::new(n);
            let mut dense = vec![0u64; n];
            let mut written = vec![false; n];
            for (kind, peer, v) in ops {
                let p = peer % n;
                match kind {
                    0 => prop_assert_eq!(table.get(p), dense[p]),
                    1 => {
                        *table.get_mut(p) = v;
                        dense[p] = v;
                        written[p] = true;
                    }
                    _ => {
                        let slot = table.get_mut(p);
                        *slot = slot.wrapping_add(1);
                        dense[p] = dense[p].wrapping_add(1);
                        written[p] = true;
                    }
                }
            }
            for (p, want) in dense.iter().enumerate() {
                prop_assert_eq!(table.get(p), *want);
            }
            let mut resident = vec![false; n];
            for (p, v) in table.iter() {
                prop_assert!(!resident[p], "peer {} resident twice", p);
                resident[p] = true;
                prop_assert_eq!(*v, dense[p]);
            }
            prop_assert_eq!(&resident, &written);
        }

        /// Only written peers are resident, and the storage follows their
        /// count, not the job size: the slots are the fewest power of two
        /// (at least four) that keeps the table at most three quarters
        /// full, whatever `n` and whichever ranks were written.
        #[test]
        fn storage_follows_written_peers_not_job_size(
            n in 1usize..1 << 20,
            peers in proptest::collection::vec(any::<usize>(), 0..100),
        ) {
            let mut table = PeerTable::<u64>::new(n);
            let mut distinct = std::collections::BTreeSet::new();
            for p in peers {
                table.get(p % n);
                prop_assert_eq!(table.slots.len(), slots_for(distinct.len()));
                *table.get_mut(p % n) += 1;
                distinct.insert(p % n);
            }
            prop_assert_eq!(table.len as usize, distinct.len());
            prop_assert_eq!(table.slots.len(), slots_for(distinct.len()));
            let resident: std::collections::BTreeSet<usize> = table.iter().map(|(p, _)| p).collect();
            prop_assert_eq!(resident, distinct);
        }
    }

    fn slots_for(written: usize) -> usize {
        if written == 0 {
            return 0;
        }
        let mut slots = MIN_SLOTS;
        while 4 * written > 3 * slots {
            slots *= 2;
        }
        slots
    }

    #[test]
    fn tree_partners_do_not_pile_onto_one_slot() {
        // Rank 0's recursive-doubling partners are 1, 2, 4, .., 2^k:
        // identical low bits, which a low-bit hash would stack into one
        // probe run.
        let mut table = PeerTable::<u64>::new(1 << 20);
        for k in 0..12 {
            *table.get_mut(1 << k) = k;
        }
        let mask = table.slots.len() - 1;
        let worst = (0..12)
            .map(|k| {
                let home = PeerTable::<u64>::home(1 << k, table.slots.len());
                (table.probe(1 << k) + table.slots.len() - home) & mask
            })
            .max();
        assert!(
            worst <= Some(3),
            "a tree partner sits {worst:?} slots from home"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_a_peer_past_n() {
        PeerTable::<u64>::new(65).get(65);
    }
}
