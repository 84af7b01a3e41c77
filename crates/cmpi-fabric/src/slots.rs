//! A grow-only table of write-once slots with lock-free lookups.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::OnceLock;

/// Slots in the first chunk; chunk `k` holds `FIRST << k`.
const FIRST: usize = 32;
/// Spine length: `FIRST * (2^CHUNKS - 1)` slots in all.
const CHUNKS: usize = 32;

/// Densely indexed table whose slots are each written at most once and
/// never move. The fabric has no size at construction (ranks attach one
/// by one), and every message looks up two endpoints and possibly a
/// host adapter: chunks that double in size keep the spine a fixed
/// array, so a lookup is two dependent loads and takes no lock, and
/// growing allocates one chunk without touching the others.
pub(crate) struct SlotTable<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
}

impl<T> SlotTable<T> {
    pub(crate) fn new() -> Self {
        SlotTable {
            chunks: [const { OnceLock::new() }; CHUNKS],
        }
    }

    /// `(chunk, offset)` of slot `i`.
    fn locate(i: usize) -> (usize, usize) {
        let n = i + FIRST;
        let k = (n.ilog2() - FIRST.ilog2()) as usize;
        (k, n - (FIRST << k))
    }

    /// The value in slot `i`, if one was ever stored.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        let (k, off) = Self::locate(i);
        self.chunks.get(k)?.get()?[off].get()
    }

    /// Every stored value, in slot order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        let chunks = self.chunks.iter().filter_map(OnceLock::get);
        chunks.flat_map(|c| c.iter().filter_map(OnceLock::get))
    }

    /// Slot `i` itself, allocating its chunk on first touch.
    pub(crate) fn slot(&self, i: usize) -> &OnceLock<T> {
        let (k, off) = Self::locate(i);
        &self.chunks[k].get_or_init(|| (0..FIRST << k).map(|_| OnceLock::new()).collect())[off]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_tile_the_index_space() {
        let mut expect = (0, 0);
        for i in 0..10_000 {
            assert_eq!(SlotTable::<u8>::locate(i), expect, "slot {i}");
            expect.1 += 1;
            if expect.1 == FIRST << expect.0 {
                expect = (expect.0 + 1, 0);
            }
        }
    }

    #[test]
    fn slots_are_write_once_and_independent() {
        let t = SlotTable::new();
        assert!(t.get(5).is_none() && t.get(5_000).is_none());
        assert!(t.slot(5_000).set(7u32).is_ok());
        assert!(t.slot(5_000).set(8).is_err());
        assert_eq!(t.get(5_000), Some(&7));
        // Same chunk, different slot; and a chunk never touched.
        assert!(t.get(5_001).is_none() && t.get(5).is_none());
        assert_eq!(*t.slot(0).get_or_init(|| 1), 1);
        assert_eq!(t.get(0), Some(&1));
        assert_eq!(t.values().copied().collect::<Vec<_>>(), [1, 7]);
    }
}
