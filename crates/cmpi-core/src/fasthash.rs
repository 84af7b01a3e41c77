//! A non-cryptographic hasher for the runtime's hot-path maps.
//!
//! The matching engine and the per-rank context tables key their maps
//! by small integers (`(ctx, src, tag)` triples, `(src, seq)` pairs,
//! context ids). `std`'s default SipHash costs more than the seed's entire
//! linear scan at realistic queue depths, so the hot maps use this
//! FxHash-style multiply-xor hasher instead: a few cycles per word,
//! good dispersion for integer keys. Keys come from inside the job
//! (rank ids, contexts, sequence numbers), not from untrusted input,
//! so HashDoS resistance is not required.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher over native words (FxHash's constant).
#[derive(Default)]
pub struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashMap` wired to [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` wired to [`FastHasher`].
pub type FastSet<T> = std::collections::HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_keys_round_trip() {
        let mut m: FastMap<(u32, usize, u32), u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert((i as u32 % 7, i as usize, i as u32), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m[&(i as u32 % 7, i as usize, i as u32)], i);
        }
    }

    #[test]
    fn nearby_keys_disperse() {
        // Sequential ids must not collapse onto a few buckets: check that
        // the low 6 bits of the hash take many distinct values.
        use std::collections::HashSet;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh: BuildHasherDefault<FastHasher> = Default::default();
        let low: HashSet<u64> = (0..64u64).map(|i| bh.hash_one(i) & 63).collect();
        assert!(
            low.len() > 32,
            "only {} distinct low-bit patterns",
            low.len()
        );
    }
}
