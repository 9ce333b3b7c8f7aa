//! A fast, deterministic hasher for hot fixed-width keys.
//!
//! The memo maps on every hot path of the workspace — curve knots
//! (`ln pF` at `w.to_bits()`), Monte-Carlo points, convolution-plan
//! results — are keyed by one to three `u64` bit patterns. `std`'s
//! default SipHash is DoS-resistant but costs more than the table lookup
//! it guards; none of these maps is fed attacker-controlled keys, so a
//! multiply–rotate mixer is both safe and several times faster.
//!
//! [`FastHasher`] is a Fibonacci-multiplicative mixer (the SplitMix64
//! increment as the multiplier) with a rotate between words. It is
//! deterministic across runs and platforms — no random per-process seed —
//! which also keeps hash-map *iteration* free of a hidden nondeterminism
//! source (the workspace never iterates these maps where order matters,
//! but determinism is a workspace-wide invariant worth defending).
//!
//! ```
//! use cnt_stats::fasthash::FastMap;
//!
//! let mut memo: FastMap<u64, f64> = FastMap::default();
//! memo.insert(42f64.to_bits(), 0.5);
//! assert_eq!(memo.get(&42f64.to_bits()), Some(&0.5));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The SplitMix64 golden-ratio increment — an odd constant with good
/// avalanche behaviour as a multiplier.
const PHI64: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply–rotate hasher for small fixed-width keys (see module docs).
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(PHI64).rotate_left(26);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low-entropy states still spread across the
        // table's bucket bits (HashMap uses the high bits too).
        let mut h = self.state;
        h ^= h >> 32;
        h = h.wrapping_mul(PHI64);
        h ^ (h >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            // Fold the length in so "ab" + "" and "a" + "b" differ.
            self.mix(u64::from_le_bytes(last) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] (zero-sized, deterministic).
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hash_one<H: std::hash::Hash>(v: &H) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let k = (1u64, 2u64, 3u64);
        assert_eq!(hash_one(&k), hash_one(&k));
        assert_ne!(hash_one(&(1u64, 2u64, 3u64)), hash_one(&(1u64, 3u64, 2u64)));
    }

    #[test]
    fn nearby_float_keys_spread() {
        // Widths on a bisection grid differ in few mantissa bits; their
        // hashes must not collide in the low bits HashMap buckets on.
        let mut low_bits = HashSet::new();
        for i in 0..1000u32 {
            let w = 5.0 + f64::from(i) * 0.01;
            low_bits.insert(hash_one(&w.to_bits()) & 0xFFF);
        }
        assert!(
            low_bits.len() > 700,
            "only {} distinct low-12-bit values out of 1000",
            low_bits.len()
        );
    }

    #[test]
    fn byte_stream_padding_is_length_aware() {
        let mut a = FastHasher::default();
        a.write(b"ab");
        let mut b = FastHasher::default();
        b.write(b"a");
        b.write(b"b");
        // Same logical content split differently is allowed to differ, but
        // content vs padded content must differ.
        let mut c = FastHasher::default();
        c.write(b"ab\0\0");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn map_and_set_roundtrip() {
        let mut m: FastMap<(u64, u64, u64), f64> = FastMap::default();
        for i in 0..100u64 {
            m.insert((i, i * 3, i * 7), i as f64);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(9, 27, 63)), Some(&9.0));
    }
}
