//! One fixed, fast hasher for the simulator's keyed lookups
//! (DESIGN.md §20).
//!
//! Every hot-path map in the simulator is keyed by a small integer
//! generated inside the simulation, so `std`'s SipHash, built to resist
//! adversarial keys, buys nothing. [`FxHasher`] is rustc's
//! multiply-rotate hash, with no per-process seed. Its `finish` rotates
//! the well-mixed high product bits down to where a hash table picks a
//! bucket, so line-aligned addresses do not pile into a few buckets.
//!
//! Iteration order over a [`FastMap`] is still arbitrary and must never
//! feed a report, a digest or an event order; the
//! `unordered-collection` lint treats these aliases like `HashMap`.

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit Fx multiplier (rustc's `FxHasher` constant).
const K: u64 = 0x517c_c1b7_2722_0a95;
/// How far [`FxHasher::finish`] rotates the product left, bringing its
/// top 26 bits down to the bottom.
const FINISH_ROTATE: u32 = 26;

/// A fixed multiply-rotate hasher for small integer keys.
///
/// Deterministic across processes: the same key always hashes to the
/// same value.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (d, s) in word.iter_mut().zip(chunk) {
                *d = *s;
            }
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product rotated so its high bits land in the low bits a
    /// hash table indexes buckets with.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]. Build with `FastMap::default()`.
// lint:allow(unordered-collection): keyed lookup only; no iteration order reaches output (DESIGN.md §20)
pub type FastMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]. Build with `FastSet::default()`.
// lint:allow(unordered-collection): keyed lookup only; no iteration order reaches output (DESIGN.md §20)
pub type FastSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    /// Distinct values of the low 12 bits of `finish()` over `keys`.
    fn low12_distinct(keys: impl Iterator<Item = u64>) -> usize {
        keys.map(|k| hash_of(k) & 0xfff)
            .collect::<BTreeSet<_>>()
            .len()
    }

    #[test]
    fn output_is_pinned_for_fixed_keys() {
        // Fixed constants: the hash has no per-process seed, so these
        // hold in every run on every host.
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u16), K.rotate_left(FINISH_ROTATE));
        assert_eq!(hash_of(7u16), 0x0847_b928_4ce9_a530);
        assert_eq!(hash_of(0xdead_beefu32), 0xdca5_4ddc_6d9f_cf00);
        assert_eq!(hash_of(0x1000_0040u64), 0xcc62_0a95_0346_8a39);
        assert_eq!(hash_of(12345usize), 0x7862_412c_b624_65e4);
        // Same value, same hash, whatever the integer width.
        assert_eq!(hash_of(42u16), hash_of(42u64));
        assert_eq!(hash_of(42u32), hash_of(42usize));
    }

    #[test]
    fn line_aligned_addresses_spread_over_low_bits() {
        for stride in [64u64, 128] {
            let base = 0x4000_0000u64;
            let distinct = low12_distinct((0..4096).map(|i| base + i * stride));
            assert!(
                distinct >= 2048,
                "stride {stride}: only {distinct} distinct low-12-bit values"
            );
        }
    }

    #[test]
    fn dense_small_ids_spread_over_low_bits() {
        let distinct = low12_distinct(0..4096);
        assert!(
            distinct >= 2048,
            "only {distinct} distinct low-12-bit values"
        );
    }

    #[test]
    fn aliases_behave_as_maps_and_sets() {
        let mut m: FastMap<u32, &str> = FastMap::default();
        m.insert(3, "three");
        m.insert(3, "again");
        assert_eq!(m.get(&3), Some(&"again"));
        let mut s: FastSet<u16> = FastSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }
}
