//! A fixed-seed hasher for the simulator's integer-keyed maps.
//!
//! std's default SipHash is keyed per process and built to resist
//! hash-flooding; the simulator's maps (region maps, frame owners, the
//! buddy allocator's block record) hash one `u64` per lookup on the hot
//! path and are iterated only to fill another map, so their output cannot
//! depend on the hash.
//! [`SplitMixHasher`] stores the key and finishes with the splitmix64
//! finalizer — the same mixing as [`rng::splitmix64`](crate::rng::splitmix64)
//! — which spreads keys with power-of-two strides across all buckets, as a
//! plain multiplicative hash would not.
//!
//! # Examples
//!
//! ```
//! use mehpt_types::hashmap::SplitMixMap;
//!
//! let mut owners: SplitMixMap<u64, &str> = SplitMixMap::default();
//! owners.insert(1 << 21, "a");
//! assert_eq!(owners.get(&(1 << 21)), Some(&"a"));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed by [`SplitMixHasher`].
pub type SplitMixMap<K, V> = HashMap<K, V, SplitMixBuild>;

/// Builds [`SplitMixHasher`]s; every instance hashes alike (fixed seed).
#[derive(Clone, Copy, Debug, Default)]
pub struct SplitMixBuild;

impl BuildHasher for SplitMixBuild {
    type Hasher = SplitMixHasher;

    #[inline]
    fn build_hasher(&self) -> SplitMixHasher {
        SplitMixHasher { state: 0 }
    }
}

/// A hasher for integer keys: a single `write_u64` stores the key and
/// [`Hasher::finish`] applies the splitmix64 finalizer.
#[derive(Clone, Copy, Debug)]
pub struct SplitMixHasher {
    state: u64,
}

impl Hasher for SplitMixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Folds bytes eight at a time through [`Hasher::write_u64`]; only
    /// non-integer keys take this path.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Stores `k` on the first write; a later write first scrambles what is
    /// stored (multi-field keys), so no field cancels another.
    #[inline]
    fn write_u64(&mut self, k: u64) {
        self.state = self
            .state
            .rotate_left(23)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fixed_seed_and_single_key_is_the_finalizer() {
        let h = |k: u64| SplitMixBuild.hash_one(k);
        assert_eq!(h(42), h(42));
        let mut state = 42u64.wrapping_sub(0x9e37_79b9_7f4a_7c15);
        assert_eq!(h(42), crate::rng::splitmix64(&mut state));
    }

    #[test]
    fn power_of_two_strides_spread_over_buckets() {
        // 4096 keys 2^21 apart must fill most of 4096 buckets' low bits.
        let mut seen = vec![false; 4096];
        for i in 0..4096u64 {
            seen[(SplitMixBuild.hash_one(i << 21) & 4095) as usize] = true;
        }
        let filled = seen.iter().filter(|&&s| s).count();
        assert!(filled > 2400, "only {filled} of 4096 buckets hit");
    }

    #[test]
    fn multi_field_keys_do_not_cancel() {
        assert_ne!(
            SplitMixBuild.hash_one((1u64, 2u64)),
            SplitMixBuild.hash_one((2u64, 1u64))
        );
    }
}
