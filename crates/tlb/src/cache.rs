/// Hit/miss counters for a cache structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

/// Marks an empty way. Keys are VPNs and VA prefixes, all below 2^52.
const EMPTY: u64 = u64::MAX;

/// Maps a key to its set: a mask for a power-of-two set count, and
/// otherwise Lemire's fastmod with a 128-bit reciprocal, which is exact for
/// every `u64` key ("Faster Remainder by Direct Computation", 2019).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SetIndex {
    sets: u64,
    /// `ceil(2^128 / sets)`, or 0 for a power-of-two set count.
    reciprocal: u128,
}

impl SetIndex {
    fn new(sets: usize) -> SetIndex {
        let sets = sets as u64;
        let reciprocal = if sets.is_power_of_two() {
            0
        } else {
            u128::MAX / u128::from(sets) + 1
        };
        SetIndex { sets, reciprocal }
    }

    /// `key % sets`.
    #[inline]
    fn of(self, key: u64) -> usize {
        if self.reciprocal == 0 {
            return (key & (self.sets - 1)) as usize;
        }
        // The fraction key / sets in 128-bit fixed point, times sets: the
        // remainder is the top 64 bits of the 192-bit product.
        let frac = self.reciprocal.wrapping_mul(u128::from(key));
        let sets = u128::from(self.sets);
        let high = (frac >> 64) * sets + ((frac as u64 as u128 * sets) >> 64);
        (high >> 64) as usize
    }
}

/// A set-associative cache of 64-bit keys with exact LRU replacement, `W`
/// ways per set.
///
/// The building block for every cached hardware structure in the model:
/// TLB arrays, radix page-walk caches and cuckoo-walk caches. Only
/// presence is tracked (keys, no payloads) — the simulator keeps the actual
/// data in the functional structures, and the cache decides latency.
///
/// Each set is a `[u64; W]` in MRU order, its resident keys first and
/// empty ways after them. Recency moves by shifting within the array, with
/// no allocation and no `memmove`.
///
/// # Examples
///
/// ```
/// use mehpt_tlb::SetAssocCache;
///
/// let mut cache = SetAssocCache::<2>::new(4);
/// assert!(!cache.probe(42)); // cold miss
/// cache.fill(42);
/// assert!(cache.probe(42)); // hit
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetAssocCache<const W: usize> {
    sets: Vec<[u64; W]>,
    index: SetIndex,
    stats: CacheStats,
}

impl<const W: usize> SetAssocCache<W> {
    /// Creates a cache with `sets` sets of `W` entries.
    ///
    /// Use `sets = 1` for a fully associative structure. A power-of-two set
    /// count selects the set with a mask and any other count with fastmod,
    /// so any positive set count works (Table III has structures like a
    /// 12-way L2 TLB whose set count is not a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero. A `W` of zero does not compile.
    pub fn new(sets: usize) -> SetAssocCache<W> {
        const { assert!(W > 0, "a cache needs at least one way") };
        assert!(sets > 0, "cache needs at least one set");
        SetAssocCache {
            sets: vec![[EMPTY; W]; sets],
            index: SetIndex::new(sets),
            stats: CacheStats::default(),
        }
    }

    /// Creates a fully associative cache of `W` entries.
    pub fn fully_associative() -> SetAssocCache<W> {
        SetAssocCache::new(1)
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * W
    }

    /// The set `key` maps to, and the way that holds it or `W`.
    #[inline]
    fn locate(&self, key: u64) -> (usize, usize) {
        debug_assert_ne!(key, EMPTY, "the key u64::MAX marks an empty way");
        let set = self.index.of(key);
        (set, way_of(&self.sets[set], key))
    }

    /// Probes for `key`: returns `true` on hit and makes it the set's MRU
    /// entry, counting the hit or miss. A miss inserts nothing (TLB
    /// semantics): entries enter only via [`SetAssocCache::fill`] after a
    /// successful walk.
    #[inline]
    pub fn probe(&mut self, key: u64) -> bool {
        let (set, way) = self.locate(key);
        if way < W {
            to_front(&mut self.sets[set], way, key);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Checks for `key` without updating recency or statistics.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.locate(key).1 < W
    }

    /// Inserts `key` as the set's MRU entry, evicting its LRU entry if the
    /// set is full, without counting an access (e.g. a fill on the return
    /// path of a walk).
    #[inline]
    pub fn fill(&mut self, key: u64) {
        let (set, way) = self.locate(key);
        // A miss shifts every way down: the last one holds the LRU key of
        // a full set, or an empty way.
        to_front(&mut self.sets[set], way.min(W - 1), key);
    }

    /// Removes `key` if present (e.g. on an unmap/shootdown).
    pub fn invalidate(&mut self, key: u64) {
        let (set, way) = self.locate(key);
        if way < W {
            let set = &mut self.sets[set];
            for i in way..W - 1 {
                set[i] = set[i + 1];
            }
            set[W - 1] = EMPTY;
        }
    }

    /// Empties the cache (e.g. on context switch).
    pub fn flush(&mut self) {
        self.sets.fill([EMPTY; W]);
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Each set's resident keys, MRU first.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> Vec<Vec<u64>> {
        self.sets
            .iter()
            .map(|set| set.iter().copied().filter(|&k| k != EMPTY).collect())
            .collect()
    }
}

/// The way of `set` that holds `key`, or `W` if none does.
///
/// The search stops at the first match. On x86-64, with and without AVX2, a
/// branch-free search that folds all `W` comparisons into a bit mask
/// measured 1.6× or more slower per hit at every way count used here, and
/// up to 1.8× slower per miss and fill.
#[inline]
fn way_of<const W: usize>(set: &[u64; W], key: u64) -> usize {
    set.iter().position(|&k| k == key).unwrap_or(W)
}

/// Makes `key` the MRU entry of `set`: ways `0..way` move down by one,
/// overwriting way `way`, and `key` goes in way 0. The loop runs over all
/// `W` ways with a select, so its trip count is a constant.
#[inline]
fn to_front<const W: usize>(set: &mut [u64; W], way: usize, key: u64) {
    for i in (1..W).rev() {
        if i <= way {
            set[i] = set[i - 1];
        }
    }
    set[0] = key;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_types::rng::Xoshiro256;

    /// Probes `key` and fills it on a miss; returns whether it hit.
    fn touch<const W: usize>(c: &mut SetAssocCache<W>, key: u64) -> bool {
        let hit = c.probe(key);
        if !hit {
            c.fill(key);
        }
        hit
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::<4>::new(1);
        assert!(!touch(&mut c, 1));
        assert!(touch(&mut c, 1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = SetAssocCache::<2>::new(1);
        touch(&mut c, 1);
        touch(&mut c, 2);
        touch(&mut c, 1); // 1 becomes MRU; 2 is LRU
        touch(&mut c, 3); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = SetAssocCache::<1>::new(2);
        touch(&mut c, 0); // set 0
        touch(&mut c, 1); // set 1
        assert!(c.contains(0));
        assert!(c.contains(1));
        touch(&mut c, 2); // set 0, evicts 0
        assert!(!c.contains(0));
        assert!(c.contains(1));
    }

    #[test]
    fn fill_does_not_count_access() {
        let mut c = SetAssocCache::<2>::new(1);
        c.fill(9);
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.probe(9));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = SetAssocCache::<2>::new(2);
        c.fill(4);
        c.fill(5);
        c.invalidate(4);
        assert!(!c.contains(4));
        assert!(c.contains(5));
        c.flush();
        assert!(!c.contains(5));
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(SetAssocCache::<4>::new(16).capacity(), 64);
        assert_eq!(SetAssocCache::<32>::fully_associative().capacity(), 32);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_set_count_panics() {
        SetAssocCache::<1>::new(0);
    }

    #[test]
    fn probe_does_not_insert() {
        let mut c = SetAssocCache::<4>::new(1);
        assert!(!c.probe(5));
        assert!(!c.probe(5), "probe must not install the key");
        assert_eq!(c.stats().misses, 2);
        c.fill(5);
        assert!(c.probe(5));
    }

    #[test]
    fn non_power_of_two_sets_work() {
        let mut c = SetAssocCache::<1>::new(3);
        c.fill(0);
        c.fill(1);
        c.fill(2);
        assert!(c.contains(0) && c.contains(1) && c.contains(2));
        c.fill(3); // maps to set 0, evicts key 0
        assert!(!c.contains(0));
    }

    #[test]
    fn set_index_is_the_remainder() {
        let mut rng = Xoshiro256::seed_from_u64(0xfa57);
        for sets in [1, 2, 3, 4, 5, 7, 16, 85, 86, 1000, 12345] {
            let index = SetIndex::new(sets);
            let d = sets as u64;
            let mut keys = vec![0, 1, d - 1, d, d + 1, 1 << 52, (1 << 52) - 1, u64::MAX - 1];
            for _ in 0..1_000 {
                // Keys either side of a multiple of the set count.
                let m = rng.next_u64() / d * d;
                keys.extend([m, m.wrapping_sub(1), m.saturating_add(d - 1)]);
            }
            keys.extend((0..100_000).map(|_| rng.next_u64()));
            for key in keys {
                assert_eq!(index.of(key), (key % d) as usize, "{key} % {d}");
            }
        }
    }
}
