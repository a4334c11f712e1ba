/// Hit/miss counters for a cache structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

/// A set-associative cache of 64-bit keys with LRU replacement.
///
/// The building block for every cached hardware structure in the model:
/// TLB arrays, radix page-walk caches and cuckoo-walk caches. Only
/// presence is tracked (keys, no payloads) — the simulator keeps the actual
/// data in the functional structures, and the cache decides latency.
///
/// # Examples
///
/// ```
/// use mehpt_tlb::SetAssocCache;
///
/// let mut cache = SetAssocCache::new(4, 2);
/// assert!(!cache.probe(42)); // cold miss
/// cache.fill(42);
/// assert!(cache.probe(42)); // hit
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetAssocCache {
    /// `sets[s]` is the MRU-ordered list of resident keys (front = MRU).
    sets: Vec<Vec<u64>>,
    ways: usize,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache with `sets` sets of `ways` entries.
    ///
    /// Use `sets = 1` for a fully associative structure. Set selection uses
    /// modulo indexing, so any positive set count works (Table III has
    /// structures like a 12-way 1024-entry TLB whose set count is not a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> SetAssocCache {
        assert!(sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        SetAssocCache {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            stats: CacheStats::default(),
        }
    }

    /// Creates a fully associative cache of `entries` entries.
    pub fn fully_associative(entries: usize) -> SetAssocCache {
        SetAssocCache::new(1, entries)
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Probes for `key`: returns `true` on hit and makes it the set's MRU
    /// entry, counting the hit or miss. A miss inserts nothing (TLB
    /// semantics): entries enter only via [`SetAssocCache::fill`] after a
    /// successful walk.
    pub fn probe(&mut self, key: u64) -> bool {
        let set_idx = (key as usize) % self.sets.len();
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&k| k == key) {
            let k = set.remove(pos);
            set.insert(0, k);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// Checks for `key` without updating recency or statistics.
    pub fn contains(&self, key: u64) -> bool {
        let set_idx = (key as usize) % self.sets.len();
        self.sets[set_idx].contains(&key)
    }

    /// Inserts `key` as the set's MRU entry, evicting its LRU entry if the
    /// set is full, without counting an access (e.g. a fill on the return
    /// path of a walk).
    pub fn fill(&mut self, key: u64) {
        let set_idx = (key as usize) % self.sets.len();
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&k| k == key) {
            let k = set.remove(pos);
            set.insert(0, k);
            return;
        }
        if set.len() == self.ways {
            set.pop();
        }
        set.insert(0, key);
    }

    /// Removes `key` if present (e.g. on an unmap/shootdown).
    pub fn invalidate(&mut self, key: u64) {
        let set_idx = (key as usize) % self.sets.len();
        self.sets[set_idx].retain(|&k| k != key);
    }

    /// Empties the cache (e.g. on context switch).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probes `key` and fills it on a miss; returns whether it hit.
    fn touch(c: &mut SetAssocCache, key: u64) -> bool {
        let hit = c.probe(key);
        if !hit {
            c.fill(key);
        }
        hit
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(1, 4);
        assert!(!touch(&mut c, 1));
        assert!(touch(&mut c, 1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = SetAssocCache::new(1, 2);
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
        let mut c = SetAssocCache::new(2, 1);
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
        let mut c = SetAssocCache::new(1, 2);
        c.fill(9);
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.probe(9));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = SetAssocCache::new(2, 2);
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
        assert_eq!(SetAssocCache::new(16, 4).capacity(), 64);
        assert_eq!(SetAssocCache::fully_associative(32).capacity(), 32);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_set_count_panics() {
        SetAssocCache::new(0, 1);
    }

    #[test]
    fn probe_does_not_insert() {
        let mut c = SetAssocCache::new(1, 4);
        assert!(!c.probe(5));
        assert!(!c.probe(5), "probe must not install the key");
        assert_eq!(c.stats().misses, 2);
        c.fill(5);
        assert!(c.probe(5));
    }

    #[test]
    fn non_power_of_two_sets_work() {
        let mut c = SetAssocCache::new(3, 1);
        c.fill(0);
        c.fill(1);
        c.fill(2);
        assert!(c.contains(0) && c.contains(1) && c.contains(2));
        c.fill(3); // maps to set 0, evicts key 0
        assert!(!c.contains(0));
    }
}
