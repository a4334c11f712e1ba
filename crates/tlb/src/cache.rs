/// Hit/miss counters for a cache structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction, or 0 if never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A set-associative cache of 64-bit keys with LRU replacement.
///
/// The building block for every cached hardware structure in the model:
/// TLB arrays, radix page-walk caches, cuckoo-walk caches, and the L2/L3
/// data caches that page-walk memory references travel through. Only
/// presence is tracked (keys, no payloads) — the simulator keeps the actual
/// data in the functional structures, and the cache decides latency.
///
/// # Examples
///
/// ```
/// use mehpt_tlb::SetAssocCache;
///
/// let mut cache = SetAssocCache::new(4, 2);
/// assert!(!cache.access(42));  // cold miss (inserts)
/// assert!(cache.access(42));   // hit
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

    /// Accesses `key`: returns `true` on hit. On miss the key is inserted,
    /// evicting the set's LRU entry if needed.
    pub fn access(&mut self, key: u64) -> bool {
        let set_idx = (key as usize) % self.sets.len();
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&k| k == key) {
            // Move to MRU position.
            let k = set.remove(pos);
            set.insert(0, k);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if set.len() == self.ways {
            set.pop();
        }
        set.insert(0, key);
        false
    }

    /// Probes for `key`: updates recency and hit/miss statistics like
    /// [`SetAssocCache::access`], but does **not** insert on a miss.
    /// TLB semantics: entries enter only via [`SetAssocCache::fill`] after
    /// a successful walk.
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

    /// Inserts `key` without counting an access (e.g. a fill on the return
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

    /// Resets the hit/miss counters (the contents stay).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(1, 4);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = SetAssocCache::new(1, 2);
        c.access(1);
        c.access(2);
        c.access(1); // 1 becomes MRU; 2 is LRU
        c.access(3); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = SetAssocCache::new(2, 1);
        c.access(0); // set 0
        c.access(1); // set 1
        assert!(c.contains(0));
        assert!(c.contains(1));
        c.access(2); // set 0, evicts 0
        assert!(!c.contains(0));
        assert!(c.contains(1));
    }

    #[test]
    fn fill_does_not_count_access() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(9);
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.access(9));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = SetAssocCache::new(2, 2);
        c.access(4);
        c.access(5);
        c.invalidate(4);
        assert!(!c.contains(4));
        assert!(c.contains(5));
        c.flush();
        assert!(!c.contains(5));
    }

    #[test]
    fn hit_rate() {
        let mut c = SetAssocCache::new(1, 8);
        c.access(1);
        c.access(1);
        c.access(1);
        c.access(2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
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
        c.access(0);
        c.access(1);
        c.access(2);
        assert!(c.contains(0) && c.contains(1) && c.contains(2));
        c.access(3); // maps to set 0, evicts key 0
        assert!(!c.contains(0));
    }
}
