use std::hash::Hash;

use crate::HashFamily;

const SLOTS_PER_BUCKET: usize = 4;

type Bucket<K, V> = [Option<(K, V)>; SLOTS_PER_BUCKET];

/// Statistics collected by a [`LevelHashTable`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Bucket probes performed across all lookups.
    pub probes: u64,
    /// Lookups served.
    pub lookups: u64,
    /// Resizes performed.
    pub resizes: u64,
    /// Entries rehashed (moved) during resizes.
    pub moved: u64,
    /// Entries that stayed in place during resizes (the old top level
    /// becoming the new bottom level without movement).
    pub kept: u64,
}

impl LevelStats {
    /// Mean bucket probes per lookup (the paper's Section IX: level hashing
    /// "trades more memory accesses (4 per lookup) for less entry moves").
    pub fn probes_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.probes as f64 / self.lookups as f64
    }

    /// Fraction of entries moved per resize (paper: "only 1/3 of the old
    /// table entries are moved").
    pub fn moved_fraction(&self) -> f64 {
        let total = self.moved + self.kept;
        if total == 0 {
            return 0.0;
        }
        self.moved as f64 / total as f64
    }
}

/// A Level Hashing table (Zuo et al., OSDI'18) for the Section IX
/// comparison.
///
/// Two bucketized levels: a top level of `N` buckets and a bottom level of
/// `N/2` buckets, with two hash functions. Every key has four candidate
/// buckets (two per level, 4 slots each). Resizing allocates a new top
/// level of `2N` buckets, demotes the old top level to be the new bottom
/// level *without moving it*, and rehashes only the old bottom level's
/// entries — about one third of the table.
///
/// Contrast with ME-HPT's in-place cuckoo resizing: level hashing needs up
/// to 4 bucket probes per lookup but moves only 1/3 of entries per resize;
/// in-place cuckoo resizing needs W probes (3) and moves ~1/2. The
/// `levelhash` benchmark reproduces exactly this trade-off.
///
/// # Examples
///
/// ```
/// use mehpt_hash::LevelHashTable;
///
/// let mut t = LevelHashTable::new(64, 7);
/// for i in 0..1000u64 {
///     t.insert(i, i);
/// }
/// assert_eq!(t.get(&500), Some(&500));
/// ```
#[derive(Clone, Debug)]
pub struct LevelHashTable<K, V> {
    top: Vec<Bucket<K, V>>,
    bottom: Vec<Bucket<K, V>>,
    family: HashFamily,
    len: usize,
    stats: LevelStats,
}

impl<K: Hash + Eq, V> LevelHashTable<K, V> {
    /// Creates a table with `top_buckets` buckets in the top level (a power
    /// of two ≥ 2) and half that in the bottom level.
    ///
    /// # Panics
    ///
    /// Panics if `top_buckets` is not a power of two or is smaller than 2.
    pub fn new(top_buckets: usize, seed: u64) -> LevelHashTable<K, V> {
        assert!(
            top_buckets.is_power_of_two() && top_buckets >= 2,
            "top_buckets must be a power of two of at least 2"
        );
        LevelHashTable {
            top: (0..top_buckets).map(|_| Bucket::default()).collect(),
            bottom: (0..top_buckets / 2).map(|_| Bucket::default()).collect(),
            family: HashFamily::new(2, seed),
            len: 0,
            stats: LevelStats::default(),
        }
    }

    /// The number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        (self.top.len() + self.bottom.len()) * SLOTS_PER_BUCKET
    }

    /// Collected statistics.
    pub fn stats(&self) -> &LevelStats {
        &self.stats
    }

    fn bucket_indices(&self, key: &K) -> [usize; 2] {
        [
            self.family.hash(0, key) as usize,
            self.family.hash(1, key) as usize,
        ]
    }

    /// Looks up `key`, probing up to four buckets.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.stats.lookups += 1;
        let hashes = self.bucket_indices(key);
        let mut probes = 0u64;
        let mut found: Option<(bool, usize, usize)> = None;
        'search: for (level_is_top, buckets) in [(true, &self.top), (false, &self.bottom)] {
            for h in hashes {
                let b = h & (buckets.len() - 1);
                probes += 1;
                for (s, slot) in buckets[b].iter().enumerate() {
                    if let Some((k, _)) = slot {
                        if k == key {
                            found = Some((level_is_top, b, s));
                            break 'search;
                        }
                    }
                }
            }
        }
        self.stats.probes += probes;
        found.map(move |(is_top, b, s)| {
            let bucket = if is_top {
                &self.top[b]
            } else {
                &self.bottom[b]
            };
            &bucket[s].as_ref().unwrap().1
        })
    }

    /// Inserts `key → value`; returns the previous value if present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        // Update in place if present.
        let hashes = self.bucket_indices(&key);
        for is_top in [true, false] {
            let buckets = if is_top {
                &mut self.top
            } else {
                &mut self.bottom
            };
            let mask = buckets.len() - 1;
            for h in hashes {
                for (k, v) in buckets[h & mask].iter_mut().flatten() {
                    if *k == key {
                        return Some(std::mem::replace(v, value));
                    }
                }
            }
        }
        let mut entry = (key, value);
        loop {
            match self.try_place(entry) {
                Ok(()) => {
                    self.len += 1;
                    return None;
                }
                Err(e) => {
                    entry = e;
                    self.resize();
                }
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let hashes = self.bucket_indices(key);
        for is_top in [true, false] {
            let buckets = if is_top {
                &mut self.top
            } else {
                &mut self.bottom
            };
            let mask = buckets.len() - 1;
            for h in hashes {
                for slot in buckets[h & mask].iter_mut() {
                    if let Some((k, _)) = slot {
                        if k == key {
                            let (_, v) = slot.take().unwrap();
                            self.len -= 1;
                            return Some(v);
                        }
                    }
                }
            }
        }
        None
    }

    /// Tries to place an entry into one of its four candidate buckets,
    /// with one level-hashing "movement" attempt before giving up.
    fn try_place(&mut self, entry: (K, V)) -> Result<(), (K, V)> {
        let hashes = self.bucket_indices(&entry.0);
        // Top level first (level hashing keeps the top level primary).
        for is_top in [true, false] {
            let buckets = if is_top {
                &mut self.top
            } else {
                &mut self.bottom
            };
            let mask = buckets.len() - 1;
            for h in hashes {
                if let Some(slot) = buckets[h & mask].iter_mut().find(|s| s.is_none()) {
                    *slot = Some(entry);
                    return Ok(());
                }
            }
        }
        // Movement: try to relocate one occupant of a candidate top bucket
        // to its alternate top bucket.
        let mask = self.top.len() - 1;
        for h in hashes {
            let b = h & mask;
            for s in 0..SLOTS_PER_BUCKET {
                let Some((ok, _)) = self.top[b][s].as_ref() else {
                    continue;
                };
                let alt = self
                    .bucket_indices(ok)
                    .into_iter()
                    .map(|oh| oh & mask)
                    .find(|&ob| ob != b);
                if let Some(alt) = alt {
                    if let Some(free) =
                        (0..SLOTS_PER_BUCKET).find(|&fs| self.top[alt][fs].is_none())
                    {
                        let moved = self.top[b][s].take();
                        self.top[alt][free] = moved;
                        self.top[b][s] = Some(entry);
                        return Ok(());
                    }
                }
            }
        }
        Err(entry)
    }

    /// Expands the table: new top = 2N buckets, old top becomes the new
    /// bottom (no movement), old bottom entries (≈ one third of the table)
    /// are rehashed into the new structure.
    fn resize(&mut self) {
        let new_top_len = self.top.len() * 2;
        let old_bottom = std::mem::replace(
            &mut self.bottom,
            std::mem::replace(
                &mut self.top,
                (0..new_top_len).map(|_| Bucket::default()).collect(),
            ),
        );
        self.stats.resizes += 1;
        self.stats.kept += self.bottom.iter().flatten().filter(|s| s.is_some()).count() as u64;
        for bucket in old_bottom {
            for (k, v) in bucket.into_iter().flatten() {
                self.stats.moved += 1;
                self.len -= 1;
                // Re-insert via the normal path (cannot recurse into
                // resize in practice: the new table has ample space).
                self.insert(k, v);
            }
        }
    }

    /// Current memory footprint in bytes (slot storage).
    pub fn memory_bytes(&self) -> u64 {
        let slot = std::mem::size_of::<Option<(K, V)>>();
        ((self.top.len() + self.bottom.len()) * SLOTS_PER_BUCKET * slot) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut t = LevelHashTable::new(16, 1);
        for i in 0..2000u64 {
            assert_eq!(t.insert(i, i * 3), None);
        }
        for i in 0..2000u64 {
            assert_eq!(t.get(&i), Some(&(i * 3)), "get({i})");
        }
        assert_eq!(t.get(&99999), None);
        for i in 0..2000u64 {
            assert_eq!(t.remove(&i), Some(i * 3));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn insert_replaces() {
        let mut t = LevelHashTable::new(4, 2);
        assert_eq!(t.insert(5u64, 'a'), None);
        assert_eq!(t.insert(5, 'b'), Some('a'));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_needs_up_to_four_probes() {
        let mut t = LevelHashTable::new(64, 3);
        for i in 0..3000u64 {
            t.insert(i, ());
        }
        for i in 0..3000u64 {
            t.get(&i);
        }
        let ppl = t.stats().probes_per_lookup();
        assert!(ppl > 1.0 && ppl <= 4.0, "probes per lookup {ppl}");
    }

    #[test]
    fn resize_moves_about_one_third() {
        let mut t = LevelHashTable::new(16, 4);
        for i in 0..20_000u64 {
            t.insert(i, ());
        }
        assert!(t.stats().resizes > 0);
        let f = t.stats().moved_fraction();
        assert!((0.2..0.45).contains(&f), "moved fraction {f}");
    }

    #[test]
    fn capacity_grows_under_load() {
        let mut t = LevelHashTable::new(4, 5);
        let c0 = t.capacity();
        for i in 0..5000u64 {
            t.insert(i, ());
        }
        assert!(t.capacity() > c0 * 8);
        assert_eq!(t.len(), 5000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_bucket_count_panics() {
        let _ = LevelHashTable::<u64, ()>::new(3, 0);
    }
}
