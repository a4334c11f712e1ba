use std::convert::Infallible;
use std::hash::Hash;
use std::mem;

use crate::elastic::{Alloc, ElasticCuckoo, Slots};
use crate::stats::TableStats;
use crate::{Config, HashFamily};

/// A library way: one contiguous `Vec` of `(K, V)` slots.
type KvSlots<K, V> = Vec<Option<(K, V)>>;

impl<K: Hash, V> Slots for KvSlots<K, V> {
    type Entry = (K, V);

    fn hash(family: &HashFamily, way: usize, entry: &(K, V)) -> u64 {
        family.hash(way, &entry.0)
    }

    fn take(&mut self, idx: usize) -> Option<(K, V)> {
        self[idx].take()
    }

    fn replace(&mut self, idx: usize, entry: (K, V)) -> Option<(K, V)> {
        self[idx].replace(entry)
    }

    fn is_free(&self, idx: usize) -> bool {
        self[idx].is_none()
    }

    fn slot_count(&self) -> usize {
        self.len()
    }

    fn bytes(&self) -> u64 {
        (self.len() * mem::size_of::<Option<(K, V)>>()) as u64
    }

    fn chunk_bytes(&self) -> u64 {
        self.bytes()
    }
}

/// The library's allocation context: the global allocator, which always
/// has room.
impl<K: Hash, V> Alloc<KvSlots<K, V>> for () {
    type Error = Infallible;

    fn grow(
        &mut self,
        _: usize,
        slots: &mut KvSlots<K, V>,
        len: usize,
    ) -> Result<bool, Infallible> {
        slots.resize_with(len, || None);
        Ok(true)
    }

    fn resized(
        &mut self,
        _: usize,
        _: &KvSlots<K, V>,
        len: usize,
    ) -> Result<Option<KvSlots<K, V>>, Infallible> {
        Ok(Some((0..len).map(|_| None).collect()))
    }

    fn shrink(&mut self, _: usize, slots: &mut KvSlots<K, V>, len: usize) {
        slots.truncate(len);
        slots.shrink_to_fit();
    }
}

/// A W-way elastic cuckoo hash table: the workspace's elastic-cuckoo core
/// ([`ElasticCuckoo`]) over `Vec` ways of `(K, V)` slots.
///
/// This is Elastic Cuckoo Hashing (the substrate of ECPT, Section II-B)
/// extended with the paper's two memory-reduction techniques in their
/// generic form (Section VIII):
///
/// * **in-place resizing** ([`ResizeMode::InPlace`](crate::ResizeMode),
///   Section IV-C) — the new table shares the old table's memory; upsizing
///   indexes with one extra hash-key bit, so ≈50% of migrated entries do
///   not move at all;
/// * **per-way resizing** ([`WaySizing::PerWay`](crate::WaySizing),
///   Section IV-D) — one way resizes at a time, with weighted-random
///   insertion proportional to per-way free slots and a balance gate that
///   keeps every way within 2× of every other.
///
/// Resizing is *gradual*: each insert (or remove) migrates a bounded number
/// of entries, so no operation ever stops the world. Lookups always probe
/// exactly W locations.
///
/// # Examples
///
/// ```
/// use mehpt_hash::{Config, ElasticCuckooTable};
///
/// let mut table: ElasticCuckooTable<u64, &str> =
///     ElasticCuckooTable::new(Config::mehpt());
/// table.insert(1, "one");
/// assert_eq!(table.remove(&1), Some("one"));
/// assert!(table.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct ElasticCuckooTable<K, V> {
    core: ElasticCuckoo<KvSlots<K, V>>,
}

impl<K: Hash + Eq, V> ElasticCuckooTable<K, V> {
    /// Creates an empty table from a validated configuration. Its hash
    /// functions derive from the configured seed, its way choices from the
    /// seed `^ 0xc0ff_ee00`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`CuckooConfig::validate`](crate::CuckooConfig::validate) to check
    /// fallibly first.
    pub fn new(cfg: Config) -> ElasticCuckooTable<K, V> {
        if let Err(e) = cfg.base.validate() {
            panic!("invalid ElasticCuckooTable config: {e}");
        }
        let base = &cfg.base;
        let len = base.initial_entries_per_way;
        let ways = (0..base.ways)
            .map(|_| (0..len).map(|_| None).collect())
            .collect();
        let seed = base.seed;
        ElasticCuckooTable {
            core: ElasticCuckoo::new(cfg, ways, seed, seed ^ 0xc0ff_ee00),
        }
    }

    /// The number of live entries.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// Total logical capacity in entries across ways.
    pub fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// The logical capacity of each way, in entries.
    pub fn way_capacities(&self) -> Vec<usize> {
        self.core.ways().iter().map(|w| w.capacity()).collect()
    }

    /// Current occupancy as a fraction of capacity.
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }

    /// Collected statistics (resize events, kick histogram, memory marks).
    pub fn stats(&self) -> &TableStats {
        self.core.stats()
    }

    /// Bytes currently occupied by the table arrays.
    pub fn memory_bytes(&self) -> u64 {
        self.core.memory_bytes()
    }

    /// The `(way, in_old_table, index)` of `key`'s slot.
    fn find(&self, key: &K) -> Option<(usize, bool, usize)> {
        self.core
            .find(key, |s, i| matches!(&s[i], Some((k, _)) if k == key))
    }

    /// Looks up `key`, probing each way once.
    pub fn get(&self, key: &K) -> Option<&V> {
        let (w, in_old, idx) = self.find(key)?;
        let slot = &self.core.ways()[w].slots(in_old)[idx];
        slot.as_ref().map(|(_, v)| v)
    }

    /// Looks up `key` and returns a mutable reference to its value.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (w, in_old, idx) = self.find(key)?;
        let slot = &mut self.core.ways_mut()[w].slots_mut(in_old)[idx];
        slot.as_mut().map(|(_, v)| v)
    }

    /// Inserts `key → value`; returns the previous value if the key was
    /// already present.
    ///
    /// An insert may trigger a gradual resize (per the 0.6/0.2 occupancy
    /// thresholds) and performs a bounded amount of migration work on
    /// behalf of any in-flight resize, exactly like the OS piggybacking
    /// rehashes on page-table inserts in the paper.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(v) = self.get_mut(&key) {
            return Some(mem::replace(v, value));
        }
        let Ok(_) = self.core.insert((key, value), &mut ());
        None
    }

    /// Removes `key`, returning its value.
    ///
    /// Removes also advance in-flight migrations and may trigger a
    /// downsize.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (w, in_old, idx) = self.find(key)?;
        let (_, v) = self.core.vacate(w, in_old, idx)?;
        self.core.after_remove(&mut ());
        Some(v)
    }

    /// Iterates over all live entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.core
            .ways()
            .iter()
            .flat_map(|w| w.tables())
            .flat_map(|s| s.iter().filter_map(|e| e.as_ref().map(|(k, v)| (k, v))))
    }

    /// Checks structural invariants; test helper.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.core.check_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CuckooConfig, ResizeMode, WaySizing};

    fn configs() -> Vec<(&'static str, Config)> {
        vec![
            ("oop-allway", Config::ecpt_baseline()),
            (
                "inplace-allway",
                Config {
                    resize_mode: ResizeMode::InPlace,
                    ..Config::default()
                },
            ),
            (
                "oop-perway",
                Config {
                    sizing: WaySizing::PerWay,
                    ..Config::default()
                },
            ),
            ("inplace-perway", Config::mehpt()),
        ]
    }

    #[test]
    fn insert_get_remove_roundtrip_all_configs() {
        for (name, cfg) in configs() {
            let mut t = ElasticCuckooTable::new(cfg);
            for i in 0..5_000u64 {
                assert_eq!(t.insert(i, i + 1), None, "{name}: fresh insert");
            }
            t.check_invariants();
            for i in 0..5_000u64 {
                assert_eq!(t.get(&i), Some(&(i + 1)), "{name}: get({i})");
            }
            assert_eq!(t.get(&9999), None);
            for i in 0..5_000u64 {
                assert_eq!(t.remove(&i), Some(i + 1), "{name}: remove({i})");
            }
            assert!(t.is_empty(), "{name}");
            t.check_invariants();
        }
    }

    #[test]
    fn insert_replaces_existing_value() {
        let mut t = ElasticCuckooTable::new(Config::default());
        assert_eq!(t.insert(7u64, "a"), None);
        assert_eq!(t.insert(7, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&7), Some(&"b"));
    }

    #[test]
    fn occupancy_never_exceeds_upsize_threshold_for_long() {
        for (name, cfg) in configs() {
            let mut t = ElasticCuckooTable::new(cfg);
            for i in 0..20_000u64 {
                t.insert(i, ());
                // Slack above the trigger: resizing is gradual, so the load
                // can transiently exceed 0.6, but never by much.
                assert!(
                    t.load_factor() < 0.75,
                    "{name}: load factor {} at i={i}",
                    t.load_factor()
                );
            }
        }
    }

    #[test]
    fn upsizes_happen_and_grow_capacity() {
        let mut t = ElasticCuckooTable::new(Config::ecpt_baseline());
        let initial_cap = t.capacity();
        for i in 0..10_000u64 {
            t.insert(i, ());
        }
        assert!(t.capacity() > initial_cap * 8);
        assert!(!t.stats().resizes.is_empty());
    }

    #[test]
    fn downsizes_shrink_capacity() {
        let mut t = ElasticCuckooTable::new(Config::mehpt());
        for i in 0..10_000u64 {
            t.insert(i, ());
        }
        let grown = t.capacity();
        for i in 0..10_000u64 {
            t.remove(&i);
        }
        // Removes trigger gradual downsizes; push them along.
        for i in 0..12_000u64 {
            t.insert(100_000 + i, ());
            t.remove(&(100_000 + i));
        }
        assert!(
            t.capacity() < grown / 2,
            "capacity {} did not shrink from {grown}",
            t.capacity()
        );
        t.check_invariants();
    }

    #[test]
    fn inplace_upsize_keeps_roughly_half_in_place() {
        // Figure 13: the fraction of entries moved per in-place upsize ≈ 0.5.
        let mut t = ElasticCuckooTable::new(Config {
            resize_mode: ResizeMode::InPlace,
            ..Config::default()
        });
        for i in 0..200_000u64 {
            t.insert(i, ());
        }
        let f = t.stats().mean_upsize_moved_fraction();
        assert!((0.4..0.6).contains(&f), "moved fraction {f}");
    }

    #[test]
    fn out_of_place_upsize_moves_everything() {
        let mut t = ElasticCuckooTable::new(Config::ecpt_baseline());
        for i in 0..50_000u64 {
            t.insert(i, ());
        }
        let f = t.stats().mean_upsize_moved_fraction();
        assert_eq!(f, 1.0, "out-of-place migration always moves entries");
    }

    #[test]
    fn inplace_peak_memory_below_out_of_place() {
        // Section IV-C: out-of-place resizing holds old + new (1.5× the new
        // table); in-place holds max(old, new).
        let run = |mode| {
            let mut t = ElasticCuckooTable::new(Config {
                resize_mode: mode,
                ..Config::default()
            });
            for i in 0..100_000u64 {
                t.insert(i, ());
            }
            t.stats().peak_bytes
        };
        let oop = run(ResizeMode::OutOfPlace);
        let inp = run(ResizeMode::InPlace);
        assert!(
            (inp as f64) < 0.8 * oop as f64,
            "in-place peak {inp} not clearly below out-of-place peak {oop}"
        );
    }

    #[test]
    fn per_way_resizing_keeps_ways_within_double() {
        let mut t = ElasticCuckooTable::new(Config::mehpt());
        for i in 0..300_000u64 {
            t.insert(i, ());
            if i % 8192 == 0 {
                let caps = t.way_capacities();
                let min = *caps.iter().min().unwrap();
                let max = *caps.iter().max().unwrap();
                assert!(max <= 2 * min, "way imbalance beyond 2x: {caps:?} at i={i}");
            }
        }
    }

    #[test]
    fn per_way_resizes_one_way_at_a_time() {
        let mut t = ElasticCuckooTable::new(Config::mehpt());
        for i in 0..100_000u64 {
            t.insert(i, ());
            let resizing = t.core.ways().iter().filter(|w| w.is_resizing()).count();
            assert!(resizing <= 1, "{resizing} ways resizing at once");
        }
    }

    #[test]
    fn all_way_resizes_all_ways_together() {
        let mut t: ElasticCuckooTable<u64, ()> = ElasticCuckooTable::new(Config::ecpt_baseline());
        let mut saw_full_resize = false;
        for i in 0..10_000u64 {
            t.insert(i, ());
            let resizing = t.core.ways().iter().filter(|w| w.is_resizing()).count();
            if resizing > 0 {
                assert_eq!(resizing, 3, "all ways must resize together");
                saw_full_resize = true;
            }
        }
        assert!(saw_full_resize);
    }

    #[test]
    fn kick_histogram_mostly_zero_at_paper_occupancy() {
        // Figure 16: P(no re-insertion) ≈ 0.64 at ECPT's occupancy bounds.
        let mut t = ElasticCuckooTable::new(Config::mehpt());
        for i in 0..100_000u64 {
            t.insert(i, ());
        }
        let hist = &t.stats().kicks_histogram;
        let total: u64 = hist.iter().sum();
        let zero_frac = hist[0] as f64 / total as f64;
        assert!(zero_frac > 0.5, "P(0 kicks) = {zero_frac}");
        let mean = t.stats().mean_kicks();
        assert!(mean < 1.5, "mean kicks {mean}");
    }

    #[test]
    fn lookups_correct_during_resizes() {
        // Interleave inserts and lookups so many lookups hit mid-resize.
        for (name, cfg) in configs() {
            let mut t = ElasticCuckooTable::new(cfg);
            for i in 0..30_000u64 {
                t.insert(i, i);
                if i % 7 == 0 {
                    let probe = i / 2;
                    assert_eq!(t.get(&probe), Some(&probe), "{name} at i={i}");
                }
            }
        }
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let mut t = ElasticCuckooTable::new(Config::mehpt());
        for i in 0..10_000u64 {
            t.insert(i, ());
        }
        let mut keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = ElasticCuckooTable::new(Config::default());
        t.insert(1u64, 10);
        *t.get_mut(&1).unwrap() += 5;
        assert_eq!(t.get(&1), Some(&15));
        assert_eq!(t.get_mut(&2), None);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut t = ElasticCuckooTable::new(Config::mehpt());
            for i in 0..50_000u64 {
                t.insert(i, ());
            }
            (
                t.way_capacities(),
                t.stats().resizes.len(),
                t.stats().kicks_histogram.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn peak_bytes_is_monotone() {
        let mut t = ElasticCuckooTable::new(Config::ecpt_baseline());
        let mut peak = t.memory_bytes();
        for i in 0..5_000u64 {
            t.insert(i, ());
            peak = peak.max(t.memory_bytes());
        }
        for i in 0..5_000u64 {
            t.remove(&i);
        }
        assert!(t.memory_bytes() < peak, "downsizes must free memory");
        assert_eq!(t.stats().peak_bytes, peak);
    }

    #[test]
    #[should_panic(expected = "invalid ElasticCuckooTable config")]
    fn invalid_config_panics() {
        let _ = ElasticCuckooTable::<u64, ()>::new(Config {
            base: CuckooConfig {
                ways: 1,
                ..CuckooConfig::default()
            },
            ..Config::default()
        });
    }
}
