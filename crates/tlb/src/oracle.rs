//! Test-only oracle: the set-associative LRU cache as it was before the
//! const-generic one, a `Vec` per set in MRU order, reordered with
//! `remove`/`insert`, with the set picked by `%`. The differential tests
//! below drive both caches through the same operations and require the
//! same answers, statistics and contents.

use mehpt_types::proptest_lite::{check, Gen};

use crate::{CacheStats, SetAssocCache};

/// The `Vec`-per-set LRU cache: same rules, same answers, slower.
struct VecLru {
    /// `sets[s]` is the MRU-ordered list of resident keys (front = MRU).
    sets: Vec<Vec<u64>>,
    ways: usize,
    stats: CacheStats,
}

impl VecLru {
    fn new(sets: usize, ways: usize) -> VecLru {
        VecLru {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            stats: CacheStats::default(),
        }
    }

    fn set(&mut self, key: u64) -> &mut Vec<u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[(key % n) as usize]
    }

    fn probe(&mut self, key: u64) -> bool {
        let set = self.set(key);
        if let Some(pos) = set.iter().position(|&k| k == key) {
            let k = set.remove(pos);
            set.insert(0, k);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    fn contains(&self, key: u64) -> bool {
        self.sets[(key % self.sets.len() as u64) as usize].contains(&key)
    }

    fn fill(&mut self, key: u64) {
        let ways = self.ways;
        let set = self.set(key);
        if let Some(pos) = set.iter().position(|&k| k == key) {
            let k = set.remove(pos);
            set.insert(0, k);
            return;
        }
        if set.len() == ways {
            set.pop();
        }
        set.insert(0, key);
    }

    fn invalidate(&mut self, key: u64) {
        self.set(key).retain(|&k| k != key);
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

/// Set counts: one (fully associative), odd, powers of two, and the L2
/// TLBs' 85.
const SETS: [usize; 5] = [1, 3, 4, 16, 85];

/// Drives a `W`-way cache and the oracle through one random sequence of
/// operations, comparing every answer and the statistics after each step
/// and the contents every 32 steps and at the end.
fn differential<const W: usize>(g: &mut Gen) {
    let sets = SETS[g.index(SETS.len())];
    let mut cache = SetAssocCache::<W>::new(sets);
    let mut oracle = VecLru::new(sets, W);
    // Keys from a small range force hits and evictions; keys from the full
    // range below the empty marker exercise every bit of the set index.
    let small = g.bool();
    let range = (2 * sets * W + 3) as u64;
    let mut used: Vec<u64> = Vec::new();
    let steps = 50 + g.index(400);
    for step in 0..steps {
        let key = if !used.is_empty() && g.weighted(&[1, 2]) == 1 {
            used[g.index(used.len())]
        } else if small {
            g.below(range)
        } else {
            match g.index(8) {
                0 => u64::MAX - 1 - g.below(4),
                1 => (1 << 52) - 2 + g.below(4),
                _ => g.below(u64::MAX),
            }
        };
        used.push(key);
        match g.weighted(&[8, 4, 8, 2, 1]) {
            0 => assert_eq!(cache.probe(key), oracle.probe(key), "probe {key}"),
            1 => assert_eq!(cache.contains(key), oracle.contains(key), "contains {key}"),
            2 => {
                cache.fill(key);
                oracle.fill(key);
            }
            3 => {
                cache.invalidate(key);
                oracle.invalidate(key);
            }
            _ => {
                cache.flush();
                oracle.flush();
            }
        }
        assert_eq!(cache.stats(), oracle.stats, "stats at step {step}");
        if step % 32 == 0 || step == steps - 1 {
            assert_eq!(cache.resident(), oracle.sets, "contents at step {step}");
        }
    }
    assert_eq!(cache.capacity(), sets * W);
}

#[test]
fn cache_matches_vec_lru_oracle() {
    check("cache_matches_vec_lru_oracle/1", 64, differential::<1>);
    check("cache_matches_vec_lru_oracle/2", 64, differential::<2>);
    check("cache_matches_vec_lru_oracle/4", 64, differential::<4>);
    check("cache_matches_vec_lru_oracle/12", 64, differential::<12>);
    check("cache_matches_vec_lru_oracle/16", 64, differential::<16>);
    check("cache_matches_vec_lru_oracle/32", 64, differential::<32>);
}
