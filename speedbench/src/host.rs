//! A reference kernel that measures how fast the shared host runs at the
//! moment, so that cell times can be scaled to a nominal host.
//!
//! The host's other tenants slow the simulator by 20–30% for seconds to
//! minutes at a time, through the cores, caches and memory they share. No
//! summary within one run removes a slow period that outlasts the run. So
//! the benchmark times this kernel beside the cells and scales their host
//! time by the kernel's slowdown from [`NOMINAL_S`]. The kernel does the
//! simulator's most common kind of work: it looks up page numbers in a
//! SipHash `HashSet`, as the runner does for its mapped pages. Its code and
//! data are fixed in this package, so no change to the simulator moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Keys drawn into the set: about as many as a large cell's mapped pages.
const KEYS: u64 = 1 << 17;

/// Keys are below this, so about 40% of lookups hit.
const KEY_SPACE: u64 = 1 << 18;

/// Lookups per timing.
const LOOKUPS: u64 = 500_000;

/// About the kernel's median time on the development host (a 2-vCPU Xeon
/// virtual machine), in seconds. Scaled times are host seconds on a host
/// that runs the kernel this fast. Results are only compared with each
/// other, so the value only keeps scaled times close to wall times.
pub const NOMINAL_S: f64 = 0.013;

/// The kernel and its set. The hasher has fixed keys, so every process
/// builds the same table.
pub struct Reference {
    set: HashSet<u64, BuildHasherDefault<DefaultHasher>>,
    key: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

/// The splitmix64 finalizer: spreads consecutive keys over the key space.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Reference {
    /// Builds the set and runs the kernel a few times, untimed, so that
    /// the set is resident before the first timing.
    pub fn new() -> Reference {
        let mut r = Reference {
            set: (0..KEYS).map(|i| mix(i) % KEY_SPACE).collect(),
            key: 0,
        };
        for _ in 0..4 {
            r.time();
        }
        r
    }

    /// Runs the kernel once and returns its host seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut key = self.key;
        let mut hits = 0u64;
        for _ in 0..LOOKUPS {
            key = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
            if self.set.contains(&(mix(key) % KEY_SPACE)) {
                hits += 1;
            }
        }
        self.key = key;
        black_box(hits);
        start.elapsed().as_secs_f64()
    }
}

/// `seconds` of host time scaled to the nominal host, given the kernel's
/// time `kernel_s` measured beside them.
pub fn scaled(seconds: f64, kernel_s: f64) -> f64 {
    seconds * NOMINAL_S / kernel_s
}
