use mehpt_types::PhysAddr;

use crate::{CacheStats, SetAssocCache};

/// Latency and geometry of the cache hierarchy page-walk references travel
/// through.
///
/// Defaults follow Table III: a 512KB 8-way private L2 (16-cycle round
/// trip), a 16MB 16-way shared L3 (56-cycle average round trip), and a
/// 200-cycle average round trip to memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryModelConfig {
    /// Charge every access the flat `mem_latency` instead of simulating
    /// L2/L3 residency.
    ///
    /// This is the default, and the model the paper's framing implies:
    /// Table III gives a 200-cycle *average* round trip to memory, and the
    /// radix-vs-HPT comparison is about dependent-chain depth ("up to four
    /// memory accesses in sequence" vs "only one memory access"). The
    /// dedicated translation caches (PWC for radix, CWC for HPTs) are
    /// modeled separately by the walkers; page-table lines see little reuse
    /// in the data hierarchy of a busy 8-core machine. Set to `false` to
    /// simulate the L2/L3 hierarchy explicitly.
    pub flat: bool,
    /// L2 size in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 round-trip latency in cycles.
    pub l2_latency: u64,
    /// L3 size in bytes.
    pub l3_bytes: u64,
    /// L3 associativity.
    pub l3_ways: usize,
    /// L3 round-trip latency in cycles.
    pub l3_latency: u64,
    /// Memory round-trip latency in cycles.
    pub mem_latency: u64,
}

impl Default for MemoryModelConfig {
    fn default() -> MemoryModelConfig {
        MemoryModelConfig {
            flat: true,
            l2_bytes: 512 << 10,
            l2_ways: 8,
            l2_latency: 16,
            l3_bytes: 16 << 20, // 2MB per core × 8 cores
            l3_ways: 16,
            l3_latency: 56,
            mem_latency: 200,
        }
    }
}

/// The latency seen by a page-walk memory reference.
///
/// Models the L2/L3/DRAM path of Table III for the 64-byte lines that hold
/// page-table entries. (The L1 data cache is omitted: page-table lines
/// compete with application data and rarely survive there; the paper's PWC
/// and CWC structures are the dedicated first-level caches for translation
/// state and are modeled separately by the walkers.)
///
/// # Examples
///
/// ```
/// use mehpt_tlb::MemoryModel;
/// use mehpt_types::PhysAddr;
///
/// let mut mem = MemoryModel::paper_default();
/// assert_eq!(mem.access(PhysAddr::new(0x4000)), 200); // flat by default
///
/// let mut hierarchical = MemoryModel::new(mehpt_tlb::MemoryModelConfig {
///     flat: false,
///     ..Default::default()
/// });
/// let cold = hierarchical.access(PhysAddr::new(0x4000));
/// let warm = hierarchical.access(PhysAddr::new(0x4000));
/// assert!(cold > warm);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryModel {
    l2: SetAssocCache,
    l3: SetAssocCache,
    cfg: MemoryModelConfig,
    accesses: u64,
    total_cycles: u64,
}

impl MemoryModel {
    /// Creates the model with Table III's parameters.
    pub fn paper_default() -> MemoryModel {
        MemoryModel::new(MemoryModelConfig::default())
    }

    /// Creates the model from an explicit configuration.
    pub fn new(cfg: MemoryModelConfig) -> MemoryModel {
        // A flat model never touches its caches: build them with one set
        // so they cost nothing and their stats read zero.
        let sets = |bytes: u64, ways: usize| {
            if cfg.flat {
                1
            } else {
                ((bytes / 64) as usize / ways).next_power_of_two()
            }
        };
        MemoryModel {
            l2: SetAssocCache::new(sets(cfg.l2_bytes, cfg.l2_ways), cfg.l2_ways),
            l3: SetAssocCache::new(sets(cfg.l3_bytes, cfg.l3_ways), cfg.l3_ways),
            cfg,
            accesses: 0,
            total_cycles: 0,
        }
    }

    /// Performs one 64-byte-line access and returns its round-trip latency
    /// in cycles.
    pub fn access(&mut self, addr: PhysAddr) -> u64 {
        if self.cfg.flat {
            self.accesses += 1;
            self.total_cycles += self.cfg.mem_latency;
            return self.cfg.mem_latency;
        }
        let line = addr.line();
        self.accesses += 1;
        let cycles = if self.l2.access(line) {
            self.cfg.l2_latency
        } else if self.l3.access(line) {
            self.cfg.l3_latency
        } else {
            self.cfg.mem_latency
        };
        self.total_cycles += cycles;
        cycles
    }

    /// The latency the *slowest* of several parallel accesses would see,
    /// updating cache state for all of them.
    ///
    /// HPT lookups probe all W ways in parallel (Section II-B); the walk
    /// latency is the maximum of the individual probes, not their sum.
    pub fn access_parallel(&mut self, addrs: &[PhysAddr]) -> u64 {
        addrs.iter().map(|&a| self.access(a)).max().unwrap_or(0)
    }

    /// Whether every access costs the flat `mem_latency`, whatever its
    /// address ([`MemoryModelConfig::flat`]).
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.cfg.flat
    }

    /// [`MemoryModel::access_parallel`] over `n` addresses of a flat model,
    /// which never reads them: the same latency (0 for no access) and the
    /// same `accesses`/`total_cycles` update.
    #[inline]
    pub fn access_parallel_flat(&mut self, n: u32) -> u64 {
        debug_assert!(self.cfg.flat, "only a flat model ignores addresses");
        self.accesses += u64::from(n);
        self.total_cycles += u64::from(n) * self.cfg.mem_latency;
        if n == 0 {
            0
        } else {
            self.cfg.mem_latency
        }
    }

    /// Invalidates a line (e.g. the OS rewrote a page-table entry).
    pub fn invalidate(&mut self, addr: PhysAddr) {
        self.l2.invalidate(addr.line());
        self.l3.invalidate(addr.line());
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total cycles across all accesses.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// L2 hit/miss counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// L3 hit/miss counters.
    pub fn l3_stats(&self) -> CacheStats {
        self.l3.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchical() -> MemoryModel {
        MemoryModel::new(MemoryModelConfig {
            flat: false,
            ..MemoryModelConfig::default()
        })
    }

    #[test]
    fn flat_default_charges_memory_latency() {
        let mut m = MemoryModel::paper_default();
        let a = PhysAddr::new(0x1000);
        assert_eq!(m.access(a), 200);
        assert_eq!(m.access(a), 200, "flat mode has no warm path");
    }

    #[test]
    fn flat_model_builds_no_cache_sets() {
        let mut m = MemoryModel::paper_default();
        assert_eq!(m.l2.capacity(), 8);
        assert_eq!(m.l3.capacity(), 16);
        m.access_parallel(&[PhysAddr::new(0), PhysAddr::new(0x40)]);
        assert_eq!(m.l2_stats(), CacheStats::default());
        assert_eq!(m.l3_stats(), CacheStats::default());
        assert_eq!(hierarchical().l2.capacity(), 8192, "512KB of 64B lines");
    }

    #[test]
    fn flat_parallel_charge_matches_access_parallel() {
        for n in 0..5u32 {
            let mut by_addr = MemoryModel::paper_default();
            let mut by_count = MemoryModel::paper_default();
            let addrs: Vec<_> = (0..u64::from(n)).map(|i| PhysAddr::new(i << 12)).collect();
            assert_eq!(
                by_count.access_parallel_flat(n),
                by_addr.access_parallel(&addrs)
            );
            assert_eq!(by_count.accesses(), by_addr.accesses());
            assert_eq!(by_count.total_cycles(), by_addr.total_cycles());
        }
        assert!(MemoryModel::paper_default().is_flat());
        assert!(!hierarchical().is_flat());
    }

    #[test]
    fn latencies_follow_hierarchy() {
        let mut m = hierarchical();
        let a = PhysAddr::new(0x1000);
        assert_eq!(m.access(a), 200); // cold: memory
        assert_eq!(m.access(a), 16); // L2 hit
    }

    #[test]
    fn l3_catches_l2_evictions() {
        let cfg = MemoryModelConfig {
            flat: false,
            l2_bytes: 4096, // 64 lines: tiny, evicts fast
            l2_ways: 1,
            ..MemoryModelConfig::default()
        };
        let mut m = MemoryModel::new(cfg);
        let a = PhysAddr::new(0);
        m.access(a); // miss everywhere
                     // Evict from L2 by touching a conflicting line (same set).
        m.access(PhysAddr::new(4096));
        assert_eq!(m.access(a), 56, "L3 should still hold the line");
    }

    #[test]
    fn parallel_access_takes_max() {
        let mut m = hierarchical();
        let warm = PhysAddr::new(0x40);
        m.access(warm);
        let cold = PhysAddr::new(0x9000_0000);
        let lat = m.access_parallel(&[warm, cold]);
        assert_eq!(lat, 200, "slowest probe dominates");
        // Both probes updated cache state.
        assert_eq!(m.access(cold), 16);
    }

    #[test]
    fn invalidate_forces_refetch() {
        let mut m = hierarchical();
        let a = PhysAddr::new(0x2000);
        m.access(a);
        m.invalidate(a);
        assert_eq!(m.access(a), 200);
    }

    #[test]
    fn cycle_accounting_accumulates() {
        let mut m = hierarchical();
        m.access(PhysAddr::new(0));
        m.access(PhysAddr::new(0));
        assert_eq!(m.total_cycles(), 216);
        assert_eq!(m.accesses(), 2);
    }
}
