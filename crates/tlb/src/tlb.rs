use mehpt_types::{PageSize, VirtAddr, Vpn};

use crate::{CacheStats, SetAssocCache};

/// L1 TLB access latency in cycles (Table III).
const L1_LATENCY: u64 = 2;
/// L2 TLB access latency in cycles (Table III).
const L2_LATENCY: u64 = 12;

/// One `W`-way TLB array for one page size.
#[derive(Clone, Debug)]
pub struct Tlb<const W: usize> {
    cache: SetAssocCache<W>,
}

impl<const W: usize> Tlb<W> {
    /// Creates a `W`-way TLB of `entries / W` sets. Its capacity is
    /// `entries` rounded down to a multiple of `W`.
    ///
    /// # Panics
    ///
    /// Panics if `W` exceeds `entries`.
    pub fn new(entries: usize) -> Tlb<W> {
        assert!(W <= entries, "need ways <= entries");
        Tlb {
            cache: SetAssocCache::new(entries / W),
        }
    }

    /// Looks up a VPN; hits update recency. Misses do **not** install the
    /// VPN — translations enter only via [`Tlb::fill`] after a walk.
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn) -> bool {
        self.cache.probe(vpn.0)
    }

    /// Installs a translation without counting an access.
    #[inline]
    pub fn fill(&mut self, vpn: Vpn) {
        self.cache.fill(vpn.0);
    }

    /// Removes a translation (TLB shootdown).
    pub fn invalidate(&mut self, vpn: Vpn) {
        self.cache.invalidate(vpn.0);
    }

    /// Empties the TLB (context switch without ASIDs).
    pub fn flush(&mut self) {
        self.cache.flush();
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// The outcome of a TLB hierarchy lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Hit in the first-level TLB.
    L1Hit {
        /// Cycles spent (L1 latency).
        cycles: u64,
    },
    /// Missed L1, hit the second-level TLB.
    L2Hit {
        /// Cycles spent (L1 + L2 latency).
        cycles: u64,
    },
    /// Missed both levels; a page walk is required.
    Miss {
        /// Cycles spent searching the TLBs before the walk starts.
        cycles: u64,
    },
}

impl TlbOutcome {
    /// Cycles consumed by the TLB lookup itself.
    pub fn cycles(&self) -> u64 {
        match *self {
            TlbOutcome::L1Hit { cycles }
            | TlbOutcome::L2Hit { cycles }
            | TlbOutcome::Miss { cycles } => cycles,
        }
    }

    /// Whether a page walk is needed.
    pub fn is_miss(&self) -> bool {
        matches!(self, TlbOutcome::Miss { .. })
    }
}

/// The two-level data-TLB hierarchy of Table III.
///
/// Per page size: L1 of 64 (4KB, 4-way), 32 (2MB, 4-way) and 4 (1GB, fully
/// associative) entries at 2 cycles; L2 of 1020 (4KB, 12-way), 1020 (2MB,
/// 12-way) and 16 (1GB, 4-way) entries at 12 cycles. Table III gives the
/// 12-way L2s 1024 entries; 85 sets of 12 ways hold 1020, and model
/// revision 2 is to fix that (ROADMAP.md, open item 5).
///
/// # Examples
///
/// ```
/// use mehpt_tlb::TlbHierarchy;
/// use mehpt_types::{PageSize, VirtAddr};
///
/// let mut tlb = TlbHierarchy::paper_default();
/// let va = VirtAddr::new(0x1000_0000);
/// let miss = tlb.lookup(va, PageSize::Huge2M);
/// assert!(miss.is_miss());
/// ```
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    /// Per page size, indexed by [`PageSize::index`].
    l1: [Tlb<4>; 3],
    /// The 4KB and 2MB L2s, indexed by [`PageSize::index`].
    l2: [Tlb<12>; 2],
    /// The 1GB L2.
    l2_1g: Tlb<4>,
}

impl TlbHierarchy {
    /// Builds the hierarchy with Table III's geometry.
    pub fn paper_default() -> TlbHierarchy {
        TlbHierarchy {
            l1: [
                Tlb::new(64), // 4KB pages
                Tlb::new(32), // 2MB pages
                Tlb::new(4),  // 1GB pages (fully associative)
            ],
            // 1024 / 12 = 85 sets: 1020 entries each.
            l2: [Tlb::new(1024), Tlb::new(1024)],
            l2_1g: Tlb::new(16),
        }
    }

    /// Looks up the translation for `va`, which the OS maps with a page of
    /// size `ps`.
    ///
    /// The L1 arrays for all page sizes are probed in parallel (2 cycles);
    /// on a miss the L2 arrays are probed (12 more cycles).
    #[inline]
    pub fn lookup(&mut self, va: VirtAddr, ps: PageSize) -> TlbOutcome {
        let i = ps.index();
        let vpn = va.vpn(ps);
        if self.l1[i].lookup(vpn) {
            return TlbOutcome::L1Hit { cycles: L1_LATENCY };
        }
        let l2_hit = match ps {
            PageSize::Giant1G => self.l2_1g.lookup(vpn),
            _ => self.l2[i].lookup(vpn),
        };
        let cycles = L1_LATENCY + L2_LATENCY;
        if l2_hit {
            // A hit in L2 also refills L1.
            self.l1[i].fill(vpn);
            return TlbOutcome::L2Hit { cycles };
        }
        TlbOutcome::Miss { cycles }
    }

    /// Installs a translation in both levels after a successful walk.
    #[inline]
    pub fn fill(&mut self, vpn: Vpn, ps: PageSize) {
        let i = ps.index();
        self.l1[i].fill(vpn);
        match ps {
            PageSize::Giant1G => self.l2_1g.fill(vpn),
            _ => self.l2[i].fill(vpn),
        }
    }

    /// Shoots down one translation.
    pub fn invalidate(&mut self, vpn: Vpn, ps: PageSize) {
        let i = ps.index();
        self.l1[i].invalidate(vpn);
        match ps {
            PageSize::Giant1G => self.l2_1g.invalidate(vpn),
            _ => self.l2[i].invalidate(vpn),
        }
    }

    /// Empties the whole hierarchy.
    pub fn flush(&mut self) {
        self.l1.iter_mut().for_each(Tlb::flush);
        self.l2.iter_mut().for_each(Tlb::flush);
        self.l2_1g.flush();
    }

    /// Combined L1 hit/miss counters across page sizes.
    pub fn l1_stats(&self) -> CacheStats {
        sum_stats(self.l1.iter().map(Tlb::stats))
    }

    /// Combined L2 hit/miss counters across page sizes.
    pub fn l2_stats(&self) -> CacheStats {
        sum_stats(self.l2.iter().map(Tlb::stats).chain([self.l2_1g.stats()]))
    }
}

fn sum_stats(stats: impl Iterator<Item = CacheStats>) -> CacheStats {
    stats.fold(CacheStats::default(), |acc, s| CacheStats {
        hits: acc.hits + s.hits,
        misses: acc.misses + s.misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = TlbHierarchy::paper_default();
        let va = VirtAddr::new(0xdead_b000);
        assert!(t.lookup(va, PageSize::Base4K).is_miss());
        t.fill(va.vpn(PageSize::Base4K), PageSize::Base4K);
        assert_eq!(
            t.lookup(va, PageSize::Base4K),
            TlbOutcome::L1Hit { cycles: 2 }
        );
    }

    #[test]
    fn l2_refills_l1() {
        let mut t = TlbHierarchy::paper_default();
        let base = VirtAddr::new(0);
        // Fill 65 distinct 4KB translations: the 64-entry L1 must evict.
        for i in 0..65u64 {
            let va = base + i * 4096;
            t.fill(va.vpn(PageSize::Base4K), PageSize::Base4K);
        }
        // The oldest VPN should be out of L1 but still in L2.
        let victim = base;
        let out = t.lookup(victim, PageSize::Base4K);
        assert_eq!(out, TlbOutcome::L2Hit { cycles: 14 });
        // And now it is back in L1.
        assert_eq!(
            t.lookup(victim, PageSize::Base4K),
            TlbOutcome::L1Hit { cycles: 2 }
        );
    }

    #[test]
    fn page_sizes_use_separate_arrays() {
        let mut t = TlbHierarchy::paper_default();
        let va = VirtAddr::new(0x4000_0000);
        t.fill(va.vpn(PageSize::Base4K), PageSize::Base4K);
        assert!(t.lookup(va, PageSize::Huge2M).is_miss());
        assert!(!t.lookup(va, PageSize::Base4K).is_miss());
    }

    #[test]
    fn huge_pages_increase_reach() {
        let mut small = TlbHierarchy::paper_default();
        let mut huge = TlbHierarchy::paper_default();
        // Touch 8MB of data one page at a time.
        let mut small_misses = 0;
        let mut huge_misses = 0;
        for pass in 0..2 {
            for off in (0..(8 << 20)).step_by(4096) {
                let va = VirtAddr::new(off);
                if small.lookup(va, PageSize::Base4K).is_miss() {
                    if pass == 1 {
                        small_misses += 1;
                    }
                    small.fill(va.vpn(PageSize::Base4K), PageSize::Base4K);
                }
                if huge.lookup(va, PageSize::Huge2M).is_miss() {
                    if pass == 1 {
                        huge_misses += 1;
                    }
                    huge.fill(va.vpn(PageSize::Huge2M), PageSize::Huge2M);
                }
            }
        }
        // 2048 4KB pages overflow the 1020-entry L2; four 2MB pages do not.
        assert!(small_misses > 0);
        assert_eq!(huge_misses, 0);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut t = TlbHierarchy::paper_default();
        let va = VirtAddr::new(0x1234_5000);
        t.fill(va.vpn(PageSize::Base4K), PageSize::Base4K);
        t.invalidate(va.vpn(PageSize::Base4K), PageSize::Base4K);
        assert!(t.lookup(va, PageSize::Base4K).is_miss());
        t.fill(va.vpn(PageSize::Base4K), PageSize::Base4K);
        t.flush();
        assert!(t.lookup(va, PageSize::Base4K).is_miss());
    }

    #[test]
    fn stats_aggregate_over_page_sizes() {
        let mut t = TlbHierarchy::paper_default();
        t.lookup(VirtAddr::new(0x1000), PageSize::Base4K);
        t.lookup(VirtAddr::new(0x1000), PageSize::Huge2M);
        assert_eq!(t.l1_stats().misses, 2);
    }

    #[test]
    fn single_tlb_behaves() {
        let mut t = Tlb::<2>::new(8);
        let vpn = Vpn(77);
        assert!(!t.lookup(vpn));
        assert!(!t.lookup(vpn), "a miss must not install the translation");
        t.fill(vpn);
        assert!(t.lookup(vpn));
        t.invalidate(vpn);
        assert!(!t.lookup(vpn));
    }

    #[test]
    fn l2_capacities_follow_the_geometry() {
        let t = TlbHierarchy::paper_default();
        // 85 sets of 12 ways: 4 short of Table III's 1024 (ROADMAP.md,
        // open item 5). A fix must change this on purpose.
        assert_eq!(t.l2[0].capacity(), 1020);
        assert_eq!(t.l2[1].capacity(), 1020);
        assert_eq!(t.l2_1g.capacity(), 16);
        let l1: Vec<usize> = t.l1.iter().map(Tlb::capacity).collect();
        assert_eq!(l1, [64, 32, 4]);
    }

    #[test]
    fn one_gig_pages_use_the_4_way_l2() {
        let mut t = TlbHierarchy::paper_default();
        let base = VirtAddr::new(0);
        // Five 1GB pages overflow the 4-entry L1 but not the 16-entry L2.
        for i in 0..5u64 {
            let va = base + (i << 30);
            t.fill(va.vpn(PageSize::Giant1G), PageSize::Giant1G);
        }
        assert_eq!(
            t.lookup(base, PageSize::Giant1G),
            TlbOutcome::L2Hit { cycles: 14 }
        );
        t.invalidate(base.vpn(PageSize::Giant1G), PageSize::Giant1G);
        assert!(t.lookup(base, PageSize::Giant1G).is_miss());
        assert_eq!(t.l2_stats().hits, 1);
    }
}
