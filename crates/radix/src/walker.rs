use mehpt_tlb::{MemoryModel, SetAssocCache};
use mehpt_types::{PageSize, Ppn, VirtAddr};

use crate::table::Step;
use crate::RadixPageTable;

/// PWC entries per level (Table III).
const PWC_ENTRIES: usize = 32;
/// PWC round-trip latency in cycles (Table III).
const PWC_LATENCY: u64 = 4;

/// The outcome of one timed page walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkResult {
    /// The translation found, or `None` on a page fault.
    pub translation: Option<(Ppn, PageSize)>,
    /// Total walk latency in cycles (PWC probe + memory accesses).
    pub cycles: u64,
    /// Memory accesses performed (the paper's "up to four memory accesses
    /// in sequence").
    pub memory_accesses: u32,
}

/// The hardware radix page walker with page-walk caches.
///
/// Models Table III's PWC: "3 levels, 32 entries/level, 4 cycles RT, fully
/// associative". `pwc[0]` caches PGD entries (keyed by `VA[47:39]`),
/// `pwc[1]` PUD entries (`VA[47:30]`), `pwc[2]` PMD entries (`VA[47:21]`).
/// A hit in the deepest level skips all upper-level memory accesses, so a
/// warm 4KB walk is a single PTE access; a cold walk takes four dependent
/// accesses — the radix scalability problem the paper opens with.
///
/// Two walks share the PWC model. [`RadixWalker::walk`] is the reference:
/// it reads the table's entries and returns the translation.
/// [`RadixWalker::time_walk`] returns only the timing, given the page size
/// the OS mapped or `None` for a fault: it reads no entry of a mapped
/// walk's path, and builds with debug assertions check it against `walk`.
/// The simulator times every walk with it.
///
/// # Examples
///
/// ```
/// use mehpt_mem::PhysMem;
/// use mehpt_radix::{RadixPageTable, RadixWalker};
/// use mehpt_tlb::MemoryModel;
/// use mehpt_types::{PageSize, Ppn, VirtAddr, MIB};
///
/// let mut mem = PhysMem::new(64 * MIB);
/// let mut pt = RadixPageTable::new(&mut mem)?;
/// let va = VirtAddr::new(0x5000_1000);
/// pt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(1), &mut mem)?;
///
/// let mut walker = RadixWalker::paper_default();
/// let mut dram = MemoryModel::paper_default();
/// let cold = walker.walk(&pt, va, &mut dram);
/// assert_eq!(cold.memory_accesses, 4);
/// let warm = walker.walk(&pt, va, &mut dram);
/// assert_eq!(warm.memory_accesses, 1); // PWC skips to the PTE level
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RadixWalker {
    /// One cache per non-leaf tree level (up to 4 for a 5-level tree).
    pwc: [SetAssocCache<PWC_ENTRIES>; 4],
    walks: u64,
    total_cycles: u64,
    total_accesses: u64,
    pwc_hits: [u64; 4],
}

impl RadixWalker {
    /// Builds a walker with Table III's PWC geometry and latency.
    pub fn paper_default() -> RadixWalker {
        RadixWalker {
            pwc: std::array::from_fn(|_| SetAssocCache::fully_associative()),
            walks: 0,
            total_cycles: 0,
            total_accesses: 0,
            pwc_hits: [0; 4],
        }
    }

    /// The VA prefix an entry at `level` of an `levels`-deep tree covers.
    fn pwc_key(va: VirtAddr, level: usize, levels: usize) -> u64 {
        va.0 >> (12 + 9 * (levels - 1 - level))
    }

    /// Performs one timed page walk for `va`: the reference walk, which
    /// reads the table's entries and returns the translation it finds.
    ///
    /// Memory accesses for the levels not covered by a PWC hit are charged
    /// to `mem`, one at a time; traversed node entries are installed in the
    /// PWC.
    pub fn walk(&mut self, pt: &RadixPageTable, va: VirtAddr, mem: &mut MemoryModel) -> WalkResult {
        let path = pt.walk_path(va);
        let (cycles, accesses) = self.charge(va, pt.levels(), path.len());
        for _ in 0..accesses {
            mem.charge(1);
        }
        let translation = match path.last() {
            Some(Step::Leaf(ppn, ps)) => Some((*ppn, *ps)),
            _ => None,
        };
        WalkResult {
            translation,
            cycles,
            memory_accesses: accesses,
        }
    }

    /// Performs one timed walk for `va`, which `pt` maps with a page of
    /// size `ps`, or does not map if `ps` is `None`, and returns only its
    /// cycles and memory accesses, with the same effect on the walker as
    /// [`RadixWalker::walk`].
    ///
    /// Every access costs the same latency, so a walk's timing follows
    /// from how many entries it reads. A mapped walk reads node entries
    /// down to `ps`'s leaf level, so this walk reads no entry of `pt`; a
    /// faulting walk reads the nodes that exist and then the empty entry,
    /// so it takes the path's depth from `pt`. Builds with debug assertions
    /// also run the reference walk on a copy of the walker and assert that
    /// both walks agree and that it finds a `ps` page, or none.
    pub fn time_walk(
        &mut self,
        pt: &RadixPageTable,
        va: VirtAddr,
        ps: Option<PageSize>,
    ) -> (u64, u32) {
        #[cfg(debug_assertions)]
        let reference = {
            let mut walker = self.clone();
            let r = walker.walk(pt, va, &mut MemoryModel::paper_default());
            (walker, r)
        };
        let depth = match ps {
            // The leaf sits one level above the last for each size step up.
            Some(ps) => pt.levels() - ps.index(),
            None => pt.walk_path(va).len(),
        };
        let (cycles, accesses) = self.charge(va, pt.levels(), depth);
        #[cfg(debug_assertions)]
        {
            let (walker, r) = reference;
            assert_eq!(
                r.translation.map(|(_, wps)| wps),
                ps,
                "the walk for {va:?} disagrees with the page size {ps:?}"
            );
            assert_eq!(
                (cycles, accesses),
                (r.cycles, r.memory_accesses),
                "time_walk of {va:?} disagrees with walk"
            );
            assert!(
                *self == walker,
                "time_walk of {va:?} left other walker state"
            );
        }
        (cycles, accesses)
    }

    /// Times a walk that reads `depth` entries, all but the last of them
    /// node entries: probes the PWCs, charges the entries below the
    /// deepest PWC hit one dependent round trip each, and fills the PWCs
    /// with the node entries. Returns the walk's cycles and memory
    /// accesses.
    fn charge(&mut self, va: VirtAddr, levels: usize, depth: usize) -> (u64, u32) {
        self.walks += 1;
        let start_level = self.probe_pwc(va, levels, depth);
        let accesses = (depth - start_level) as u32;
        let cycles = PWC_LATENCY + u64::from(accesses) * MemoryModel::round_trip(1);
        self.fill_pwc(va, levels, depth - 1);
        self.total_cycles += cycles;
        self.total_accesses += u64::from(accesses);
        (cycles, accesses)
    }

    /// Probes the PWCs deepest-first for a walk that reads `depth` entries
    /// (they are searched in parallel in hardware; one latency charge) and
    /// returns the level the walk starts at.
    fn probe_pwc(&mut self, va: VirtAddr, levels: usize, depth: usize) -> usize {
        for level in (0..levels - 1).rev() {
            // A PWC entry is only usable if the walk actually traverses a
            // node entry at that level (i.e. the path is long enough).
            if depth > level + 1 && self.pwc[level].contains(Self::pwc_key(va, level, levels)) {
                self.pwc_hits[level] += 1;
                return level + 1;
            }
        }
        0
    }

    /// Installs the walk's first `nodes` entries, all node entries, in the
    /// PWCs.
    fn fill_pwc(&mut self, va: VirtAddr, levels: usize, nodes: usize) {
        for level in 0..nodes.min(levels - 1) {
            self.pwc[level].fill(Self::pwc_key(va, level, levels));
        }
    }

    /// Flushes the page-walk caches (context switch).
    pub fn flush(&mut self) {
        for c in &mut self.pwc {
            c.flush();
        }
    }

    /// Walks performed.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Mean memory accesses per walk.
    pub fn mean_accesses(&self) -> f64 {
        if self.walks == 0 {
            return 0.0;
        }
        self.total_accesses as f64 / self.walks as f64
    }

    /// Mean walk latency in cycles.
    pub fn mean_cycles(&self) -> f64 {
        if self.walks == 0 {
            return 0.0;
        }
        self.total_cycles as f64 / self.walks as f64
    }

    /// PWC hits per level, root-most first.
    pub fn pwc_hit_counts(&self) -> [u64; 4] {
        self.pwc_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_mem::{AllocCostModel, PhysMem};
    use mehpt_types::{Vpn, GIB};

    fn setup() -> (PhysMem, RadixPageTable, RadixWalker, MemoryModel) {
        let mut mem = PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost());
        let pt = RadixPageTable::new(&mut mem).unwrap();
        (
            mem,
            pt,
            RadixWalker::paper_default(),
            MemoryModel::paper_default(),
        )
    }

    #[test]
    fn cold_walk_is_four_dependent_accesses() {
        let (mut mem, mut pt, mut walker, mut dram) = setup();
        let va = VirtAddr::new(0x7000_0000_1000);
        pt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(5), &mut mem)
            .unwrap();
        let r = walker.walk(&pt, va, &mut dram);
        assert_eq!(r.memory_accesses, 4);
        assert_eq!(r.translation, Some((Ppn(5), PageSize::Base4K)));
        // 4 cold memory accesses at 200 cycles + 4-cycle PWC probe.
        assert_eq!(r.cycles, 4 + 4 * 200);
    }

    #[test]
    fn pwc_skips_upper_levels() {
        let (mut mem, mut pt, mut walker, mut dram) = setup();
        let a = VirtAddr::new(0x1000);
        let b = VirtAddr::new(0x2000); // same PTE node as `a`
        pt.map(a.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(1), &mut mem)
            .unwrap();
        pt.map(b.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(2), &mut mem)
            .unwrap();
        walker.walk(&pt, a, &mut dram);
        let r = walker.walk(&pt, b, &mut dram);
        assert_eq!(r.memory_accesses, 1, "PMD-level PWC hit leaves one access");
        assert_eq!(r.translation, Some((Ppn(2), PageSize::Base4K)));
    }

    #[test]
    fn pwc_partial_hit_uses_intermediate_level() {
        let (mut mem, mut pt, mut walker, mut dram) = setup();
        let a = VirtAddr::new(0);
        // Same PUD, different PMD: after walking `a`, `b` hits pwc[1].
        let b = VirtAddr::new(2 * (1 << 21));
        pt.map(a.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(1), &mut mem)
            .unwrap();
        pt.map(b.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(2), &mut mem)
            .unwrap();
        walker.walk(&pt, a, &mut dram);
        let r = walker.walk(&pt, b, &mut dram);
        assert_eq!(
            r.memory_accesses, 2,
            "PUD-level hit leaves PMD+PTE accesses"
        );
    }

    #[test]
    fn huge_page_walks_are_shorter() {
        let (mut mem, mut pt, mut walker, mut dram) = setup();
        let va = VirtAddr::new(0x8000_0000);
        pt.map(va.vpn(PageSize::Huge2M), PageSize::Huge2M, Ppn(9), &mut mem)
            .unwrap();
        let r = walker.walk(&pt, va, &mut dram);
        assert_eq!(r.memory_accesses, 3, "2MB leaf sits at the PMD level");
        assert_eq!(r.translation, Some((Ppn(9), PageSize::Huge2M)));
    }

    #[test]
    fn fault_walk_reports_no_translation() {
        let (_mem, pt, mut walker, mut dram) = setup();
        let r = walker.walk(&pt, VirtAddr::new(0xdead_0000), &mut dram);
        assert_eq!(r.translation, None);
        assert_eq!(r.memory_accesses, 1, "the empty PGD entry is still read");
    }

    #[test]
    fn flush_forgets_cached_levels() {
        let (mut mem, mut pt, mut walker, mut dram) = setup();
        let va = VirtAddr::new(0x1000);
        pt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(1), &mut mem)
            .unwrap();
        walker.walk(&pt, va, &mut dram);
        walker.flush();
        let r = walker.walk(&pt, va, &mut dram);
        assert_eq!(r.memory_accesses, 4);
    }

    #[test]
    fn stats_accumulate() {
        let (mut mem, mut pt, mut walker, mut dram) = setup();
        for i in 0..64u64 {
            pt.map(Vpn(i), PageSize::Base4K, Ppn(i), &mut mem).unwrap();
        }
        for i in 0..64u64 {
            walker.walk(&pt, Vpn(i).base_addr(PageSize::Base4K), &mut dram);
        }
        assert_eq!(walker.walks(), 64);
        assert!(walker.mean_accesses() < 2.0, "dense pages should PWC-hit");
        assert!(walker.mean_cycles() > 0.0);
        assert!(walker.pwc_hit_counts()[2] > 0);
    }

    #[test]
    fn five_level_walks_are_one_access_deeper() {
        let mut mem = PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost());
        let mut pt4 = RadixPageTable::new(&mut mem).unwrap();
        let mut pt5 = RadixPageTable::with_levels(5, &mut mem).unwrap();
        let va = VirtAddr::new(0x7654_3000);
        let vpn = va.vpn(PageSize::Base4K);
        pt4.map(vpn, PageSize::Base4K, Ppn(1), &mut mem).unwrap();
        pt5.map(vpn, PageSize::Base4K, Ppn(1), &mut mem).unwrap();
        assert_eq!(pt5.translate(va), Some((Ppn(1), PageSize::Base4K)));
        let mut w4 = RadixWalker::paper_default();
        let mut w5 = RadixWalker::paper_default();
        let mut d4 = MemoryModel::paper_default();
        let mut d5 = MemoryModel::paper_default();
        let cold4 = w4.walk(&pt4, va, &mut d4);
        let cold5 = w5.walk(&pt5, va, &mut d5);
        assert_eq!(cold4.memory_accesses, 4);
        assert_eq!(cold5.memory_accesses, 5, "la57 adds a dependent access");
        assert!(cold5.cycles > cold4.cycles);
        // Warm walks converge: the PWC hides the extra level.
        let warm5 = w5.walk(&pt5, va, &mut d5);
        assert_eq!(warm5.memory_accesses, 1);
    }
}
