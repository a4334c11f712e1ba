//! The simulated OS's own record of what a process has mapped.

use mehpt_types::{PageSize, VirtAddr};
use mehpt_workloads::Region;

/// 4KB pages per 2MB region.
const REGION_PAGES: usize = 512;
/// The flags word of a [`RegionBits`], after its 4KB-page bitmap.
const FLAGS: usize = REGION_PAGES / 64;
/// Flag: a 2MB page maps the region.
const HUGE: u64 = 1;
/// Flag: a 2MB allocation for the region failed, so it stays on 4KB pages.
const HUGE_FAILED: u64 = 2;

/// One 2MB region's record: a bitmap of its 4KB pages (bit `i % 64` of
/// word `i / 64` set when page `i` is mapped), then the [`FLAGS`] word.
type RegionBits = [u64; FLAGS + 1];

/// The most 2MB regions in one span: 8GB of address space, 288KB of
/// records.
const SPAN_REGIONS: u64 = 4096;

/// A run of consecutive 2MB regions inside the workload's VMAs, with one
/// zero-initialised allocation of their records (`vec![…; n]` of zeros).
struct Span {
    /// The first region's key, `va >> 21`.
    first: u64,
    regions: Vec<RegionBits>,
}

impl Span {
    /// A span of the regions `first..=last`, none of them mapped.
    fn new(first: u64, last: u64) -> Span {
        let regions = vec![[0; FLAGS + 1]; (last - first + 1) as usize];
        Span { first, regions }
    }

    /// The index of the 2MB region `key`, if the span holds it.
    #[inline]
    fn index(&self, key: u64) -> Option<usize> {
        let r = key.wrapping_sub(self.first);
        (r < self.regions.len() as u64).then_some(r as usize)
    }
}

/// The 4KB page of `va` in its 2MB region: its bitmap word and bit.
#[inline]
fn page_bit(va: VirtAddr) -> (usize, u64) {
    let page = (va.0 >> 12) as usize % REGION_PAGES;
    (page / 64, 1 << (page % 64))
}

/// The index of the last of `items`, sorted by `first`, whose `first` is
/// at most `key`.
#[inline]
fn last_at_or_below<T>(items: &[T], key: u64, first: impl Fn(&T) -> u64) -> Option<usize> {
    items.partition_point(|t| first(t) <= key).checked_sub(1)
}

/// The OS's own view of what is mapped, in spans of 2MB regions inside
/// the workload's VMAs: a 4KB-page bitmap and the 2MB state per region. A
/// lookup finds the span by binary search and reads one bitmap word, with
/// no hashing.
///
/// Two VMAs may share a 2MB region, so their region ranges are merged
/// into disjoint ranges. A range of at most [`SPAN_REGIONS`] (every range
/// of the paper's apps at scale 0.1 or below) is one span from the start. A
/// wider range is cut into spans of [`SPAN_REGIONS`], each made when the
/// process first records something in it, so host memory follows the
/// parts of the address space the process touches, not the width of its
/// VMAs. Every access must lie inside a VMA
/// ([`Workload::from_recorded`](mehpt_workloads::Workload::from_recorded)'s
/// contract): the runner aborts a run at one that does not, and
/// recording a page outside every VMA panics.
pub(crate) struct OsMap {
    /// The merged VMAs' region ranges `(first, last)`: disjoint, in
    /// ascending order.
    vmas: Vec<(u64, u64)>,
    /// Disjoint, in ascending order.
    spans: Vec<Span>,
}

impl OsMap {
    /// An empty map over the 2MB regions that `vmas` touch, up to the end
    /// of the 48-bit virtual address space.
    pub(crate) fn new(vmas: &[Region]) -> OsMap {
        let top = (1 << VirtAddr::BITS) - 1;
        let mut ranges: Vec<(u64, u64)> = vmas
            .iter()
            .filter(|r| r.bytes > 0)
            .map(|r| {
                let last = r.base.0.saturating_add(r.bytes - 1).min(top);
                (r.base.0 >> 21, last >> 21)
            })
            .collect();
        ranges.sort_unstable();
        // Fold each range that overlaps or abuts the one before into it.
        ranges.dedup_by(|next, prev| {
            let merge = next.0 <= prev.1 + 1;
            if merge {
                prev.1 = prev.1.max(next.1);
            }
            merge
        });
        // Narrow ranges get their span now, before the run allocates
        // anything: made at the first fault instead, the one span of
        // speedbench's gups_hpt cells landed among the page tables' heap
        // blocks and its peak RSS read 31 MB, not 25 MB (measured while the
        // PTE-row arena was still one growing array).
        let spans = ranges
            .iter()
            .filter(|&&(first, last)| last - first < SPAN_REGIONS)
            .map(|&(first, last)| Span::new(first, last))
            .collect();
        OsMap {
            vmas: ranges,
            spans,
        }
    }

    /// The record of `va`'s 2MB region, if a span holds it.
    #[inline]
    fn region(&self, va: VirtAddr) -> Option<&RegionBits> {
        let key = va.0 >> 21;
        let s = &self.spans[last_at_or_below(&self.spans, key, |s| s.first)?];
        Some(&s.regions[s.index(key)?])
    }

    /// The record of `va`'s 2MB region, which a VMA covers, to change. In
    /// a range wider than [`SPAN_REGIONS`], makes the region's span first
    /// if it has none yet.
    fn region_mut(&mut self, va: VirtAddr) -> &mut RegionBits {
        let key = va.0 >> 21;
        let at = last_at_or_below(&self.spans, key, |s| s.first);
        let s = match at.filter(|&s| self.spans[s].index(key).is_some()) {
            Some(s) => s,
            None => {
                let (first, last) = last_at_or_below(&self.vmas, key, |v| v.0)
                    .map(|v| self.vmas[v])
                    .filter(|&(_, last)| key <= last)
                    .unwrap_or_else(|| panic!("{va:?} lies outside every VMA"));
                let start = first + (key - first) / SPAN_REGIONS * SPAN_REGIONS;
                let s = at.map_or(0, |s| s + 1);
                let end = last.min(start + SPAN_REGIONS - 1);
                self.spans.insert(s, Span::new(start, end));
                s
            }
        };
        let span = &mut self.spans[s];
        &mut span.regions[(key - span.first) as usize]
    }

    /// The page size mapping `va`, checking 4KB pages before 2MB pages.
    #[inline]
    pub(crate) fn lookup(&self, va: VirtAddr) -> Option<PageSize> {
        let bits = self.region(va)?;
        let (word, bit) = page_bit(va);
        if bits[word] & bit != 0 {
            Some(PageSize::Base4K)
        } else if bits[FLAGS] & HUGE != 0 {
            Some(PageSize::Huge2M)
        } else {
            None
        }
    }

    /// Records that `va`'s page of size `ps` (4KB or 2MB) is mapped.
    ///
    /// # Panics
    ///
    /// Panics if `va` lies outside every VMA.
    pub(crate) fn insert(&mut self, va: VirtAddr, ps: PageSize) {
        let bits = self.region_mut(va);
        match ps {
            PageSize::Base4K => {
                let (word, bit) = page_bit(va);
                bits[word] |= bit;
            }
            PageSize::Huge2M => bits[FLAGS] |= HUGE,
            PageSize::Giant1G => unreachable!("the OS maps no 1GB pages"),
        }
    }

    /// Whether `va`'s region must stay on 4KB pages: a 2MB allocation for
    /// it failed before, or 4KB pages already map part of it (a 2MB page
    /// would overlap them).
    pub(crate) fn huge_blocked(&self, va: VirtAddr) -> bool {
        self.region(va).is_some_and(|bits| {
            bits[FLAGS] & HUGE_FAILED != 0 || bits[..FLAGS].iter().any(|&w| w != 0)
        })
    }

    /// Keeps `va`'s region on 4KB pages from now on.
    ///
    /// # Panics
    ///
    /// Panics if `va` lies outside every VMA.
    pub(crate) fn note_huge_failed(&mut self, va: VirtAddr) {
        self.region_mut(va)[FLAGS] |= HUGE_FAILED;
    }

    /// Every mapped page's base address and size, in ascending order of
    /// region.
    pub(crate) fn pages(&self) -> impl Iterator<Item = (VirtAddr, PageSize)> + '_ {
        self.spans.iter().flat_map(|s| {
            s.regions.iter().enumerate().flat_map(move |(r, bits)| {
                let base = (s.first + r as u64) << 21;
                let small = bits[..FLAGS]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &w)| w != 0)
                    .flat_map(move |(i, &w)| {
                        (0..64).filter(move |b| w & (1 << b) != 0).map(move |b| {
                            let page = i as u64 * 64 + b;
                            (VirtAddr::new(base | page << 12), PageSize::Base4K)
                        })
                    });
                let huge =
                    (bits[FLAGS] & HUGE != 0).then_some((VirtAddr::new(base), PageSize::Huge2M));
                small.chain(huge)
            })
        })
    }

    /// The spans made so far.
    #[cfg(test)]
    pub(crate) fn span_count(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use mehpt_types::hashmap::SplitMixMap;
    use mehpt_types::proptest_lite::{check, Gen};

    use super::*;

    /// The OS's record of one 2MB virtual region.
    #[derive(Default)]
    struct OracleRegion {
        pages_4k: [u64; 8],
        huge: bool,
        huge_failed: bool,
    }

    /// The OS map the runner kept before its VMA spans, a hashed map keyed
    /// by 2MB region with an entry per region touched: the oracle.
    #[derive(Default)]
    struct Oracle {
        regions: SplitMixMap<u64, OracleRegion>,
    }

    impl Oracle {
        fn lookup(&self, va: VirtAddr) -> Option<PageSize> {
            let r = self.regions.get(&(va.0 >> 21))?;
            let page = (va.0 >> 12) as usize & 511;
            if r.pages_4k[page / 64] & (1 << (page % 64)) != 0 {
                Some(PageSize::Base4K)
            } else if r.huge {
                Some(PageSize::Huge2M)
            } else {
                None
            }
        }

        fn insert(&mut self, va: VirtAddr, ps: PageSize) {
            let r = self.regions.entry(va.0 >> 21).or_default();
            match ps {
                PageSize::Base4K => {
                    let page = (va.0 >> 12) as usize & 511;
                    r.pages_4k[page / 64] |= 1 << (page % 64);
                }
                PageSize::Huge2M => r.huge = true,
                PageSize::Giant1G => unreachable!(),
            }
        }

        fn huge_blocked(&self, va: VirtAddr) -> bool {
            self.regions
                .get(&(va.0 >> 21))
                .is_some_and(|r| r.huge_failed || r.pages_4k != [0; 8])
        }

        fn note_huge_failed(&mut self, va: VirtAddr) {
            self.regions.entry(va.0 >> 21).or_default().huge_failed = true;
        }

        fn pages(&self) -> BTreeSet<(u64, usize)> {
            let mut out = BTreeSet::new();
            for (&region, r) in &self.regions {
                for page in 0..512u64 {
                    if r.pages_4k[page as usize / 64] & (1 << (page % 64)) != 0 {
                        out.insert(((region << 21) | page << 12, 0));
                    }
                }
                if r.huge {
                    out.insert((region << 21, 1));
                }
            }
            out
        }
    }

    fn vma(base: u64, bytes: u64) -> Region {
        Region {
            name: "vma",
            base: VirtAddr::new(base),
            bytes,
            thp_eligible: false,
        }
    }

    /// One VMA over the 2MB regions `0x4000_0000 >> 21` onwards, `n` of them.
    fn one_vma(n: u64) -> OsMap {
        OsMap::new(&[vma(0x4000_0000, n << 21)])
    }

    #[test]
    fn os_map_splits_pages_at_the_2mb_boundary() {
        let mut os = one_vma(2);
        let page = |n: u64| VirtAddr::new(0x4000_0000 + (n << 12));
        os.insert(page(511), PageSize::Base4K);
        assert_eq!(os.lookup(page(511)), Some(PageSize::Base4K));
        assert_eq!(os.lookup(page(512)), None, "next region");
        assert_eq!(os.lookup(page(510)), None, "same region, other page");
        os.insert(page(512), PageSize::Base4K);
        assert_eq!(os.lookup(page(512)), Some(PageSize::Base4K));
        assert_eq!(os.pages().count(), 2);
        // Any byte of a mapped page finds it.
        assert_eq!(
            os.lookup(VirtAddr::new(page(511).0 + 0xfff)),
            Some(PageSize::Base4K)
        );
    }

    #[test]
    fn os_map_finds_4k_before_2m_in_a_region() {
        let mut os = OsMap::new(&[vma(0x20_0000, 0x40_0000)]);
        let va = VirtAddr::new(0x20_0000 + 0x3000);
        os.insert(va, PageSize::Base4K);
        os.insert(va, PageSize::Huge2M);
        assert_eq!(os.lookup(va), Some(PageSize::Base4K));
        assert_eq!(
            os.lookup(VirtAddr::new(0x20_0000)),
            Some(PageSize::Huge2M),
            "other pages of the region are on the 2MB page"
        );
        assert_eq!(os.lookup(VirtAddr::new(0x40_0000)), None);
    }

    #[test]
    fn os_map_huge_failed_is_per_region() {
        let mut os = OsMap::new(&[vma(0x40_0000, 0x60_0000)]);
        let a = VirtAddr::new(0x60_0000);
        os.note_huge_failed(a);
        assert!(os.huge_blocked(a));
        assert!(os.huge_blocked(VirtAddr::new(0x7f_ffff)));
        assert!(!os.huge_blocked(VirtAddr::new(0x40_0000)));
        assert!(!os.huge_blocked(VirtAddr::new(0x80_0000)));
        assert_eq!(os.lookup(a), None, "a failed 2MB attempt maps nothing");
    }

    #[test]
    fn os_map_blocks_huge_pages_over_4k_pages() {
        let mut os = OsMap::new(&[vma(0xa0_0000, 0x40_0000)]);
        os.insert(VirtAddr::new(0xa0_0000 + 0x5000), PageSize::Base4K);
        assert!(os.huge_blocked(VirtAddr::new(0xa0_0000)));
        assert!(os.huge_blocked(VirtAddr::new(0xbf_f000)));
        assert!(!os.huge_blocked(VirtAddr::new(0xc0_0000)));
    }

    #[test]
    fn vmas_sharing_or_touching_2mb_regions_merge_into_spans() {
        let os = OsMap::new(&[
            vma(0x10_1000, 0x1000),
            vma(0x10_0000, 0x1000),
            vma(0x30_0000, 0x20_0000),
            vma(0x90_0000, 0x1),
            vma(0xc0_0000, 0),
            vma((1 << 48) - (4 << 20), u64::MAX),
        ]);
        let last = (1 << 27) - 2;
        assert_eq!(
            os.vmas,
            [(0, 2), (4, 4), (last, last + 1)],
            "the top VMA ends at 2^48"
        );
        let spans: Vec<(u64, usize)> = os
            .spans
            .iter()
            .map(|s| (s.first, s.regions.len()))
            .collect();
        assert_eq!(spans, [(0, 3), (4, 1), (last, 2)]);
        assert!(os.region(VirtAddr::new(0x5f_ffff)).is_some());
        assert!(os.region(VirtAddr::new(0x60_0000)).is_none());
        assert!(
            os.region(VirtAddr::new(0xc0_0000)).is_none(),
            "an empty VMA covers nothing"
        );
    }

    /// A VMA over the whole 48-bit address space costs a span of records
    /// per 8GB the process touches, not a record per 2MB region it spans.
    #[test]
    fn a_wide_vma_costs_only_the_spans_it_touches() {
        let mut os = OsMap::new(&[vma(0x20_0000, 1 << 48), vma(0, 0x1000)]);
        assert_eq!(os.vmas, [(0, (1 << 27) - 1)]);
        assert_eq!(os.span_count(), 0);
        let (low, high) = (VirtAddr::new(0x1000), VirtAddr::new(0xffff_ffff_f000));
        let mid = VirtAddr::new(0x2_0000_0000 + 0x5000);
        assert_eq!(os.lookup(high), None);
        assert!(!os.huge_blocked(low));
        os.insert(high, PageSize::Base4K);
        os.insert(low, PageSize::Base4K);
        os.insert(mid, PageSize::Huge2M);
        os.note_huge_failed(VirtAddr::new(0x40_0000));
        let spans: Vec<(u64, usize)> = os
            .spans
            .iter()
            .map(|s| (s.first, s.regions.len()))
            .collect();
        let top = (1 << 27) - 4096;
        assert_eq!(spans, [(0, 4096), (4096, 4096), (top, 4096)]);
        assert_eq!(os.lookup(low), Some(PageSize::Base4K));
        assert_eq!(os.lookup(high), Some(PageSize::Base4K));
        assert_eq!(
            os.lookup(VirtAddr::new(0x2_0000_0000)),
            Some(PageSize::Huge2M)
        );
        assert_eq!(os.lookup(VirtAddr::new(0x8000_0000)), None);
        assert!(os.huge_blocked(VirtAddr::new(0x40_0000)));
        let pages: Vec<(u64, PageSize)> = os.pages().map(|(va, ps)| (va.0, ps)).collect();
        assert_eq!(
            pages,
            [
                (low.0, PageSize::Base4K),
                (0x2_0000_0000, PageSize::Huge2M),
                (high.0, PageSize::Base4K)
            ]
        );
    }

    /// A range just over one span long is cut into a full span and a span
    /// of its last region.
    #[test]
    fn a_wide_range_ends_in_a_short_span() {
        let mut os = OsMap::new(&[vma(0x4000_0000, 4097 << 21)]);
        let last = VirtAddr::new(0x4000_0000 + (4096 << 21) + 0x1fff);
        os.insert(last, PageSize::Base4K);
        os.insert(VirtAddr::new(0x4000_0000), PageSize::Base4K);
        let spans: Vec<(u64, usize)> = os
            .spans
            .iter()
            .map(|s| (s.first, s.regions.len()))
            .collect();
        assert_eq!(spans, [(512, 4096), (512 + 4096, 1)]);
        assert_eq!(os.lookup(last), Some(PageSize::Base4K));
    }

    /// Random VMAs, some sharing 2MB regions and some covering part of one,
    /// and random operations on addresses inside them: the VMA-indexed map
    /// answers as the hashed oracle does, and maps the same pages.
    #[test]
    fn os_map_matches_the_hashed_oracle() {
        check("os_map_matches_the_hashed_oracle", 64, |g: &mut Gen| {
            let base = 0x7000_0000;
            let vmas: Vec<Region> = (0..1 + g.index(5))
                .map(|_| {
                    // Most VMAs start on a 4KB boundary among 16 regions,
                    // so they often share or abut one; some start up to
                    // 8192 regions on and cover up to 6144, so that their
                    // ranges are cut into several spans.
                    if g.weighted(&[3, 1]) == 0 {
                        vma(
                            base + (g.below(16 * 512) << 12),
                            (1 + g.below(3 * 512)) << 12,
                        )
                    } else {
                        vma(
                            base + (g.below(8192 * 512) << 12),
                            (1 + g.below(6144 * 512)) << 12,
                        )
                    }
                })
                .collect();
            let mut os = OsMap::new(&vmas);
            let mut oracle = Oracle::default();
            let inside = |g: &mut Gen| {
                let v = &vmas[g.index(vmas.len())];
                VirtAddr::new(v.base.0 + g.below(v.bytes))
            };
            // Queries also go to addresses near the VMAs but outside them.
            let anywhere = |g: &mut Gen| {
                if g.bool() {
                    inside(g)
                } else {
                    VirtAddr::new(base - (2 << 20) + g.below((8192 + 6144 + 2) << 21))
                }
            };
            for _ in 0..g.len(400) {
                match g.weighted(&[4, 4, 2, 1, 1]) {
                    0 => {
                        let va = anywhere(g);
                        assert_eq!(os.lookup(va), oracle.lookup(va), "{va:?}");
                    }
                    1 => {
                        let va = inside(g);
                        os.insert(va, PageSize::Base4K);
                        oracle.insert(va, PageSize::Base4K);
                    }
                    2 => {
                        let va = inside(g);
                        if !oracle.huge_blocked(va) && oracle.lookup(va).is_none() {
                            os.insert(va, PageSize::Huge2M);
                            oracle.insert(va, PageSize::Huge2M);
                        }
                    }
                    3 => {
                        let va = anywhere(g);
                        assert_eq!(os.huge_blocked(va), oracle.huge_blocked(va), "{va:?}");
                    }
                    _ => {
                        let va = inside(g);
                        os.note_huge_failed(va);
                        oracle.note_huge_failed(va);
                    }
                }
            }
            let pages: BTreeSet<(u64, usize)> =
                os.pages().map(|(va, ps)| (va.0, ps.index())).collect();
            assert_eq!(pages.len(), os.pages().count(), "a page listed twice");
            assert_eq!(pages, oracle.pages());
        });
    }
}
