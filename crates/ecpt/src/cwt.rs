use mehpt_types::hashmap::SplitMixMap;
use mehpt_types::{PageSize, VirtAddr, Vpn};

/// The Cuckoo Walk Tables of one process: per-region page-size presence.
///
/// The PUD-CWT tracks 1GB regions, the PMD-CWT 2MB regions. Entries are
/// reference-counted per page size so unmaps clear bits exactly when the
/// last mapping of that size leaves the region. Shared by the ECPT baseline
/// and ME-HPT (both designs keep CWTs; the walker caches them in CWCs).
///
/// # Examples
///
/// ```
/// use mehpt_ecpt::CwtSet;
/// use mehpt_types::{PageSize, VirtAddr};
///
/// let mut cwt = CwtSet::new();
/// let va = VirtAddr::new(0x20_0000);
/// cwt.note_map(va.vpn(PageSize::Base4K), PageSize::Base4K);
/// assert_eq!(cwt.pmd_mask(va), Some(0b001));
/// cwt.note_unmap(va.vpn(PageSize::Base4K), PageSize::Base4K);
/// assert_eq!(cwt.pmd_mask(va), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CwtSet {
    /// 1GB region (`va >> 30`) → per-page-size mapping counts.
    pud: SplitMixMap<u64, [u64; 3]>,
    /// 2MB region (`va >> 21`) → mapping counts for 4KB and 2MB pages.
    pmd: SplitMixMap<u64, [u64; 2]>,
}

impl CwtSet {
    /// Creates empty walk tables.
    pub fn new() -> CwtSet {
        CwtSet::default()
    }

    /// Records that `vpn` (of size `ps`) was mapped. Returns whether a
    /// count went from 0 to 1, that is, whether the PUD or PMD mask of
    /// `vpn`'s region changed.
    pub fn note_map(&mut self, vpn: Vpn, ps: PageSize) -> bool {
        let va = vpn.base_addr(ps);
        let bump = |count: &mut u64| {
            *count += 1;
            *count == 1
        };
        let mut grew = bump(&mut self.pud.entry(va.0 >> 30).or_default()[ps.index()]);
        if ps != PageSize::Giant1G {
            grew |= bump(&mut self.pmd.entry(va.0 >> 21).or_default()[ps.index()]);
        }
        grew
    }

    /// Records that `vpn` (of size `ps`) was unmapped.
    pub fn note_unmap(&mut self, vpn: Vpn, ps: PageSize) {
        let va = vpn.base_addr(ps);
        if let Some(counts) = self.pud.get_mut(&(va.0 >> 30)) {
            counts[ps.index()] = counts[ps.index()].saturating_sub(1);
            if counts.iter().all(|&c| c == 0) {
                self.pud.remove(&(va.0 >> 30));
            }
        }
        if ps != PageSize::Giant1G {
            if let Some(counts) = self.pmd.get_mut(&(va.0 >> 21)) {
                counts[ps.index()] = counts[ps.index()].saturating_sub(1);
                if counts.iter().all(|&c| c == 0) {
                    self.pmd.remove(&(va.0 >> 21));
                }
            }
        }
    }

    /// The page-size mask of `va`'s 1GB region, or `None` if untracked.
    pub fn pud_mask(&self, va: VirtAddr) -> Option<u8> {
        self.pud.get(&(va.0 >> 30)).map(|counts| {
            counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .fold(0u8, |m, (i, _)| m | (1 << i))
        })
    }

    /// The page-size mask of `va`'s 2MB region, or `None` if untracked.
    pub fn pmd_mask(&self, va: VirtAddr) -> Option<u8> {
        self.pmd.get(&(va.0 >> 21)).map(|counts| {
            counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .fold(0u8, |m, (i, _)| m | (1 << i))
        })
    }

    /// Total CWT entries (for memory accounting; ~8B each in the model).
    pub fn entries(&self) -> usize {
        self.pud.len() + self.pmd.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_combine_page_sizes() {
        let mut cwt = CwtSet::new();
        let va = VirtAddr::new(0x4000_0000);
        cwt.note_map(va.vpn(PageSize::Base4K), PageSize::Base4K);
        cwt.note_map(va.vpn(PageSize::Huge2M), PageSize::Huge2M);
        assert_eq!(cwt.pmd_mask(va), Some(0b011));
        assert_eq!(cwt.pud_mask(va), Some(0b011));
        cwt.note_map(va.vpn(PageSize::Giant1G), PageSize::Giant1G);
        assert_eq!(cwt.pud_mask(va), Some(0b111));
        // 1GB pages do not appear in the PMD-CWT.
        assert_eq!(cwt.pmd_mask(va), Some(0b011));
    }

    #[test]
    fn refcounts_keep_bits_until_last_unmap() {
        let mut cwt = CwtSet::new();
        let a = VirtAddr::new(0x1000);
        let b = VirtAddr::new(0x2000); // same 2MB region
        assert!(cwt.note_map(a.vpn(PageSize::Base4K), PageSize::Base4K));
        assert!(
            !cwt.note_map(b.vpn(PageSize::Base4K), PageSize::Base4K),
            "the masks already hold 4KB pages"
        );
        cwt.note_unmap(a.vpn(PageSize::Base4K), PageSize::Base4K);
        assert_eq!(cwt.pmd_mask(a), Some(0b001));
        cwt.note_unmap(b.vpn(PageSize::Base4K), PageSize::Base4K);
        assert_eq!(cwt.pmd_mask(a), None);
        assert_eq!(cwt.entries(), 0);
        assert!(cwt.note_map(a.vpn(PageSize::Base4K), PageSize::Base4K));
    }

    #[test]
    fn regions_are_independent() {
        let mut cwt = CwtSet::new();
        let a = VirtAddr::new(0);
        let b = VirtAddr::new(1 << 21);
        cwt.note_map(a.vpn(PageSize::Base4K), PageSize::Base4K);
        assert_eq!(cwt.pmd_mask(b), None);
        assert_eq!(cwt.pud_mask(b), Some(0b001), "same 1GB region");
        assert!(
            cwt.note_map(b.vpn(PageSize::Base4K), PageSize::Base4K),
            "a new PMD-CWT entry changes the masks"
        );
        assert!(
            cwt.note_map(b.vpn(PageSize::Huge2M), PageSize::Huge2M),
            "a new page size in the region"
        );
    }
}
