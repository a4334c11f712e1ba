use mehpt_types::{PageSize, Ppn, VirtAddr, Vpn};

/// What the hardware cuckoo walker needs from a hashed page table.
///
/// Implemented by [`Hpt`](crate::Hpt), so by the ECPT baseline
/// ([`Ecpt`](crate::Ecpt)) and by ME-HPT (`mehpt_core::MeHpt`) alike, and
/// the same [`EcptWalker`](crate::EcptWalker) hardware model times walks
/// over both designs — which is faithful to the
/// paper: ME-HPT reuses the ECPT walker and hides its extra L2P access
/// behind the CWC probe (Section V-D).
///
/// The masks must cover the tables: every page size with a mapping at
/// `va` has its bit set in [`HptView::pud_mask`] and, for 4KB and 2MB
/// pages, in [`HptView::pmd_mask`]. The walker probes a superset of those
/// sizes and takes its translation from the largest size whose
/// [`HptView::probe`] hit, which is then exactly
/// [`HptView::translate`]'s answer.
pub trait HptView {
    /// The page sizes mapped somewhere in `va`'s 1GB region
    /// (bit 0 = 4KB, bit 1 = 2MB, bit 2 = 1GB), or `None` if untracked.
    fn pud_mask(&self, va: VirtAddr) -> Option<u8>;

    /// The page sizes mapped in `va`'s 2MB region (bits 0–1), or `None`.
    fn pmd_mask(&self, va: VirtAddr) -> Option<u8>;

    /// One walker probe of `vpn` in the `ps` table: reads one slot per
    /// way, honoring in-flight resize state, and returns the translation
    /// those slots hold for `vpn` and how many slots it read.
    ///
    /// Each way is hashed once. Reads nothing and returns `(None, 0)` if no
    /// `ps` table exists.
    fn probe(&self, ps: PageSize, vpn: Vpn) -> (Option<Ppn>, u32);

    /// How many slots [`HptView::probe`] of the `ps` table reads, for any
    /// `vpn`: the table's way count, or 0 if no `ps` table exists.
    ///
    /// Every memory access costs the same, so a walk's cost depends only
    /// on this count, and
    /// [`EcptWalker::time_walk`](crate::EcptWalker::time_walk) uses it
    /// instead of probing.
    fn probe_width(&self, ps: PageSize) -> u32;

    /// Functional translation (ground truth): the largest page size that
    /// maps `va`.
    fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)>;
}
