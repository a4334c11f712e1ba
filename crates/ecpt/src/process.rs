use mehpt_hash::InsertReport;
use mehpt_mem::{AllocError, PhysMem};
use mehpt_types::{PageSize, Ppn, VirtAddr, Vpn, PAGE_SIZES};

use crate::cwt::CwtSet;
use crate::table::{Backing, HptTable};
use crate::view::HptView;

/// Bitmask bit for a page size (bit 0 = 4KB, bit 1 = 2MB, bit 2 = 1GB).
pub(crate) fn size_bit(ps: PageSize) -> u8 {
    1 << ps.index()
}

/// A process's hashed page table: one elastic cuckoo table per page size,
/// the design's backing, and the Cuckoo Walk Tables (CWTs).
///
/// The CWTs record, per virtual-memory region, which page sizes have
/// mappings inside it: the PUD-CWT covers 1GB regions, the PMD-CWT 2MB
/// regions. The hardware walker caches CWT entries in its Cuckoo Walk
/// Caches and uses them to probe only the right page size's table
/// (Section V-D, Figure 7).
///
/// [`Ecpt`] is the baseline (`Hpt<()>`); ME-HPT is `Hpt<L2pTable>`
/// (`mehpt_core::MeHpt`).
#[derive(Debug)]
pub struct Hpt<B: Backing> {
    /// Per-page-size tables, created lazily on the first mapping of that
    /// size — an unused page size consumes no page-table memory, matching
    /// the paper's accounting (e.g. GUPS without THP only ever has 4KB
    /// tables; Table I's 288MB is exactly 3 × (64+32)MB of 4KB ways), and
    /// no L2P entries, which is what lets ME-HPT's 4KB subtable steal the
    /// whole 1GB region and reach 64 entries (Section V-A; GUPS's 192
    /// entries in Figure 14).
    tables: Vec<Option<HptTable<B>>>,
    cfg: B::Config,
    backing: B,
    cwt: CwtSet,
}

/// The ECPT baseline: per page size, an elastic cuckoo table whose ways are
/// single contiguous chunks.
pub type Ecpt = Hpt<()>;

impl<B: Backing> Hpt<B> {
    /// Creates the page table with the design's default configuration.
    /// It allocates nothing: each page size's table is created on the
    /// first mapping of that size.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` keeps callers unchanged should
    /// creation ever allocate. [`Hpt::map`] reports allocation failures.
    pub fn new(mem: &mut PhysMem) -> Result<Hpt<B>, AllocError> {
        Hpt::with_config(B::Config::default(), mem)
    }

    /// Creates the page table from an explicit configuration (ablation
    /// modes, custom chunk ladders, etc.). Tables are allocated on first
    /// use, so this allocates nothing.
    ///
    /// # Errors
    ///
    /// Never fails today, like [`Hpt::new`].
    pub fn with_config(cfg: B::Config, mem: &mut PhysMem) -> Result<Hpt<B>, AllocError> {
        let _ = mem;
        Ok(Hpt {
            tables: vec![None, None, None],
            backing: B::new(&cfg),
            cfg,
            cwt: CwtSet::new(),
        })
    }

    /// The table for one page size, if any page of that size was ever
    /// mapped.
    pub fn table(&self, ps: PageSize) -> Option<&HptTable<B>> {
        self.tables[ps.index()].as_ref()
    }

    /// The backing shared by the tables (ME-HPT's L2P table: entry usage,
    /// Figure 14).
    pub fn backing(&self) -> &B {
        &self.backing
    }

    /// Maps `vpn` (of size `ps`) to `ppn`, creating the `ps` table (initial
    /// 8KB ways) on first use.
    ///
    /// # Errors
    ///
    /// Fails when a table cannot allocate the chunks it needs.
    pub fn map(
        &mut self,
        vpn: Vpn,
        ps: PageSize,
        ppn: Ppn,
        mem: &mut PhysMem,
    ) -> Result<InsertReport, AllocError> {
        let slot = &mut self.tables[ps.index()];
        if slot.is_none() {
            *slot = Some(HptTable::new(ps, self.cfg.clone(), mem, &mut self.backing)?);
        }
        let table = slot.as_mut().expect("just created");
        let mut report = table.insert(vpn, ppn, mem, &mut self.backing)?;
        // A rewrite of an existing translation adds no CWT reference.
        if report.added {
            report.cwt_grew = self.cwt.note_map(vpn, ps);
        }
        Ok(report)
    }

    /// Unmaps `vpn` (of size `ps`), returning the previous translation.
    pub fn unmap(&mut self, vpn: Vpn, ps: PageSize, mem: &mut PhysMem) -> Option<Ppn> {
        let table = self.tables[ps.index()].as_mut()?;
        let ppn = table.remove(vpn, mem, &mut self.backing)?;
        self.cwt.note_unmap(vpn, ps);
        Some(ppn)
    }

    /// Functional translation (no timing): probes the tables largest page
    /// size first.
    pub fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        PAGE_SIZES.iter().rev().find_map(|&ps| {
            let ppn = self.table(ps)?.lookup(va.vpn(ps))?;
            Some((ppn, ps))
        })
    }

    /// The PMD-CWT mask for the 2MB region containing `va` (bit 0 = 4KB
    /// pages present, bit 1 = a 2MB page present). `None` if the region has
    /// no CWT entry at all.
    pub fn pmd_mask(&self, va: VirtAddr) -> Option<u8> {
        self.cwt.pmd_mask(va)
    }

    /// The PUD-CWT mask for the 1GB region containing `va`.
    pub fn pud_mask(&self, va: VirtAddr) -> Option<u8> {
        self.cwt.pud_mask(va)
    }

    /// Total mapped pages across page sizes.
    pub fn pages(&self) -> u64 {
        self.tables.iter().flatten().map(HptTable::pages).sum()
    }

    /// Total page-table memory (including CWTs, modeled at 8 bytes per
    /// region entry).
    pub fn memory_bytes(&self) -> u64 {
        let tables: u64 = self
            .tables
            .iter()
            .flatten()
            .map(HptTable::memory_bytes)
            .sum();
        tables + 8 * self.cwt.entries() as u64
    }

    /// The largest chunk any table ever allocated — the contiguity
    /// requirement (Table I column 4, Figure 8): a whole way for ECPT, one
    /// chunk for ME-HPT.
    pub fn max_chunk_bytes(&self) -> u64 {
        self.tables
            .iter()
            .flatten()
            .map(|t| t.stats().max_chunk_bytes)
            .max()
            .unwrap_or(0)
    }

    /// L2P entries currently in use (Figure 14's metric; 0 for ECPT).
    pub fn l2p_entries_used(&self) -> usize {
        self.backing.l2p_entries()
    }

    /// Releases all physical memory.
    pub fn destroy(mut self, mem: &mut PhysMem) {
        for t in self.tables.into_iter().flatten() {
            t.destroy(mem, &mut self.backing);
        }
    }
}

impl<B: Backing> HptView for Hpt<B> {
    fn pud_mask(&self, va: VirtAddr) -> Option<u8> {
        self.cwt.pud_mask(va)
    }

    fn pmd_mask(&self, va: VirtAddr) -> Option<u8> {
        self.cwt.pmd_mask(va)
    }

    fn probe(&self, ps: PageSize, vpn: Vpn) -> (Option<Ppn>, u32) {
        self.table(ps).map_or((None, 0), |t| t.probe(vpn))
    }

    #[inline]
    fn probe_width(&self, ps: PageSize) -> u32 {
        self.table(ps).map_or(0, |t| t.way_count() as u32)
    }

    fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        Hpt::translate(self, va)
    }
}
