use mehpt_mem::{AllocError, PhysMem};
use mehpt_types::{PageSize, PhysAddr, Ppn, VirtAddr, Vpn, PAGE_SIZES};

use crate::cwt::CwtSet;
use crate::table::{EcptConfig, EcptTable, InsertReport};
use crate::view::HptView;

/// Bitmask bit for a page size (bit 0 = 4KB, bit 1 = 2MB, bit 2 = 1GB).
pub(crate) fn size_bit(ps: PageSize) -> u8 {
    1 << ps.index()
}

/// A process's full ECPT: one elastic cuckoo table per page size, plus the
/// Cuckoo Walk Tables (CWTs).
///
/// The CWTs record, per virtual-memory region, which page sizes have
/// mappings inside it: the PUD-CWT covers 1GB regions, the PMD-CWT 2MB
/// regions. The hardware walker caches CWT entries in its Cuckoo Walk
/// Caches and uses them to probe only the right page size's table
/// (Section V-D, Figure 7).
#[derive(Debug)]
pub struct Ecpt {
    /// Per-page-size tables, created lazily on the first mapping of that
    /// size — an unused page size consumes no page-table memory, matching
    /// the paper's accounting (e.g. GUPS without THP only ever has 4KB
    /// tables; Table I's 288MB is exactly 3 × (64+32)MB of 4KB ways).
    tables: Vec<Option<EcptTable>>,
    cfg: EcptConfig,
    cwt: CwtSet,
}

impl Ecpt {
    /// Creates the three per-page-size tables with default configuration.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure of the initial ways.
    pub fn new(mem: &mut PhysMem) -> Result<Ecpt, AllocError> {
        Ecpt::with_config(EcptConfig::default(), mem)
    }

    /// Creates the tables from an explicit per-table configuration.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure of the initial ways.
    pub fn with_config(cfg: EcptConfig, mem: &mut PhysMem) -> Result<Ecpt, AllocError> {
        let _ = mem;
        Ok(Ecpt {
            tables: vec![None, None, None],
            cfg,
            cwt: CwtSet::new(),
        })
    }

    /// The table for one page size, if any page of that size was ever
    /// mapped.
    pub fn table(&self, ps: PageSize) -> Option<&EcptTable> {
        self.tables[ps.index()].as_ref()
    }

    /// Returns the table for `ps`, creating it (initial 8KB ways) on first
    /// use.
    fn table_mut(&mut self, ps: PageSize, mem: &mut PhysMem) -> Result<&mut EcptTable, AllocError> {
        let slot = &mut self.tables[ps.index()];
        if slot.is_none() {
            let table_cfg = EcptConfig {
                seed: self.cfg.seed.wrapping_add(ps.index() as u64 * 0x9e37_79b9),
                ..self.cfg.clone()
            };
            *slot = Some(EcptTable::with_config(table_cfg, mem)?);
        }
        Ok(slot.as_mut().expect("just created"))
    }

    /// Maps `vpn` (of size `ps`) to `ppn`.
    ///
    /// # Errors
    ///
    /// Fails when a table resize cannot allocate its contiguous ways.
    pub fn map(
        &mut self,
        vpn: Vpn,
        ps: PageSize,
        ppn: Ppn,
        mem: &mut PhysMem,
    ) -> Result<InsertReport, AllocError> {
        let report = self.table_mut(ps, mem)?.insert(vpn, ppn, mem)?;
        self.cwt.note_map(vpn, ps);
        Ok(report)
    }

    /// Unmaps `vpn` (of size `ps`), returning the previous translation.
    pub fn unmap(&mut self, vpn: Vpn, ps: PageSize, mem: &mut PhysMem) -> Option<Ppn> {
        let ppn = self.tables[ps.index()].as_mut()?.remove(vpn, mem)?;
        self.cwt.note_unmap(vpn, ps);
        Some(ppn)
    }

    /// Functional translation (no timing): probes the tables largest page
    /// size first.
    pub fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        for ps in PAGE_SIZES.iter().rev() {
            if let Some(table) = &self.tables[ps.index()] {
                if let Some(ppn) = table.lookup(va.vpn(*ps)) {
                    return Some((ppn, *ps));
                }
            }
        }
        None
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
        self.tables.iter().flatten().map(EcptTable::pages).sum()
    }

    /// Total page-table memory (including CWTs, modeled at 8 bytes per
    /// region entry).
    pub fn memory_bytes(&self) -> u64 {
        let tables: u64 = self
            .tables
            .iter()
            .flatten()
            .map(EcptTable::memory_bytes)
            .sum();
        tables + 8 * self.cwt.entries() as u64
    }

    /// The largest single way across the tables — the contiguity
    /// requirement (Table I column 4, Figure 8).
    pub fn max_way_bytes(&self) -> u64 {
        self.tables
            .iter()
            .flatten()
            .flat_map(|t| t.way_sizes())
            .max()
            .unwrap_or(0)
    }

    /// Releases all physical memory.
    pub fn destroy(self, mem: &mut PhysMem) {
        for t in self.tables.into_iter().flatten() {
            t.destroy(mem);
        }
    }
}

impl HptView for Ecpt {
    fn pud_mask(&self, va: VirtAddr) -> Option<u8> {
        Ecpt::pud_mask(self, va)
    }

    fn pmd_mask(&self, va: VirtAddr) -> Option<u8> {
        Ecpt::pmd_mask(self, va)
    }

    fn probe(&self, ps: PageSize, vpn: Vpn, out: &mut Vec<PhysAddr>) -> Option<Ppn> {
        self.tables[ps.index()].as_ref()?.probe(vpn, out)
    }

    fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        Ecpt::translate(self, va)
    }
}
