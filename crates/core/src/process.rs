use mehpt_ecpt::{CwtSet, HptView, InsertReport};
use mehpt_mem::{AllocError, PhysMem};
use mehpt_types::{PageSize, PhysAddr, Ppn, VirtAddr, Vpn, PAGE_SIZES};

use crate::l2p::L2pTable;
use crate::table::{MeHptConfig, MeHptTable};

/// A process's complete ME-HPT: one chunked elastic cuckoo table per page
/// size, the shared [`L2pTable`], and the Cuckoo Walk Tables.
///
/// This is the paper's full design. Compared to the ECPT baseline
/// ([`mehpt_ecpt::Ecpt`]) it:
///
/// * never allocates more contiguous memory than one chunk (8KB or 1MB for
///   all of the paper's workloads — Figure 8);
/// * uses `max(old, new)` memory during resizes instead of `old + new`
///   (in-place resizing — Figure 10);
/// * grows one way at a time (per-way resizing — Figures 11/12);
/// * keeps lookups at W parallel probes, with the L2P access hidden behind
///   the CWC probe (Section V-D), so the same
///   [`EcptWalker`](mehpt_ecpt::EcptWalker) hardware model is used.
///
/// # Examples
///
/// ```
/// use mehpt_core::MeHpt;
/// use mehpt_mem::PhysMem;
/// use mehpt_types::{PageSize, Ppn, VirtAddr, MIB};
///
/// let mut mem = PhysMem::new(64 * MIB);
/// let mut hpt = MeHpt::new(&mut mem)?;
/// let va = VirtAddr::new(0x7000_3000);
/// hpt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(11), &mut mem)?;
/// assert_eq!(hpt.translate(va), Some((Ppn(11), PageSize::Base4K)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MeHpt {
    /// Per-page-size tables, created lazily on the first mapping of that
    /// size. An unused page size consumes no chunks and — crucially — no
    /// L2P entries, which is what lets a 4KB subtable steal the whole 1GB
    /// region and reach 64 entries (Section V-A; GUPS's 192 entries in
    /// Figure 14).
    tables: Vec<Option<MeHptTable>>,
    cfg: MeHptConfig,
    l2p: L2pTable,
    cwt: CwtSet,
}

impl MeHpt {
    /// Creates the full design with the paper's default configuration.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure of the initial chunks.
    pub fn new(mem: &mut PhysMem) -> Result<MeHpt, AllocError> {
        MeHpt::with_config(MeHptConfig::default(), mem)
    }

    /// Creates the design from an explicit configuration (ablation modes,
    /// custom chunk ladders, etc.).
    ///
    /// # Errors
    ///
    /// Propagates allocation failure of the initial chunks.
    pub fn with_config(cfg: MeHptConfig, mem: &mut PhysMem) -> Result<MeHpt, AllocError> {
        let _ = mem;
        let l2p = L2pTable::new(cfg.ways, cfg.l2p_entries_per_subtable);
        Ok(MeHpt {
            tables: vec![None, None, None],
            cfg,
            l2p,
            cwt: CwtSet::new(),
        })
    }

    /// The table for one page size, if any page of that size was ever
    /// mapped.
    pub fn table(&self, ps: PageSize) -> Option<&MeHptTable> {
        self.tables[ps.index()].as_ref()
    }

    /// Returns the table for `ps`, creating it (one 8KB chunk per way) on
    /// first use.
    fn table_mut(
        &mut self,
        ps: PageSize,
        mem: &mut PhysMem,
    ) -> Result<&mut MeHptTable, AllocError> {
        if self.tables[ps.index()].is_none() {
            let table_cfg = MeHptConfig {
                seed: self.cfg.seed.wrapping_add(ps.index() as u64 * 0x9e37_79b9),
                ..self.cfg.clone()
            };
            let t = MeHptTable::new(ps, table_cfg, mem, &mut self.l2p)?;
            self.tables[ps.index()] = Some(t);
        }
        Ok(self.tables[ps.index()].as_mut().expect("just created"))
    }

    /// The L2P table (for inspection: entry usage, Figure 14).
    pub fn l2p(&self) -> &L2pTable {
        &self.l2p
    }

    /// Maps `vpn` (of size `ps`) to `ppn`.
    ///
    /// # Errors
    ///
    /// Fails only if a chunk allocation fails.
    pub fn map(
        &mut self,
        vpn: Vpn,
        ps: PageSize,
        ppn: Ppn,
        mem: &mut PhysMem,
    ) -> Result<InsertReport, AllocError> {
        self.table_mut(ps, mem)?;
        let l2p = &mut self.l2p;
        let report = self.tables[ps.index()]
            .as_mut()
            .expect("created above")
            .insert(vpn, ppn, mem, l2p)?;
        self.cwt.note_map(vpn, ps);
        Ok(report)
    }

    /// Unmaps `vpn` (of size `ps`), returning the previous translation.
    pub fn unmap(&mut self, vpn: Vpn, ps: PageSize, mem: &mut PhysMem) -> Option<Ppn> {
        let l2p = &mut self.l2p;
        let ppn = self.tables[ps.index()].as_mut()?.remove(vpn, mem, l2p)?;
        self.cwt.note_unmap(vpn, ps);
        Some(ppn)
    }

    /// Functional translation (no timing).
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

    /// Total mapped pages.
    pub fn pages(&self) -> u64 {
        self.tables.iter().flatten().map(MeHptTable::pages).sum()
    }

    /// Total page-table memory (tables + CWT entries at 8B each).
    pub fn memory_bytes(&self) -> u64 {
        let tables: u64 = self
            .tables
            .iter()
            .flatten()
            .map(MeHptTable::memory_bytes)
            .sum();
        tables + 8 * self.cwt.entries() as u64
    }

    /// The largest chunk any table ever allocated — ME-HPT's contiguity
    /// requirement (Figure 8's metric).
    pub fn max_chunk_bytes(&self) -> u64 {
        self.tables
            .iter()
            .flatten()
            .map(|t| t.stats().max_chunk_bytes)
            .max()
            .unwrap_or(0)
    }

    /// L2P entries currently in use (Figure 14's metric).
    pub fn l2p_entries_used(&self) -> usize {
        self.l2p.used_entries()
    }

    /// Releases all physical memory.
    pub fn destroy(mut self, mem: &mut PhysMem) {
        for t in self.tables.drain(..).flatten() {
            t.destroy(mem, &mut self.l2p);
        }
    }
}

impl HptView for MeHpt {
    fn pud_mask(&self, va: VirtAddr) -> Option<u8> {
        self.cwt.pud_mask(va)
    }

    fn pmd_mask(&self, va: VirtAddr) -> Option<u8> {
        self.cwt.pmd_mask(va)
    }

    fn probe(&self, ps: PageSize, vpn: Vpn, out: &mut Vec<PhysAddr>) -> Option<Ppn> {
        self.tables[ps.index()].as_ref()?.probe(vpn, out)
    }

    fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        MeHpt::translate(self, va)
    }
}
