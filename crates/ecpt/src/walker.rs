use mehpt_tlb::{MemoryModel, SetAssocCache};
use mehpt_types::{PageSize, Ppn, VirtAddr, PAGE_SIZES};

use crate::process::size_bit;
use crate::view::HptView;

// The hardware cuckoo walker's parameters (Table III).
/// PMD-CWC capacity in entries.
const PMD_CWC_ENTRIES: usize = 16;
/// PUD-CWC capacity in entries.
const PUD_CWC_ENTRIES: usize = 2;
/// CWC round-trip latency in cycles.
const CWC_LATENCY: u64 = 4;
/// CRC hash latency in cycles.
const HASH_LATENCY: u64 = 2;

/// The outcome of one timed HPT walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HptWalkResult {
    /// The translation found, or `None` on a page fault.
    pub translation: Option<(Ppn, PageSize)>,
    /// Total walk latency in cycles.
    pub cycles: u64,
    /// Memory accesses performed (they run in parallel, so the walk pays
    /// one round trip for all of them).
    pub memory_accesses: u32,
}

/// The hardware walker for elastic cuckoo page tables.
///
/// On a TLB miss, the walker consults its Cuckoo Walk Caches to learn which
/// page sizes exist in the faulting region, then probes the corresponding
/// tables' ways *in parallel* — one memory-access latency in the common
/// case, versus up to four dependent accesses for radix (Figure 7).
///
/// Two walks share the CWC step. [`EcptWalker::walk`] is the reference: it
/// hashes each probed table's ways, reads their slots and returns the
/// translation. [`EcptWalker::time_walk`] returns only the timing, of
/// mapped and faulting walks alike: it counts each probed table's
/// [`HptView::probe_width`] instead of probing, and builds with debug
/// assertions check it against `walk`. The simulator times every walk
/// with it.
///
/// CWC entries mirror CWT state; the OS must call
/// [`EcptWalker::invalidate_region`] when a mapping changes a region's
/// page-size mask.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcptWalker {
    pmd_cwc: SetAssocCache<PMD_CWC_ENTRIES>,
    pud_cwc: SetAssocCache<PUD_CWC_ENTRIES>,
    walks: u64,
    total_cycles: u64,
    total_accesses: u64,
    cwt_walks: u64,
}

impl EcptWalker {
    /// Builds the walker with Table III's CWC geometry and latencies.
    pub fn paper_default() -> EcptWalker {
        EcptWalker {
            pmd_cwc: SetAssocCache::fully_associative(),
            pud_cwc: SetAssocCache::fully_associative(),
            walks: 0,
            total_cycles: 0,
            total_accesses: 0,
            cwt_walks: 0,
        }
    }

    /// Performs one timed walk for `va` over any hashed page table: the
    /// reference walk, which probes the tables' way slots and returns the
    /// translation they hold. It also charges its accesses to `mem`.
    pub fn walk<T: HptView>(
        &mut self,
        ecpt: &T,
        va: VirtAddr,
        mem: &mut MemoryModel,
    ) -> HptWalkResult {
        let (cycles, sizes, mut accesses) = self.cwc_step(ecpt, va);
        // The masks come from the live CWTs, so `sizes` holds every page
        // size mapped at `va` (exactly with warm CWCs, a superset on a
        // miss). The largest size that hit is therefore the ground-truth
        // translation; sizes ascend, so the last hit wins.
        let mut translation = None;
        for ps in PAGE_SIZES {
            if sizes & size_bit(ps) != 0 {
                let (hit, reads) = ecpt.probe(ps, va.vpn(ps));
                accesses += reads;
                if let Some(ppn) = hit {
                    translation = Some((ppn, ps));
                }
            }
        }
        debug_assert_eq!(translation, ecpt.translate(va));
        mem.charge(accesses);
        HptWalkResult {
            translation,
            cycles: self.charge(cycles, accesses),
            memory_accesses: accesses,
        }
    }

    /// Performs one timed walk for `va`, mapped or faulting, and returns
    /// only its cycles and memory accesses, with the same effect on the
    /// walker as [`EcptWalker::walk`].
    ///
    /// Every access costs the same latency, so the walk's timing depends
    /// only on the CWC state, the CWT masks and each probed table's
    /// [`HptView::probe_width`]: this walk neither hashes nor reads way
    /// slots. Builds with debug assertions also run the reference walk on
    /// a copy of the walker and assert that both walks agree.
    pub fn time_walk<T: HptView>(&mut self, ecpt: &T, va: VirtAddr) -> (u64, u32) {
        #[cfg(debug_assertions)]
        let reference = {
            let mut walker = self.clone();
            let r = walker.walk(ecpt, va, &mut MemoryModel::paper_default());
            (walker, r)
        };
        let (cycles, sizes, mut accesses) = self.cwc_step(ecpt, va);
        for ps in PAGE_SIZES {
            if sizes & size_bit(ps) != 0 {
                accesses += ecpt.probe_width(ps);
            }
        }
        let cycles = self.charge(cycles, accesses);
        #[cfg(debug_assertions)]
        {
            let (walker, r) = reference;
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

    /// The CWC lookup every walk starts with: counts the walk, probes both
    /// CWCs, reads the CWT masks and fills the CWCs that missed. Returns
    /// the cycles spent before the memory accesses, the page sizes to
    /// probe (bit 0 = 4KB) and how many CWT entries the walk fetches.
    #[inline]
    fn cwc_step<T: HptView>(&mut self, ecpt: &T, va: VirtAddr) -> (u64, u8, u32) {
        self.walks += 1;
        let pud_key = va.0 >> 30;
        let pmd_key = va.0 >> 21;
        // One parallel probe of both CWCs, overlapped with hashing (and
        // with the L2P access in ME-HPT, Section V-D).
        let cycles = CWC_LATENCY.max(HASH_LATENCY);

        let pud_cached = self.pud_cwc.contains(pud_key);
        let pmd_cached = self.pmd_cwc.contains(pmd_key);
        // Which page sizes to probe. With warm CWCs the masks are known
        // exactly; on a CWC miss the walker does NOT serialize behind the
        // in-memory CWT — per Figure 7 it generates all potential accesses
        // up front, fetching the missing CWT entries *in parallel* with
        // speculative probes of every page size the coarser knowledge
        // allows. Latency stays one memory round trip; the price is extra
        // (parallel) probes, which is why the CWCs exist at all. Only the
        // masks a hit uses are read.
        let pud_mask = || ecpt.pud_mask(va).unwrap_or(0);
        let sizes = match (pud_cached, pmd_cached) {
            (true, true) => (ecpt.pmd_mask(va).unwrap_or(0) & 0b011) | (pud_mask() & 0b100),
            (true, false) => pud_mask(), // refine small sizes speculatively
            (false, _) => 0b111,         // probe everything
        };
        let mut cwt_fetches = 0;
        if !pud_cached {
            cwt_fetches += 1;
            self.pud_cwc.fill(pud_key);
        }
        if !pmd_cached {
            cwt_fetches += 1;
            self.pmd_cwc.fill(pmd_key);
        }
        self.cwt_walks += u64::from(cwt_fetches);
        (cycles, sizes, cwt_fetches)
    }

    /// Charges a walk's `accesses`, issued in parallel after `cycles` of
    /// CWC lookup, to the walker's totals; returns the walk's cycles.
    fn charge(&mut self, cycles: u64, accesses: u32) -> u64 {
        let cycles = cycles + MemoryModel::round_trip(accesses);
        self.total_cycles += cycles;
        self.total_accesses += u64::from(accesses);
        cycles
    }

    /// Drops cached CWC state for the regions containing `va`; the OS calls
    /// this when a map/unmap changes the region's page-size mask.
    pub fn invalidate_region(&mut self, va: VirtAddr) {
        self.pud_cwc.invalidate(va.0 >> 30);
        self.pmd_cwc.invalidate(va.0 >> 21);
    }

    /// Flushes the CWCs (context switch).
    pub fn flush(&mut self) {
        self.pmd_cwc.flush();
        self.pud_cwc.flush();
    }

    /// Walks performed.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// CWT memory walks performed (CWC misses).
    pub fn cwt_walks(&self) -> u64 {
        self.cwt_walks
    }

    /// Mean walk latency in cycles.
    pub fn mean_cycles(&self) -> f64 {
        if self.walks == 0 {
            return 0.0;
        }
        self.total_cycles as f64 / self.walks as f64
    }

    /// Mean memory accesses per walk.
    pub fn mean_accesses(&self) -> f64 {
        if self.walks == 0 {
            return 0.0;
        }
        self.total_accesses as f64 / self.walks as f64
    }
}
