use mehpt_core::MeHpt;
use mehpt_ecpt::{Backing, Ecpt, EcptWalker, Hpt, InsertReport};
use mehpt_mem::{AllocTag, Fragmenter, PhysMem};
use mehpt_radix::{RadixPageTable, RadixWalker};
use mehpt_tlb::TlbHierarchy;
use mehpt_types::hashmap::SplitMixMap;
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, Ppn, VirtAddr, PAGE_SIZES};
use mehpt_workloads::Workload;

use crate::config::{
    BASE_ACCESS_CYCLES, INSERT_CYCLES, KICK_CYCLES, MIGRATE_ENTRY_CYCLES, PAGE_FAULT_CYCLES,
};
use crate::multi::SWITCH_CYCLES;
use crate::os_map::OsMap;
use crate::{l2p_save_restore_cycles, Metrics, MultiConfig, PtKind, SimConfig, SimReport};

/// A process's page table under simulation, with its hardware walker: one
/// variant per design.
enum Pt {
    Radix(RadixPageTable, RadixWalker),
    Ecpt(Ecpt, EcptWalker),
    MeHpt(MeHpt, EcptWalker),
}

impl Pt {
    /// A new process's page table of the design `cfg.kind`: the only place
    /// the simulator maps a [`PtKind`] to a page table.
    fn new(cfg: &SimConfig, mem: &mut PhysMem) -> Pt {
        match cfg.kind {
            PtKind::Radix => Pt::Radix(
                RadixPageTable::new(mem).expect("initial radix root"),
                RadixWalker::paper_default(),
            ),
            PtKind::Ecpt => Pt::Ecpt(
                Ecpt::new(mem).expect("ECPT process state"),
                EcptWalker::paper_default(),
            ),
            PtKind::MeHpt => Pt::MeHpt(
                MeHpt::with_config(cfg.mehpt.clone(), mem).expect("ME-HPT process state"),
                EcptWalker::paper_default(),
            ),
        }
    }

    /// A timed walk for `va`, which the OS maps with a page of size `ps`,
    /// or does not map if `ps` is `None` (the walk faults); returns its
    /// cycles. The walkers' timing walks read no translation, so builds
    /// with debug assertions first check the table's translation against
    /// the OS's mapping, and that a mapped page starts a live data block
    /// of its size in `mem` (a relocated page's new frame).
    fn time_walk(&mut self, va: VirtAddr, ps: Option<PageSize>, mem: &PhysMem) -> u64 {
        if cfg!(debug_assertions) {
            let walked = self.translate(va);
            assert_eq!(
                walked.map(|(_, wps)| wps),
                ps,
                "the walk for {va:?} disagrees with the OS's mapping"
            );
            if let Some((ppn, ps)) = walked {
                let frame = ppn.0 << (ps.shift() - 12);
                assert_eq!(
                    mem.buddy().live_block(frame),
                    Some(((ps.shift() - 12) as u8, AllocTag::Data)),
                    "the walk for {va:?} reaches frame {frame:#x}, which starts no live data block of its size"
                );
            }
        }
        match self {
            Pt::Radix(table, walker) => walker.time_walk(table, va, ps).0,
            Pt::Ecpt(table, walker) => walker.time_walk(table, va).0,
            Pt::MeHpt(table, walker) => walker.time_walk(table, va).0,
        }
    }

    /// Functional translation (no timing).
    fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        match self {
            Pt::Radix(table, _) => table.translate(va),
            Pt::Ecpt(table, _) => table.translate(va),
            Pt::MeHpt(table, _) => table.translate(va),
        }
    }

    /// Maps a page; returns `(kicks, migrated_entries)` for OS costing.
    fn map(
        &mut self,
        va: VirtAddr,
        ps: PageSize,
        ppn: Ppn,
        mem: &mut PhysMem,
    ) -> Result<(u32, u32), String> {
        let report = match self {
            Pt::Radix(table, _) => {
                let mapped = table.map(va.vpn(ps), ps, ppn, mem);
                return mapped.map(|()| (0, 0)).map_err(|e| e.to_string());
            }
            Pt::Ecpt(table, walker) => map_hashed(table, walker, va, ps, ppn, mem)?,
            Pt::MeHpt(table, walker) => map_hashed(table, walker, va, ps, ppn, mem)?,
        };
        Ok((report.kicks, report.migrated))
    }

    /// Rewrites the PPN of an existing mapping (compaction migrated the
    /// data page).
    fn remap(
        &mut self,
        va: VirtAddr,
        ps: PageSize,
        ppn: Ppn,
        mem: &mut PhysMem,
    ) -> Result<(), String> {
        let had_mapping = match self {
            Pt::Radix(table, _) => table.remap(va.vpn(ps), ps, ppn),
            Pt::Ecpt(table, walker) => !map_hashed(table, walker, va, ps, ppn, mem)?.added,
            Pt::MeHpt(table, walker) => !map_hashed(table, walker, va, ps, ppn, mem)?.added,
        };
        debug_assert!(had_mapping, "relocated frame had no mapping");
        Ok(())
    }

    fn flush_walker(&mut self) {
        match self {
            Pt::Radix(_, walker) => walker.flush(),
            Pt::Ecpt(_, walker) | Pt::MeHpt(_, walker) => walker.flush(),
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            Pt::Radix(table, _) => table.memory_bytes(),
            Pt::Ecpt(table, _) => table.memory_bytes(),
            Pt::MeHpt(table, _) => table.memory_bytes(),
        }
    }

    fn l2p_entries(&self) -> u64 {
        match self {
            Pt::MeHpt(table, _) => table.l2p_entries_used() as u64,
            Pt::Radix(..) | Pt::Ecpt(..) => 0,
        }
    }

    /// Fills the walker's and the page table's fields of `m`.
    fn measure(&self, m: &mut Metrics) {
        m.pt_final_bytes = self.bytes();
        m.l2p_entries_used = self.l2p_entries();
        (m.walks, m.mean_walk_accesses, m.mean_walk_cycles) = match self {
            Pt::Radix(_, w) => (w.walks(), w.mean_accesses(), w.mean_cycles()),
            Pt::Ecpt(_, w) | Pt::MeHpt(_, w) => (w.walks(), w.mean_accesses(), w.mean_cycles()),
        };
        match self {
            Pt::Radix(..) => {}
            Pt::Ecpt(table, _) => measure_ways(table, m),
            Pt::MeHpt(table, _) => measure_ways(table, m),
        }
    }
}

/// Maps a page in a hashed page table, or rewrites the PPN of an existing
/// mapping. The walker's CWC entries mirror the CWT; they only need a
/// shootdown when the region's page-size *mask* changes (the first mapping
/// of a size in a region), not on every insert.
fn map_hashed<B: Backing>(
    table: &mut Hpt<B>,
    walker: &mut EcptWalker,
    va: VirtAddr,
    ps: PageSize,
    ppn: Ppn,
    mem: &mut PhysMem,
) -> Result<InsertReport, String> {
    let report = table
        .map(va.vpn(ps), ps, ppn, mem)
        .map_err(|e| e.to_string())?;
    if report.cwt_grew {
        walker.invalidate_region(va);
    }
    Ok(report)
}

/// Fills the per-way fields of `m` from a hashed page table.
fn measure_ways<B: Backing>(table: &Hpt<B>, m: &mut Metrics) {
    if let Some(t4k) = table.table(PageSize::Base4K) {
        m.way_sizes_4k = t4k.way_sizes();
        m.way_phys_4k = t4k.way_phys_bytes();
        m.upsizes_per_way_4k = t4k.stats().upsizes_per_way(3);
        m.moved_fraction_4k = t4k.stats().mean_upsize_moved_fraction();
    }
    if let Some(t2m) = table.table(PageSize::Huge2M) {
        m.upsizes_per_way_2m = t2m.stats().upsizes_per_way(3);
    }
    for t in PAGE_SIZES.iter().filter_map(|&ps| table.table(ps)) {
        merge_hist(&mut m.kicks_histogram, &t.stats().kicks_histogram);
        m.chunk_switches += t.stats().chunk_switches;
    }
}

/// One simulated process: its page table, walker, OS bookkeeping and
/// measurements. The machine ([`run_slices`]) runs one or more of them.
pub(crate) struct ProcState {
    workload: Workload,
    pt: Pt,
    /// The page of each data frame this process maps, keyed by the start
    /// frame of the page's block: the page's base address with its
    /// page-size index in the low bits, which a page-aligned address leaves
    /// zero. Compaction's data-page moves are applied through it.
    ///
    /// It is `None` until the first move this process handles. The page
    /// table already records every frame, so the map is built from it on
    /// demand ([`ProcState::mapped_pages`]) and kept up to date from then
    /// on; runs that never move a data page pay nothing per fault.
    frame_owner: Option<SplitMixMap<u64, u64>>,
    /// Data-page moves drained during this process's steps whose pages
    /// another process maps (processes share [`PhysMem`]), as
    /// `(old_frame, new_frame)` in the order compaction made them. The
    /// machine hands them to their owners at the end of the slice.
    foreign_moves: Vec<(u64, u64)>,
    /// The frame→page map kept eagerly on every fault, as the runner once
    /// did: the oracle the lazy `frame_owner` is checked against.
    #[cfg(test)]
    eager_owner: SplitMixMap<u64, u64>,
    /// What the OS has mapped, in spans of 2MB regions over the VMAs.
    os: OsMap,
    /// One-entry translation micro-cache (mappings are only ever added in
    /// these traces, so entries never go stale; remaps keep the page size).
    last: Option<(u64, PageSize)>,
    /// The measurements so far. Its `pt_peak_bytes` is the page table's
    /// size sampled every 4096 faults; the page table's and walker's own
    /// fields are filled in by [`ProcState::into_report`].
    m: Metrics,
    aborted: Option<String>,
    done: bool,
}

impl ProcState {
    fn new(workload: Workload, cfg: &SimConfig, mem: &mut PhysMem) -> ProcState {
        ProcState {
            pt: Pt::new(cfg, mem),
            os: OsMap::new(workload.regions()),
            workload,
            frame_owner: None,
            foreign_moves: Vec::new(),
            #[cfg(test)]
            eager_owner: SplitMixMap::default(),
            last: None,
            m: Metrics::default(),
            aborted: None,
            done: false,
        }
    }

    /// Ends the process's run with `why`; returns `false`, as a [`step`]
    /// that ends the run does.
    ///
    /// [`step`]: ProcState::step
    fn abort(&mut self, why: String) -> bool {
        self.aborted = Some(why);
        self.done = true;
        false
    }

    /// Every page the OS has mapped: its base address, its size and the
    /// start frame of its physical block, as the page table translates it.
    pub(crate) fn mapped_pages(&self) -> impl Iterator<Item = (VirtAddr, PageSize, u64)> + '_ {
        self.os.pages().map(|(va, ps)| {
            let (ppn, tps) = self
                .pt
                .translate(va)
                .expect("the page table maps every page the OS maps");
            debug_assert_eq!(tps, ps, "{va:?} is mapped with another page size");
            (va, ps, ppn.0 << (ps.shift() - 12))
        })
    }

    /// Applies compaction's move of a data page from `old_frame` to
    /// `new_frame` if this process maps the page: rewrites its translation
    /// and, given the TLB of the running process, shoots down its entry.
    /// Returns whether the page is this process's. A failed remap aborts
    /// the process.
    fn apply_move(
        &mut self,
        old_frame: u64,
        new_frame: u64,
        mem: &mut PhysMem,
        tlb: Option<&mut TlbHierarchy>,
    ) -> bool {
        #[cfg(test)]
        if let Some(owner) = self.eager_owner.remove(&old_frame) {
            self.eager_owner.insert(new_frame, owner);
        }
        if self.frame_owner.is_none() {
            let mut owners = SplitMixMap::default();
            owners.reserve((self.m.pages_4k + self.m.pages_2m) as usize);
            owners.extend(
                self.mapped_pages()
                    .map(|(va, ps, frame)| (frame, va.0 | ps.index() as u64)),
            );
            self.frame_owner = Some(owners);
        }
        let owners = self.frame_owner.as_mut().expect("built above");
        let Some(owner) = owners.remove(&old_frame) else {
            return false;
        };
        owners.insert(new_frame, owner);
        let (va, ps) = (
            VirtAddr::new(owner & !0xfff),
            PageSize::from_index((owner & 0xfff) as usize),
        );
        let new_ppn = Ppn(new_frame >> (ps.shift() - 12));
        match self.pt.remap(va, ps, new_ppn, mem) {
            Ok(()) => {
                if let Some(tlb) = tlb {
                    tlb.invalidate(va.vpn(ps), ps);
                }
            }
            Err(e) => {
                self.abort(format!("page-table remap failed: {e}"));
            }
        }
        true
    }

    /// Simulates one memory access. Returns `false` when the trace is
    /// exhausted, the process has made `cfg.max_accesses` accesses, or the
    /// run aborted.
    pub(crate) fn step(
        &mut self,
        cfg: &SimConfig,
        mem: &mut PhysMem,
        tlb: &mut TlbHierarchy,
    ) -> bool {
        if self.m.accesses >= cfg.max_accesses.unwrap_or(u64::MAX) {
            self.done = true;
        }
        if self.done {
            return false;
        }
        let Some(va) = self.workload.next() else {
            self.done = true;
            return false;
        };
        let m = &mut self.m;
        m.accesses += 1;
        m.total_cycles += BASE_ACCESS_CYCLES;
        m.base_cycles += BASE_ACCESS_CYCLES;

        let page4k = va.0 >> 12;
        let mapped = match self.last {
            Some((p, ps)) if p == page4k => Some(ps),
            _ => self.os.lookup(va),
        };
        if let Some(ps) = mapped {
            self.last = Some((page4k, ps));
            let out = tlb.lookup(va, ps);
            m.translation_cycles += out.cycles();
            m.total_cycles += out.cycles();
            if out.is_miss() {
                let wc = self.pt.time_walk(va, Some(ps), mem);
                m.translation_cycles += wc;
                m.total_cycles += wc;
                tlb.fill(va.vpn(ps), ps);
            }
            return true;
        }

        // ---- page fault ----
        let regions = self.workload.regions();
        let Some(thp_eligible) = regions
            .iter()
            .find(|r| r.contains(va))
            .map(|r| r.thp_eligible)
        else {
            return self.abort(format!("access to {va} lies outside every region"));
        };
        m.faults += 1;
        let out = tlb.lookup(va, PageSize::Base4K);
        let wc = self.pt.time_walk(va, None, mem); // the walk that faults
        m.translation_cycles += out.cycles() + wc;
        m.total_cycles += out.cycles() + wc;
        m.total_cycles += PAGE_FAULT_CYCLES;
        m.fault_cycles += PAGE_FAULT_CYCLES;

        let alloc_before = mem.stats().total_alloc_cycles();
        let mut data = None;
        if cfg.thp && thp_eligible && !self.os.huge_blocked(va) {
            data = mem.alloc(PageSize::Huge2M.bytes(), AllocTag::Data).ok();
            if data.is_none() {
                // Fall back to 4KB for this region permanently, like a
                // failed khugepaged attempt.
                self.os.note_huge_failed(va);
            }
        }
        let (ps, chunk) = match data {
            Some(chunk) => (PageSize::Huge2M, chunk),
            None => match mem.alloc(PageSize::Base4K.bytes(), AllocTag::Data) {
                Ok(chunk) => (PageSize::Base4K, chunk),
                Err(e) => return self.abort(format!("data allocation failed: {e}")),
            },
        };
        let ppn = Ppn(chunk.base().0 >> ps.shift());
        match self.pt.map(va, ps, ppn, mem) {
            Ok((kicks, migrated)) => {
                let os = INSERT_CYCLES
                    + kicks as u64 * KICK_CYCLES
                    + migrated as u64 * MIGRATE_ENTRY_CYCLES;
                self.m.os_pt_cycles += os;
                self.m.total_cycles += os;
            }
            // The paper's ECPT failure mode: a contiguous way could not be
            // allocated; the run cannot finish.
            Err(e) => return self.abort(format!("page-table insertion failed: {e}")),
        }
        match ps {
            PageSize::Base4K => self.m.pages_4k += 1,
            PageSize::Huge2M => self.m.pages_2m += 1,
            PageSize::Giant1G => {}
        }
        self.os.insert(va, ps);
        let frame = ppn.0 << (ps.shift() - 12);
        let owner = va.page_base(ps).0 | ps.index() as u64;
        if let Some(owners) = &mut self.frame_owner {
            owners.insert(frame, owner);
        }
        #[cfg(test)]
        self.eager_owner.insert(frame, owner);
        // Compaction (triggered by this fault's data or page-table
        // allocations) may have migrated data pages: rewrite their
        // translations and shoot down stale TLB entries. Pages of other
        // processes sharing the memory wait in `foreign_moves`. The cycle
        // cost of the moves is part of the calibrated allocation cost.
        for (old_frame, new_frame, tag) in mem.take_relocations() {
            if tag != AllocTag::Data {
                continue;
            }
            if !self.apply_move(old_frame, new_frame, mem, Some(&mut *tlb)) {
                self.foreign_moves.push((old_frame, new_frame));
            }
            if self.done {
                return false;
            }
        }
        tlb.fill(va.vpn(ps), ps);
        self.last = Some((page4k, ps));
        let m = &mut self.m;
        let alloc = mem.stats().total_alloc_cycles() - alloc_before;
        m.alloc_cycles += alloc;
        m.total_cycles += alloc;
        if m.faults.is_multiple_of(4096) {
            m.pt_peak_bytes = m.pt_peak_bytes.max(self.pt.bytes());
        }
        true
    }

    /// Assembles the process's report. Its `pt_peak_bytes` is the larger
    /// of the page-table sizes sampled every 4096 faults and at the end,
    /// and its `tlb_miss_rate` is 0: a shared TLB's misses belong to no
    /// one process. [`Simulator::run`] fills in the miss rate and raises
    /// the peak to the allocator's page-table high-water mark.
    pub(crate) fn into_report(self, cfg: &SimConfig, mem: &PhysMem) -> SimReport {
        let mut m = self.m;
        self.pt.measure(&mut m);
        m.pt_peak_bytes = m.pt_peak_bytes.max(m.pt_final_bytes);
        m.pt_max_contiguous = mem.stats().tag(AllocTag::PageTable).max_contiguous_bytes;
        m.data_bytes_nominal = self.workload.nominal_data_bytes();
        SimReport {
            app: self.workload.name().to_string(),
            kind: cfg.kind,
            thp: cfg.thp,
            aborted: self.aborted,
            metrics: m,
        }
    }
}

/// The simulated machine after its last slice: the processes it ran, the
/// physical memory they shared, and the TLB they shared.
pub(crate) struct Machine {
    pub(crate) procs: Vec<ProcState>,
    pub(crate) mem: PhysMem,
    pub(crate) tlb: TlbHierarchy,
    pub(crate) switches: u64,
    pub(crate) switch_cycles: u64,
    /// Data-page moves handed from the running process to the owner.
    #[cfg(test)]
    pub(crate) moves_handed_over: u64,
}

/// Runs the workloads as the processes of one machine: physical memory of
/// `cfg.base.mem_bytes` fragmented to `cfg.base.fragmentation`, one core
/// and one TLB, each process with its own page table of `cfg.base.kind`.
/// Processes run round-robin, `cfg.time_slice` accesses at a time, until
/// every one finishes.
///
/// Every switch in, the first included, flushes the TLB and the incoming
/// process's walker caches and costs `SWITCH_CYCLES` plus
/// [`l2p_save_restore_cycles`] of the process's live L2P entries. Data
/// pages that compaction moves during one process's slice but another
/// process maps are rewritten in the owner's page table at the end of the
/// slice.
pub(crate) fn run_slices(workloads: Vec<Workload>, cfg: &MultiConfig) -> Machine {
    assert!(!workloads.is_empty(), "need at least one workload");
    let base = &cfg.base;
    let mut mem = PhysMem::new(base.mem_bytes);
    let mut rng = Xoshiro256::seed_from_u64(base.seed);
    Fragmenter::fragment(&mut mem, base.fragmentation, &mut rng);
    let mut tlb = TlbHierarchy::paper_default();
    let mut procs: Vec<ProcState> = workloads
        .into_iter()
        .map(|wl| ProcState::new(wl, base, &mut mem))
        .collect();
    let lone = procs.len() == 1;
    let (mut switches, mut switch_cycles) = (0, 0);
    #[cfg(test)]
    let mut moves_handed_over = 0;
    while procs.iter().any(|p| !p.done) {
        for i in 0..procs.len() {
            let proc = &mut procs[i];
            if proc.done {
                continue;
            }
            tlb.flush();
            proc.pt.flush_walker();
            switches += 1;
            switch_cycles += SWITCH_CYCLES + l2p_save_restore_cycles(proc.pt.l2p_entries());
            for _ in 0..cfg.time_slice {
                if !proc.step(base, &mut mem, &mut tlb) {
                    break;
                }
            }
            let mut moves = std::mem::take(&mut proc.foreign_moves);
            debug_assert!(
                !lone || moves.is_empty(),
                "a lone process owns every data page"
            );
            #[cfg(test)]
            {
                moves_handed_over += moves.len() as u64;
            }
            // The sleeping owners shoot down no TLB entry: the TLB holds
            // only the running process's entries and is flushed at every
            // switch.
            for (j, other) in procs.iter_mut().enumerate() {
                if j != i && !moves.is_empty() {
                    moves.retain(|&(old, new)| !other.apply_move(old, new, &mut mem, None));
                }
            }
        }
    }
    Machine {
        procs,
        mem,
        tlb,
        switches,
        switch_cycles,
        #[cfg(test)]
        moves_handed_over,
    }
}

/// The trace-driven simulator. See the crate docs for the model.
#[derive(Debug)]
pub struct Simulator;

impl Simulator {
    /// Runs `workload` to completion (or `cfg.max_accesses`) under `cfg`
    /// and returns the measurements: the machine of
    /// [`run_multi`](crate::run_multi) with one process and an unbounded
    /// time slice.
    ///
    /// # Panics
    ///
    /// Panics if even the initial page table cannot be allocated (the
    /// configured memory is impossibly small).
    pub fn run(workload: Workload, cfg: SimConfig) -> SimReport {
        let cfg = MultiConfig {
            base: cfg,
            time_slice: u64::MAX,
        };
        let Machine {
            procs, mem, tlb, ..
        } = run_slices(vec![workload], &cfg);
        let proc = procs.into_iter().next().expect("one process");
        let mut report = proc.into_report(&cfg.base, &mem);
        let m = &mut report.metrics;
        m.tlb_miss_rate = tlb.l2_stats().misses as f64 / m.accesses.max(1) as f64;
        m.pt_peak_bytes = m
            .pt_peak_bytes
            .max(mem.stats().tag(AllocTag::PageTable).peak_bytes);
        report
    }
}

fn merge_hist(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (dst, &src) in into.iter_mut().zip(from) {
        *dst += src;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_multi;
    use mehpt_workloads::{App, FileTrace, Region, WorkloadCfg};

    const KINDS: [PtKind; 3] = [PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt];

    fn tiny(app: App) -> Workload {
        scaled(app, 0.002)
    }

    fn scaled(app: App, scale: f64) -> Workload {
        app.build(&WorkloadCfg {
            scale,
            ..WorkloadCfg::default()
        })
    }

    fn run(app: App, kind: PtKind, thp: bool) -> SimReport {
        let mut cfg = SimConfig::paper(kind, thp);
        cfg.mem_bytes = 2 * mehpt_types::GIB;
        Simulator::run(tiny(app), cfg)
    }

    #[test]
    fn all_kinds_complete_a_small_run() {
        for kind in KINDS {
            let r = run(App::Mummer, kind, false);
            assert!(r.aborted.is_none(), "{kind:?}: {:?}", r.aborted);
            let r = r.metrics;
            assert!(r.accesses > 0);
            assert!(r.total_cycles > r.accesses);
            assert!(r.faults > 0);
            assert_eq!(r.pages_2m, 0, "no THP requested");
        }
    }

    #[test]
    fn thp_maps_huge_pages_for_eligible_regions() {
        let r = run(App::Gups, PtKind::MeHpt, true).metrics;
        assert!(r.pages_2m > 0, "GUPS under THP must use huge pages");
        let r2 = run(App::Bfs, PtKind::MeHpt, true).metrics;
        assert_eq!(r2.pages_2m, 0, "graph regions are not THP-eligible");
    }

    #[test]
    fn hpt_walks_use_fewer_cycles_than_radix_at_scale() {
        // Needs a footprint that overflows the radix page-walk caches; at
        // toy scale radix's PWC covers everything and wins.
        let run_at = |kind| {
            let mut cfg = SimConfig::paper(kind, false);
            cfg.mem_bytes = 4 * mehpt_types::GIB;
            Simulator::run(scaled(App::Gups, 0.05), cfg).metrics
        };
        let radix = run_at(PtKind::Radix);
        let mehpt = run_at(PtKind::MeHpt);
        assert!(
            mehpt.mean_walk_cycles < radix.mean_walk_cycles,
            "HPT {} vs radix {}",
            mehpt.mean_walk_cycles,
            radix.mean_walk_cycles
        );
        assert!(radix.mean_walk_accesses > 1.5, "radix must chain accesses");
    }

    #[test]
    fn mehpt_contiguity_below_ecpt() {
        let ecpt = run(App::Gups, PtKind::Ecpt, false).metrics;
        let mehpt = run(App::Gups, PtKind::MeHpt, false).metrics;
        assert!(
            mehpt.pt_max_contiguous < ecpt.pt_max_contiguous,
            "ME-HPT {} vs ECPT {}",
            mehpt.pt_max_contiguous,
            ecpt.pt_max_contiguous
        );
    }

    #[test]
    fn mehpt_peak_memory_below_ecpt() {
        let ecpt = run(App::Bfs, PtKind::Ecpt, false).metrics;
        let mehpt = run(App::Bfs, PtKind::MeHpt, false).metrics;
        assert!(
            (mehpt.pt_peak_bytes as f64) < 0.95 * ecpt.pt_peak_bytes as f64,
            "ME-HPT {} vs ECPT {}",
            mehpt.pt_peak_bytes,
            ecpt.pt_peak_bytes
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let a = run(App::Pr, PtKind::MeHpt, false).metrics;
        let b = run(App::Pr, PtKind::MeHpt, false).metrics;
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.way_sizes_4k, b.way_sizes_4k);
    }

    #[test]
    fn max_accesses_caps_the_run() {
        let mut cfg = SimConfig::paper(PtKind::Radix, false);
        cfg.mem_bytes = mehpt_types::GIB;
        cfg.max_accesses = Some(1000);
        let r = Simulator::run(tiny(App::Bfs), cfg);
        assert_eq!(r.metrics.accesses, 1000);
    }

    #[test]
    fn ecpt_aborts_on_hostile_fragmentation() {
        // Small memory + high fragmentation: the ECPT way doubling cannot
        // find contiguous space, so the run aborts — the paper's FMFI>0.7
        // observation.
        let run_frag = |kind| {
            let mut cfg = SimConfig::paper(kind, false);
            cfg.mem_bytes = 2 * mehpt_types::GIB;
            cfg.fragmentation = 0.99;
            Simulator::run(scaled(App::Gups, 0.1), cfg)
        };
        let ecpt = run_frag(PtKind::Ecpt);
        assert!(
            ecpt.aborted.is_some(),
            "ECPT must abort: {:?}",
            ecpt.aborted
        );
        // ME-HPT survives the same conditions on its small chunks.
        let mehpt = run_frag(PtKind::MeHpt);
        assert!(
            mehpt.aborted.is_none(),
            "ME-HPT must survive: {:?}",
            mehpt.aborted
        );
    }

    /// The translation a reference walk of `va` finds.
    fn reference_walk(pt: &mut Pt, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        let mut dram = mehpt_tlb::MemoryModel::paper_default();
        match pt {
            Pt::Radix(table, walker) => walker.walk(table, va, &mut dram).translation,
            Pt::Ecpt(table, walker) => walker.walk(table, va, &mut dram).translation,
            Pt::MeHpt(table, walker) => walker.walk(table, va, &mut dram).translation,
        }
    }

    /// Runs `workload` under THP with the TLB flushed before every access,
    /// so every access to a mapped page walks (2MB pages too) and the
    /// step's debug checks compare each walk with the OS's map. Then walks
    /// every page the OS mapped and checks the translation's page size.
    /// Returns the 4KB and 2MB pages mapped.
    fn walk_every_access(workload: Workload, kind: PtKind) -> (u64, u64) {
        let mut cfg = SimConfig::paper(kind, true);
        cfg.mem_bytes = 2 * mehpt_types::GIB;
        let mut mem = PhysMem::new(cfg.mem_bytes);
        let mut tlb = TlbHierarchy::paper_default();
        let mut proc = ProcState::new(workload, &cfg, &mut mem);
        for _ in 0..100_000 {
            tlb.flush();
            if !proc.step(&cfg, &mut mem, &mut tlb) {
                break;
            }
        }
        assert_eq!(proc.aborted, None, "{kind:?}");
        let c = &proc.m;
        assert!(c.pages_4k > 0 && c.pages_2m > 0, "{kind:?}: mixed sizes");
        assert!(c.accesses > 2 * c.faults, "{kind:?}: mapped pages walk");
        let mut checked = [0; 2];
        for (va, ps) in proc.os.pages() {
            assert_eq!(proc.os.lookup(va), Some(ps), "{kind:?} {va:?}");
            let walked = reference_walk(&mut proc.pt, va);
            assert_eq!(walked.map(|(_, wps)| wps), Some(ps), "{kind:?} {va:?}");
            checked[ps.index()] += 1;
        }
        assert!(checked[0] > 0 && checked[1] > 0, "{kind:?}: {checked:?}");
        (c.pages_4k, c.pages_2m)
    }

    #[test]
    fn walks_return_the_os_mapping() {
        for kind in KINDS {
            walk_every_access(tiny(App::Mummer), kind);
        }
    }

    /// A THP region that starts inside a 2MB region where a non-THP region
    /// already mapped 4KB pages: the OS keeps that 2MB region on 4KB pages
    /// and maps a 2MB page only in the next one.
    #[test]
    fn thp_region_inside_a_4k_mapped_2mb_region_stays_on_4k_pages() {
        let trace = "region heap 0x10000000 0x100000 nothp\n\
                     region table 0x10100000 0x300000 thp\n"
            .to_string()
            + &"0x10000040\n0x10100040\n0x10200040\n".repeat(3);
        let wl = || {
            mehpt_workloads::FileTrace::parse(trace.as_bytes())
                .unwrap()
                .into_workload("mixed")
        };
        for kind in KINDS {
            assert_eq!(walk_every_access(wl(), kind), (2, 1), "{kind:?}");
        }
    }

    /// Steps a two-access trace after the OS map was told that the second
    /// access's page is mapped, which the page table never heard of, and
    /// returns the panic message of that access's walk.
    #[cfg(debug_assertions)]
    fn walk_of_a_page_only_the_os_maps(kind: PtKind) -> String {
        let trace = "region heap 0x10000000 0x100000 nothp\n0x10000040\n0x10001040\n";
        let wl = mehpt_workloads::FileTrace::parse(trace.as_bytes())
            .unwrap()
            .into_workload("stale");
        let mut cfg = SimConfig::paper(kind, false);
        cfg.mem_bytes = mehpt_types::GIB;
        let mut mem = PhysMem::new(cfg.mem_bytes);
        let mut tlb = TlbHierarchy::paper_default();
        let mut proc = ProcState::new(wl, &cfg, &mut mem);
        proc.os.insert(VirtAddr::new(0x1000_1000), PageSize::Base4K);
        assert!(proc.step(&cfg, &mut mem, &mut tlb), "the fault");
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            proc.step(&cfg, &mut mem, &mut tlb)
        }))
        .expect_err("the walk must disagree with the OS's mapping");
        panic.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_walk_that_disagrees_with_the_os_panics_in_debug_builds() {
        for kind in KINDS {
            let msg = walk_of_a_page_only_the_os_maps(kind);
            assert!(msg.contains("disagrees with the OS's mapping"), "{msg}");
        }
    }

    /// Steps a one-access trace after the page table, but not the OS map,
    /// was given the access's page, and returns the panic message of the
    /// walk that faults.
    #[cfg(debug_assertions)]
    fn fault_on_a_page_only_the_table_maps(kind: PtKind) -> String {
        let trace = "region heap 0x10000000 0x100000 nothp\n0x10001040\n";
        let wl = mehpt_workloads::FileTrace::parse(trace.as_bytes())
            .unwrap()
            .into_workload("stale");
        let mut cfg = SimConfig::paper(kind, false);
        cfg.mem_bytes = mehpt_types::GIB;
        let mut mem = PhysMem::new(cfg.mem_bytes);
        let mut tlb = TlbHierarchy::paper_default();
        let mut proc = ProcState::new(wl, &cfg, &mut mem);
        let frame = mem.alloc(PageSize::Base4K.bytes(), AllocTag::Data).unwrap();
        let ppn = Ppn(frame.base().0 >> PageSize::Base4K.shift());
        let va = VirtAddr::new(0x1000_1000);
        proc.pt.map(va, PageSize::Base4K, ppn, &mut mem).unwrap();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            proc.step(&cfg, &mut mem, &mut tlb)
        }))
        .expect_err("the faulting walk must disagree with the OS's mapping");
        panic.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_fault_on_a_page_the_table_maps_panics_in_debug_builds() {
        for kind in KINDS {
            let msg = fault_on_a_page_only_the_table_maps(kind);
            assert!(msg.contains("disagrees with the OS's mapping"), "{msg}");
        }
    }

    #[test]
    fn an_access_outside_every_region_aborts_the_run() {
        let region = Region {
            name: "heap",
            base: VirtAddr::new(0x1000_0000),
            bytes: 0x20_0000,
            thp_eligible: true,
        };
        let accesses = [0x1000_0040, 0x1020_0000, 0x1000_1040].map(VirtAddr::new);
        for kind in KINDS {
            let wl = Workload::from_recorded("stray", vec![region.clone()], accesses.to_vec());
            let mut cfg = SimConfig::paper(kind, true);
            cfg.mem_bytes = mehpt_types::GIB;
            let r = Simulator::run(wl, cfg);
            assert_eq!(
                r.aborted.as_deref(),
                Some("access to 0x10200000 lies outside every region"),
                "{kind:?}"
            );
            assert_eq!((r.metrics.accesses, r.metrics.faults), (2, 1), "{kind:?}");
        }
    }

    /// A trace that declares no region gets one synthesised region from its
    /// lowest to its highest address, and a trace may declare the whole
    /// address space as one region: both replay, with the OS map holding
    /// only the spans of records the accesses touch.
    #[test]
    fn sparse_and_wide_traces_replay() {
        let accesses = [0x1000, 0x7fff_ffff_f000, 0x1040, 0xffff_ffff_f000].map(VirtAddr::new);
        let regionless = FileTrace::from_parts(Vec::new(), accesses[..3].to_vec());
        let everything = Region {
            name: "all",
            base: VirtAddr::new(0),
            bytes: 1 << 48,
            thp_eligible: false,
        };
        let wide = FileTrace::from_parts(vec![everything], accesses.to_vec());
        for (trace, faults) in [(regionless, 2), (wide, 3)] {
            for kind in KINDS {
                let mut cfg = SimConfig::paper(kind, false);
                cfg.mem_bytes = mehpt_types::GIB;
                let mut mem = PhysMem::new(cfg.mem_bytes);
                let mut tlb = TlbHierarchy::paper_default();
                let wl = trace.clone().into_workload("sparse");
                let mut proc = ProcState::new(wl, &cfg, &mut mem);
                while proc.step(&cfg, &mut mem, &mut tlb) {}
                assert_eq!(proc.aborted, None, "{kind:?}");
                assert_eq!(proc.m.faults, faults, "{kind:?}");
                assert_eq!(proc.os.pages().count() as u64, faults, "{kind:?}");
                assert_eq!(proc.os.span_count() as u64, faults, "{kind:?}");
            }
        }
    }

    /// GUPS at scale 0.02 on a 128MB machine at FMFI 0.99: ECPT's way
    /// doublings compact memory and move data pages. After every step
    /// whose compactions moved pages, the lazily built frame→page map must
    /// equal the eager one kept on every fault, and at the end both must
    /// match the page table.
    #[test]
    fn lazy_frame_owner_matches_the_eager_map() {
        let mut cfg = SimConfig::paper(PtKind::Ecpt, false);
        cfg.mem_bytes = 128 * mehpt_types::MIB;
        cfg.fragmentation = 0.99;
        let mut mem = PhysMem::new(cfg.mem_bytes);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        Fragmenter::fragment(&mut mem, cfg.fragmentation, &mut rng);
        let mut tlb = TlbHierarchy::paper_default();
        let wl = scaled(App::Gups, 0.02);
        let mut proc = ProcState::new(wl, &cfg, &mut mem);
        let mut checked = 0;
        loop {
            let moved = mem.stats().compaction_moved_bytes;
            let more = proc.step(&cfg, &mut mem, &mut tlb);
            if mem.stats().compaction_moved_bytes != moved {
                if let Some(lazy) = &proc.frame_owner {
                    assert_eq!(lazy, &proc.eager_owner, "after {} faults", proc.m.faults);
                    checked += 1;
                }
            }
            if !more {
                break;
            }
        }
        assert_eq!(proc.aborted, None);
        assert!(checked > 0, "no data page moved");
        let rebuilt: SplitMixMap<u64, u64> = proc
            .mapped_pages()
            .map(|(va, ps, frame)| (frame, va.0 | ps.index() as u64))
            .collect();
        assert_eq!(proc.frame_owner.as_ref(), Some(&rebuilt));
        assert_eq!(rebuilt, proc.eager_owner);
        assert!(proc.foreign_moves.is_empty());
    }

    /// `Simulator::run` is the machine with one process and an unbounded
    /// slice, so `run_multi` with one such process reports the same
    /// metrics, except the two only `Simulator::run` completes: the TLB
    /// miss rate (a shared TLB's misses belong to no one process) and the
    /// page-table peak, which it raises to the allocator's high-water mark.
    #[test]
    fn a_lone_process_of_run_multi_reports_what_simulator_run_does() {
        for kind in KINDS {
            let mut cfg = SimConfig::paper(kind, true);
            cfg.mem_bytes = 2 * mehpt_types::GIB;
            let alone = Simulator::run(tiny(App::Gups), cfg.clone()).metrics;
            let multi = run_multi(
                vec![tiny(App::Gups)],
                MultiConfig {
                    base: cfg,
                    time_slice: u64::MAX,
                },
            );
            assert_eq!(multi.switches, 1, "{kind:?}");
            let mut m = multi.processes[0].metrics.clone();
            assert_eq!(m.tlb_miss_rate, 0.0, "{kind:?}");
            assert!(alone.tlb_miss_rate > 0.0, "{kind:?}");
            assert!(m.pt_peak_bytes <= alone.pt_peak_bytes, "{kind:?}");
            (m.tlb_miss_rate, m.pt_peak_bytes) = (alone.tlb_miss_rate, alone.pt_peak_bytes);
            assert_eq!(m, alone, "{kind:?}");
        }
    }

    #[test]
    fn cycle_components_sum_to_total() {
        let r = run(App::Tc, PtKind::MeHpt, false).metrics;
        assert_eq!(
            r.base_cycles + r.translation_cycles + r.fault_cycles + r.alloc_cycles + r.os_pt_cycles,
            r.total_cycles
        );
    }
}
