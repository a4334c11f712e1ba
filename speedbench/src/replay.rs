//! The traced per-layer replay.
//!
//! [`replay`] re-runs one cell through the layers' public functions, in
//! the order `ProcState::step` in `crates/sim/src/runner.rs` calls them,
//! and times each call from outside the program. The replay's own
//! bookkeeping (mapped-page sets, region lookup) mirrors the runner's, so
//! its counts must equal the untraced report's; [`Counts`] carries them
//! for that comparison.
//!
//! Timing every call inflates the run, so a span is timed with
//! probability 1/[`SAMPLE_EVERY`], chosen by a private random stream
//! (a fixed stride would alias with the traces' own periodic patterns).
//! Every call is counted.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use mehpt_core::MeHpt;
use mehpt_ecpt::{Ecpt, EcptWalker, HptView};
use mehpt_lab::CellSpec;
use mehpt_mem::{AllocTag, Fragmenter, PhysMem};
use mehpt_radix::{RadixPageTable, RadixWalker};
use mehpt_sim::PtKind;
use mehpt_tlb::{MemoryModel, TlbHierarchy};
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, Ppn, VirtAddr};

/// One span in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Calls of one operation, and the time of the sampled ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Summed duration of the timed calls, timer cost included.
    pub sampled_ns: u64,
}

impl Span {
    /// Mean busy time per call, with the timer's own cost removed.
    pub fn ns_per_call(&self, span_cost_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (self.sampled_ns as f64 / self.sampled as f64 - span_cost_ns).max(0.0)
    }

    /// Estimated busy time of every call, in nanoseconds.
    pub fn busy_ns(&self, span_cost_ns: f64) -> f64 {
        self.calls as f64 * self.ns_per_call(span_cost_ns)
    }
}

/// Index of a page-table kind in the per-kind arrays of [`Trace`].
pub fn kind_index(kind: PtKind) -> usize {
    match kind {
        PtKind::Radix => 0,
        PtKind::Ecpt => 1,
        PtKind::MeHpt => 2,
    }
}

/// What a traced run observed, summed over cells.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `Workload::next`.
    pub next: Span,
    /// `TlbHierarchy::lookup`.
    pub lookup: Span,
    /// `TlbHierarchy::fill`.
    pub fill: Span,
    /// `RadixWalker::walk` / `EcptWalker::walk`, by [`kind_index`].
    pub walk: [Span; 3],
    /// `RadixPageTable::map` / `Ecpt::map` / `MeHpt::map`, by [`kind_index`].
    pub map: [Span; 3],
    /// `PhysMem::alloc` for data pages.
    pub alloc: Span,
    /// `PhysMem::take_relocations`.
    pub relocate: Span,
    /// `PhysMem::new` plus `Fragmenter::fragment`, timed once per cell.
    pub setup: Span,
    /// TLB lookups that missed both levels.
    pub tlb_misses: u64,
    /// Memory-model references of all walks.
    pub mm_refs: u64,
    /// L2 hits and misses of the memory model.
    pub mm_l2: (u64, u64),
    /// L3 hits and misses of the memory model.
    pub mm_l3: (u64, u64),
    /// Memory references of the walks, by [`kind_index`].
    pub walk_refs: [u64; 3],
    /// CWT walks (CWC misses) of the HPT walkers, by [`kind_index`].
    pub cwt_walks: [u64; 3],
    /// Cuckoo re-insertions of the inserts, by [`kind_index`].
    pub kicks: [u64; 3],
    /// Entries migrated by the inserts, by [`kind_index`].
    pub migrated: [u64; 3],
    /// 2MB data allocations attempted, and those that failed.
    pub alloc_2m: (u64, u64),
    /// Frames relocated by compaction.
    pub relocations: u64,
    /// Accesses simulated.
    pub accesses: u64,
}

impl Trace {
    /// Estimated busy time of every traced layer, in nanoseconds.
    pub fn busy_ns(&self, span_cost_ns: f64) -> f64 {
        let spans = [self.next, self.lookup, self.fill, self.alloc, self.relocate];
        let timed: f64 = spans
            .iter()
            .chain(&self.walk)
            .chain(&self.map)
            .map(|s| s.busy_ns(span_cost_ns))
            .sum();
        // Set-up is timed on every cell, so it needs no extrapolation.
        timed + self.setup.sampled_ns as f64 - self.setup.sampled as f64 * span_cost_ns
    }
}

/// Decides which calls are timed, and times them.
#[derive(Clone, Debug)]
pub struct Sampler {
    state: u64,
    /// The timer's own cost, sampled in place: the gap between the end
    /// of a timed call and a clock read right after it.
    pub timer: Span,
}

impl Sampler {
    /// A sampler with a fixed stream, so a replay samples the same calls.
    pub fn new() -> Sampler {
        Sampler {
            state: 0x9e37_79b9_7f4a_7c15,
            timer: Span::default(),
        }
    }

    #[inline]
    fn hit(&mut self) -> bool {
        // xorshift64: cheap, and independent of the traces' own generators.
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.is_multiple_of(SAMPLE_EVERY)
    }

    /// Runs `f` as one call of `span`, timing it if sampled.
    #[inline]
    pub fn time<R>(&mut self, span: &mut Span, f: impl FnOnce() -> R) -> R {
        span.calls += 1;
        if !self.hit() {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let after = Instant::now();
        span.sampled_ns += (end - start).as_nanos() as u64;
        span.sampled += 1;
        self.timer.sampled_ns += (after - end).as_nanos() as u64;
        self.timer.sampled += 1;
        r
    }

    /// The mean cost one timed span adds to its measured duration.
    pub fn span_cost_ns(&self) -> f64 {
        self.timer.ns_per_call(0.0)
    }
}

impl Default for Sampler {
    fn default() -> Sampler {
        Sampler::new()
    }
}

/// The counts a replay must reproduce from the untraced report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Accesses simulated.
    pub accesses: u64,
    /// Page faults taken.
    pub faults: u64,
    /// 4KB pages mapped.
    pub pages_4k: u64,
    /// 2MB pages mapped.
    pub pages_2m: u64,
    /// Page walks.
    pub walks: u64,
}

/// The page table under replay, with its walker.
enum Pt {
    Radix(RadixPageTable, RadixWalker),
    Ecpt(Ecpt, EcptWalker),
    MeHpt(MeHpt, EcptWalker),
}

impl Pt {
    fn new(spec: &CellSpec, mem: &mut PhysMem) -> Pt {
        match spec.kind {
            PtKind::Radix => Pt::Radix(
                RadixPageTable::new(mem).expect("initial radix root"),
                RadixWalker::paper_default(),
            ),
            PtKind::Ecpt => Pt::Ecpt(
                Ecpt::new(mem).expect("ECPT process state"),
                EcptWalker::paper_default(),
            ),
            PtKind::MeHpt => Pt::MeHpt(
                MeHpt::with_config(spec.variant.config(), mem).expect("ME-HPT process state"),
                EcptWalker::paper_default(),
            ),
        }
    }

    fn walk(&mut self, va: VirtAddr, dram: &mut MemoryModel, tr: &mut Trace, s: &mut Sampler) {
        let (k, refs) = match self {
            Pt::Radix(t, w) => (
                0,
                s.time(&mut tr.walk[0], || w.walk(t, va, dram))
                    .memory_accesses,
            ),
            Pt::Ecpt(t, w) => (
                1,
                s.time(&mut tr.walk[1], || w.walk(t, va, dram))
                    .memory_accesses,
            ),
            Pt::MeHpt(t, w) => (
                2,
                s.time(&mut tr.walk[2], || w.walk(t, va, dram))
                    .memory_accesses,
            ),
        };
        tr.walk_refs[k] += refs as u64;
    }

    /// Maps a page as the runner does, invalidating the walker's CWC
    /// entries when the region's page-size masks change.
    fn map(
        &mut self,
        va: VirtAddr,
        ps: PageSize,
        ppn: Ppn,
        mem: &mut PhysMem,
        tr: &mut Trace,
        s: &mut Sampler,
    ) -> Result<(), String> {
        let vpn = va.vpn(ps);
        fn hpt<T: HptView>(
            t: &mut T,
            w: &mut EcptWalker,
            va: VirtAddr,
            map: impl FnOnce(&mut T) -> Result<(u32, u32), String>,
        ) -> Result<(u32, u32), String> {
            let masks = (t.pud_mask(va), t.pmd_mask(va));
            let r = map(t)?;
            if masks != (t.pud_mask(va), t.pmd_mask(va)) {
                w.invalidate_region(va);
            }
            Ok(r)
        }
        let (k, (kicks, migrated)) = match self {
            Pt::Radix(t, _) => {
                let span = &mut tr.map[0];
                s.time(span, || t.map(vpn, ps, ppn, mem))
                    .map_err(|e| e.to_string())?;
                (0, (0, 0))
            }
            Pt::Ecpt(t, w) => {
                let span = &mut tr.map[1];
                let r = hpt(t, w, va, |t| {
                    let r = s.time(span, || t.map(vpn, ps, ppn, mem));
                    r.map(|r| (r.kicks, r.migrated)).map_err(|e| e.to_string())
                })?;
                (1, r)
            }
            Pt::MeHpt(t, w) => {
                let span = &mut tr.map[2];
                let r = hpt(t, w, va, |t| {
                    let r = s.time(span, || t.map(vpn, ps, ppn, mem));
                    r.map(|r| (r.kicks, r.migrated)).map_err(|e| e.to_string())
                })?;
                (2, r)
            }
        };
        tr.kicks[k] += kicks as u64;
        tr.migrated[k] += migrated as u64;
        Ok(())
    }

    /// Rewrites a relocated page's frame (untimed, like the runner's).
    fn remap(&mut self, va: VirtAddr, ps: PageSize, ppn: Ppn, mem: &mut PhysMem) {
        let vpn = va.vpn(ps);
        match self {
            Pt::Radix(t, _) => {
                t.remap(vpn, ps, ppn);
            }
            Pt::Ecpt(t, _) => {
                let _ = t.map(vpn, ps, ppn, mem);
            }
            Pt::MeHpt(t, _) => {
                let _ = t.map(vpn, ps, ppn, mem);
            }
        }
    }

    fn finish(&self, tr: &mut Trace) -> u64 {
        match self {
            Pt::Radix(_, w) => w.walks(),
            Pt::Ecpt(_, w) => {
                tr.cwt_walks[1] += w.cwt_walks();
                w.walks()
            }
            Pt::MeHpt(_, w) => {
                tr.cwt_walks[2] += w.cwt_walks();
                w.walks()
            }
        }
    }
}

/// Replays one cell through the layers, adding its spans and counts to
/// `tr`, and returns the counts to compare with the untraced report.
pub fn replay(spec: &CellSpec, tr: &mut Trace, s: &mut Sampler) -> Counts {
    let cfg = spec.sim_config();
    let mut workload = spec.workload();

    let start = Instant::now();
    let mut mem = PhysMem::new(cfg.mem_bytes);
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    let _ballast = Fragmenter::fragment(&mut mem, cfg.fragmentation, &mut rng);
    tr.setup.sampled_ns += start.elapsed().as_nanos() as u64;
    tr.setup.sampled += 1;
    tr.setup.calls += 1;

    let mut tlb = TlbHierarchy::paper_default();
    let mut dram = MemoryModel::paper_default();
    let mut pt = Pt::new(spec, &mut mem);
    let regions = workload.regions().to_vec();
    let mut huge_failed: HashSet<u64> = HashSet::new();
    let mut frame_owner: HashMap<u64, (VirtAddr, PageSize)> = HashMap::new();
    let mut mapped_4k: HashSet<u64> = HashSet::new();
    let mut mapped_2m: HashSet<u64> = HashSet::new();
    let mut last: Option<(u64, PageSize)> = None;
    let mut c = Counts::default();
    let limit = cfg.max_accesses.unwrap_or(u64::MAX);

    while c.accesses < limit {
        let Some(va) = s.time(&mut tr.next, || workload.next()) else {
            break;
        };
        c.accesses += 1;
        let page4k = va.0 >> 12;
        let mapped = match last {
            Some((p, ps)) if p == page4k => Some(ps),
            _ if mapped_4k.contains(&page4k) => Some(PageSize::Base4K),
            _ if mapped_2m.contains(&(va.0 >> 21)) => Some(PageSize::Huge2M),
            _ => None,
        };
        if let Some(ps) = mapped {
            last = Some((page4k, ps));
            let out = s.time(&mut tr.lookup, || tlb.lookup(va, ps));
            if out.is_miss() {
                tr.tlb_misses += 1;
                pt.walk(va, &mut dram, tr, s);
                s.time(&mut tr.fill, || tlb.fill(va.vpn(ps), ps));
            }
            continue;
        }

        // Page fault: the lookup and walk that fault, then allocation.
        c.faults += 1;
        let out = s.time(&mut tr.lookup, || tlb.lookup(va, PageSize::Base4K));
        if out.is_miss() {
            tr.tlb_misses += 1;
        }
        pt.walk(va, &mut dram, tr, s);
        let thp_ok = cfg.thp
            && regions
                .iter()
                .find(|r| r.contains(va))
                .is_some_and(|r| r.thp_eligible);
        let mut chosen: Option<(PageSize, Ppn)> = None;
        if thp_ok && !huge_failed.contains(&(va.0 >> 21)) {
            tr.alloc_2m.0 += 1;
            match s.time(&mut tr.alloc, || {
                mem.alloc(PageSize::Huge2M.bytes(), AllocTag::Data)
            }) {
                Ok(chunk) => {
                    chosen = Some((
                        PageSize::Huge2M,
                        Ppn(chunk.base().0 >> PageSize::Huge2M.shift()),
                    ))
                }
                Err(_) => {
                    tr.alloc_2m.1 += 1;
                    huge_failed.insert(va.0 >> 21);
                }
            }
        }
        if chosen.is_none() {
            match s.time(&mut tr.alloc, || {
                mem.alloc(PageSize::Base4K.bytes(), AllocTag::Data)
            }) {
                Ok(chunk) => {
                    chosen = Some((
                        PageSize::Base4K,
                        Ppn(chunk.base().0 >> PageSize::Base4K.shift()),
                    ))
                }
                Err(_) => break,
            }
        }
        let (ps, ppn) = chosen.expect("a frame was allocated");
        if pt.map(va, ps, ppn, &mut mem, tr, s).is_err() {
            break;
        }
        match ps {
            PageSize::Base4K => {
                c.pages_4k += 1;
                mapped_4k.insert(page4k);
            }
            PageSize::Huge2M => {
                c.pages_2m += 1;
                mapped_2m.insert(va.0 >> 21);
            }
            PageSize::Giant1G => {}
        }
        frame_owner.insert((ppn.0 << ps.shift()) >> 12, (va.page_base(ps), ps));
        for (old_frame, new_frame, tag) in s.time(&mut tr.relocate, || mem.take_relocations()) {
            tr.relocations += 1;
            if tag != AllocTag::Data {
                continue;
            }
            let Some((page_va, mps)) = frame_owner.remove(&old_frame) else {
                continue;
            };
            pt.remap(page_va, mps, Ppn(new_frame >> (mps.shift() - 12)), &mut mem);
            tlb.invalidate(page_va.vpn(mps), mps);
            frame_owner.insert(new_frame, (page_va, mps));
        }
        s.time(&mut tr.fill, || tlb.fill(va.vpn(ps), ps));
        last = Some((page4k, ps));
    }

    c.walks = pt.finish(tr);
    tr.mm_refs += dram.accesses();
    let (l2, l3) = (dram.l2_stats(), dram.l3_stats());
    tr.mm_l2 = (tr.mm_l2.0 + l2.hits, tr.mm_l2.1 + l2.misses);
    tr.mm_l3 = (tr.mm_l3.0 + l3.hits, tr.mm_l3.1 + l3.misses);
    tr.accesses += c.accesses;
    c
}
