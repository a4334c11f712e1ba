//! Differential tests of the timing-only walks: on random map sequences,
//! `EcptWalker::time_walk` and `RadixWalker::time_walk` must charge exactly
//! what the reference `walk` charges and leave the walkers' counters where
//! `walk` leaves them, for walks to mapped pages and walks that fault. The
//! hashed tables run ECPT and ME-HPT under each of the lab's five variants,
//! through upsizes and mid-resize states (in place and out of place,
//! all-way and per-way), and fault in 2MB regions whose 4KB pages warm the
//! CWCs; the radix trees have 4 and 5 levels, map 4KB and 2MB pages, and
//! fault at every path depth. They assert with `assert_eq!`, so they hold
//! in release builds too, where the walkers' own debug cross-check is
//! compiled out.

use mehpt::ecpt::{Backing, EcptWalker, Hpt, HptView};
use mehpt::lab::Variant;
use mehpt::mem::{AllocCostModel, PhysMem};
use mehpt::radix::{RadixPageTable, RadixWalker};
use mehpt::tlb::MemoryModel;
use mehpt::types::proptest_lite::{check, Gen};
use mehpt::types::{PageSize, Ppn, VirtAddr, GIB, PAGE_SIZES};

fn mem() -> PhysMem {
    PhysMem::with_cost_model(4 * GIB, AllocCostModel::zero_cost())
}

/// A random page in 8GB of address space: 2MB one time in eight, else 4KB.
fn random_page(g: &mut Gen) -> (VirtAddr, PageSize) {
    let ps = if g.below(8) == 0 {
        PageSize::Huge2M
    } else {
        PageSize::Base4K
    };
    (VirtAddr::new(g.below(8 * GIB)).page_base(ps), ps)
}

/// A walker that takes reference walks, with its memory model, and one
/// that takes timing walks.
struct HptPair {
    reference: (EcptWalker, MemoryModel),
    timed: EcptWalker,
}

impl HptPair {
    fn new() -> HptPair {
        HptPair {
            reference: (EcptWalker::paper_default(), MemoryModel::paper_default()),
            timed: EcptWalker::paper_default(),
        }
    }

    /// Walks `va` both ways; returns the reference walk's translation.
    fn walk<T: HptView>(&mut self, t: &T, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        let (rw, rm) = &mut self.reference;
        let tw = &mut self.timed;
        let r = rw.walk(t, va, rm);
        assert_eq!(tw.time_walk(t, va), (r.cycles, r.memory_accesses), "{va:?}");
        assert_eq!((tw.walks(), tw.cwt_walks()), (rw.walks(), rw.cwt_walks()));
        assert_eq!(tw.mean_cycles(), rw.mean_cycles());
        assert_eq!(tw.mean_accesses(), rw.mean_accesses());
        r.translation
    }

    fn flush(&mut self) {
        self.reference.0.flush();
        self.timed.flush();
    }
}

fn resizing<B: Backing>(hpt: &Hpt<B>) -> bool {
    PAGE_SIZES
        .iter()
        .filter_map(|&ps| hpt.table(ps))
        .any(|t| t.is_resizing())
}

/// Maps a random sequence of pages into `hpt`; after every map, walks the
/// new page, an earlier one, an unmapped 4KB page in the earlier page's 2MB
/// region (its CWC entries are warm) and a (mostly unmapped) random address
/// both ways. Returns how many maps left a table mid-resize.
fn hpt_trace<B: Backing>(g: &mut Gen, mut hpt: Hpt<B>, m: &mut PhysMem) -> u32 {
    let mut pair = HptPair::new();
    let mut mapped = Vec::new();
    let (mut mid_resize, mut warm_faults, mut faults) = (0, 0, 0);
    for i in 0..1500 {
        let (va, ps) = random_page(g);
        hpt.map(va.vpn(ps), ps, Ppn(i), m).unwrap();
        mapped.push(va);
        mid_resize += u32::from(resizing(&hpt));
        let earlier = mapped[g.index(mapped.len())];
        pair.walk(&hpt, va + g.below(4096));
        pair.walk(&hpt, earlier + g.below(4096));
        let near = earlier.page_base(PageSize::Huge2M) + g.below(2 << 20);
        if hpt.translate(near).is_none() {
            assert_eq!(pair.walk(&hpt, near), None, "{near:?}");
            warm_faults += 1;
        }
        faults += u32::from(pair.walk(&hpt, VirtAddr::new(g.below(16 * GIB))).is_none());
        if g.below(64) == 0 {
            pair.flush();
        }
    }
    assert!(warm_faults > 100 && faults > 100, "{warm_faults} {faults}");
    hpt.destroy(m);
    mid_resize
}

#[test]
fn ecpt_time_walk_matches_walk() {
    check("ecpt_time_walk_matches_walk", 3, |g: &mut Gen| {
        let mut m = mem();
        let hpt = mehpt::ecpt::Ecpt::new(&mut m).unwrap();
        assert!(
            hpt_trace(g, hpt, &mut m) > 0,
            "no map left a resize in flight"
        );
    });
}

#[test]
fn mehpt_time_walk_matches_walk_in_every_variant() {
    for variant in [
        Variant::Full,
        Variant::NoInPlace,
        Variant::NoPerWay,
        Variant::Neither,
        Variant::Fixed1Mb,
    ] {
        check(variant.tag(), 2, |g: &mut Gen| {
            let mut m = mem();
            let hpt = mehpt::core::MeHpt::with_config(variant.config(), &mut m).unwrap();
            let mid_resize = hpt_trace(g, hpt, &mut m);
            assert!(mid_resize > 0, "{}: no resize in flight", variant.tag());
        });
    }
}

/// How many entries a walk of `va` reads: a cold walk's memory accesses.
fn path_depth(pt: &RadixPageTable, va: VirtAddr) -> usize {
    let mut cold = RadixWalker::paper_default();
    cold.walk(pt, va, &mut MemoryModel::paper_default())
        .memory_accesses as usize
}

/// An unmapped address whose walk reads `depth` entries: `base` with its
/// index at level `depth - 1` (0 is the root) changed to one whose entry is
/// empty, or `None` if eight random tries find no such index.
fn fault_at_depth(
    g: &mut Gen,
    pt: &RadixPageTable,
    base: VirtAddr,
    depth: usize,
) -> Option<VirtAddr> {
    let shift = 12 + 9 * (pt.levels() - depth);
    (0..8)
        .map(|_| VirtAddr::new(base.0 & !(0x1ff << shift) | g.below(512) << shift | g.below(4096)))
        .find(|&va| pt.translate(va).is_none() && path_depth(pt, va) == depth)
}

/// The radix counterpart of [`HptPair`].
struct RadixPair {
    reference: (RadixWalker, MemoryModel),
    timed: RadixWalker,
}

impl RadixPair {
    /// Walks `va` both ways, the timing walk with the page size `pt` maps
    /// `va` with; returns the reference walk's translation.
    fn walk(&mut self, pt: &RadixPageTable, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        let (rw, rm) = &mut self.reference;
        let tw = &mut self.timed;
        let r = rw.walk(pt, va, rm);
        let ps = r.translation.map(|(_, ps)| ps);
        assert_eq!(ps, pt.translate(va).map(|(_, ps)| ps), "{va:?}");
        let timed = tw.time_walk(pt, va, ps);
        assert_eq!(timed, (r.cycles, r.memory_accesses), "{va:?} {ps:?}");
        assert_eq!(tw.walks(), rw.walks());
        assert_eq!(tw.mean_cycles(), rw.mean_cycles());
        assert_eq!(tw.mean_accesses(), rw.mean_accesses());
        assert_eq!(tw.pwc_hit_counts(), rw.pwc_hit_counts());
        r.translation
    }

    fn flush(&mut self) {
        self.reference.0.flush();
        self.timed.flush();
    }
}

/// Maps random 4KB and 2MB pages into a radix tree of `levels` levels;
/// after every map, walks the new page, an earlier one, a random address
/// and an unmapped address whose walk faults at a random depth both ways.
/// The first walk, on the empty tree, faults at the root.
fn radix_trace(g: &mut Gen, levels: usize) {
    let mut m = mem();
    let mut pt = RadixPageTable::with_levels(levels, &mut m).unwrap();
    let mut pair = RadixPair {
        reference: (RadixWalker::paper_default(), MemoryModel::paper_default()),
        timed: RadixWalker::paper_default(),
    };
    let mut faults_at = vec![0; levels + 1];
    let va = VirtAddr::new(g.below(16 * GIB));
    assert_eq!((pair.walk(&pt, va), path_depth(&pt, va)), (None, 1));
    faults_at[1] += 1;
    let mut mapped = Vec::new();
    for i in 0..600 {
        let (va, ps) = random_page(g);
        // A page inside an earlier page of the other size conflicts.
        if pt.map(va.vpn(ps), ps, Ppn(i), &mut m).is_ok() {
            mapped.push((va, ps));
        }
        if mapped.is_empty() {
            continue;
        }
        let earlier = mapped[g.index(mapped.len())];
        for (va, ps) in [*mapped.last().unwrap(), earlier] {
            let va = va + g.below(ps.bytes());
            assert_eq!(pair.walk(&pt, va).map(|(_, wps)| wps), Some(ps));
        }
        pair.walk(&pt, VirtAddr::new(g.below(16 * GIB)));
        let depth = 1 + g.index(levels);
        if let Some(va) = fault_at_depth(g, &pt, earlier.0, depth) {
            assert_eq!(pair.walk(&pt, va), None);
            faults_at[depth] += 1;
        }
        if g.below(64) == 0 {
            pair.flush();
        }
    }
    assert!(mapped.iter().any(|&(_, ps)| ps == PageSize::Huge2M));
    assert!(faults_at[1..].iter().all(|&n| n > 0), "{faults_at:?}");
    pt.destroy(&mut m);
}

#[test]
fn radix_time_walk_matches_walk_at_4_and_5_levels() {
    check("radix4_time_walk_matches_walk", 4, |g: &mut Gen| {
        radix_trace(g, 4)
    });
    check("radix5_time_walk_matches_walk", 4, |g: &mut Gen| {
        radix_trace(g, 5)
    });
}
