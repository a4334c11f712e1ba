//! Differential tests of the timing-only walks: on random map sequences,
//! `EcptWalker::time_walk` and `RadixWalker::time_walk` must charge exactly
//! what the reference `walk` charges and leave the walkers' counters where
//! `walk` leaves them. The hashed tables run ECPT and ME-HPT under each of
//! the lab's five variants, through upsizes and mid-resize states (in place
//! and out of place, all-way and per-way); the radix trees have 4 and 5
//! levels and map 4KB and 2MB pages. They assert with `assert_eq!`, so they
//! hold in release builds too, where the walkers' own debug cross-check is
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

/// A walker that takes reference walks and one that takes timing walks,
/// each with its own memory model.
struct HptPair {
    reference: (EcptWalker, MemoryModel),
    timed: (EcptWalker, MemoryModel),
}

impl HptPair {
    fn new() -> HptPair {
        let walker = || (EcptWalker::paper_default(), MemoryModel::paper_default());
        HptPair {
            reference: walker(),
            timed: walker(),
        }
    }

    fn walk<T: HptView>(&mut self, t: &T, va: VirtAddr) {
        let (rw, rm) = &mut self.reference;
        let (tw, tm) = &mut self.timed;
        let r = rw.walk(t, va, rm);
        assert_eq!(
            tw.time_walk(t, va, tm),
            (r.cycles, r.memory_accesses),
            "{va:?}"
        );
        assert_eq!((tw.walks(), tw.cwt_walks()), (rw.walks(), rw.cwt_walks()));
        assert_eq!(tw.mean_cycles(), rw.mean_cycles());
        assert_eq!(tw.mean_accesses(), rw.mean_accesses());
        assert_eq!(
            (tm.accesses(), tm.total_cycles()),
            (rm.accesses(), rm.total_cycles())
        );
    }

    fn flush(&mut self) {
        self.reference.0.flush();
        self.timed.0.flush();
    }
}

fn resizing<B: Backing>(hpt: &Hpt<B>) -> bool {
    PAGE_SIZES
        .iter()
        .filter_map(|&ps| hpt.table(ps))
        .any(|t| t.is_resizing())
}

/// Maps a random sequence of pages into `hpt`; after every map, walks the
/// new page, an earlier one and a (mostly unmapped) random address both
/// ways. Returns how many maps left a table mid-resize.
fn hpt_trace<B: Backing>(g: &mut Gen, mut hpt: Hpt<B>, m: &mut PhysMem) -> u32 {
    let mut pair = HptPair::new();
    let mut mapped = Vec::new();
    let mut mid_resize = 0;
    for i in 0..1500 {
        let (va, ps) = random_page(g);
        hpt.map(va.vpn(ps), ps, Ppn(i), m).unwrap();
        mapped.push(va);
        mid_resize += u32::from(resizing(&hpt));
        let earlier = mapped[g.index(mapped.len())];
        for va in [va, earlier, VirtAddr::new(g.below(16 * GIB))] {
            pair.walk(&hpt, va + g.below(4096));
        }
        if g.below(64) == 0 {
            pair.flush();
        }
    }
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

/// Maps random 4KB and 2MB pages into a radix tree of `levels` levels;
/// after every map, times the new page and an earlier one both ways, and
/// takes a reference walk of a random address on both walkers (faulting
/// walks have only the reference walk).
fn radix_trace(g: &mut Gen, levels: usize) {
    let mut m = mem();
    let mut pt = RadixPageTable::with_levels(levels, &mut m).unwrap();
    let walker = || (RadixWalker::paper_default(), MemoryModel::paper_default());
    let ((mut rw, mut rm), (mut tw, mut tm)) = (walker(), walker());
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
            let r = rw.walk(&pt, va, &mut rm);
            assert_eq!(r.translation.map(|(_, wps)| wps), Some(ps));
            let timed = tw.time_walk(&pt, va, ps, &mut tm);
            assert_eq!(timed, (r.cycles, r.memory_accesses), "{va:?} {ps:?}");
        }
        let va = VirtAddr::new(g.below(16 * GIB));
        assert_eq!(rw.walk(&pt, va, &mut rm), tw.walk(&pt, va, &mut tm));
        if g.below(64) == 0 {
            rw.flush();
            tw.flush();
        }
        assert_eq!(tw.walks(), rw.walks());
        assert_eq!(tw.mean_cycles(), rw.mean_cycles());
        assert_eq!(tw.mean_accesses(), rw.mean_accesses());
        assert_eq!(tw.pwc_hit_counts(), rw.pwc_hit_counts());
        assert_eq!(
            (tm.accesses(), tm.total_cycles()),
            (rm.accesses(), rm.total_cycles())
        );
    }
    assert!(mapped.iter().any(|&(_, ps)| ps == PageSize::Huge2M));
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
