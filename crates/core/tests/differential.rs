//! Differential tests of the elastic-cuckoo engine under both designs, ECPT
//! and ME-HPT. They assert with `assert_eq!`, so they hold in release
//! builds too.
//!
//! * The single-pass walk: on a random trace of 4KB and 2MB mappings,
//!   through upsizes, downsizes and mid-migration states, every timed walk
//!   returns exactly the functional translation, with cold, warm and
//!   long-lived CWCs, and reads exactly as many slots as `HptView::probe`
//!   reads, across ME-HPT's chunk-size switch.
//! * The table probe: `HptTable::probe` finds what `lookup` finds and
//!   reads one slot per way, for ECPT, in-place ME-HPT across a chunk
//!   switch, and out-of-place ME-HPT, whose old storage is probed
//!   mid-migration.

use mehpt_core::{L2pTable, MeHptConfig};
use mehpt_ecpt::{Backing, CuckooConfig, EcptWalker, Hpt, HptTable, HptView};
use mehpt_hash::{ResizeKind, ResizeMode};
use mehpt_mem::{AllocCostModel, PhysMem};
use mehpt_tlb::MemoryModel;
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, Ppn, VirtAddr, Vpn, GIB, PAGE_SIZES};

/// Walks addresses three ways and checks each walk against `translate`.
struct Checker {
    fresh: EcptWalker,
    long_lived: EcptWalker,
    dram: MemoryModel,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            fresh: EcptWalker::paper_default(),
            long_lived: EcptWalker::paper_default(),
            dram: MemoryModel::paper_default(),
        }
    }

    /// The number of slots `probe` reads for `va` in the tables of `sizes`.
    fn probes<T: HptView>(t: &T, va: VirtAddr, sizes: u8) -> u32 {
        PAGE_SIZES
            .iter()
            .filter(|ps| sizes & (1 << ps.index()) != 0)
            .map(|&ps| t.probe(ps, va.vpn(ps)).1)
            .sum()
    }

    fn check<T: HptView>(&mut self, t: &T, va: VirtAddr) {
        let truth = t.translate(va);
        // Cold CWCs: both CWT entries are fetched beside a probe of every
        // page size's table.
        self.fresh.flush();
        let cold = self.fresh.walk(t, va, &mut self.dram);
        assert_eq!(cold.translation, truth, "cold walk of {va:?}");
        let all = Self::probes(t, va, 0b111);
        assert_eq!(cold.memory_accesses, 2 + all, "cold walk of {va:?}");
        // Warm CWCs: only the sizes the CWTs list are probed.
        let warm = self.fresh.walk(t, va, &mut self.dram);
        assert_eq!(warm.translation, truth, "warm walk of {va:?}");
        let sizes = (t.pmd_mask(va).unwrap_or(0) & 0b011) | (t.pud_mask(va).unwrap_or(0) & 0b100);
        let listed = Self::probes(t, va, sizes);
        assert_eq!(warm.memory_accesses, listed, "warm walk of {va:?}");
        // CWCs holding whatever the earlier walks left, including a cached
        // 1GB region with an uncached 2MB region.
        let long = self.long_lived.walk(t, va, &mut self.dram);
        assert_eq!(long.translation, truth, "walk of {va:?}");
    }
}

/// A random page in 8GB of address space: 2MB one time in eight, else 4KB.
fn random_page(rng: &mut Xoshiro256) -> (VirtAddr, PageSize) {
    let ps = if rng.next_bool(0.125) {
        PageSize::Huge2M
    } else {
        PageSize::Base4K
    };
    (VirtAddr::new(rng.next_below(8 * GIB)).page_base(ps), ps)
}

/// An address inside `page`, or (mostly unmapped) anywhere in 16GB.
fn probe_va(rng: &mut Xoshiro256, page: Option<(VirtAddr, PageSize)>) -> VirtAddr {
    match page {
        Some((va, ps)) => va + rng.next_below(ps.bytes()),
        None => VirtAddr::new(rng.next_below(16 * GIB)),
    }
}

fn resizing<B: Backing>(hpt: &Hpt<B>) -> bool {
    PAGE_SIZES
        .iter()
        .filter_map(|&ps| hpt.table(ps))
        .any(|t| t.is_resizing())
}

/// Maps `maps` random pages through a default-configured page table of
/// design `B`, checking walks every `period` maps, then unmaps 15 pages in
/// 16, and returns the page table.
fn walk_trace<B: Backing>(maps: u64, period: usize) -> Hpt<B> {
    let mut m = PhysMem::with_cost_model(4 * GIB, AllocCostModel::zero_cost());
    let mut hpt = Hpt::<B>::new(&mut m).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(0xd1ff);
    let mut checker = Checker::new();
    let mut mapped = Vec::new();
    let mut mid_resize = 0;
    for i in 0..maps {
        let (va, ps) = random_page(&mut rng);
        hpt.map(va.vpn(ps), ps, Ppn(i), &mut m).unwrap();
        mapped.push((va, ps));
        if (i as usize).is_multiple_of(period) {
            mid_resize += u32::from(resizing(&hpt));
            for k in 0..16 {
                let page = (k % 2 == 0).then(|| mapped[rng.next_index(mapped.len())]);
                checker.check(&hpt, probe_va(&mut rng, page));
            }
        }
    }
    // Unmapping most of the trace shrinks the tables again.
    for (i, &(va, ps)) in mapped.iter().enumerate() {
        if i % 16 != 0 {
            hpt.unmap(va.vpn(ps), ps, &mut m);
        }
        if i.is_multiple_of(period) {
            mid_resize += u32::from(resizing(&hpt));
            checker.check(&hpt, probe_va(&mut rng, Some((va, ps))));
            checker.check(&hpt, probe_va(&mut rng, None));
        }
    }
    for &page in &mapped {
        checker.check(&hpt, probe_va(&mut rng, Some(page)));
    }
    assert!(mid_resize > 0, "no walk ran during a migration");
    let resizes = &hpt.table(PageSize::Base4K).unwrap().stats().resizes;
    assert!(
        resizes.len() >= 12,
        "too few 4KB resizes: {}",
        resizes.len()
    );
    assert!(
        resizes.iter().any(|e| e.kind == ResizeKind::Downsize),
        "no 4KB downsize"
    );
    hpt
}

#[test]
fn walks_match_translate_through_resizes() {
    walk_trace::<()>(12_000, 64);
    let hpt = walk_trace::<L2pTable>(30_000, 128);
    let t4k = hpt.table(PageSize::Base4K).unwrap();
    assert!(t4k.stats().chunk_switches > 0, "no chunk-size switch");
}

/// Inserts `inserts` clusters into a fresh 4KB table, checking every 97
/// inserts that `probe` finds what `lookup` finds and reads one slot per
/// way.
fn probe_trace<B: Backing>(cfg: B::Config, mut backing: B, inserts: u64) -> HptTable<B> {
    let mut mem = PhysMem::with_cost_model(4 * GIB, AllocCostModel::zero_cost());
    let mut t = HptTable::new(PageSize::Base4K, cfg, &mut mem, &mut backing).unwrap();
    let mut mid_resize_checks = 0;
    for i in 0..inserts {
        t.insert(Vpn(i * 8 + i % 3), Ppn(i), &mut mem, &mut backing)
            .unwrap();
        if i % 97 != 0 {
            continue;
        }
        mid_resize_checks += u32::from(t.is_resizing());
        for probe in (0..i * 2).step_by(1 + i as usize / 16) {
            let vpn = Vpn(probe * 4 + probe % 3);
            let reads = t.way_count() as u32;
            assert_eq!(t.probe(vpn), (t.lookup(vpn), reads), "{vpn:?} at {i}");
        }
    }
    assert!(mid_resize_checks > 0, "never checked mid-resize");
    t
}

#[test]
fn probe_matches_lookup_through_resizes() {
    let ecpt = probe_trace(CuckooConfig::default(), (), 20_000);
    let resizes = ecpt.stats().resizes.len();
    assert!(resizes >= 6, "too few resizes: {resizes}");
    for resize_mode in [ResizeMode::InPlace, ResizeMode::OutOfPlace] {
        let cfg = MeHptConfig {
            resize_mode,
            ..MeHptConfig::default()
        };
        let t = probe_trace(cfg, L2pTable::paper_default(), 40_000);
        // The out-of-place ablation covers `old_storage` probes instead.
        if resize_mode == ResizeMode::InPlace {
            assert!(t.stats().chunk_switches > 0, "never switched chunk size");
        }
    }
}
