//! Differential test of the single-pass walk: on a random trace of 4KB and
//! 2MB mappings, through upsizes, downsizes and mid-migration states, every
//! timed walk returns exactly the functional translation, with cold, warm
//! and long-lived CWCs, and probes exactly the slots `HptView::probe`
//! names, across ME-HPT's chunk-size switch. It asserts with `assert_eq!`,
//! so it holds in release builds too.

use mehpt_core::MeHpt;
use mehpt_ecpt::{EcptWalker, HptView};
use mehpt_hash::ResizeKind;
use mehpt_mem::{AllocCostModel, PhysMem};
use mehpt_tlb::MemoryModel;
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, PhysAddr, Ppn, VirtAddr, GIB, PAGE_SIZES};

/// Walks addresses three ways and checks each walk against `translate`.
struct Checker {
    fresh: EcptWalker,
    long_lived: EcptWalker,
    dram: MemoryModel,
    out: Vec<PhysAddr>,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            fresh: EcptWalker::paper_default(),
            long_lived: EcptWalker::paper_default(),
            dram: MemoryModel::paper_default(),
            out: Vec::new(),
        }
    }

    /// The number of slots `probe` names for `va` in the tables of `sizes`.
    fn probes<T: HptView>(&mut self, t: &T, va: VirtAddr, sizes: u8) -> usize {
        self.out.clear();
        for ps in PAGE_SIZES {
            if sizes & (1 << ps.index()) != 0 {
                t.probe(ps, va.vpn(ps), &mut self.out);
            }
        }
        self.out.len()
    }

    fn check<T: HptView>(&mut self, t: &T, va: VirtAddr) {
        let truth = t.translate(va);
        // Cold CWCs: both CWT entries are fetched beside a probe of every
        // page size's table.
        self.fresh.flush();
        let cold = self.fresh.walk(t, va, &mut self.dram);
        assert_eq!(cold.translation, truth, "cold walk of {va:?}");
        let all = self.probes(t, va, 0b111);
        assert_eq!(
            cold.memory_accesses as usize,
            2 + all,
            "cold walk of {va:?}"
        );
        // Warm CWCs: only the sizes the CWTs list are probed.
        let warm = self.fresh.walk(t, va, &mut self.dram);
        assert_eq!(warm.translation, truth, "warm walk of {va:?}");
        let sizes = (t.pmd_mask(va).unwrap_or(0) & 0b011) | (t.pud_mask(va).unwrap_or(0) & 0b100);
        let listed = self.probes(t, va, sizes);
        assert_eq!(warm.memory_accesses as usize, listed, "warm walk of {va:?}");
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

fn resizing(hpt: &MeHpt) -> bool {
    PAGE_SIZES
        .iter()
        .filter_map(|&ps| hpt.table(ps))
        .any(|t| t.is_resizing())
}

#[test]
fn walks_match_translate_through_resizes() {
    let mut m = PhysMem::with_cost_model(4 * GIB, AllocCostModel::zero_cost());
    let mut hpt = MeHpt::new(&mut m).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(0xd1ff);
    let mut checker = Checker::new();
    let mut mapped = Vec::new();
    let mut mid_resize = 0;
    for i in 0..30_000u64 {
        let (va, ps) = random_page(&mut rng);
        hpt.map(va.vpn(ps), ps, Ppn(i), &mut m).unwrap();
        mapped.push((va, ps));
        if i % 128 == 0 {
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
        if i % 128 == 0 {
            mid_resize += u32::from(resizing(&hpt));
            checker.check(&hpt, probe_va(&mut rng, Some((va, ps))));
            checker.check(&hpt, probe_va(&mut rng, None));
        }
    }
    for &page in &mapped {
        checker.check(&hpt, probe_va(&mut rng, Some(page)));
    }
    assert!(mid_resize > 0, "no walk ran during a migration");
    let t4k = hpt.table(PageSize::Base4K).unwrap();
    assert!(t4k.stats().chunk_switches > 0, "no chunk-size switch");
    let resizes = &t4k.stats().resizes;
    assert!(
        resizes.len() >= 12,
        "too few 4KB resizes: {}",
        resizes.len()
    );
    assert!(
        resizes.iter().any(|e| e.kind == ResizeKind::Downsize),
        "no 4KB downsize"
    );
}
