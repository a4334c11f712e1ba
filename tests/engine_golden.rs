//! Golden traces of the elastic-cuckoo engine: a fixed-seed random trace of
//! 4KB and 2MB maps and unmaps through ECPT and through ME-HPT under each of
//! the lab's five variants. The trace goes through upsizes, downsizes,
//! mid-migration lookups and (under `full`) a chunk-size switch.
//!
//! Every map report, unmap result and lookup, and periodic snapshots of each
//! table's way sizes, physical bytes, peak bytes, resize events, kick
//! histogram, migrated entries, chunk switches and L2P usage, feed one
//! 64-bit digest per design. The constants pin the engine's behaviour: a
//! refactor of the tables must reproduce them exactly. The simulator never
//! unmaps, so only this test covers `remove` and downsizes at that
//! precision.
//!
//! After every operation it also checks that each table's per-way cluster
//! counts sum to its cluster count.

use mehpt::ecpt::{Backing, Ecpt, Hpt};
use mehpt::hash::ResizeKind;
use mehpt::lab::Variant;
use mehpt::mem::{AllocCostModel, PhysMem};
use mehpt::types::rng::Xoshiro256;
use mehpt::types::{PageSize, Ppn, VirtAddr, GIB, PAGE_SIZES};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        let mut n = 0;
        for w in ws {
            self.word(w);
            n += 1;
        }
        self.word(n);
    }

    fn translation(&mut self, t: Option<(Ppn, PageSize)>) {
        match t {
            Some((ppn, ps)) => self.words([1, ppn.0, ps.index() as u64]),
            None => self.word(0),
        }
    }
}

/// Every table's state, plus the process's L2P usage and totals.
fn snapshot<B: Backing>(hpt: &Hpt<B>, d: &mut Digest) {
    for ps in PAGE_SIZES {
        let Some(t) = hpt.table(ps) else {
            d.word(u64::MAX);
            continue;
        };
        let stats = t.stats();
        d.words(t.way_sizes());
        d.words(t.way_phys_bytes());
        d.words([t.memory_bytes(), stats.peak_bytes, t.clusters() as u64]);
        d.words(stats.resizes.iter().flat_map(|e| {
            let kind = u64::from(e.kind == ResizeKind::Upsize);
            [
                e.way as u64,
                kind,
                e.from_entries as u64,
                e.to_entries as u64,
                e.moved,
                e.kept,
            ]
        }));
        d.words(stats.kicks_histogram.iter().copied());
        d.words([stats.entries_migrated, stats.chunk_switches]);
    }
    d.words([
        hpt.l2p_entries_used() as u64,
        hpt.memory_bytes(),
        hpt.pages(),
    ]);
}

fn check_way_counts<B: Backing>(hpt: &Hpt<B>, step: usize) {
    for ps in PAGE_SIZES {
        if let Some(t) = hpt.table(ps) {
            let per_way: usize = t.way_clusters().iter().sum();
            assert_eq!(per_way, t.clusters(), "{ps:?} way counts at op {step}");
        }
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

/// What one run went through, for the coverage assertions.
struct Coverage {
    upsizes: usize,
    downsizes: usize,
    chunk_switches: u64,
}

/// Drives the golden trace through `hpt` and returns its digest.
fn drive<B: Backing>(mut hpt: Hpt<B>, mem: &mut PhysMem) -> (u64, Coverage) {
    let mut rng = Xoshiro256::seed_from_u64(0x0901_de47);
    let mut d = Digest::new();
    let mut mapped: Vec<(VirtAddr, PageSize)> = Vec::new();
    let mut step = 0usize;
    let mut after_op = |hpt: &Hpt<B>, d: &mut Digest, rng: &mut Xoshiro256, va, mapped: &[_]| {
        d.translation(hpt.translate(va));
        if let Some(&(other, _)) = mapped.get(rng.next_index(mapped.len().max(1))) {
            d.translation(hpt.translate(other));
        }
        d.translation(hpt.translate(VirtAddr::new(rng.next_below(16 * GIB))));
        check_way_counts(hpt, step);
        if step.is_multiple_of(512) {
            snapshot(hpt, d);
        }
        step += 1;
    };
    let map = |hpt: &mut Hpt<B>,
               d: &mut Digest,
               mem: &mut PhysMem,
               (va, ps): (VirtAddr, PageSize),
               ppn| {
        let r = hpt.map(va.vpn(ps), ps, Ppn(ppn), mem).expect("map");
        d.words([
            u64::from(r.kicks),
            u64::from(r.migrated),
            u64::from(r.started_resize),
        ]);
    };
    // Grow: 30K maps (some land on already-mapped pages and update them).
    for i in 0..30_000u64 {
        let page = random_page(&mut rng);
        map(&mut hpt, &mut d, mem, page, i);
        mapped.push(page);
        after_op(&hpt, &mut d, &mut rng, page.0, &mapped);
    }
    // Shrink: unmap 15 pages in 16.
    let mut kept = Vec::new();
    for (i, &(va, ps)) in mapped.iter().enumerate() {
        if i.is_multiple_of(16) {
            kept.push((va, ps));
            continue;
        }
        let r = hpt.unmap(va.vpn(ps), ps, mem);
        d.words([r.map_or(u64::MAX, |p| p.0)]);
        after_op(&hpt, &mut d, &mut rng, va, &kept);
    }
    // Churn: random maps and unmaps around a steady size.
    let mut mapped = kept;
    for i in 0..20_000u64 {
        if rng.next_bool(0.5) || mapped.is_empty() {
            let page = random_page(&mut rng);
            map(&mut hpt, &mut d, mem, page, 1_000_000 + i);
            mapped.push(page);
            after_op(&hpt, &mut d, &mut rng, page.0, &mapped);
        } else {
            let (va, ps) = mapped.swap_remove(rng.next_index(mapped.len()));
            let r = hpt.unmap(va.vpn(ps), ps, mem);
            d.words([r.map_or(u64::MAX, |p| p.0)]);
            after_op(&hpt, &mut d, &mut rng, va, &mapped);
        }
    }
    snapshot(&hpt, &mut d);
    let mut cov = Coverage {
        upsizes: 0,
        downsizes: 0,
        chunk_switches: 0,
    };
    for t in PAGE_SIZES.iter().filter_map(|&ps| hpt.table(ps)) {
        let stats = t.stats();
        cov.upsizes += stats
            .resizes
            .iter()
            .filter(|e| e.kind == ResizeKind::Upsize)
            .count();
        cov.downsizes += stats
            .resizes
            .iter()
            .filter(|e| e.kind == ResizeKind::Downsize)
            .count();
        cov.chunk_switches += stats.chunk_switches;
    }
    hpt.destroy(mem);
    (d.0, cov)
}

fn mem() -> PhysMem {
    PhysMem::with_cost_model(4 * GIB, AllocCostModel::zero_cost())
}

/// Digests recorded from the tables before ECPT and ME-HPT shared one
/// engine, then re-recorded once when a re-map stopped adding a CWT
/// reference: before that fix, a page mapped twice and unmapped once kept
/// its CWT entry, which `memory_bytes()` counted. With the CWT term left
/// out of the digest, the old and the fixed engine give the same digests.
const ECPT_GOLDEN: u64 = 0xda98_eb51_e300_c712;
const MEHPT_GOLDEN: [(Variant, u64); 5] = [
    (Variant::Full, 0x432b_9c49_2e5a_30c1),
    (Variant::NoInPlace, 0x55c4_a20f_dfdd_bdbf),
    (Variant::NoPerWay, 0xb3ca_b394_bdaa_b6ba),
    (Variant::Neither, 0x45ec_daa5_6f2e_f242),
    (Variant::Fixed1Mb, 0x86ad_2930_e621_82ac),
];

#[test]
fn ecpt_matches_golden_trace() {
    let mut m = mem();
    let hpt = Ecpt::new(&mut m).unwrap();
    let (digest, cov) = drive(hpt, &mut m);
    assert!(cov.upsizes > 0 && cov.downsizes > 0, "no resizes");
    assert_eq!(digest, ECPT_GOLDEN, "ECPT digest {digest:#x}");
}

#[test]
fn mehpt_variants_match_golden_traces() {
    let mut got = Vec::new();
    for (variant, _) in MEHPT_GOLDEN {
        let mut m = mem();
        let hpt = mehpt::core::MeHpt::with_config(variant.config(), &mut m).unwrap();
        let (digest, cov) = drive(hpt, &mut m);
        let tag = variant.tag();
        assert!(cov.upsizes > 0 && cov.downsizes > 0, "{tag}: no resizes");
        if variant == Variant::Full {
            assert!(cov.chunk_switches > 0, "{tag}: no chunk switch");
        }
        got.push((variant, digest));
    }
    for ((variant, want), (_, digest)) in MEHPT_GOLDEN.iter().zip(&got) {
        assert_eq!(
            *digest,
            *want,
            "{} digest {digest:#x}; all: {got:x?}",
            variant.tag()
        );
    }
}
