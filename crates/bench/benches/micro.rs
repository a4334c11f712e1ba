//! Micro-benchmarks: the host-side latency of the core operations — the
//! translation caches of Table III, elastic-cuckoo inserts/lookups across
//! resize modes, buddy allocation, and timed page walks and page maps over
//! the three page-table organizations.
//!
//! Timed with `std::time::Instant` (the workspace builds offline with no
//! crates-io dependencies, so no criterion). Each benchmark warms up, then
//! runs enough batches to smooth scheduler noise and reports the median
//! batch's per-operation latency.

use std::time::Instant;

use mehpt_core::{L2pTable, MeHpt};
use mehpt_ecpt::{Backing, Ecpt, EcptWalker, Hpt, HptView, CLUSTER_PTES};
use mehpt_hash::{Config, ElasticCuckooTable, ResizeMode, WaySizing};
use mehpt_mem::{AllocCostModel, AllocTag, Fragmenter, PhysMem};
use mehpt_radix::{RadixPageTable, RadixWalker};
use mehpt_tlb::{MemoryModel, SetAssocCache, TlbHierarchy};
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, Ppn, VirtAddr, Vpn, GIB, MIB};

const BATCHES: usize = 9;

/// Times `ops` iterations of `body` per batch and prints the median
/// batch's nanoseconds per operation.
fn bench(name: &str, ops: u64, mut body: impl FnMut()) {
    // Warm-up batch (untimed).
    for _ in 0..ops {
        body();
    }
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..ops {
            body();
        }
        per_op.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    per_op.sort_by(|a, b| a.total_cmp(b));
    println!("{:<32} {:>10.1} ns/op", name, per_op[BATCHES / 2]);
}

fn mem() -> PhysMem {
    PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost())
}

/// The paper's machine: 64GB at 0.7 FMFI, fragmented from a fixed seed.
fn fragmented_64g() -> PhysMem {
    let mut m = PhysMem::new(64 * GIB);
    Fragmenter::fragment(&mut m, 0.7, &mut Xoshiro256::seed_from_u64(7));
    m
}

fn bench_cuckoo() {
    println!("\nelastic_cuckoo:");
    for (name, mode, sizing) in [
        (
            "  insert/oop_allway",
            ResizeMode::OutOfPlace,
            WaySizing::AllWay,
        ),
        (
            "  insert/inplace_perway",
            ResizeMode::InPlace,
            WaySizing::PerWay,
        ),
    ] {
        // Each "op" is one batch of 20k inserts into a fresh table; report
        // per-insert latency by dividing the op count accordingly.
        const INSERTS: u64 = 20_000;
        bench(name, INSERTS, {
            let mut t = ElasticCuckooTable::<u64, u64>::new(Config {
                resize_mode: mode,
                sizing,
                ..Config::default()
            });
            let mut i = 0u64;
            move || {
                t.insert(i, i);
                i += 1;
                if i.is_multiple_of(INSERTS) {
                    t = ElasticCuckooTable::new(Config {
                        resize_mode: mode,
                        sizing,
                        ..Config::default()
                    });
                }
            }
        });
    }
    let mut t = ElasticCuckooTable::<u64, u64>::new(Config {
        resize_mode: ResizeMode::InPlace,
        sizing: WaySizing::PerWay,
        ..Config::default()
    });
    for i in 0..20_000u64 {
        t.insert(i, i);
    }
    let mut k = 0u64;
    bench("  lookup/inplace_perway", 100_000, move || {
        k = (k + 7919) % 20_000;
        std::hint::black_box(t.get(&k));
    });
}

/// `count` keys spread at random over 2^36 VPNs, as a GUPS run's pages.
fn random_keys(count: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..count).map(|_| rng.next_below(1 << 36)).collect()
}

/// Times a `W`-way cache of `sets` sets as `name` on two streams:
/// `/miss_fill`, random keys over a range far larger than the cache, each
/// probed and then filled as a walk's return fills it (a TLB under GUPS);
/// and `/hit`, the keys resident in a full cache probed in random order.
fn bench_cache<const W: usize>(name: &str, sets: usize) {
    let mut c = SetAssocCache::<W>::new(sets);
    let misses = random_keys(1 << 16, 0xcac4e);
    let mut i = 0;
    bench(&format!("{name}/miss_fill"), 100_000, || {
        i = (i + 1) % misses.len();
        if !c.probe(misses[i]) {
            c.fill(misses[i]);
        }
    });
    // Keys 0..capacity put `W` keys in every set.
    let capacity = c.capacity() as u64;
    for key in 0..capacity {
        c.fill(key);
    }
    let hits: Vec<u64> = random_keys(1 << 12, 0x417)
        .into_iter()
        .map(|k| k % capacity)
        .collect();
    bench(&format!("{name}/hit"), 100_000, || {
        i = (i + 1) % hits.len();
        assert!(c.probe(hits[i]));
    });
}

fn bench_caches() {
    println!("\ncache:");
    bench_cache::<4>("  tlb_64x4", 16);
    bench_cache::<12>("  tlb_1020x12", 85);
    bench_cache::<16>("  cwc_16", 1);
    bench_cache::<2>("  cwc_2", 1);
    bench_cache::<32>("  pwc_32", 1);

    // The whole hierarchy, as the runner drives it: a lookup, and a fill
    // after the walk on a miss. GUPS: 64K random 4KB pages, so nearly every
    // lookup misses. Sequential: one 64-byte line after the next, so 63 of 64
    // lookups hit L1.
    let pages = random_keys(1 << 16, 0x6075);
    let (mut tlb, mut i) = (TlbHierarchy::paper_default(), 0);
    bench("  tlb/gups", 100_000, || {
        i = (i + 1) % pages.len();
        let va = VirtAddr::new(pages[i] << 12);
        if tlb.lookup(va, PageSize::Base4K).is_miss() {
            tlb.fill(va.vpn(PageSize::Base4K), PageSize::Base4K);
        }
    });
    let (mut tlb, mut line) = (TlbHierarchy::paper_default(), 0u64);
    bench("  tlb/seq", 100_000, || {
        line += 1;
        let va = VirtAddr::new(line << 6);
        if tlb.lookup(va, PageSize::Base4K).is_miss() {
            tlb.fill(va.vpn(PageSize::Base4K), PageSize::Base4K);
        }
    });
}

fn bench_buddy() {
    println!("\nphys_mem:");
    let mut m = mem();
    bench("  alloc_free_4k", 50_000, move || {
        let chunk = m.alloc(4096, AllocTag::Data).unwrap();
        m.free(chunk);
    });
    let mut m = mem();
    bench("  alloc_free_1m", 50_000, move || {
        let chunk = m.alloc(MIB, AllocTag::PageTable).unwrap();
        m.free(chunk);
    });
    // One op builds a cell's machine: PhysMem::new plus the fragmenter's
    // ~23K pins.
    bench("  fragment_64g_0.7", 3, || {
        std::hint::black_box(fragmented_64g());
    });
    // Data pages on the fragmented machine, as a cell's faults allocate
    // them: 1M pages (4GB) over the warm-up and the timed batches.
    let mut m = fragmented_64g();
    bench("  alloc_4k_fragmented", 100_000, move || {
        std::hint::black_box(m.alloc(4096, AllocTag::Data).unwrap());
    });
}

fn bench_walks() {
    println!("\npage_walk:");
    const PAGES: u64 = 50_000;
    // Every case but the GUPS faults walks a mapped 4KB page, so each
    // design is timed twice on the same table and VPN stream: the reference
    // `walk`, and `time_walk`, which the runner calls for every walk.
    let strided = |i: &mut u64| {
        *i = (*i + 13) % PAGES;
        Vpn(*i * 7).base_addr(PageSize::Base4K)
    };

    let mut m = mem();
    let mut radix = RadixPageTable::new(&mut m).unwrap();
    for i in 0..PAGES {
        radix
            .map(Vpn(i * 7), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    let (mut walker, mut dram, mut i) = (
        RadixWalker::paper_default(),
        MemoryModel::paper_default(),
        0,
    );
    bench("  radix", 100_000, || {
        std::hint::black_box(walker.walk(&radix, strided(&mut i), &mut dram));
    });
    let (mut walker, mut i) = (RadixWalker::paper_default(), 0);
    bench("  radix.time_walk", 100_000, || {
        let va = strided(&mut i);
        std::hint::black_box(walker.time_walk(&radix, va, Some(PageSize::Base4K)));
    });

    let mut m = mem();
    let mut ecpt = Ecpt::new(&mut m).unwrap();
    for i in 0..PAGES {
        ecpt.map(Vpn(i * 7), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    bench_hpt_walks("  ecpt", &ecpt, strided);

    let mut m = mem();
    let mut mehpt = MeHpt::new(&mut m).unwrap();
    for i in 0..PAGES {
        mehpt
            .map(Vpn(i * 7), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    bench_hpt_walks("  mehpt", &mehpt, strided);

    bench_gups_walk::<()>("  ecpt");
    bench_gups_walk::<L2pTable>("  mehpt");
}

/// Times `walk` as `name` and `time_walk` as `name.time_walk` on `hpt`,
/// each with a fresh walker, over the addresses `next` yields.
fn bench_hpt_walks<T: HptView>(name: &str, hpt: &T, next: impl Fn(&mut u64) -> VirtAddr) {
    let (mut walker, mut dram, mut i) =
        (EcptWalker::paper_default(), MemoryModel::paper_default(), 0);
    bench(name, 100_000, || {
        std::hint::black_box(walker.walk(hpt, next(&mut i), &mut dram));
    });
    let (mut walker, mut i) = (EcptWalker::paper_default(), 0);
    bench(&format!("{name}.time_walk"), 100_000, || {
        std::hint::black_box(walker.time_walk(hpt, next(&mut i)));
    });
}

/// The pages of a GUPS-sized table, as in a GUPS cell at scale 0.1: one
/// page at a random offset in each of 150K consecutive clusters, in cluster
/// order and then in random order.
fn gups_vpns() -> (Vec<Vpn>, Vec<Vpn>) {
    const PAGES: u64 = 150_000;
    let mut rng = Xoshiro256::seed_from_u64(0x6075);
    let base = VirtAddr::new(0x1000_0000_0000).vpn(PageSize::Base4K).0;
    let vpns: Vec<Vpn> = (0..PAGES)
        .map(|c| Vpn(base + c * CLUSTER_PTES as u64 + rng.next_below(CLUSTER_PTES as u64)))
        .collect();
    let mut shuffled = vpns.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.next_index(i + 1));
    }
    (vpns, shuffled)
}

/// Walks a GUPS-sized table ([`gups_vpns`]) in random order, as
/// `{design}/gups_150k` and `{design}.time_walk/gups_150k`, and times walks
/// that fault, to the unmapped neighbour of each page in its cluster, as
/// `{design}.time_walk/fault_gups_150k`. The ways outgrow the host's caches
/// as in a full GUPS run, which the 50K-page strided cases above never do.
fn bench_gups_walk<B: Backing>(design: &str) {
    let (vpns, shuffled) = gups_vpns();
    let mut m = mem();
    let mut hpt = Hpt::<B>::new(&mut m).unwrap();
    for (i, &vpn) in vpns.iter().enumerate() {
        hpt.map(vpn, PageSize::Base4K, Ppn(i as u64), &mut m)
            .unwrap();
    }
    let (mut walker, mut dram, mut i) =
        (EcptWalker::paper_default(), MemoryModel::paper_default(), 0);
    bench(&format!("{design}/gups_150k"), 100_000, || {
        i = (i + 1) % shuffled.len();
        std::hint::black_box(walker.walk(&hpt, shuffled[i].base_addr(PageSize::Base4K), &mut dram));
    });
    let (mut walker, mut i) = (EcptWalker::paper_default(), 0);
    bench(&format!("{design}.time_walk/gups_150k"), 100_000, || {
        i = (i + 1) % shuffled.len();
        let va = shuffled[i].base_addr(PageSize::Base4K);
        std::hint::black_box(walker.time_walk(&hpt, va));
    });
    let (mut walker, mut i) = (EcptWalker::paper_default(), 0);
    bench(
        &format!("{design}.time_walk/fault_gups_150k"),
        100_000,
        || {
            i = (i + 1) % shuffled.len();
            let va = Vpn(shuffled[i].0 ^ 1).base_addr(PageSize::Base4K);
            std::hint::black_box(walker.time_walk(&hpt, va));
        },
    );
}

fn bench_maps() {
    println!(
        "
page_table_map:"
    );
    bench_gups_map::<()>("  ecpt.map/gups_150k");
    bench_gups_map::<L2pTable>("  mehpt.map/gups_150k");

    // 100K random pages over a 44-bit VA space: nearly one PTE node each,
    // as in `radix5`. A batch builds one tree.
    const PAGES: u64 = 100_000;
    let vpns = bench::distinct_vpns(PAGES, 1234);
    let mut m = mem();
    let mut radix = RadixPageTable::new(&mut m).unwrap();
    let mut i = 0;
    bench("  radix.map/sparse_100k", PAGES, move || {
        if i == vpns.len() {
            i = 0;
            std::mem::replace(&mut radix, RadixPageTable::new(&mut m).unwrap()).destroy(&mut m);
        }
        radix
            .map(vpns[i], PageSize::Base4K, Ppn(i as u64), &mut m)
            .unwrap();
        i += 1;
    });
}

/// Maps a GUPS-sized table's pages ([`gups_vpns`]) in random order, as a
/// GUPS cell's faults do. A batch builds one table.
fn bench_gups_map<B: Backing>(name: &str) {
    let (_, shuffled) = gups_vpns();
    let mut m = mem();
    let mut hpt = Hpt::<B>::new(&mut m).unwrap();
    let mut i = 0;
    bench(name, shuffled.len() as u64, move || {
        if i == shuffled.len() {
            i = 0;
            std::mem::replace(&mut hpt, Hpt::new(&mut m).unwrap()).destroy(&mut m);
        }
        hpt.map(shuffled[i], PageSize::Base4K, Ppn(i as u64), &mut m)
            .unwrap();
        i += 1;
    });
}

fn main() {
    bench::announce(
        "Micro-benchmarks: core operation latency on the host",
        "implementation sanity checks (no paper counterpart)",
    );
    bench_caches();
    bench_cuckoo();
    bench_buddy();
    bench_walks();
    bench_maps();
}
