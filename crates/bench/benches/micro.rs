//! Micro-benchmarks: the host-side latency of the core operations —
//! elastic-cuckoo inserts/lookups across resize modes, buddy allocation,
//! and timed page walks and page maps over the three page-table
//! organizations.
//!
//! Timed with `std::time::Instant` (the workspace builds offline with no
//! crates-io dependencies, so no criterion). Each benchmark warms up, then
//! runs enough batches to smooth scheduler noise and reports the median
//! batch's per-operation latency.

use std::time::Instant;

use mehpt_core::{L2pTable, MeHpt};
use mehpt_ecpt::{Backing, Ecpt, EcptWalker, Hpt, CLUSTER_PTES};
use mehpt_hash::{Config, ElasticCuckooTable, ResizeMode, WaySizing};
use mehpt_mem::{AllocCostModel, AllocTag, Fragmenter, PhysMem};
use mehpt_radix::{RadixPageTable, RadixWalker};
use mehpt_tlb::MemoryModel;
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

    let mut m = mem();
    let mut radix = RadixPageTable::new(&mut m).unwrap();
    for i in 0..PAGES {
        radix
            .map(Vpn(i * 7), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    let mut walker = RadixWalker::paper_default();
    let mut dram = MemoryModel::paper_default();
    let mut i = 0u64;
    bench("  radix", 100_000, move || {
        i = (i + 13) % PAGES;
        std::hint::black_box(walker.walk(
            &radix,
            Vpn(i * 7).base_addr(PageSize::Base4K),
            &mut dram,
        ));
    });

    let mut m = mem();
    let mut ecpt = Ecpt::new(&mut m).unwrap();
    for i in 0..PAGES {
        ecpt.map(Vpn(i * 7), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    let mut walker = EcptWalker::paper_default();
    let mut dram = MemoryModel::paper_default();
    let mut i = 0u64;
    bench("  ecpt", 100_000, move || {
        i = (i + 13) % PAGES;
        std::hint::black_box(walker.walk(&ecpt, Vpn(i * 7).base_addr(PageSize::Base4K), &mut dram));
    });

    let mut m = mem();
    let mut mehpt = MeHpt::new(&mut m).unwrap();
    for i in 0..PAGES {
        mehpt
            .map(Vpn(i * 7), PageSize::Base4K, Ppn(i), &mut m)
            .unwrap();
    }
    let mut walker = EcptWalker::paper_default();
    let mut dram = MemoryModel::paper_default();
    let mut i = 0u64;
    bench("  mehpt", 100_000, move || {
        i = (i + 13) % PAGES;
        std::hint::black_box(walker.walk(
            &mehpt,
            Vpn(i * 7).base_addr(PageSize::Base4K),
            &mut dram,
        ));
    });

    bench_gups_walk::<()>("  ecpt/gups_150k");
    bench_gups_walk::<L2pTable>("  mehpt/gups_150k");
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

/// Walks a GUPS-sized table ([`gups_vpns`]) in random order. The ways
/// outgrow the host's caches as in a full GUPS run, which the 50K-page
/// strided cases above never do.
fn bench_gups_walk<B: Backing>(name: &str) {
    let (vpns, shuffled) = gups_vpns();
    let mut m = mem();
    let mut hpt = Hpt::<B>::new(&mut m).unwrap();
    for (i, &vpn) in vpns.iter().enumerate() {
        hpt.map(vpn, PageSize::Base4K, Ppn(i as u64), &mut m)
            .unwrap();
    }
    let mut walker = EcptWalker::paper_default();
    let mut dram = MemoryModel::paper_default();
    let mut i = 0;
    bench(name, 100_000, move || {
        i = (i + 1) % shuffled.len();
        std::hint::black_box(walker.walk(&hpt, shuffled[i].base_addr(PageSize::Base4K), &mut dram));
    });
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
    bench_cuckoo();
    bench_buddy();
    bench_walks();
    bench_maps();
}
