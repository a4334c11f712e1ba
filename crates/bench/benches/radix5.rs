//! The paper's scalability motivation (Sections I/II-A): radix trees get
//! *slower* as address spaces grow — Intel's la57 adds a fifth level, i.e.
//! a fifth dependent memory access on a cold walk — while a hashed page
//! table stays at one (parallel) access regardless of address-space size.
//!
//! This extension experiment measures mean walk latency over random
//! lookups for 4-level radix, 5-level radix and ME-HPT at growing
//! footprints. It ends by printing its own peak resident memory (`VmHWM`
//! from `/proc/self/status`), since the 1,000,000-page row builds three
//! tables of about a million modeled nodes or clusters each.

use mehpt_core::MeHpt;
use mehpt_ecpt::EcptWalker;
use mehpt_mem::{AllocCostModel, PhysMem};
use mehpt_radix::{RadixPageTable, RadixWalker};
use mehpt_tlb::MemoryModel;
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, Ppn, GIB};

const LOOKUPS: u64 = 200_000;

fn mem() -> PhysMem {
    PhysMem::with_cost_model(8 * GIB, AllocCostModel::zero_cost())
}

fn main() {
    bench::announce(
        "Extension: radix depth vs hashed translation at scale",
        "Sections I/II-A (la57 motivation; 'hardly scalable')",
    );
    println!(
        "{:<12} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "pages", "warm rdx4", "warm rdx5", "warm HPT", "cold rdx4", "cold rdx5", "cold HPT"
    );
    println!("  (mean walk cycles; cold = walker caches flushed before the walk)");
    println!("{}", "-".repeat(86));
    for pages in [10_000u64, 100_000, 1_000_000] {
        let vpns = bench::distinct_vpns(pages, 1234);
        // Build all three tables with identical mappings.
        let mut m4 = mem();
        let mut m5 = mem();
        let mut mh = mem();
        let mut pt4 = RadixPageTable::new(&mut m4).unwrap();
        let mut pt5 = RadixPageTable::with_levels(5, &mut m5).unwrap();
        let mut hpt = MeHpt::new(&mut mh).unwrap();
        for (i, &vpn) in vpns.iter().enumerate() {
            let ppn = Ppn(i as u64);
            pt4.map(vpn, PageSize::Base4K, ppn, &mut m4)
                .expect("4-level radix map");
            pt5.map(vpn, PageSize::Base4K, ppn, &mut m5)
                .expect("5-level radix map");
            hpt.map(vpn, PageSize::Base4K, ppn, &mut mh)
                .expect("ME-HPT map");
        }
        // Random lookups with realistic cache behaviour.
        let mut w4 = RadixWalker::paper_default();
        let mut w5 = RadixWalker::paper_default();
        let mut wh = EcptWalker::paper_default();
        let mut d4 = MemoryModel::paper_default();
        let mut d5 = MemoryModel::paper_default();
        let mut dh = MemoryModel::paper_default();
        let mut rng = Xoshiro256::seed_from_u64(99);
        for _ in 0..LOOKUPS {
            let vpn = vpns[rng.next_index(vpns.len())];
            let va = vpn.base_addr(PageSize::Base4K);
            w4.walk(&pt4, va, &mut d4);
            w5.walk(&pt5, va, &mut d5);
            wh.walk(&hpt, va, &mut dh);
        }
        // Cold walks (PWC/CWC and caches flushed each time): the raw
        // dependent-chain length, where la57's extra level shows.
        let mut cold = [0u64; 3];
        for i in 0..500 {
            let va = vpns[(i * 37) % vpns.len()].base_addr(PageSize::Base4K);
            w4.flush();
            w5.flush();
            wh.flush();
            let mut dc4 = MemoryModel::paper_default();
            let mut dc5 = MemoryModel::paper_default();
            let mut dch = MemoryModel::paper_default();
            cold[0] += w4.walk(&pt4, va, &mut dc4).cycles;
            cold[1] += w5.walk(&pt5, va, &mut dc5).cycles;
            cold[2] += wh.walk(&hpt, va, &mut dch).cycles;
        }
        println!(
            "{:<12} | {:>10.0} {:>10.0} {:>10.0} | {:>10.0} {:>10.0} {:>10.0}",
            pages,
            w4.mean_cycles(),
            w5.mean_cycles(),
            wh.mean_cycles(),
            cold[0] as f64 / 500.0,
            cold[1] as f64 / 500.0,
            cold[2] as f64 / 500.0,
        );
    }
    println!();
    println!("Warm radix walks degrade as the footprint overflows the PWCs.");
    println!("Cold walks expose the dependent chain: 4 vs 5 vs 1 memory round");
    println!("trips — the paper's scalability argument for hashed translation.");
    match peak_rss_kib() {
        Some(kib) => println!("peak host memory (VmHWM): {} MiB", kib / 1024),
        None => println!("peak host memory (VmHWM): unavailable"),
    }
}

/// The process's peak resident set size in KiB, from `/proc/self/status`
/// (Linux only).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
