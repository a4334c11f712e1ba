//! Quickstart: build an ME-HPT, map pages, translate addresses, and watch
//! the four techniques at work (chunked growth, a chunk-size switch,
//! in-place resizing, per-way balancing).
//!
//! Run with: `cargo run --release --example quickstart`

use mehpt::core::MeHpt;
use mehpt::ecpt::EcptWalker;
use mehpt::mem::{AllocTag, PhysMem};
use mehpt::tlb::MemoryModel;
use mehpt::types::{ByteSize, PageSize, Ppn, VirtAddr, Vpn, GIB};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A machine with 4GB of physical memory.
    let mut mem = PhysMem::new(4 * GIB);
    let mut pt = MeHpt::new(&mut mem)?;

    println!("== mapping half a million pages ==");
    for i in 0..500_000u64 {
        pt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut mem)?;
    }
    let table = pt.table(PageSize::Base4K).expect("4KB table exists");
    println!("pages mapped:        {}", pt.pages());
    println!(
        "way sizes:           {}",
        table
            .way_sizes()
            .iter()
            .map(|&b| ByteSize(b).to_string())
            .collect::<Vec<_>>()
            .join(" / ")
    );
    println!(
        "chunk size per way:  {}",
        table
            .way_chunk_bytes()
            .iter()
            .map(|&b| ByteSize(b).to_string())
            .collect::<Vec<_>>()
            .join(" / ")
    );
    println!(
        "chunk switches:      {} (8KB → 1MB, once per way)",
        table.stats().chunk_switches
    );
    println!(
        "L2P entries in use:  {} of {}",
        pt.l2p_entries_used(),
        pt.backing().total_entries()
    );
    println!("page-table memory:   {}", ByteSize(pt.memory_bytes()));
    println!(
        "max contiguous alloc:{}  <-- the paper's headline metric",
        ByteSize(mem.stats().tag(AllocTag::PageTable).max_contiguous_bytes)
    );

    println!("\n== translating ==");
    let va = VirtAddr::new(8 * 4096 * 1234);
    println!("translate({va}) = {:?}", pt.translate(va));

    println!("\n== a timed hardware walk ==");
    let mut walker = EcptWalker::paper_default();
    let mut dram = MemoryModel::paper_default();
    let cold = walker.walk(&pt, va, &mut dram);
    let warm = walker.walk(&pt, va, &mut dram);
    println!(
        "cold walk: {} cycles, {} parallel memory accesses",
        cold.cycles, cold.memory_accesses
    );
    println!(
        "warm walk: {} cycles, {} parallel memory accesses",
        warm.cycles, warm.memory_accesses
    );

    println!("\n== in-place resizing: how many entries actually moved? ==");
    let moved: u64 = table.stats().resizes.iter().map(|e| e.moved).sum();
    let kept: u64 = table.stats().resizes.iter().map(|e| e.kept).sum();
    println!(
        "entries moved {} / kept in place {} ({:.0}% stayed)",
        moved,
        kept,
        100.0 * kept as f64 / (moved + kept) as f64
    );
    Ok(())
}
