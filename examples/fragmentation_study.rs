//! The paper's headline demo: on a fragmented machine, the ECPT baseline's
//! contiguous way allocations get slow and eventually fail, while ME-HPT
//! keeps running on its small chunks.
//!
//! Run with: `cargo run --release --example fragmentation_study`

use mehpt::core::MeHpt;
use mehpt::ecpt::Ecpt;
use mehpt::mem::{AllocTag, Fragmenter, PhysMem};
use mehpt::types::rng::Xoshiro256;
use mehpt::types::{ByteSize, PageSize, Ppn, Vpn, GIB};

const PAGES: u64 = 250_000;

fn main() {
    println!("machine: 2GB physical memory, sweeping fragmentation levels");
    println!(
        "{:<6} | {:>22} | {:>22}",
        "FMFI", "ECPT (contiguous ways)", "ME-HPT (1MB chunks)"
    );
    println!("{}", "-".repeat(58));
    for target in [0.0, 0.5, 0.7, 0.9, 0.99] {
        let ecpt = run_ecpt(target);
        let mehpt = run_mehpt(target);
        println!("{target:<6} | {ecpt:>22} | {mehpt:>22}");
    }
    println!();
    println!("The paper: above 0.7 FMFI 'the system is unable to allocate 64MB");
    println!("of contiguous memory and returns an error. Consequently, the ECPT");
    println!("runs are unable to finish.' ME-HPT reduces the requirement to one");
    println!("chunk and survives.");
}

/// Maps pages under ECPT; reports how far it got and the alloc bill.
fn run_ecpt(fmfi: f64) -> String {
    let mut mem = PhysMem::new(2 * GIB);
    let mut rng = Xoshiro256::seed_from_u64(11);
    Fragmenter::fragment(&mut mem, fmfi, &mut rng);
    let mut pt = match Ecpt::new(&mut mem) {
        Ok(pt) => pt,
        Err(e) => return format!("FAILED at start: {e}"),
    };
    for i in 0..PAGES {
        if let Err(e) = pt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut mem) {
            return format!("DIED at {i} pages: {e}");
        }
    }
    format!(
        "ok, {} Mcycles alloc",
        mem.stats().tag(AllocTag::PageTable).alloc_cycles / 1_000_000
    )
}

fn run_mehpt(fmfi: f64) -> String {
    let mut mem = PhysMem::new(2 * GIB);
    let mut rng = Xoshiro256::seed_from_u64(11);
    Fragmenter::fragment(&mut mem, fmfi, &mut rng);
    let mut pt = match MeHpt::new(&mut mem) {
        Ok(pt) => pt,
        Err(e) => return format!("FAILED at start: {e}"),
    };
    for i in 0..PAGES {
        if let Err(e) = pt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut mem) {
            return format!("DIED at {i} pages: {e}");
        }
    }
    format!(
        "ok, {} Mcycles, max {}",
        mem.stats().tag(AllocTag::PageTable).alloc_cycles / 1_000_000,
        ByteSize(pt.max_chunk_bytes())
    )
}
