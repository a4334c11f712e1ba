//! Section V-C / VII-E4: the L2P table lives in the MMU, so the OS saves
//! and restores it on context switches. The paper argues the overhead is
//! modest because applications use only a fraction of the 288 entries
//! (on average ~53) and the valid entries cluster at the subtable ends.
//!
//! This experiment derives the per-application context-switch footprint
//! from the measured L2P usage. The measurement cells are exactly the
//! `fig16` preset's grid (every app, ME-HPT, no THP), run on the lab
//! engine.

use bench::Variant;
use mehpt_core::L2pTable;
use mehpt_lab::Preset;
use mehpt_sim::{l2p_save_restore_cycles, PtKind};

fn main() {
    bench::announce(
        "Extension: L2P context-switch save/restore cost",
        "Sections V-C and VII-E4 (~53 entries used on average)",
    );
    let report = bench::run_grid("ctx_switch", &Preset::Fig16.grid());
    println!(
        "{:<9} | {:>9} {:>11} {:>12} | {:>13}",
        "App", "entries", "state(B)", "cycles", "vs full 288"
    );
    println!("{}", "-".repeat(64));
    let mut total_cycles = 0;
    let mut rows = 0u32;
    let full_cycles = l2p_save_restore_cycles(L2pTable::paper_default().total_entries() as u64);
    for app in bench::apps() {
        let Some(r) = report.metrics(app, PtKind::MeHpt, false, Variant::Full) else {
            println!("{:<9} | (cell missing or failed)", app.name());
            continue;
        };
        let bytes = (r.l2p_entries_used * L2pTable::ENTRY_BITS).div_ceil(8);
        // Save on switch-out + restore on switch-in.
        let cycles = l2p_save_restore_cycles(r.l2p_entries_used);
        total_cycles += cycles;
        rows += 1;
        println!(
            "{:<9} | {:>9} {:>10}B {:>12} | {:>12.0}%",
            app.name(),
            r.l2p_entries_used,
            bytes,
            cycles,
            100.0 * cycles as f64 / full_cycles as f64
        );
    }
    println!("{}", "-".repeat(64));
    println!(
        "average: {:.0} cycles per switch (full-table save would be {});",
        total_cycles as f64 / f64::from(rows.max(1)),
        full_cycles
    );
    println!("at 1ms time slices and 2GHz that is <0.01% of a slice.");
    println!();
    println!("Paper: applications use 52.5 entries on average; 'the overhead of");
    println!("saving and restoring the L2P table is modest', and in virtualized");
    println!("systems guest L2P tables do not exist at all.");
}
