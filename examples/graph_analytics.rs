//! A scaled-down version of the paper's evaluation on one workload: run the
//! BFS graph-analytics trace under all three page-table organizations and
//! compare cycles, walk behaviour and page-table memory.
//!
//! Run with: `cargo run --release --example graph_analytics`
//! (pass a scale factor as the first argument; default 0.05)

use mehpt::sim::{PtKind, SimConfig, Simulator};
use mehpt::types::ByteSize;
use mehpt::workloads::{App, WorkloadCfg};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    println!("BFS trace at scale {scale} (1.0 = the paper-calibrated footprint)\n");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "config", "cycles(M)", "walks(K)", "walk cyc", "PT peak", "PT contig", "speedup"
    );
    println!("{}", "-".repeat(78));
    let mut baseline_cpa = None;
    for kind in [PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt] {
        let wl = App::Bfs.build(&WorkloadCfg {
            scale,
            ..WorkloadCfg::default()
        });
        let r = Simulator::run(wl, SimConfig::paper(kind, false));
        let m = &r.metrics;
        let cpa = m.cycles_per_access();
        let speedup = baseline_cpa.get_or_insert(cpa).to_owned() / cpa;
        println!(
            "{:<8} {:>10.0} {:>10.0} {:>10.0} {:>12} {:>12} {:>9.2}x",
            kind.label(),
            m.total_cycles as f64 / 1e6,
            m.walks as f64 / 1e3,
            m.mean_walk_cycles,
            ByteSize(m.pt_peak_bytes).to_string(),
            ByteSize(m.pt_max_contiguous).to_string(),
            speedup
        );
        if let Some(msg) = r.aborted {
            println!("         aborted: {msg}");
        }
    }
    println!();
    println!("Radix walks chain up to four dependent memory accesses; the HPTs");
    println!("probe their ways in parallel. ME-HPT additionally caps contiguous");
    println!("allocations at one chunk and resizes in place.");
}
