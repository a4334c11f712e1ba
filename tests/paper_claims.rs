//! End-to-end checks of the paper's qualitative claims at test-friendly
//! scale. The benchmark harness reproduces the quantitative versions; these
//! tests pin the *orderings* that must hold at any scale where the
//! mechanisms engage.

use mehpt::sim::{Metrics, PtKind, SimConfig, Simulator};
use mehpt::types::GIB;
use mehpt::workloads::{App, WorkloadCfg};

fn run_scaled(app: App, kind: PtKind, thp: bool, scale: f64) -> Metrics {
    let wl = app.build(&WorkloadCfg {
        scale,
        ..WorkloadCfg::default()
    });
    let mut cfg = SimConfig::paper(kind, thp);
    cfg.mem_bytes = 8 * GIB;
    Simulator::run(wl, cfg).metrics
}

/// Claim 1 (abstract): ME-HPT reduces the contiguous memory allocation
/// needs of HPTs — at every scale where ways outgrow one chunk.
#[test]
fn mehpt_contiguity_below_ecpt_on_every_demanding_app() {
    for app in [App::Gups, App::Bfs, App::Tc] {
        let ecpt = run_scaled(app, PtKind::Ecpt, false, 0.05);
        let mehpt = run_scaled(app, PtKind::MeHpt, false, 0.05);
        assert!(
            mehpt.pt_max_contiguous <= ecpt.pt_max_contiguous,
            "{}: {} vs {}",
            app.name(),
            mehpt.pt_max_contiguous,
            ecpt.pt_max_contiguous
        );
    }
}

/// Claim 2 (Section IV-C): in-place resizing keeps peak page-table memory
/// below the out-of-place baseline's old+new.
#[test]
fn mehpt_peak_memory_below_ecpt() {
    let ecpt = run_scaled(App::Bfs, PtKind::Ecpt, false, 0.05);
    let mehpt = run_scaled(App::Bfs, PtKind::MeHpt, false, 0.05);
    assert!(
        (mehpt.pt_peak_bytes as f64) < 0.9 * ecpt.pt_peak_bytes as f64,
        "mehpt {} vs ecpt {}",
        mehpt.pt_peak_bytes,
        ecpt.pt_peak_bytes
    );
}

/// Claim 3 (Figure 13): about half the entries stay in place per in-place
/// upsize; the ECPT baseline moves all of them.
#[test]
fn moved_fraction_half_vs_all() {
    let ecpt = run_scaled(App::Bfs, PtKind::Ecpt, false, 0.03);
    let mehpt = run_scaled(App::Bfs, PtKind::MeHpt, false, 0.03);
    assert_eq!(ecpt.moved_fraction_4k, 1.0);
    assert!(
        (0.35..0.75).contains(&mehpt.moved_fraction_4k),
        "moved fraction {}",
        mehpt.moved_fraction_4k
    );
}

/// Claim 4 (Figure 16): most inserts need no cuckoo re-insertion.
#[test]
fn kick_distribution_dominated_by_zero() {
    let r = run_scaled(App::Gups, PtKind::MeHpt, false, 0.03);
    let total: u64 = r.kicks_histogram.iter().sum();
    let zero = *r.kicks_histogram.first().unwrap_or(&0);
    assert!(
        zero as f64 / total as f64 > 0.55,
        "P(0) = {}",
        zero as f64 / total as f64
    );
    assert!(r.mean_kicks() < 1.2, "mean kicks {}", r.mean_kicks());
}

/// Claim 5 (Section II-B): HPT walks beat radix walks once the footprint
/// overflows the radix page-walk caches.
#[test]
fn hpt_translation_beats_radix_at_scale() {
    let radix = run_scaled(App::Gups, PtKind::Radix, false, 0.05);
    let mehpt = run_scaled(App::Gups, PtKind::MeHpt, false, 0.05);
    assert!(
        mehpt.mean_walk_cycles < radix.mean_walk_cycles,
        "mehpt {} vs radix {}",
        mehpt.mean_walk_cycles,
        radix.mean_walk_cycles
    );
    assert!(
        mehpt.translation_cycles < radix.translation_cycles,
        "translation cycles"
    );
}

/// Claim 6 (Table I): radix allocates page-table memory 4KB at a time.
#[test]
fn radix_contiguity_is_one_page() {
    let radix = run_scaled(App::Bfs, PtKind::Radix, false, 0.02);
    assert_eq!(radix.pt_max_contiguous, 4096);
}

/// Claim 7 (Figure 11/12 mechanics): per-way resizing keeps ME-HPT way
/// sizes within 2x of each other and spreads upsizes across ways.
#[test]
fn way_balance_and_upsize_spread() {
    let r = run_scaled(App::Bfs, PtKind::MeHpt, false, 0.05);
    let min = *r.way_sizes_4k.iter().min().unwrap();
    let max = *r.way_sizes_4k.iter().max().unwrap();
    assert!(max <= 2 * min, "ways {:?}", r.way_sizes_4k);
    let umin = *r.upsizes_per_way_4k.iter().min().unwrap();
    let umax = *r.upsizes_per_way_4k.iter().max().unwrap();
    assert!(umax - umin <= 2, "upsizes {:?}", r.upsizes_per_way_4k);
}

/// Claim 8 (Section VII-B): with THP, GUPS stops using its 4KB tables.
#[test]
fn gups_thp_never_grows_4k_tables() {
    let r = run_scaled(App::Gups, PtKind::MeHpt, true, 0.02);
    assert!(r.pages_2m > 0);
    assert_eq!(
        r.upsizes_per_way_4k.iter().sum::<u64>(),
        0,
        "4KB tables must not upsize under THP"
    );
}
