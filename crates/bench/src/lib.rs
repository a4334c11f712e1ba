//! Shared harness for the benchmark targets that render experiments of
//! *Memory-Efficient Hashed Page Tables* (HPCA 2023) outside the lab's
//! presets: the ablation, context-switch, allocation-cost, level-hashing,
//! five-level radix and multi-process studies, plus the `micro` host
//! timings.
//!
//! The paper's tables and figures themselves are `mehpt-lab` presets: run
//! them with `mehpt-lab <preset>` (for example `mehpt-lab fig9 --quick`).
//! The targets here that need simulated cells run them on the same lab
//! engine through [`run_grid`].
//!
//! Environment knobs:
//!
//! * `MEHPT_SCALE` — scales workload footprints and access counts
//!   (default `1.0`, the calibrated paper-matching size; use e.g. `0.1`
//!   for a quick pass).
//! * `MEHPT_JOBS` — worker threads (default: available parallelism).
//!   Results are identical for every value.
//! * `MEHPT_SEEDS` — replicates per cell (default 1); reports gain
//!   mean/min/max/95% CI aggregates over the replicate seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;

use mehpt_lab::engine::{run_cells, RunOptions};
use mehpt_lab::{ExperimentGrid, LabReport, Tuning};
use mehpt_types::rng::Xoshiro256;
use mehpt_types::Vpn;
use mehpt_workloads::App;

pub use mehpt_lab::fmt::{fmt_bytes, fmt_mb, geomean};
pub use mehpt_lab::Variant;

/// The workload scale factor from `MEHPT_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("MEHPT_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Worker threads from `MEHPT_JOBS` (default 0 = available parallelism).
pub fn jobs() -> usize {
    std::env::var("MEHPT_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Replicates per cell from `MEHPT_SEEDS` (default 1; clamped to >= 1).
pub fn seeds() -> u32 {
    std::env::var("MEHPT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// The lab tuning the bench targets run under (`MEHPT_SCALE` applied).
pub fn tuning() -> Tuning {
    Tuning {
        scale: scale(),
        ..Tuning::default()
    }
}

/// Expands and runs an ad-hoc grid on the lab engine (progress on stderr)
/// and returns the assembled report. Used by the targets that need cells
/// outside any preset (`ablation`, `ctx_switch`).
pub fn run_grid(name: &str, grid: &ExperimentGrid) -> LabReport {
    let t = tuning();
    let specs = grid.expand(&t);
    let opts = RunOptions {
        jobs: jobs(),
        seeds: seeds(),
        ..RunOptions::default()
    };
    let cells = run_cells(&specs, &opts, &|p| {
        eprintln!(
            "[{:>3}/{}] {:>7}  {}",
            p.done,
            p.total,
            p.result.status.label(),
            p.id
        );
    });
    LabReport {
        preset: name.to_string(),
        scale: t.scale,
        base_seed: t.base_seed,
        seeds: seeds(),
        retries: 0,
        timeout_secs: None,
        fault: None,
        cells,
    }
}

/// Prints the banner for one experiment.
pub fn announce(title: &str, paper_ref: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("  (reproduces {paper_ref}; MEHPT_SCALE={})", scale());
    println!("================================================================");
}

/// All eleven apps in the paper's order.
pub fn apps() -> [App; 11] {
    App::all()
}

/// `count` distinct random VPNs over a 44-bit VA space (sparse, so they
/// defeat the page-walk caches like the paper's big-memory applications),
/// drawn under `seed`. A VPN drawn twice is skipped, so each maps once.
pub fn distinct_vpns(count: u64, seed: u64) -> Vec<Vpn> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut seen = HashSet::with_capacity(count as usize);
    let mut vpns = Vec::with_capacity(count as usize);
    while (vpns.len() as u64) < count {
        let vpn = rng.next_below(1 << 32);
        if seen.insert(vpn) {
            vpns.push(Vpn(vpn));
        }
    }
    vpns
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_sim::PtKind;

    #[test]
    fn ad_hoc_grids_run_on_the_lab_engine() {
        let grid = ExperimentGrid::paper(vec![App::Mummer], vec![PtKind::MeHpt], vec![false]);
        let t = Tuning {
            scale: 0.002,
            ..Tuning::quick()
        };
        let specs = grid.expand(&t);
        let cells = run_cells(&specs, &RunOptions::with_jobs(1), &|_| {});
        assert_eq!(cells.len(), 1);
        assert!(cells[0].metrics.is_some());
    }

    #[test]
    fn distinct_vpns_never_repeat() {
        let vpns = distinct_vpns(100_000, 1234);
        assert_eq!(vpns.len(), 100_000);
        let unique: HashSet<u64> = vpns.iter().map(|v| v.0).collect();
        assert_eq!(unique.len(), vpns.len());
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
    }
}
