//! Property tests for the replication axis: aggregation must not care
//! about the order replicates are collected in (different `--jobs`
//! interleavings deliver them in arbitrary order).

use mehpt_lab::grid::{CellSpec, ExperimentGrid, Tuning};
use mehpt_lab::report::{AttemptRecord, CellMetrics, CellResult, CellStatus, RepResult};
use mehpt_lab::stats::{CellStats, MetricStats};
use mehpt_sim::PtKind;
use mehpt_types::proptest_lite::{check, Gen};
use mehpt_workloads::App;

fn shuffle<T>(g: &mut Gen, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, g.index(i + 1));
    }
}

/// A replicate of `spec` that ran once.
fn replicate(
    spec: &CellSpec,
    r: u32,
    status: CellStatus,
    error: Option<String>,
    metrics: Option<CellMetrics>,
    wall_millis: u64,
) -> RepResult {
    let seed = spec.replicate_seed(r);
    RepResult {
        replicate: r,
        seed,
        status,
        attempts: vec![AttemptRecord {
            attempt: 0,
            seed,
            status,
            error: error.clone(),
        }],
        error,
        metrics,
        wall_millis,
    }
}

fn metrics(g: &mut Gen) -> CellMetrics {
    CellMetrics {
        accesses: 1 + g.below(1_000_000),
        total_cycles: 1 + g.below(100_000_000),
        base_cycles: g.below(1_000_000),
        translation_cycles: g.below(1_000_000),
        fault_cycles: g.below(1_000_000),
        alloc_cycles: g.below(1_000_000),
        os_pt_cycles: g.below(1_000_000),
        faults: g.below(10_000),
        pages_4k: g.below(10_000),
        pages_2m: g.below(100),
        tlb_miss_rate: g.below(1000) as f64 / 1000.0,
        walks: g.below(10_000),
        mean_walk_accesses: 1.0 + g.below(40) as f64 / 10.0,
        mean_walk_cycles: g.below(2000) as f64 / 10.0,
        pt_final_bytes: g.below(1 << 30),
        pt_peak_bytes: g.below(1 << 30),
        pt_max_contiguous: g.below(1 << 26),
        way_sizes_4k: vec![8192; 3],
        way_phys_4k: vec![8192; 3],
        upsizes_per_way_4k: vec![g.below(20); 3],
        upsizes_per_way_2m: vec![],
        moved_fraction_4k: g.below(1000) as f64 / 1000.0,
        kicks_histogram: vec![g.below(100), g.below(10)],
        l2p_entries_used: g.below(288),
        chunk_switches: g.below(2),
        data_bytes_nominal: 1 << 30,
    }
}

#[test]
fn metric_stats_are_bitwise_order_invariant() {
    check("metric_stats_order_invariance", 128, |g: &mut Gen| {
        let mut values: Vec<f64> = (0..1 + g.len(24))
            .map(|_| g.below(1_000_000) as f64 / 7.0)
            .collect();
        let original = MetricStats::from_values(&values).unwrap();
        shuffle(g, &mut values);
        let shuffled = MetricStats::from_values(&values).unwrap();
        assert_eq!(original.mean.to_bits(), shuffled.mean.to_bits());
        assert_eq!(original.min.to_bits(), shuffled.min.to_bits());
        assert_eq!(original.max.to_bits(), shuffled.max.to_bits());
        assert_eq!(original.ci95.to_bits(), shuffled.ci95.to_bits());
    });
}

#[test]
fn cell_stats_are_order_invariant_over_replicates() {
    check("cell_stats_order_invariance", 64, |g: &mut Gen| {
        let mut reps: Vec<CellMetrics> = (0..1 + g.len(9)).map(|_| metrics(g)).collect();
        let original = CellStats::from_metrics(&reps.iter().collect::<Vec<_>>()).unwrap();
        shuffle(g, &mut reps);
        let shuffled = CellStats::from_metrics(&reps.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(original, shuffled);
        for ((_, a), (_, b)) in original.named().zip(shuffled.named()) {
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.ci95.to_bits(), b.ci95.to_bits());
        }
    });
}

#[test]
fn cell_results_serialize_identically_for_any_arrival_order() {
    let grid = ExperimentGrid::paper(vec![App::Gups], vec![PtKind::MeHpt], vec![false]);
    let spec = grid.expand(&Tuning::quick()).remove(0);
    check("cell_result_arrival_order", 64, |g: &mut Gen| {
        let n = 1 + g.len(7) as u32;
        let mut reps: Vec<RepResult> = (0..n)
            .map(|r| {
                let failed = g.below(8) == 0 && r != 0;
                let status = if failed {
                    CellStatus::Failed
                } else {
                    CellStatus::Ok
                };
                let error = failed.then(|| "injected".to_string());
                replicate(
                    &spec,
                    r,
                    status,
                    error,
                    (!failed).then(|| metrics(g)),
                    g.below(100),
                )
            })
            .collect();
        let in_order = CellResult::from_replicates(spec.clone(), reps.clone());
        shuffle(g, &mut reps);
        let shuffled = CellResult::from_replicates(spec.clone(), reps);
        assert_eq!(in_order.status, shuffled.status);
        assert_eq!(in_order.stats, shuffled.stats);
        assert_eq!(in_order.metrics, shuffled.metrics);
        // The strongest form: the serialized report is byte-identical.
        let report = |cell: CellResult| {
            mehpt_lab::LabReport {
                preset: "prop".into(),
                scale: 1.0,
                base_seed: 0x5eed,
                seeds: n,
                retries: 0,
                timeout_secs: None,
                fault: None,
                cells: vec![cell],
            }
            .to_json()
        };
        assert_eq!(report(in_order), report(shuffled));
    });
}

#[test]
fn aggregation_over_failed_replicate_subsets_is_order_invariant() {
    // A random subset of replicates fails or times out (no metrics), the
    // rest survive: the aggregate must depend only on *which* replicates
    // failed, never on the order outcomes were collected in.
    let grid = ExperimentGrid::paper(vec![App::Bfs], vec![PtKind::MeHpt], vec![false]);
    let spec = grid.expand(&Tuning::quick()).remove(0);
    check("failed_subset_order_invariance", 96, |g: &mut Gen| {
        let n = 2 + g.len(8) as u32;
        let mut reps: Vec<RepResult> = (0..n)
            .map(|r| {
                // ~1 in 3 replicates is a failure; alternate the flavor so
                // panicked and timed-out records mix in one cell.
                let status = match g.below(6) {
                    0 => CellStatus::Failed,
                    1 => CellStatus::TimedOut,
                    _ => CellStatus::Ok,
                };
                let error =
                    (status != CellStatus::Ok).then(|| format!("injected {}", status.label()));
                replicate(
                    &spec,
                    r,
                    status,
                    error,
                    (status == CellStatus::Ok).then(|| metrics(g)),
                    g.below(100),
                )
            })
            .collect();
        let in_order = CellResult::from_replicates(spec.clone(), reps.clone());
        shuffle(g, &mut reps);
        let shuffled = CellResult::from_replicates(spec.clone(), reps.clone());
        assert_eq!(in_order.status, shuffled.status);
        assert_eq!(in_order.error, shuffled.error, "first error is by index");
        assert_eq!(in_order.stats, shuffled.stats);
        let survivors = reps.iter().filter(|r| r.metrics.is_some()).count() as u32;
        match &in_order.stats {
            None => assert_eq!(survivors, 0, "stats vanish only when all fail"),
            Some(st) => assert_eq!(st.replicates, survivors),
        }
        let report = |cell: CellResult| {
            mehpt_lab::LabReport {
                preset: "prop".into(),
                scale: 1.0,
                base_seed: 0x5eed,
                seeds: n,
                retries: 0,
                timeout_secs: Some(2.0),
                fault: Some("panic:@2".into()),
                cells: vec![cell],
            }
            .to_json()
        };
        assert_eq!(report(in_order), report(shuffled));
    });
}

#[test]
fn ci95_degrades_gracefully_under_failures() {
    // n − failures < 2 ⇒ no confidence band (0.0), never NaN; and every
    // serialized ci95 stays finite whatever subset of replicates failed.
    let grid = ExperimentGrid::paper(vec![App::Gups], vec![PtKind::MeHpt], vec![false]);
    let spec = grid.expand(&Tuning::quick()).remove(0);
    check("ci95_graceful_degradation", 96, |g: &mut Gen| {
        let n = 1 + g.len(6) as u32;
        // Leave 0, 1 or more survivors, chosen at random.
        let survivors = g.below(u64::from(n) + 1) as u32;
        let reps: Vec<RepResult> = (0..n)
            .map(|r| {
                let failed = r >= survivors;
                let status = if failed {
                    CellStatus::TimedOut
                } else {
                    CellStatus::Ok
                };
                let error = failed.then(|| "deadline".to_string());
                replicate(&spec, r, status, error, (!failed).then(|| metrics(g)), 1)
            })
            .collect();
        let cell = CellResult::from_replicates(spec.clone(), reps);
        match survivors {
            0 => assert!(cell.stats.is_none(), "no survivors, no stats"),
            1 => {
                let st = cell.stats.as_ref().unwrap();
                assert_eq!(st.replicates, 1);
                for (name, f) in st.named() {
                    assert_eq!(f.ci95, 0.0, "{name}: a single survivor has no band");
                    assert_eq!(f.min, f.max, "{name}");
                }
            }
            _ => {
                let st = cell.stats.as_ref().unwrap();
                assert_eq!(st.replicates, survivors);
                for (name, f) in st.named() {
                    assert!(f.ci95.is_finite() && f.ci95 >= 0.0, "{name}: {}", f.ci95);
                    assert!(f.mean.is_finite(), "{name}");
                }
            }
        }
    });
}
