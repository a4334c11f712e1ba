//! Fault-matrix integration suite: the engine's isolation guarantees as
//! assertions, exercised through deterministic fault injection.
//!
//! For every fault kind in {panic, hang, poison} × jobs in {1, 4} × seeds
//! in {1, 3}, a small sweep runs with one targeted cell and the resulting
//! reports must be byte-identical across the jobs axis, carry the correct
//! per-replicate statuses, and leave every healthy cell's metrics and
//! stats exactly equal to a fault-free baseline run.

use std::time::Duration;

use mehpt_lab::engine::{run_cells_with, RunOptions};
use mehpt_lab::fault::{FaultKind, FaultPlan};
use mehpt_lab::grid::{CellSpec, ExperimentGrid, Tuning};
use mehpt_lab::report::{CellResult, CellStatus, LabReport};
use mehpt_sim::{PtKind, SimReport};
use mehpt_types::rng::Xoshiro256;
use mehpt_workloads::App;

/// The hang timeout. Long enough that a healthy fake cell (microseconds)
/// never trips it, short enough to keep the matrix fast.
const TIMEOUT: Duration = Duration::from_millis(250);

/// A cheap, deterministic stand-in for the simulator: metrics are a pure
/// function of the cell seed, so two runs of the same spec always agree.
fn fake_sim(spec: &CellSpec) -> SimReport {
    let mut rng = Xoshiro256::seed_from_u64(spec.seed);
    SimReport {
        app: spec.app.name().to_string(),
        kind: spec.kind,
        thp: spec.thp,
        accesses: 100 + rng.next_below(100),
        total_cycles: 10_000 + rng.next_below(1_000_000),
        base_cycles: 0,
        translation_cycles: 0,
        fault_cycles: 0,
        alloc_cycles: 0,
        os_pt_cycles: 0,
        faults: rng.next_below(50),
        pages_4k: 0,
        pages_2m: 0,
        tlb_miss_rate: 0.25,
        walks: 0,
        mean_walk_accesses: 0.0,
        mean_walk_cycles: 0.0,
        pt_final_bytes: 0,
        pt_peak_bytes: 4096 + rng.next_below(4096),
        pt_max_contiguous: 0,
        way_sizes_4k: vec![],
        way_phys_4k: vec![],
        upsizes_per_way_4k: vec![],
        upsizes_per_way_2m: vec![],
        moved_fraction_4k: 0.0,
        kicks_histogram: vec![],
        l2p_entries_used: 0,
        chunk_switches: 0,
        data_bytes_nominal: 0,
        aborted: None,
    }
}

/// Three single-variant cells; the GUPS one is the fault target.
fn specs() -> Vec<CellSpec> {
    ExperimentGrid::paper(
        vec![App::Gups, App::Bfs, App::Mummer],
        vec![PtKind::MeHpt],
        vec![false],
    )
    .expand(&Tuning::quick())
}

const TARGET: &str = "gups";

fn spec_for(kind: FaultKind) -> String {
    format!("{}:{TARGET}", kind.label())
}

fn run_retrying(
    jobs: usize,
    seeds: u32,
    retries: u32,
    fault: Option<&FaultPlan>,
) -> Vec<CellResult> {
    let timeout = fault.map(|_| TIMEOUT);
    let opts = RunOptions {
        jobs,
        seeds,
        retries,
        timeout,
        fault: fault.cloned(),
        ..RunOptions::default()
    };
    run_cells_with(&specs(), &opts, fake_sim, &|_| {})
}

fn run(jobs: usize, seeds: u32, fault: Option<&FaultPlan>) -> Vec<CellResult> {
    run_retrying(jobs, seeds, 0, fault)
}

fn report_retrying(
    seeds: u32,
    retries: u32,
    fault: Option<&FaultPlan>,
    cells: Vec<CellResult>,
) -> String {
    LabReport {
        preset: "fault-matrix".into(),
        scale: Tuning::quick().scale,
        base_seed: Tuning::quick().base_seed,
        seeds,
        retries,
        timeout_secs: fault.map(|_| TIMEOUT.as_secs_f64()),
        fault: fault.map(|p| p.spec().to_string()),
        cells,
    }
    .to_json()
}

fn report(seeds: u32, fault: Option<&FaultPlan>, cells: Vec<CellResult>) -> String {
    report_retrying(seeds, 0, fault, cells)
}

/// The per-replicate status a given fault kind must produce.
fn faulted_status(kind: FaultKind) -> CellStatus {
    match kind {
        FaultKind::Panic => CellStatus::Failed,
        FaultKind::Hang => CellStatus::TimedOut,
        // Poison completes "successfully" — the corruption is silent.
        FaultKind::Poison => CellStatus::Ok,
    }
}

#[test]
fn fault_matrix_is_deterministic_and_isolates_failures() {
    let baseline_by_seeds: Vec<Vec<CellResult>> = [1, 3].iter().map(|&s| run(1, s, None)).collect();

    for kind in [FaultKind::Panic, FaultKind::Hang, FaultKind::Poison] {
        let plan = FaultPlan::parse(&spec_for(kind)).unwrap();
        for (si, &seeds) in [1u32, 3].iter().enumerate() {
            let baseline = &baseline_by_seeds[si];
            let serial = run(1, seeds, Some(&plan));
            let parallel = run(4, seeds, Some(&plan));

            // Byte-identical reports across the jobs axis.
            let a = report(seeds, Some(&plan), serial.clone());
            let b = report(seeds, Some(&plan), parallel);
            assert_eq!(
                a, b,
                "{kind:?} seeds={seeds}: --jobs 1 and --jobs 4 must serialize identically"
            );

            for (cell, base) in serial.iter().zip(baseline) {
                let id = cell.spec.id();
                let targeted = id.to_ascii_lowercase().contains(TARGET);
                if !targeted {
                    // Healthy cells: bit-for-bit equal to the fault-free
                    // baseline — a failed sibling cell changes nothing.
                    assert_eq!(cell.status, CellStatus::Ok, "{id}");
                    assert_eq!(cell.metrics, base.metrics, "{id}");
                    assert_eq!(cell.stats, base.stats, "{id}");
                    continue;
                }

                // The targeted cell faults at exactly its identity-derived
                // replicate; every sibling replicate matches the baseline.
                let fr = FaultPlan::fault_replicate(&id, seeds);
                assert_eq!(cell.replicates.len(), seeds as usize, "{id}");
                for (rep, brep) in cell.replicates.iter().zip(&base.replicates) {
                    if rep.replicate == fr {
                        assert_eq!(rep.status, faulted_status(kind), "{id} r{fr}");
                        match kind {
                            FaultKind::Panic => {
                                assert!(rep.metrics.is_none());
                                assert!(rep
                                    .error
                                    .as_deref()
                                    .unwrap()
                                    .contains("injected fault: panic"));
                            }
                            FaultKind::Hang => {
                                assert!(rep.metrics.is_none());
                                assert_eq!(
                                    rep.error.as_deref(),
                                    Some("replicate exceeded the 0.25s deadline; worker abandoned"),
                                    "the record is the configured deadline, not wall-clock"
                                );
                            }
                            FaultKind::Poison => {
                                let m = rep.metrics.as_ref().unwrap();
                                assert_eq!(m.accesses, 1, "poison is recognizably absurd");
                                assert!(m.total_cycles > 1_000_000_000);
                            }
                        }
                    } else {
                        assert_eq!(rep.status, CellStatus::Ok, "{id} r{}", rep.replicate);
                        assert_eq!(
                            rep.metrics, brep.metrics,
                            "{id} r{}: healthy sibling replicates match the baseline",
                            rep.replicate
                        );
                    }
                }

                // Aggregate view: panic/hang drop one replicate from the
                // stats, poison keeps all of them (and skews them).
                match kind {
                    FaultKind::Poison => {
                        assert_eq!(cell.status, CellStatus::Ok, "{id}");
                        assert_eq!(cell.stats.as_ref().unwrap().replicates, seeds, "{id}");
                    }
                    _ => {
                        assert_eq!(cell.status, faulted_status(kind), "{id}");
                        match seeds {
                            1 => assert!(cell.stats.is_none(), "{id}: sole replicate faulted"),
                            _ => assert_eq!(
                                cell.stats.as_ref().unwrap().replicates,
                                seeds - 1,
                                "{id}: survivors still aggregate"
                            ),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn poison_is_caught_by_diff_against_a_clean_report() {
    let plan = FaultPlan::parse(&spec_for(FaultKind::Poison)).unwrap();

    // Single-seed sweeps: no CI bands, so the default exact diff flags
    // the corrupted cell immediately.
    let clean = report(1, None, run(2, 1, None));
    let poisoned = report(1, Some(&plan), run(2, 1, Some(&plan)));
    let d =
        mehpt_lab::diff::diff_texts(&clean, &poisoned, &mehpt_lab::diff::DiffOptions::default())
            .unwrap();
    assert!(!d.clean(), "silent corruption must not diff clean");
    assert!(
        d.drifts.iter().any(|x| x.field == "total_cycles"),
        "{}",
        d.render()
    );
    assert_eq!(d.cells_skipped, 0, "poisoned cells still carry metrics");

    // Replicated sweeps: the poisoned replicate inflates the cell's own
    // ci95 until the confidence bands cover anything — the CI-overlap
    // acceptance would swallow the drift, which is exactly what `--no-ci`
    // exists for.
    let clean = report(3, None, run(2, 3, None));
    let poisoned = report(3, Some(&plan), run(2, 3, Some(&plan)));
    let no_ci = mehpt_lab::diff::DiffOptions {
        ci_overlap: false,
        ..mehpt_lab::diff::DiffOptions::default()
    };
    let d = mehpt_lab::diff::diff_texts(&clean, &poisoned, &no_ci).unwrap();
    assert!(!d.clean(), "--no-ci must catch replicated poison");
    assert!(d.drifts.iter().any(|x| x.field == "total_cycles"));
}

#[test]
fn transient_faults_recover_under_retry_with_recorded_history() {
    // The acceptance-criteria composition: a plain (transient) fault rule
    // fires on attempt 0 only, so `--retries 1` turns the injected panic
    // into an `ok` replicate whose attempt history records the failure —
    // and a hang into an `ok` replicate that abandoned one worker.
    for kind in [FaultKind::Panic, FaultKind::Hang] {
        let plan = FaultPlan::parse(&spec_for(kind)).unwrap();
        let seeds = 3;
        let serial = run_retrying(1, seeds, 1, Some(&plan));
        let parallel = run_retrying(4, seeds, 1, Some(&plan));
        assert_eq!(
            report_retrying(seeds, 1, Some(&plan), serial.clone()),
            report_retrying(seeds, 1, Some(&plan), parallel),
            "{kind:?}: retried sweeps serialize identically across --jobs"
        );

        let baseline = run(1, seeds, None);
        for (cell, base) in serial.iter().zip(&baseline) {
            let id = cell.spec.id();
            assert_eq!(cell.status, CellStatus::Ok, "{id}: the retry healed it");
            if !id.to_ascii_lowercase().contains(TARGET) {
                // Untouched cells aggregate exactly like the fault-free
                // baseline. The targeted cell cannot: its healed replicate
                // ran under the retry seed, so its metrics legitimately
                // differ from the attempt-0 metrics the baseline carries.
                assert_eq!(cell.stats, base.stats, "{id}: aggregates match fault-free");
                continue;
            }
            assert_eq!(
                cell.stats.as_ref().unwrap().replicates,
                seeds,
                "{id}: the healed replicate still contributes to the stats"
            );
            let fr = FaultPlan::fault_replicate(&id, seeds);
            for rep in &cell.replicates {
                if rep.replicate != fr {
                    assert_eq!(rep.attempt_history().len(), 1, "{id} r{}", rep.replicate);
                    continue;
                }
                assert_eq!(rep.status, CellStatus::Ok, "{id} r{fr}");
                assert_eq!(rep.attempts.len(), 2, "{id} r{fr}: fault, then recovery");
                assert_eq!(rep.attempts[0].status, faulted_status(kind));
                assert_eq!(rep.attempts[1].status, CellStatus::Ok);
                assert_eq!(
                    rep.seed,
                    cell.spec.retry_seed(fr, 1),
                    "{id} r{fr}: the surviving attempt ran the retry seed"
                );
                assert!(rep.metrics.is_some());
            }
        }

        // The hang flavor also pins the abandonment count: exactly one
        // attempt hit the watchdog across the whole sweep.
        if kind == FaultKind::Hang {
            let abandoned: u64 = serial
                .iter()
                .flat_map(|c| &c.replicates)
                .flat_map(|r| r.attempt_history())
                .filter(|a| a.status == CellStatus::TimedOut)
                .count() as u64;
            assert_eq!(abandoned, 1);
        }
    }
}

#[test]
fn persistent_faults_exhaust_the_retry_budget() {
    // A `kind*` rule fires on *every* attempt: the replicate burns the
    // whole budget, stays failed/timed_out, and the report carries the
    // full attempt history — identically at any --jobs.
    for (kind, spec) in [
        (FaultKind::Panic, format!("panic*:{TARGET}")),
        (FaultKind::Hang, format!("hang*:{TARGET}")),
    ] {
        let plan = FaultPlan::parse(&spec).unwrap();
        let retries = 2;
        let serial = run_retrying(1, 1, retries, Some(&plan));
        let parallel = run_retrying(4, 1, retries, Some(&plan));
        assert_eq!(
            report_retrying(1, retries, Some(&plan), serial.clone()),
            report_retrying(1, retries, Some(&plan), parallel),
            "{kind:?}: exhausted sweeps serialize identically across --jobs"
        );

        let target = serial
            .iter()
            .find(|c| c.spec.id().to_ascii_lowercase().contains(TARGET))
            .unwrap();
        assert_eq!(target.status, faulted_status(kind), "{}", target.spec.id());
        let rep = &target.replicates[0];
        assert_eq!(rep.attempts.len(), 3, "original + 2 retries, all faulted");
        assert!(rep
            .attempts
            .iter()
            .all(|a| a.status == faulted_status(kind)));
        let distinct: std::collections::HashSet<u64> =
            rep.attempts.iter().map(|a| a.seed).collect();
        assert_eq!(distinct.len(), 3, "every attempt ran its own seed");
        assert!(rep.metrics.is_none());
        // Healthy cells never grew extra attempts: one recorded attempt,
        // and it succeeded on the first try.
        for c in &serial {
            if c.spec.id() != target.spec.id() {
                assert!(c
                    .replicates
                    .iter()
                    .all(|r| r.attempts.len() == 1 && r.attempts[0].status == CellStatus::Ok));
            }
        }
    }
}

#[test]
fn faulted_reports_self_diff_clean_with_failures_skipped() {
    // The acceptance-criteria shape: hang + watchdog across the jobs axis,
    // then `diff` on the two reports — clean, with the timed-out cell
    // skipped (counted) rather than erroring.
    let plan = FaultPlan::parse(&spec_for(FaultKind::Hang)).unwrap();
    let a = report(3, Some(&plan), run(1, 3, Some(&plan)));
    let b = report(3, Some(&plan), run(4, 3, Some(&plan)));
    let d = mehpt_lab::diff::diff_texts(&a, &b, &mehpt_lab::diff::DiffOptions::default()).unwrap();
    assert!(d.clean(), "{}", d.render());
    assert_eq!(d.cells_skipped, 1, "the timed-out cell is skipped");
    assert_eq!(d.cells_compared, 2, "the healthy cells still compare");
}
