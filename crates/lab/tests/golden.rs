//! Golden-file pins of the serialized JSON report schema and the result
//! journal's on-disk format.
//!
//! Four contracts live here:
//!
//! * `tests/golden/report_v4.json` — the **current** schema, byte-pinned
//!   against [`golden_report`]: failure records (a timed-out, a panicked
//!   and an ok cell in one report), per-replicate attempt histories, the
//!   report-level `timeout_secs` / `fault` / `retries` configuration, and
//!   the `summary.timed_out` / `summary.workers_abandoned` counts. Any
//!   serialization change shows up as a diff; regenerate deliberately
//!   with `MEHPT_BLESS=1 cargo test -p mehpt-lab --test golden`.
//! * `tests/golden/report_v3.json` — a **frozen fixture** from before
//!   attempt histories existed. The writer no longer produces it
//!   (blessing never touches it); it pins the *reader* side: `mehpt-lab
//!   diff` must keep accepting v3 documents.
//! * `tests/golden/report_v2.json` — the older frozen fixture, from
//!   before failure records existed; pins the diff fallback path.
//! * `tests/golden/journal_v1.bin` — the journal format (magic, framed
//!   CRC-checksummed records), byte-pinned against the same report; the
//!   same fixture, corrupted on copies, pins the recovery semantics.

use mehpt_lab::diff::{diff_texts, DiffOptions};
use mehpt_lab::grid::{ExperimentGrid, Tuning};
use mehpt_lab::json::Json;
use mehpt_lab::report::{AttemptRecord, CellMetrics, CellResult, CellStatus, LabReport, RepResult};
use mehpt_lab::{journal, JournalWriter};
use mehpt_sim::PtKind;
use mehpt_workloads::App;

/// Hand-built metrics: the golden file pins the schema, not the simulator.
fn metrics(total_cycles: u64) -> CellMetrics {
    CellMetrics {
        accesses: 1000,
        total_cycles,
        base_cycles: 1000,
        translation_cycles: 2000,
        fault_cycles: 300,
        alloc_cycles: 200,
        os_pt_cycles: 100,
        faults: 42,
        pages_4k: 512,
        pages_2m: 2,
        tlb_miss_rate: 0.125,
        walks: 125,
        mean_walk_accesses: 1.5,
        mean_walk_cycles: 33.25,
        pt_final_bytes: 65536,
        pt_peak_bytes: 131072,
        pt_max_contiguous: 8192,
        way_sizes_4k: vec![16384, 16384, 8192],
        way_phys_4k: vec![16384, 8192, 8192],
        upsizes_per_way_4k: vec![1, 1, 0],
        upsizes_per_way_2m: vec![],
        moved_fraction_4k: 0.5,
        kicks_histogram: vec![900, 90, 10],
        l2p_entries_used: 7,
        chunk_switches: 0,
        data_bytes_nominal: 1 << 30,
    }
}

const DEADLINE: &str = "replicate exceeded the 2s deadline; worker abandoned";

/// One ok cell, one with a panicked replicate, one with a timed-out
/// replicate that exhausted a one-retry budget — the full failure-record
/// and attempt-history shape in a single report.
fn golden_report() -> LabReport {
    let grid = ExperimentGrid::paper(
        vec![App::Gups, App::Bfs, App::Mummer],
        vec![PtKind::MeHpt],
        vec![false],
    );
    let specs = grid.expand(&Tuning::quick());
    let cells = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let reps = (0..3u32)
                .map(|r| {
                    // Cell 1's replicate 2 panics; cell 2's replicate 1
                    // hits the watchdog on both of its attempts (the
                    // report runs with retries=1). Cell 0 stays healthy.
                    let status = match (i, r) {
                        (1, 2) => CellStatus::Failed,
                        (2, 1) => CellStatus::TimedOut,
                        _ => CellStatus::Ok,
                    };
                    let error = match status {
                        CellStatus::Failed => Some("injected golden failure".to_string()),
                        CellStatus::TimedOut => Some(DEADLINE.to_string()),
                        _ => None,
                    };
                    // The timed-out replicate carries a two-attempt
                    // history; everything else records a single attempt.
                    let (seed, attempts) = if status == CellStatus::TimedOut {
                        (
                            spec.retry_seed(r, 1),
                            vec![
                                AttemptRecord {
                                    attempt: 0,
                                    seed: spec.replicate_seed(r),
                                    status: CellStatus::TimedOut,
                                    error: Some(DEADLINE.to_string()),
                                },
                                AttemptRecord {
                                    attempt: 1,
                                    seed: spec.retry_seed(r, 1),
                                    status: CellStatus::TimedOut,
                                    error: Some(DEADLINE.to_string()),
                                },
                            ],
                        )
                    } else {
                        let attempt = AttemptRecord {
                            attempt: 0,
                            seed: spec.replicate_seed(r),
                            status,
                            error: error.clone(),
                        };
                        (spec.replicate_seed(r), vec![attempt])
                    };
                    RepResult {
                        replicate: r,
                        seed,
                        status,
                        metrics: (status == CellStatus::Ok)
                            .then(|| metrics(10_000 + 100 * (i as u64 + r as u64))),
                        error,
                        wall_millis: 1,
                        attempts,
                    }
                })
                .collect();
            CellResult::from_replicates(spec, reps)
        })
        .collect();
    LabReport {
        preset: "golden".into(),
        scale: 0.005,
        base_seed: 0x5eed,
        seeds: 3,
        retries: 1,
        timeout_secs: Some(2.0),
        fault: Some("panic:bfs,hang:mummer".into()),
        cells,
    }
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

#[test]
fn report_v4_json_matches_the_golden_file() {
    let path = golden_path("report_v4.json");
    let rendered = golden_report().to_json();
    if std::env::var_os("MEHPT_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect(
        "missing tests/golden/report_v4.json — regenerate with \
         MEHPT_BLESS=1 cargo test -p mehpt-lab --test golden",
    );
    assert_eq!(
        rendered, golden,
        "schema v4 serialization drifted from the golden file; if the \
         change is intentional, re-bless with MEHPT_BLESS=1"
    );
}

#[test]
fn golden_file_pins_the_v4_failure_record_shape() {
    let doc = Json::parse(&golden_report().to_json()).expect("report parses");
    assert_eq!(doc.get("schema_version").and_then(Json::as_f64), Some(4.0));
    assert_eq!(doc.get("seeds").and_then(Json::as_f64), Some(3.0));
    // The failure-handling configuration is part of the document.
    assert_eq!(doc.get("retries").and_then(Json::as_f64), Some(1.0));
    assert_eq!(doc.get("timeout_secs").and_then(Json::as_f64), Some(2.0));
    assert_eq!(
        doc.get("fault").and_then(Json::as_str),
        Some("panic:bfs,hang:mummer")
    );
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("ok").and_then(Json::as_f64), Some(1.0));
    assert_eq!(summary.get("failed").and_then(Json::as_f64), Some(1.0));
    assert_eq!(summary.get("timed_out").and_then(Json::as_f64), Some(1.0));
    // Both attempts of the doubly-timed-out replicate abandoned a worker.
    assert_eq!(
        summary.get("workers_abandoned").and_then(Json::as_f64),
        Some(2.0)
    );

    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(cells.len(), 3);
    for cell in cells {
        let reps = cell.get("replicates").and_then(Json::as_arr).expect("reps");
        assert_eq!(reps.len(), 3);
        for rep in reps {
            let attempts = rep
                .get("attempts")
                .and_then(Json::as_arr)
                .expect("every v4 replicate carries an attempt history");
            assert!(!attempts.is_empty());
            assert_eq!(attempts[0].get("attempt").and_then(Json::as_f64), Some(0.0));
        }
    }
    // The panicked cell: failed aggregate, 2 metric-bearing replicates.
    let failed = &cells[1];
    assert_eq!(failed.get("status").and_then(Json::as_str), Some("failed"));
    let stats = failed.get("stats").expect("stats survive a failed rep");
    assert_eq!(stats.get("replicates").and_then(Json::as_f64), Some(2.0));
    // The timed-out cell: deterministic failure record — status plus the
    // configured deadline in the error text, never measured wall-clock —
    // and the full two-attempt history with distinct retry seeds.
    let timed = &cells[2];
    assert_eq!(
        timed.get("status").and_then(Json::as_str),
        Some("timed_out")
    );
    let rep1 = &timed.get("replicates").and_then(Json::as_arr).unwrap()[1];
    assert_eq!(rep1.get("status").and_then(Json::as_str), Some("timed_out"));
    assert_eq!(rep1.get("error").and_then(Json::as_str), Some(DEADLINE));
    let attempts = rep1.get("attempts").and_then(Json::as_arr).unwrap();
    assert_eq!(attempts.len(), 2);
    assert_ne!(
        attempts[0].get("seed").and_then(Json::as_u64),
        attempts[1].get("seed").and_then(Json::as_u64),
        "each attempt runs a distinct identity-derived seed"
    );
    assert_eq!(
        rep1.get("seed").and_then(Json::as_u64),
        attempts[1].get("seed").and_then(Json::as_u64),
        "the replicate's seed is the final attempt's"
    );
}

#[test]
fn v3_golden_still_reads_as_a_frozen_fixture() {
    // The frozen v3 fixture (pre-attempt-history schema): parses,
    // identifies as schema 3, and diffs clean against itself — its
    // failed and timed-out cells are skipped (and counted), never fatal.
    let text = std::fs::read_to_string(golden_path("report_v3.json"))
        .expect("tests/golden/report_v3.json is a frozen fixture and must stay committed");
    let doc = Json::parse(&text).expect("v3 fixture parses");
    assert_eq!(doc.get("schema_version").and_then(Json::as_f64), Some(3.0));
    assert!(
        doc.get("cells").and_then(Json::as_arr).unwrap()[0]
            .get("replicates")
            .and_then(Json::as_arr)
            .unwrap()[0]
            .get("attempts")
            .is_none(),
        "v3 predates attempt histories"
    );

    let d = diff_texts(&text, &text, &DiffOptions::default()).expect("v3 diffs");
    assert!(d.clean(), "{}", d.render());
    assert_eq!(d.cells_compared, 1, "the ok cell compares field-by-field");
    assert_eq!(d.cells_skipped, 2, "failed + timed-out cells are skipped");
}

#[test]
fn v2_golden_still_reads_through_the_fallback_path() {
    // The frozen v2 fixture: parses, identifies as schema 2, and diffs
    // clean against itself — including its failed cell, which the diff
    // fallback reader must skip (and count) rather than reject.
    let text = std::fs::read_to_string(golden_path("report_v2.json"))
        .expect("tests/golden/report_v2.json is a frozen fixture and must stay committed");
    let doc = Json::parse(&text).expect("v2 fixture parses");
    assert_eq!(doc.get("schema_version").and_then(Json::as_f64), Some(2.0));
    assert!(
        doc.get("timeout_secs").is_none(),
        "v2 predates the watchdog"
    );

    let d = diff_texts(&text, &text, &DiffOptions::default()).expect("v2 diffs");
    assert!(d.clean(), "{}", d.render());
    assert_eq!(d.cells_compared, 1, "the ok cell compares field-by-field");
    assert_eq!(d.cells_skipped, 1, "the failed cell is skipped, not fatal");
    assert!(d.values_compared > 0);
}

/// Writes the golden report's replicates through [`JournalWriter`]
/// exactly as a sweep would (same fingerprint inputs).
fn write_golden_journal(path: &std::path::Path) {
    let report = golden_report();
    let timeout = Some(std::time::Duration::from_secs(2));
    let fault = report.fault.clone();
    let mut w = JournalWriter::create(path).expect("create journal");
    for cell in &report.cells {
        let fp = journal::fingerprint(
            &cell.spec,
            timeout,
            report.retries,
            fault.as_deref(),
            report.seeds,
        );
        for rep in &cell.replicates {
            // Journaled results never carry wall-clock.
            let mut rep = rep.clone();
            rep.wall_millis = 0;
            w.append(&cell.spec.id(), rep.replicate, fp, &rep)
                .expect("append");
        }
    }
    w.sync().expect("sync");
}

#[test]
fn journal_v1_matches_the_golden_file_and_recovers_from_corruption() {
    let tmp = std::env::temp_dir().join(format!("mehpt-golden-journal-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let fresh = tmp.join("journal_v1.bin");
    write_golden_journal(&fresh);
    let rendered = std::fs::read(&fresh).unwrap();

    let path = golden_path("journal_v1.bin");
    if std::env::var_os("MEHPT_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden journal");
    }
    let golden = std::fs::read(&path).expect(
        "missing tests/golden/journal_v1.bin — regenerate with \
         MEHPT_BLESS=1 cargo test -p mehpt-lab --test golden",
    );
    assert_eq!(
        rendered, golden,
        "journal v1 framing drifted from the golden file; if the change \
         is intentional, re-bless with MEHPT_BLESS=1 (and bump the \
         journal format version if old journals can no longer be read)"
    );

    // The fixture reads back losslessly: 3 cells × 3 replicates, and the
    // recovered results match the report (modulo journaled wall-clock).
    let recovered = journal::read(&path).expect("read golden journal");
    assert!(!recovered.truncated);
    assert_eq!(recovered.records.len(), 9);
    let report = golden_report();
    for (rec, rep) in recovered
        .records
        .iter()
        .zip(report.cells.iter().flat_map(|c| c.replicates.iter()))
    {
        assert_eq!(rec.result.status, rep.status);
        assert_eq!(rec.result.seed, rep.seed);
        assert_eq!(rec.result.error, rep.error);
        assert_eq!(rec.result.metrics, rep.metrics);
        assert_eq!(rec.result.attempts, rep.attempts);
        assert_eq!(rec.result.wall_millis, 0);
    }

    // A torn tail on a copy: the last record drops, everything else holds.
    let torn = tmp.join("torn.bin");
    std::fs::write(&torn, &golden[..golden.len() - 3]).unwrap();
    let r = journal::read(&torn).expect("torn journal still reads");
    assert!(r.truncated);
    assert_eq!(r.records.len(), 8);

    // A flipped byte mid-file: the scan stops at the damage, salvaging
    // every record before it — never a panic, never zero.
    let flipped = tmp.join("flipped.bin");
    let mut bytes = golden.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&flipped, &bytes).unwrap();
    let r = journal::read(&flipped).expect("flipped journal still reads");
    assert!(r.truncated);
    assert!(!r.records.is_empty() && r.records.len() < 9);

    let _ = std::fs::remove_dir_all(&tmp);
}
