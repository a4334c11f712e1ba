//! The CLI exit-code contract, exercised end-to-end through
//! [`mehpt_lab::cli::run_command`]: 0 success, 1 drift, 2 usage errors,
//! 3 I/O or parse errors. Scripts (and `scripts/ci.sh`) branch on these,
//! so each code is pinned by a test.

use mehpt_lab::cli::{parse_command, run_diff, DiffArgs};
use mehpt_lab::diff::DiffOptions;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mehpt-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A minimal but structurally complete schema-v4 report.
fn tiny_report(total_cycles: u64) -> String {
    use mehpt_lab::engine::{run_cells_with, RunOptions};
    use mehpt_lab::grid::{ExperimentGrid, Tuning};
    use mehpt_lab::report::LabReport;
    use mehpt_sim::{Metrics, PtKind, SimReport};
    use mehpt_workloads::App;

    let grid = ExperimentGrid::paper(vec![App::Gups], vec![PtKind::MeHpt], vec![false]);
    let specs = grid.expand(&Tuning::quick());
    let cells = run_cells_with(
        &specs,
        &RunOptions::with_jobs(1),
        move |spec| SimReport {
            app: spec.app.name().to_string(),
            kind: spec.kind,
            thp: spec.thp,
            aborted: None,
            metrics: Metrics {
                accesses: 100,
                total_cycles,
                ..Metrics::default()
            },
        },
        &|_| {},
    );
    LabReport {
        preset: "tiny".into(),
        scale: 0.005,
        base_seed: 0x5eed,
        seeds: 1,
        retries: 0,
        timeout_secs: None,
        fault: None,
        cells,
    }
    .to_json()
}

fn diff_args(a: PathBuf, b: PathBuf) -> DiffArgs {
    DiffArgs {
        a,
        b,
        opts: DiffOptions::default(),
    }
}

#[test]
fn diff_exit_codes_follow_the_contract() {
    let dir = tmp_dir("exit-codes");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    std::fs::write(&a, tiny_report(10_000)).unwrap();
    std::fs::write(&b, tiny_report(10_000)).unwrap();

    // 0: identical reports diff clean.
    assert_eq!(run_diff(&diff_args(a.clone(), b.clone())), 0);

    // 1: a drifted metric.
    std::fs::write(&b, tiny_report(99_999)).unwrap();
    assert_eq!(run_diff(&diff_args(a.clone(), b.clone())), 1);

    // 3: a missing report is an I/O error, not drift and not usage.
    assert_eq!(run_diff(&diff_args(a.clone(), dir.join("missing.json"))), 3);

    // 3: a truncated report (torn mid-write without atomic rename).
    let full = tiny_report(10_000);
    std::fs::write(&b, &full[..full.len() / 2]).unwrap();
    assert_eq!(
        run_diff(&diff_args(a.clone(), b.clone())),
        3,
        "truncated JSON must parse-fail into exit 3"
    );

    // 3: structurally valid JSON that is not a report at all.
    std::fs::write(&b, "{\"not\": \"a report\"}").unwrap();
    assert_eq!(run_diff(&diff_args(a, b)), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_are_distinct_from_io_errors() {
    // Exit 2 comes from the parse layer: the binary maps a parse error to
    // 2 before run_diff is ever reached. Pin the split here: bad flags
    // fail to parse (→2 in main), unreadable files fail in run_diff (→3).
    let args: Vec<String> = ["diff", "a.json"].iter().map(|s| s.to_string()).collect();
    assert!(
        parse_command(&args).is_err(),
        "one path is a usage error, surfaced before any I/O"
    );
    let args: Vec<String> = ["diff", "a.json", "b.json", "--wat"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(parse_command(&args).is_err());
}
