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
    report_with(mehpt_sim::Metrics {
        accesses: 100,
        total_cycles,
        ..mehpt_sim::Metrics::default()
    })
}

/// A minimal schema-v4 report whose one cell measured `metrics`.
fn report_with(metrics: mehpt_sim::Metrics) -> String {
    use mehpt_lab::engine::{run_cells_with, RunOptions};
    use mehpt_lab::grid::{ExperimentGrid, Tuning};
    use mehpt_lab::report::LabReport;
    use mehpt_sim::{PtKind, SimReport};
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
            metrics: metrics.clone(),
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
fn diff_compares_every_metric_not_only_the_stat_fields() {
    let dir = tmp_dir("every-metric");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    let base = mehpt_sim::Metrics {
        accesses: 100,
        total_cycles: 10_000,
        mean_walk_accesses: 1.0005,
        kicks_histogram: vec![90, 8, 2],
        ..mehpt_sim::Metrics::default()
    };
    std::fs::write(&a, report_with(base.clone())).unwrap();
    std::fs::write(&b, report_with(base.clone())).unwrap();
    assert_eq!(run_diff(&diff_args(a.clone(), b.clone())), 0);

    // 1: a metric outside the stat fields drifted, and nothing else.
    let walk = mehpt_sim::Metrics {
        mean_walk_accesses: 9.999,
        ..base.clone()
    };
    std::fs::write(&b, report_with(walk)).unwrap();
    assert_eq!(run_diff(&diff_args(a.clone(), b.clone())), 1);

    // 1: one bucket of a vector metric drifted.
    let kicks = mehpt_sim::Metrics {
        kicks_histogram: vec![90, 9, 2],
        ..base
    };
    std::fs::write(&b, report_with(kicks)).unwrap();
    assert_eq!(run_diff(&diff_args(a, b)), 1);

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

#[test]
fn impossible_memory_sizes_are_usage_errors() {
    // `--mem-gb 17179869184` is 2^34 GB, whose byte count wraps to 0.
    let parse = |mem_gb: &str| {
        let args: Vec<String> = ["table1", "--quick", "--mem-gb", mem_gb]
            .iter()
            .map(|s| s.to_string())
            .collect();
        parse_command(&args)
    };
    for bad in ["0", "17179869184"] {
        let err = parse(bad).err().unwrap_or_else(|| panic!("{bad} parsed"));
        assert!(err.contains("--mem-gb"), "{err}");
    }
    assert!(parse("1").is_ok());
    assert!(parse("17179869183").is_ok());
}

#[test]
fn counts_too_large_for_their_type_are_usage_errors() {
    // 4294967298 is 2^32 + 2: narrowed to 32 bits it would run 2 seeds.
    let parse = |flag: &str, n: &str| {
        let args: Vec<String> = ["table1", "--quick", flag, n]
            .iter()
            .map(|s| s.to_string())
            .collect();
        parse_command(&args)
    };
    for flag in ["--seeds", "--retries"] {
        for bad in ["4294967296", "4294967298"] {
            let err = parse(flag, bad)
                .err()
                .unwrap_or_else(|| panic!("{flag} {bad} parsed"));
            assert!(err.contains(flag), "{err}");
        }
        assert!(parse(flag, "4294967295").is_ok());
    }
    assert!(parse("--jobs", "4294967296").is_ok(), "a usize holds it");
}
