//! `speedbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it runs the traced per-layer replay. Both check every cell's output.
//! The last line of standard output is one JSON object with the result.
//! `--bless` prints the digests of the given workload and seed in the
//! format of `expected.txt` instead of measuring.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mehpt_lab::engine::{run_cells, run_cells_with, simulate_cell, RunOptions};
use mehpt_lab::{CellMetrics, CellResult, CellSpec, CellStatus, LabReport};
use mehpt_sim::{Simulator, MODEL_REVISION};
use mehpt_speedbench::cells::{
    self, digest, invariant_error, parse_seed, quick_args, CheckMode, Expected, Workload,
    DEFAULT_SEED, HELD_OUT_SEED,
};
use mehpt_speedbench::host::{scaled, Reference};
use mehpt_speedbench::replay::{replay, Counts, Sampler, Trace};
use mehpt_speedbench::report::{self, end_to_end, median, per_layer, percentile, HostTimes};

/// Untraced passes always measured, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Set-up sweeps per pass: set-up is short, so it is sampled more often.
const SETUP_SWEEPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut a = Args {
        workload: Workload::GupsHpt,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => a.seed = parse_seed(value).ok_or_else(|| format!("bad seed {value:?}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("speedbench: {e}");
            eprintln!("usage: speedbench --workload <gups_hpt|mummer_thp|paper_quick> [--seed N] [--seconds S] [--trace 0|1] [--bless]");
            exit(2);
        }
    };
    mehpt_lab::cli::mute_worker_panics();
    let code = if args.bless {
        bless(&args)
    } else if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    exit(code);
}

/// One cell's result in one pass: its metrics and abort reason, or why it
/// failed.
type Outcome = Result<(CellMetrics, Option<String>), String>;

fn simulate(spec: &CellSpec) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| simulate_cell(spec)))
        .map(|r| (CellMetrics::from(&r), r.aborted))
        .map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string())
        })
}

fn lab_outcome(r: &CellResult) -> Outcome {
    match (r.status, &r.metrics) {
        (CellStatus::Ok | CellStatus::Aborted, Some(m)) => Ok((m.clone(), r.error.clone())),
        _ => Err(r
            .error
            .clone()
            .unwrap_or_else(|| r.status.label().to_string())),
    }
}

/// Worker threads of the lab sweep: the machine's cores, at most two.
fn lab_jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A scratch directory for the lab's reports, inside the package.
fn report_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("reports-{}", std::process::id()))
}

/// Removes this run's reports, and their parent once no run uses it.
fn remove_reports() {
    let dir = report_dir();
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Builds, renders, serializes and writes every preset's report from a
/// sweep's results, as `mehpt-lab all` does after its sweep.
fn write_reports(results: &[CellResult], seed: u64, dir: &Path) -> std::io::Result<()> {
    let args = quick_args(seed);
    let by_id: BTreeMap<String, &CellResult> = results.iter().map(|r| (r.spec.id(), r)).collect();
    for &preset in &args.presets {
        let cells = preset
            .grid()
            .expand(&args.tuning)
            .iter()
            .filter_map(|s| by_id.get(&s.id()).map(|&r| r.clone()))
            .collect();
        let report = LabReport {
            preset: preset.name().to_string(),
            scale: args.tuning.scale,
            base_seed: args.tuning.base_seed,
            seeds: 1,
            retries: 0,
            timeout_secs: None,
            fault: None,
            cells,
        };
        black_box(preset.render(&report));
        let out = dir.join(preset.name());
        std::fs::create_dir_all(&out)?;
        std::fs::write(out.join("report.json"), report.to_json())?;
        std::fs::write(out.join("report.csv"), report.to_csv())?;
    }
    Ok(())
}

/// One untraced pass: each cell's outcome, the pass's host seconds, and
/// those seconds scaled to the nominal host.
struct Pass {
    outcomes: Vec<Outcome>,
    wall_s: f64,
    scaled_s: f64,
}

/// Runs every cell once, untraced, the way the workload's users do. Each
/// direct cell's time is scaled by the mean of the reference kernel's
/// times just before and just after it. A lab sweep runs cells on several
/// threads at once, so the kernel brackets the whole sweep.
fn run_pass(a: &Args, cells: &[CellSpec], host: &mut Reference) -> Pass {
    if !a.workload.uses_lab() {
        let mut pass = Pass {
            outcomes: Vec::new(),
            wall_s: 0.0,
            scaled_s: 0.0,
        };
        let mut before = host.time();
        for spec in cells {
            let t = Instant::now();
            pass.outcomes.push(simulate(spec));
            let s = t.elapsed().as_secs_f64();
            let after = host.time();
            pass.wall_s += s;
            pass.scaled_s += scaled(s, (before + after) / 2.0);
            before = after;
        }
        return pass;
    }
    let before = host.time();
    let t = Instant::now();
    let results = run_cells(cells, &RunOptions::with_jobs(lab_jobs()), &|_| {});
    let written = write_reports(&results, a.seed, &report_dir());
    let wall_s = t.elapsed().as_secs_f64();
    let kernel_s = (before + host.time()) / 2.0;
    let outcomes = match written {
        Ok(()) => results.iter().map(lab_outcome).collect(),
        Err(e) => {
            eprintln!("speedbench: cannot write the lab reports: {e}");
            cells
                .iter()
                .map(|_| Err(format!("report write failed: {e}")))
                .collect()
        }
    };
    Pass {
        outcomes,
        wall_s,
        scaled_s: scaled(wall_s, kernel_s),
    }
}

/// Host seconds of set-up summed over the cells: each cell's
/// `Simulator::run` with no access to simulate.
fn setup_pass(cells: &[CellSpec]) -> f64 {
    cells
        .iter()
        .map(|spec| {
            let mut cfg = spec.sim_config();
            cfg.max_accesses = Some(0);
            let start = Instant::now();
            black_box(Simulator::run(spec.workload(), cfg));
            start.elapsed().as_secs_f64()
        })
        .sum()
}

/// Collects per-cell failures across passes and checks the digests.
struct Checker<'a> {
    workload: Workload,
    seed: u64,
    cells: &'a [CellSpec],
    digests: Vec<Option<u64>>,
    failed: BTreeMap<String, String>,
}

impl<'a> Checker<'a> {
    fn new(workload: Workload, seed: u64, cells: &'a [CellSpec]) -> Checker<'a> {
        Checker {
            workload,
            seed,
            cells,
            digests: vec![None; cells.len()],
            failed: BTreeMap::new(),
        }
    }

    fn fail(&mut self, spec: &CellSpec, why: String) {
        self.failed.entry(spec.id()).or_insert(why);
    }

    /// Checks one pass's outcomes; every pass must give the same digests.
    fn record(&mut self, outcomes: &[Outcome]) {
        for (i, (spec, outcome)) in self.cells.iter().zip(outcomes).enumerate() {
            match outcome {
                Err(e) => self.fail(spec, format!("cell failed: {e}")),
                Ok((m, aborted)) => {
                    if let Some(e) = invariant_error(spec, m, aborted.is_some()) {
                        self.fail(spec, e);
                    }
                    let d = digest(m, aborted.as_deref());
                    match self.digests[i] {
                        None => self.digests[i] = Some(d),
                        Some(first) if first != d => {
                            self.fail(spec, "output differs between passes".to_string())
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }

    /// Compares the digests with the stored ones, reports every failure on
    /// stderr, and returns the number of failed cells.
    fn finish(mut self) -> u64 {
        let digests: Vec<(String, u64)> = self
            .cells
            .iter()
            .zip(&self.digests)
            .filter_map(|(s, d)| d.map(|d| (s.id(), d)))
            .collect();
        let (mode, bad) =
            Expected::stored().check(MODEL_REVISION, self.workload, self.seed, &digests);
        let by_id: BTreeMap<String, &CellSpec> = self.cells.iter().map(|s| (s.id(), s)).collect();
        for id in bad {
            let why =
                format!("digest differs from the one stored for model revision {MODEL_REVISION}");
            self.fail(by_id[&id], why);
        }
        let how = match mode {
            CheckMode::PerCell => "each cell against its stored digest",
            CheckMode::Combined => "the workload's combined stored digest",
            CheckMode::Unstored => "invariants only (no digest is stored for this seed)",
        };
        println!(
            "speedbench: model revision {MODEL_REVISION}, {} seed {:#x}: {} cells checked by {how}; {} failed",
            self.workload.name(),
            self.seed,
            self.cells.len(),
            self.failed.len()
        );
        for (id, why) in &self.failed {
            eprintln!("speedbench: FAILED {id}: {why}");
        }
        self.failed.len() as u64
    }
}

/// A memory field of this process from `/proc/self/status`, in MiB:
/// `VmHWM` is the peak resident memory, `VmRSS` the current one.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn untraced(a: &Args) -> i32 {
    let cells = a.workload.cells(a.seed);
    let mut checker = Checker::new(a.workload, a.seed, &cells);
    // The kernel's set stays resident, so the peak memory leaves it out.
    let rss_before = status_mb("VmRSS");
    let mut host = Reference::new();
    let kernel_mb = status_mb("VmRSS").zip(rss_before).map(|(a, b)| a - b);
    let start = Instant::now();
    let mut setups = Vec::new();
    let (mut passes, mut accesses, mut seconds) = (0, 0u64, 0.0);
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < a.seconds {
        for _ in 0..SETUP_SWEEPS {
            let kernel_s = host.time();
            setups.push(scaled(setup_pass(&cells), kernel_s));
        }
        let pass = run_pass(a, &cells, &mut host);
        let n: u64 = pass
            .outcomes
            .iter()
            .flatten()
            .map(|(m, _)| m.accesses)
            .sum();
        (passes, accesses, seconds) = (passes + 1, accesses + n, seconds + pass.scaled_s);
        eprintln!(
            "speedbench: pass {passes}: {:.4} Maccess/s scaled, {:.4} raw, over {n} accesses, set-up {:.4} s",
            n as f64 / pass.scaled_s / 1e6,
            n as f64 / pass.wall_s / 1e6,
            setups[setups.len() - 1]
        );
        checker.record(&pass.outcomes);
    }
    remove_reports();
    let failed = checker.finish();
    let (Some(peak), Some(kernel_mb)) = (status_mb("VmHWM"), kernel_mb) else {
        eprintln!("speedbench: cannot read VmHWM and VmRSS from /proc/self/status");
        return 1;
    };
    let rss = peak - kernel_mb;
    let metrics = end_to_end(accesses as f64 / seconds / 1e6, median(&setups), rss);
    print_result(failed == 0, cells.len() as u64, failed, &metrics)
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[report::Metric]) -> i32 {
    println!(
        "{}",
        report::result_line(correct, attempted, failed, metrics)
    );
    i32::from(!correct)
}

fn traced(a: &Args) -> i32 {
    let cells = a.workload.cells(a.seed);
    let mut checker = Checker::new(a.workload, a.seed, &cells);
    let mut host = HostTimes::default();
    let mut cell_ms = Vec::new();
    let mut overheads = Vec::new();

    if a.workload.uses_lab() {
        // One sweep through the engine and report writer, with each cell
        // body timed, for the lab's own metrics.
        let cell_s: Arc<Mutex<Vec<f64>>> = Arc::default();
        let sink = Arc::clone(&cell_s);
        let jobs = lab_jobs();
        let t = Instant::now();
        let results = run_cells_with(
            &cells,
            &RunOptions::with_jobs(jobs),
            move |spec: &CellSpec| {
                let start = Instant::now();
                let r = simulate_cell(spec);
                sink.lock()
                    .expect("no cell panics while holding the lock")
                    .push(start.elapsed().as_secs_f64());
                r
            },
            &|_| {},
        );
        let sweep = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let written = write_reports(&results, a.seed, &report_dir());
        host.report_s = t.elapsed().as_secs_f64();
        remove_reports();
        if let Err(e) = written {
            eprintln!("speedbench: cannot write the lab reports: {e}");
            return 1;
        }
        let busy: f64 = cell_s.lock().expect("the sweep has ended").iter().sum();
        overheads.push(sweep - busy / jobs as f64);
        cell_ms = results.iter().map(|r| r.wall_millis as f64).collect();
        checker.record(&results.iter().map(lab_outcome).collect::<Vec<_>>());
    }

    let start = Instant::now();
    let mut trace = Trace::default();
    let mut sampler = Sampler::new();
    let mut passes = 0u64;
    let mut diverged = 0u64;
    loop {
        // Untraced, one cell at a time: the base of the residual and of
        // the tracing overhead.
        let pass_start = Instant::now();
        let mut outcomes = Vec::new();
        let mut cells_s = 0.0;
        for spec in &cells {
            let t = Instant::now();
            outcomes.push(simulate(spec));
            let s = t.elapsed().as_secs_f64();
            cells_s += s;
            if !a.workload.uses_lab() {
                cell_ms.push(s * 1e3);
            }
        }
        if !a.workload.uses_lab() {
            overheads.push(pass_start.elapsed().as_secs_f64() - cells_s);
        }
        host.untraced_ns += cells_s * 1e9;
        checker.record(&outcomes);

        for (spec, outcome) in cells.iter().zip(&outcomes) {
            let t = Instant::now();
            let got = replay(spec, &mut trace, &mut sampler);
            host.traced_ns += t.elapsed().as_secs_f64() * 1e9;
            let Ok((m, _)) = outcome else { continue };
            let want = Counts {
                accesses: m.accesses,
                faults: m.faults,
                pages_4k: m.pages_4k,
                pages_2m: m.pages_2m,
                walks: m.walks,
            };
            if got != want {
                diverged += 1;
                eprintln!(
                    "speedbench: REPLAY DIVERGED on {}: report {want:?}, replay {got:?}",
                    spec.id()
                );
                checker.fail(
                    spec,
                    "the traced replay does not reproduce its counts".to_string(),
                );
            }
        }
        passes += 1;
        if start.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
    }
    host.cell_ms_p50 = percentile(&cell_ms, 50.0);
    host.cell_ms_p90 = percentile(&cell_ms, 90.0);
    host.overhead_s = median(&overheads);
    println!(
        "speedbench: traced replay of {} cells x {passes} pass(es): {} diverged; tracing overhead {:.3}x (traced / untraced wall time)",
        cells.len(),
        diverged,
        host.traced_ns / host.untraced_ns.max(1.0)
    );
    let failed = checker.finish();
    let metrics = per_layer(&trace, passes, sampler.span_cost_ns(), &host);
    print_result(failed == 0, cells.len() as u64, failed, &metrics)
}

/// Prints the digests of one workload at one seed in the stored format:
/// per cell for the default and held-out seeds, combined otherwise.
fn bless(a: &Args) -> i32 {
    let cells = a.workload.cells(a.seed);
    let mut checker = Checker::new(a.workload, a.seed, &cells);
    let outcomes: Vec<Outcome> = if a.workload.uses_lab() {
        run_cells(&cells, &RunOptions::with_jobs(lab_jobs()), &|_| {})
            .iter()
            .map(lab_outcome)
            .collect()
    } else {
        cells.iter().map(simulate).collect()
    };
    checker.record(&outcomes);
    if !checker.failed.is_empty() {
        for (id, why) in &checker.failed {
            eprintln!("speedbench: not blessing, {id}: {why}");
        }
        return 1;
    }
    let digests: Vec<u64> = checker
        .digests
        .iter()
        .map(|d| d.expect("every cell ran"))
        .collect();
    let (rev, name, seed) = (MODEL_REVISION, a.workload.name(), a.seed);
    if seed == DEFAULT_SEED || seed == HELD_OUT_SEED {
        for (spec, d) in cells.iter().zip(&digests) {
            println!("{rev} {name} {seed:#x} {} {d:016x}", spec.id());
        }
    } else {
        println!(
            "{rev} {name} {seed:#x} * {:016x}",
            cells::combined(&digests)
        );
    }
    0
}
