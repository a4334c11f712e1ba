//! The `mehpt-lab` command-line driver: sweep runs and report diffing.
//!
//! Kept in the library (rather than the binary) so argument parsing and the
//! preset-union plumbing are unit-testable. The binary is a two-line shim
//! around [`parse_command`] / [`run_command`]. Two commands exist: the
//! (default) sweep runner — presets, `--jobs`, `--seeds`, `--frag`, plus
//! the crash-safety knobs `--resume` / `--journal` / `--retries` backed by
//! [`crate::journal`] — and `mehpt-lab diff`, which compares two
//! `report.json` files within tolerance/CI bands and exits non-zero on
//! drift.
//!
//! Exit codes are a contract (scripts and CI rely on them): **0** success,
//! **1** failed/timed-out cells or report drift, **2** usage errors,
//! **3** I/O or parse errors (an unreadable or corrupt report handed to
//! `diff`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::diff::{diff_texts, DiffOptions};
use crate::engine::{self, Progress, RunOptions, WORKER_THREAD_PREFIX};
use crate::fault::FaultPlan;
use crate::grid::{CellSpec, FmfiAxis, Tuning};
use crate::journal::{self, JournalWriter};
use crate::presets::{Preset, PRESETS};
use crate::report::{LabReport, RepResult, StatusCounts};

/// Usage text.
pub const USAGE: &str = "\
mehpt-lab — parallel, deterministic experiment runner for the ME-HPT model

USAGE:
    mehpt-lab [run] <preset>... [OPTIONS]
    mehpt-lab all [OPTIONS]         run every preset (shared cells run once)
    mehpt-lab list                  list presets and their cell counts
    mehpt-lab diff <a.json> <b.json> [DIFF OPTIONS]
                                    compare two reports; exit 1 on drift

PRESETS:
    table1 table2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16

OPTIONS:
    --preset NAME      add a preset (same as the bare word)
    --jobs N           worker threads (default: available parallelism;
                       results are identical for every N)
    --seeds N          replicates per cell (default 1); reports gain
                       mean/min/max/95% CI aggregates over the replicates
    --quick            tiny footprints for smoke runs (scale 0.005, 2GB)
    --scale X          workload scale factor (default 1.0)
    --mem-gb N         simulated physical memory in GB (default 64)
    --frag F           pin fragmentation (FMFI) to F, 0.0-1.0 (default 0.7;
                       overrides fig7's built-in 0.0-0.9 sweep too)
    --seed S           base seed (decimal or 0x hex; default 0x5eed)
    --max-accesses N   cap simulated accesses per cell
    --out DIR          report directory (default target/lab)
    --timeout SECS     watchdog deadline per cell replicate, in whole
                       seconds; an expired replicate is marked timed_out,
                       its worker is abandoned and the sweep completes
                       (default: off, or the preset's own default)
    --retries N        re-run each failed/timed_out replicate up to N
                       extra times under identity-derived retry seeds
                       (default 0); attempt histories land in the report
    --resume           replay the result journal before running: intact,
                       fingerprint-matching replicates are restored and
                       only the missing ones run; the finished report is
                       byte-identical to an uninterrupted run
    --journal PATH     result-journal location (default <out>/sweep.journal);
                       every sweep writes one as it runs
    --fault SPEC       deterministic fault injection: comma-separated
                       kind:selector rules, kind in {panic,hang,poison},
                       selector an id substring or @N (1-in-N identity
                       hash); a kind* rule also fires on retries
    -h, --help         this text

DIFF OPTIONS (every metric is compared: the headline stat fields from
each cell's stats, every other value of replicate 0's metrics):
    --abs-tol X        absolute tolerance per metric (default 0 = exact)
    --rel-tol X        relative tolerance per metric (default 0 = exact)
    --no-ci            ignore 95% CI overlap of the stat fields (flag drift
                       even when the two sweeps' own confidence bands
                       already cover it)

Reports land in <out>/<preset>/report.{json,csv} (written atomically and
fsynced). JSON and CSV are pure functions of the cell grid, seeds,
timeout, retries and fault configuration: --jobs 1 and --jobs 8 emit
byte-identical files, which `mehpt-lab diff` verifies (timed-out cells
record the configured deadline, never wall-clock) — and so does a
--resume run completed after a crash. Each sweep also appends finished
replicates to a checksummed journal (see --journal); torn or corrupt
journal tails are detected and truncated, never trusted.

EXIT STATUS (a contract; scripts may rely on it):
    0   success (aborted cells are modeled outcomes and count as success)
    1   at least one cell failed or timed out / reports drifted
    2   usage errors (unknown flags, bad values)
    3   I/O or parse errors (unreadable or corrupt report given to diff)
";

/// Parsed command line for the sweep runner.
#[derive(Clone, Debug)]
pub struct LabArgs {
    /// Presets to run, in order.
    pub presets: Vec<Preset>,
    /// `list` mode.
    pub list: bool,
    /// Worker threads (0 = available parallelism).
    pub jobs: usize,
    /// Replicates per cell (`--seeds`; clamped to at least 1).
    pub seeds: u32,
    /// Retry budget per replicate (`--retries`).
    pub retries: u32,
    /// Replay the result journal before running (`--resume`).
    pub resume: bool,
    /// Journal location override (`--journal`; default
    /// `<out>/sweep.journal`).
    pub journal: Option<PathBuf>,
    /// Scale/memory/seed knobs.
    pub tuning: Tuning,
    /// Fragmentation override (`--frag`).
    pub frag: Option<f64>,
    /// Report directory.
    pub out: PathBuf,
    /// Fault-injection plan (`--fault`).
    pub fault: Option<FaultPlan>,
}

impl Default for LabArgs {
    fn default() -> LabArgs {
        LabArgs {
            presets: Vec::new(),
            list: false,
            jobs: 0,
            seeds: 1,
            retries: 0,
            resume: false,
            journal: None,
            tuning: Tuning::default(),
            frag: None,
            out: PathBuf::from("target/lab"),
            fault: None,
        }
    }
}

impl LabArgs {
    /// The watchdog deadline this invocation runs under: an explicit
    /// `--timeout` wins; otherwise the strictest per-preset default among
    /// the requested presets (the whole union runs under one deadline).
    pub fn effective_timeout_secs(&self) -> Option<u64> {
        self.tuning.timeout_secs.or_else(|| {
            self.presets
                .iter()
                .filter_map(|p| p.default_timeout_secs())
                .min()
        })
    }

    /// Where this invocation's result journal lives: `--journal` wins,
    /// else `<out>/sweep.journal`.
    pub fn journal_path(&self) -> PathBuf {
        self.journal
            .clone()
            .unwrap_or_else(|| self.out.join("sweep.journal"))
    }
}

/// Parsed command line for `mehpt-lab diff`.
#[derive(Clone, Debug)]
pub struct DiffArgs {
    /// First report (`a`).
    pub a: PathBuf,
    /// Second report (`b`).
    pub b: PathBuf,
    /// Acceptance bands.
    pub opts: DiffOptions,
}

/// A parsed `mehpt-lab` invocation.
#[derive(Clone, Debug)]
pub enum Command {
    /// Run sweeps (the default command, with or without the `run` word).
    Lab(LabArgs),
    /// Compare two reports.
    Diff(DiffArgs),
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.map_err(|_| format!("not a number: {s}"))
}

/// Parses the value of the count flag `name`, refusing one its type
/// cannot hold (rather than wrapping it).
fn parse_count<T: TryFrom<u64>>(s: &str, name: &str) -> Result<T, String> {
    T::try_from(parse_u64(s)?).map_err(|_| format!("{name} is out of range: {s}"))
}

/// Parses a full invocation: dispatches to [`parse_args`] (sweep runner,
/// with or without a leading `run` word) or the `diff` subcommand.
pub fn parse_command(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("diff") => parse_diff_args(&args[1..]).map(Command::Diff),
        Some("run") => parse_args(&args[1..]).map(Command::Lab),
        _ => parse_args(args).map(Command::Lab),
    }
}

/// Parses the arguments of `mehpt-lab diff` (without the `diff` word).
pub fn parse_diff_args(args: &[String]) -> Result<DiffArgs, String> {
    let mut paths = Vec::new();
    let mut opts = DiffOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let tol = |name: &str, s: &str| -> Result<f64, String> {
            s.parse::<f64>()
                .ok()
                .filter(|t| *t >= 0.0)
                .ok_or_else(|| format!("bad {name}: {s}"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--abs-tol" => opts.abs_tol = tol("--abs-tol", value("--abs-tol")?)?,
            "--rel-tol" => opts.rel_tol = tol("--rel-tol", value("--rel-tol")?)?,
            "--no-ci" => opts.ci_overlap = false,
            flag if flag.starts_with('-') => return Err(format!("unknown argument: {flag}")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [a, b] = paths.try_into().map_err(|p: Vec<PathBuf>| {
        format!("diff takes exactly two report paths (got {})", p.len())
    })?;
    Ok(DiffArgs { a, b, opts })
}

/// Parses the sweep-runner argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<LabArgs, String> {
    let mut out = LabArgs::default();
    let mut scale = None;
    let mut mem_gb = None;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "list" => out.list = true,
            "all" => out.presets = PRESETS.to_vec(),
            "--preset" => {
                let name = value("--preset")?;
                let p = Preset::parse(name).ok_or_else(|| format!("unknown preset: {name}"))?;
                if !out.presets.contains(&p) {
                    out.presets.push(p);
                }
            }
            "--seeds" => out.seeds = parse_count::<u32>(value("--seeds")?, "--seeds")?.max(1),
            "--retries" => out.retries = parse_count(value("--retries")?, "--retries")?,
            "--resume" => out.resume = true,
            "--journal" => out.journal = Some(PathBuf::from(value("--journal")?)),
            "--jobs" => out.jobs = parse_count(value("--jobs")?, "--jobs")?,
            "--quick" => quick = true,
            "--scale" => {
                scale = Some(
                    value("--scale")?
                        .parse::<f64>()
                        .map_err(|_| "bad --scale".to_string())?,
                )
            }
            "--mem-gb" => mem_gb = Some(parse_u64(value("--mem-gb")?)?),
            "--frag" => {
                let f = value("--frag")?
                    .parse::<f64>()
                    .map_err(|_| "bad --frag".to_string())?;
                if !(0.0..=1.0).contains(&f) {
                    return Err("--frag must be in 0.0..=1.0".to_string());
                }
                out.frag = Some(f);
            }
            "--seed" => out.tuning.base_seed = parse_u64(value("--seed")?)?,
            "--max-accesses" => {
                out.tuning.max_accesses = Some(parse_u64(value("--max-accesses")?)?)
            }
            "--out" => out.out = PathBuf::from(value("--out")?),
            "--timeout" => {
                let secs = parse_u64(value("--timeout")?)?;
                if secs == 0 {
                    return Err("--timeout must be at least 1 second".to_string());
                }
                out.tuning.timeout_secs = Some(secs);
            }
            "--fault" => out.fault = Some(FaultPlan::parse(value("--fault")?)?),
            name => match Preset::parse(name) {
                Some(p) => {
                    if !out.presets.contains(&p) {
                        out.presets.push(p);
                    }
                }
                None => return Err(format!("unknown argument: {name}")),
            },
        }
    }
    if quick {
        out.tuning.scale = Tuning::quick().scale;
        out.tuning.mem_bytes = Tuning::quick().mem_bytes;
    }
    if let Some(s) = scale {
        out.tuning.scale = s;
    }
    if let Some(gb) = mem_gb {
        out.tuning.mem_bytes = gb
            .checked_mul(mehpt_types::GIB)
            .filter(|&bytes| bytes > 0)
            .ok_or("--mem-gb must be between 1 and 17179869183")?;
    }
    if !out.list && out.presets.is_empty() {
        return Err("no preset given (try `mehpt-lab list`)".to_string());
    }
    Ok(out)
}

/// The distinct cells of a preset under the CLI's tuning/fragmentation.
fn preset_specs(preset: Preset, args: &LabArgs) -> Vec<CellSpec> {
    let mut grid = preset.grid();
    if let Some(f) = args.frag {
        grid.fmfi = FmfiAxis::Pinned(f);
    }
    grid.expand(&args.tuning)
}

/// Union of every requested preset's cells, deduplicated by identity and in
/// first-appearance order — shared cells (fig11–fig14 use the same grid)
/// simulate once and feed every report that needs them.
pub fn union_specs(args: &LabArgs) -> Vec<CellSpec> {
    let mut seen = std::collections::HashSet::new();
    let mut union = Vec::new();
    for &preset in &args.presets {
        for spec in preset_specs(preset, args) {
            if seen.insert(spec.id()) {
                union.push(spec);
            }
        }
    }
    union
}

/// Runs a parsed [`Command`]. Returns the process exit code.
pub fn run_command(cmd: &Command) -> i32 {
    match cmd {
        Command::Lab(args) => run(args),
        Command::Diff(args) => run_diff(args),
    }
}

/// Runs `mehpt-lab diff`: 0 when the reports agree within tolerance,
/// 1 on drift, 3 when a report cannot be read or parsed (distinct from
/// the 2 reserved for usage errors, so scripts can tell a truncated
/// report from a typo).
pub fn run_diff(args: &DiffArgs) -> i32 {
    let read = |path: &Path| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let result = read(&args.a)
        .and_then(|a| Ok((a, read(&args.b)?)))
        .and_then(|(a, b)| diff_texts(&a, &b, &args.opts));
    match result {
        Ok(diff) => {
            print!("{}", diff.render());
            i32::from(!diff.clean())
        }
        Err(e) => {
            eprintln!("mehpt-lab diff: {e}");
            3
        }
    }
}

/// Runs the parsed sweep command. Returns the process exit code.
pub fn run(args: &LabArgs) -> i32 {
    if args.list {
        println!("{:<8} {:>6}  TITLE", "PRESET", "CELLS");
        for p in PRESETS {
            let cells = preset_specs(p, args).len();
            println!("{:<8} {:>6}  {}", p.name(), cells, p.title());
        }
        return 0;
    }

    mute_worker_panics();
    let union = union_specs(args);
    eprintln!(
        "mehpt-lab: {} cell(s) x {} seed(s) across {} preset(s), scale {}, seed {:#x}",
        union.len(),
        args.seeds.max(1),
        args.presets.len(),
        args.tuning.scale,
        args.tuning.base_seed
    );

    let timeout_secs = args.effective_timeout_secs();
    if let Some(secs) = timeout_secs {
        eprintln!("mehpt-lab: watchdog deadline {secs}s per replicate");
    }
    if let Some(plan) = &args.fault {
        eprintln!("mehpt-lab: fault injection active: {}", plan.spec());
    }
    if args.retries > 0 {
        eprintln!(
            "mehpt-lab: deterministic retry active: up to {} extra attempt(s) per replicate",
            args.retries
        );
    }

    // The crash-safety layer: every invocation writes a result journal as
    // replicates finish; `--resume` replays a previous one first. Journal
    // trouble is reported but never fails the sweep — the journal is a
    // safety net, not a dependency.
    let timeout = timeout_secs.map(std::time::Duration::from_secs);
    let fault_spec = args.fault.as_ref().map(|p| p.spec());
    let fingerprints: HashMap<String, u64> = union
        .iter()
        .map(|s| {
            (
                s.id(),
                journal::fingerprint(s, timeout, args.retries, fault_spec, args.seeds.max(1)),
            )
        })
        .collect();
    let journal_path = args.journal_path();
    let mut restored: HashMap<(String, u32), RepResult> = HashMap::new();
    let mut valid_len = 0u64;
    if args.resume {
        match journal::read(&journal_path) {
            Ok(recovered) => {
                let total = recovered.records.len();
                if recovered.truncated {
                    eprintln!(
                        "mehpt-lab: journal {} has a torn or corrupt tail; keeping the {} intact record(s)",
                        journal_path.display(),
                        total
                    );
                }
                for rec in recovered.records {
                    // Believe a record only if it names a cell of *this*
                    // sweep, fits the seeds range, and fingerprints to the
                    // current configuration (last-wins on duplicates).
                    if rec.replicate < args.seeds.max(1)
                        && fingerprints.get(&rec.id) == Some(&rec.fingerprint)
                    {
                        restored.insert((rec.id, rec.replicate), rec.result);
                    }
                }
                valid_len = recovered.valid_len;
                eprintln!(
                    "mehpt-lab: restored {} replicate(s) from journal ({} discarded)",
                    restored.len(),
                    total - restored.len()
                );
            }
            Err(e) => eprintln!(
                "mehpt-lab: cannot read journal {}: {e}; running from scratch",
                journal_path.display()
            ),
        }
    }
    if let Some(dir) = journal_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let opened = if args.resume {
        JournalWriter::resume(&journal_path, valid_len)
    } else {
        JournalWriter::create(&journal_path)
    };
    let writer = RefCell::new(match opened {
        Ok(w) => Some(w),
        Err(e) => {
            eprintln!(
                "mehpt-lab: cannot write journal {}: {e}; continuing without one",
                journal_path.display()
            );
            None
        }
    });

    // Each freshly finished replicate is printed, then journaled before
    // the sweep moves on; restored replicates never come through here.
    let progress = |p: Progress| {
        let _ = writeln!(
            std::io::stderr().lock(),
            "[{:>3}/{}] {:>7}  {}  ({} ms)",
            p.done,
            p.total,
            p.result.status.label(),
            p.id,
            p.result.wall_millis
        );
        let mut writer = writer.borrow_mut();
        if let Some(w) = writer.as_mut() {
            let id = p.spec.id();
            let fp = fingerprints.get(&id).copied().unwrap_or_default();
            if let Err(e) = w.append(&id, p.result.replicate, fp, p.result) {
                eprintln!("mehpt-lab: journal append failed: {e}; disabling the journal");
                *writer = None;
            }
        }
    };
    let opts = RunOptions {
        jobs: args.jobs,
        seeds: args.seeds,
        retries: args.retries,
        timeout,
        fault: args.fault.clone(),
        restored,
    };
    let results = engine::run_cells(&union, &opts, &progress);
    if let Some(w) = writer.borrow_mut().as_mut() {
        if let Err(e) = w.sync() {
            eprintln!("mehpt-lab: journal sync failed: {e}");
        }
    }

    // Index the union's results by identity, then slice a report out for
    // each preset in its own grid order.
    let by_id: std::collections::HashMap<String, &crate::report::CellResult> =
        results.iter().map(|r| (r.spec.id(), r)).collect();
    let mut any_failed = false;
    for &preset in &args.presets {
        let cells = preset_specs(preset, args)
            .iter()
            .filter_map(|s| by_id.get(&s.id()).map(|&r| r.clone()))
            .collect::<Vec<_>>();
        let report = LabReport {
            preset: preset.name().to_string(),
            scale: args.tuning.scale,
            base_seed: args.tuning.base_seed,
            seeds: args.seeds.max(1),
            retries: args.retries,
            timeout_secs: timeout_secs.map(|s| s as f64),
            fault: args.fault.as_ref().map(|p| p.spec().to_string()),
            cells,
        };
        any_failed |= report.counts().bad() > 0;
        print!("{}", preset.render(&report));
        if let Err(e) = write_reports(preset, &report, args) {
            eprintln!("mehpt-lab: cannot write reports: {e}");
            return 1;
        }
    }

    let c = StatusCounts::tally(&results);
    eprintln!(
        "mehpt-lab: {} ok, {} aborted, {} failed, {} timed out; reports under {}",
        c.ok,
        c.aborted,
        c.failed,
        c.timed_out,
        args.out.display()
    );
    i32::from(any_failed)
}

fn write_reports(preset: Preset, report: &LabReport, args: &LabArgs) -> std::io::Result<()> {
    let dir = args.out.join(preset.name());
    std::fs::create_dir_all(&dir)?;
    write_atomic(&dir.join("report.json"), &report.to_json())?;
    write_atomic(&dir.join("report.csv"), &report.to_csv())?;
    Ok(())
}

/// Writes via a same-directory temp file + fsync + rename, so a crash
/// mid-write (or a concurrent reader) never observes a truncated report
/// — and a crash right *after* the rename cannot leave an empty file
/// behind the new name (the data is durable before it becomes visible).
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let write_synced = |tmp: &Path| -> std::io::Result<()> {
        let mut f = std::fs::File::create(tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()
    };
    write_synced(&tmp)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// Silences the default "thread panicked" message for engine workers: a
/// caught cell panic is reported through the progress stream and the report,
/// not as scary stderr noise. Panics on other threads keep the default hook.
pub fn mute_worker_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let muted = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with(WORKER_THREAD_PREFIX));
        if !muted {
            default(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_workloads::App;

    fn parse(args: &[&str]) -> Result<LabArgs, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_presets_and_flags() {
        let a = parse(&[
            "table1", "fig9", "--jobs", "4", "--quick", "--seed", "0xabc",
        ])
        .unwrap();
        assert_eq!(a.presets, vec![Preset::Table1, Preset::Fig9]);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.tuning.base_seed, 0xabc);
        assert_eq!(a.tuning.scale, Tuning::quick().scale);
    }

    #[test]
    fn explicit_scale_beats_quick() {
        let a = parse(&["fig16", "--quick", "--scale", "0.5"]).unwrap();
        assert_eq!(a.tuning.scale, 0.5);
        assert_eq!(a.tuning.mem_bytes, Tuning::quick().mem_bytes);
    }

    #[test]
    fn all_selects_every_preset() {
        let a = parse(&["all"]).unwrap();
        assert_eq!(a.presets.len(), PRESETS.len());
    }

    #[test]
    fn rejects_unknowns_and_empty() {
        assert!(parse(&["fig99"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["table1", "--frag", "1.5"]).is_err());
    }

    #[test]
    fn resume_retries_and_journal_flags_parse() {
        let a = parse(&[
            "fig7",
            "--resume",
            "--retries",
            "2",
            "--journal",
            "/tmp/j.bin",
            "--out",
            "/tmp/lab",
        ])
        .unwrap();
        assert!(a.resume);
        assert_eq!(a.retries, 2);
        assert_eq!(a.journal_path(), PathBuf::from("/tmp/j.bin"));
        let b = parse(&["fig7", "--out", "/tmp/lab"]).unwrap();
        assert!(!b.resume);
        assert_eq!(b.retries, 0);
        assert_eq!(b.journal_path(), PathBuf::from("/tmp/lab/sweep.journal"));
        assert!(parse(&["fig7", "--retries"]).is_err());
        assert!(parse(&["fig7", "--journal"]).is_err());
    }

    #[test]
    fn timeout_and_fault_flags_parse() {
        let a = parse(&["fig7", "--timeout", "2", "--fault", "hang:gups-ecpt"]).unwrap();
        assert_eq!(a.tuning.timeout_secs, Some(2));
        assert_eq!(a.effective_timeout_secs(), Some(2));
        assert_eq!(a.fault.as_ref().unwrap().spec(), "hang:gups-ecpt");
        assert!(parse(&["fig7", "--timeout", "0"]).is_err());
        assert!(parse(&["fig7", "--fault", "explode:@2"]).is_err());
        // Without --timeout, fig7's own per-preset default applies; an
        // explicit flag overrides it.
        let d = parse(&["fig7"]).unwrap();
        assert_eq!(d.tuning.timeout_secs, None);
        assert_eq!(
            d.effective_timeout_secs(),
            Preset::Fig7.default_timeout_secs()
        );
        assert!(d.effective_timeout_secs().is_some());
        // A preset without a default runs unwatched.
        assert_eq!(parse(&["table1"]).unwrap().effective_timeout_secs(), None);
    }

    #[test]
    fn union_dedups_shared_cells() {
        let mut a = parse(&["fig11", "fig12", "fig13", "fig14"]).unwrap();
        a.tuning = Tuning::quick();
        let union = union_specs(&a);
        // fig11–fig14 share one grid: 11 apps × 2 thp, simulated once.
        assert_eq!(union.len(), 22);
    }

    #[test]
    fn union_keeps_distinct_cells() {
        let mut a = parse(&["table1", "fig8"]).unwrap();
        a.tuning = Tuning::quick();
        // table1: radix+ecpt (44); fig8 adds mehpt cells (22) and shares ecpt.
        assert_eq!(union_specs(&a).len(), 66);
    }

    fn command(args: &[&str]) -> Result<Command, String> {
        parse_command(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn run_word_and_preset_flag_and_seeds() {
        let Ok(Command::Lab(a)) = command(&["run", "--preset", "fig7", "--seeds", "5"]) else {
            panic!("expected a lab command");
        };
        assert_eq!(a.presets, vec![Preset::Fig7]);
        assert_eq!(a.seeds, 5);
        // Bare presets still work without the `run` word; --seeds 0 clamps.
        let Ok(Command::Lab(b)) = command(&["fig7", "--seeds", "0"]) else {
            panic!("expected a lab command");
        };
        assert_eq!(b.presets, vec![Preset::Fig7]);
        assert_eq!(b.seeds, 1);
        assert!(command(&["--preset", "fig99"]).is_err());
    }

    #[test]
    fn diff_subcommand_parses_paths_and_tolerances() {
        let Ok(Command::Diff(d)) = command(&[
            "diff",
            "a.json",
            "b.json",
            "--abs-tol",
            "0.5",
            "--rel-tol",
            "0.01",
            "--no-ci",
        ]) else {
            panic!("expected a diff command");
        };
        assert_eq!(d.a, PathBuf::from("a.json"));
        assert_eq!(d.b, PathBuf::from("b.json"));
        assert_eq!(d.opts.abs_tol, 0.5);
        assert_eq!(d.opts.rel_tol, 0.01);
        assert!(!d.opts.ci_overlap);
        assert!(command(&["diff", "a.json"]).is_err());
        assert!(command(&["diff", "a.json", "b.json", "c.json"]).is_err());
        assert!(command(&["diff", "a.json", "b.json", "--abs-tol", "-1"]).is_err());
        assert!(command(&["diff", "a.json", "b.json", "--wat"]).is_err());
    }

    #[test]
    fn diffing_a_written_report_against_itself_is_clean() {
        let dir = std::env::temp_dir().join(format!("mehpt-diff-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let grid = crate::grid::ExperimentGrid::paper(
            vec![App::Mummer],
            vec![mehpt_sim::PtKind::MeHpt],
            vec![false],
        );
        let t = Tuning {
            scale: 0.002,
            ..Tuning::quick()
        };
        let cells = engine::run_cells(&grid.expand(&t), &RunOptions::with_jobs(1), &|_| {});
        let report = LabReport {
            preset: "t".into(),
            scale: t.scale,
            base_seed: t.base_seed,
            seeds: 1,
            retries: 0,
            timeout_secs: None,
            fault: None,
            cells,
        };
        std::fs::write(&path, report.to_json()).unwrap();
        let d = DiffArgs {
            a: path.clone(),
            b: path.clone(),
            opts: DiffOptions::default(),
        };
        assert_eq!(run_diff(&d), 0);
        assert_eq!(
            run_diff(&DiffArgs {
                a: dir.join("nope.json"),
                ..d
            }),
            3,
            "an unreadable report is an I/O error, not a usage error"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_round_trips_a_report_with_failed_cells() {
        // The satellite fix: a failed/timed-out cell has no stats or
        // metrics blocks, and diff must skip (and count) it on either
        // side instead of erroring out.
        let dir =
            std::env::temp_dir().join(format!("mehpt-diff-fault-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let grid = crate::grid::ExperimentGrid::paper(
            vec![App::Mummer, App::Gups],
            vec![mehpt_sim::PtKind::MeHpt],
            vec![false],
        );
        let t = Tuning {
            scale: 0.002,
            ..Tuning::quick()
        };
        let plan = FaultPlan::parse("panic:gups").unwrap();
        let opts = RunOptions {
            fault: Some(plan.clone()),
            ..RunOptions::with_jobs(2)
        };
        let cells = engine::run_cells(&grid.expand(&t), &opts, &|_| {});
        let report = LabReport {
            preset: "t".into(),
            scale: t.scale,
            base_seed: t.base_seed,
            seeds: 1,
            retries: 0,
            timeout_secs: None,
            fault: Some(plan.spec().to_string()),
            cells,
        };
        assert_eq!(report.counts().failed, 1);
        let json = report.to_json();
        std::fs::write(&path, &json).unwrap();
        let d = DiffArgs {
            a: path.clone(),
            b: path,
            opts: DiffOptions::default(),
        };
        assert_eq!(run_diff(&d), 0, "self-diff with a failed cell is clean");
        let diff = diff_texts(&json, &json, &DiffOptions::default()).unwrap();
        assert!(diff.clean());
        assert_eq!(
            diff.cells_skipped, 1,
            "the failed cell is counted, not compared"
        );
        assert_eq!(diff.cells_compared, 1, "the healthy cell still compares");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_writes_leave_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("mehpt-atomic-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_atomic(&path, "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
