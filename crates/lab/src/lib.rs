//! # mehpt-lab — parallel, deterministic experiment execution
//!
//! The lab turns the paper's evaluation (Tables I–II, Figures 7–16) into
//! declarative experiment grids and runs them on a work-stealing thread
//! pool with three guarantees:
//!
//! 1. **Determinism.** Every cell's randomness derives from its identity
//!    string and the base seed (replicate seeds from the cell seed and the
//!    replicate index), results are ordered by grid position, and
//!    wall-clock time never enters a report — `--jobs 1` and `--jobs 8`
//!    write byte-identical JSON and CSV, which `mehpt-lab diff` verifies.
//! 2. **Panic isolation.** Each replicate runs under `catch_unwind`; one
//!    crashing simulation marks that cell `failed` in the report while the
//!    rest of the sweep completes.
//! 3. **Bounded execution.** With a watchdog deadline (`--timeout`), a
//!    hung replicate is marked `timed_out` — recording the *configured*
//!    deadline, never wall-clock — its worker is abandoned and respawned,
//!    and the sweep completes. With `--retries N`, failed and timed-out
//!    replicates are deterministically re-run under identity-derived
//!    retry seeds, with the full attempt history in the report.
//!    Deterministic fault injection (`--fault`, [`fault::FaultPlan`])
//!    turns these isolation guarantees into testable assertions.
//! 4. **Crash safety.** Every sweep appends finished replicates to a
//!    checksummed, length-prefixed result [`journal`]; `--resume` replays
//!    it (verifying CRCs, truncating torn tails, discarding records whose
//!    configuration fingerprint no longer matches) and runs only the
//!    missing replicates — producing a report *byte-identical* to an
//!    uninterrupted run at any `--jobs` setting.
//! 5. **Structured output.** Per-replicate progress streams to stderr;
//!    rendered paper tables go to stdout; machine-readable `report.json`
//!    and `report.csv` (schema v4: per-cell replicate outcomes, attempt
//!    histories, failure records, mean/min/max/95% CI aggregates) land
//!    atomically (fsynced temp file + rename) under `target/lab/<preset>/`.
//!
//! Everything is std-only: the workspace builds with no crates-io
//! dependencies (JSON — writer *and* parser — is hand-rolled in [`json`]).
//!
//! ```no_run
//! use mehpt_lab::engine::{run_cells, RunOptions};
//! use mehpt_lab::grid::Tuning;
//! use mehpt_lab::presets::Preset;
//! use mehpt_lab::report::LabReport;
//!
//! let specs = Preset::Fig16.grid().expand(&Tuning::quick());
//! let cells = run_cells(&specs, &RunOptions::default(), &|p| {
//!     eprintln!("[{}/{}] {}", p.done, p.total, p.id);
//! });
//! let report = LabReport {
//!     preset: "fig16".into(),
//!     scale: 0.005,
//!     base_seed: 0x5eed,
//!     seeds: 1,
//!     retries: 0,
//!     timeout_secs: None,
//!     fault: None,
//!     cells,
//! };
//! print!("{}", Preset::Fig16.render(&report));
//! ```

pub mod cli;
pub mod diff;
pub mod engine;
pub mod fault;
pub mod fmt;
pub mod grid;
pub mod journal;
pub mod json;
pub mod presets;
pub mod report;
pub mod stats;

pub use diff::{DiffOptions, DiffReport};
pub use engine::{run_cells, run_cells_with, Progress, RunOptions};
pub use fault::{FaultKind, FaultPlan};
pub use grid::{CellSpec, ExperimentGrid, FmfiAxis, Tuning, Variant};
pub use journal::{JournalRecord, JournalWriter, Recovered, JOURNAL_FORMAT_VERSION};
pub use presets::{Preset, PRESETS};
pub use report::{
    AttemptRecord, CellMetrics, CellResult, CellStatus, LabReport, RepResult, StatusCounts,
    SCHEMA_VERSION,
};
pub use stats::{CellStats, MetricStats};
