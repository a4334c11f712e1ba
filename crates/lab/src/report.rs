//! Cell results and the structured sweep report (JSON + CSV).
//!
//! Schema v4 (see [`SCHEMA_VERSION`]): a report carries the replication
//! factor (`seeds`), the failure-handling configuration (`timeout_secs`,
//! the active `fault` spec, the retry budget `retries`), each cell lists
//! its per-replicate outcomes — including the full per-attempt history
//! when `--retries` re-ran a failed replicate — and an aggregated
//! [`CellStats`] block (mean/min/max/95% CI per headline metric), and the
//! whole document stays a pure function of the grid, the seeds and that
//! configuration — byte-identical for every `--jobs` value, diffable with
//! `mehpt-lab diff`. Failure records are deliberately
//! configuration-shaped: a timed-out replicate serializes its status and
//! the *configured* deadline, never measured wall-clock.

use mehpt_sim::PtKind;

use crate::grid::{CellSpec, Variant};
use crate::json::Json;
use crate::stats::CellStats;

/// Version stamp of the serialized JSON report. Bumped to 4 when retry
/// support landed: the report-level `retries` budget, per-replicate
/// `attempts` histories and the `summary.workers_abandoned` count. (v3
/// added failure records — the `timed_out` status, `timeout_secs`,
/// `fault` and `summary.timed_out`; v2 added `seeds`, per-cell
/// `replicates` and `stats`.)
pub const SCHEMA_VERSION: u64 = 4;

/// How a cell ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// The simulation ran to completion.
    Ok,
    /// The simulation finished early by design (e.g. the paper's ECPT
    /// contiguous-allocation failure above 0.7 FMFI). Metrics are present.
    Aborted,
    /// The cell panicked; the panic was caught and the rest of the sweep
    /// continued. No metrics.
    Failed,
    /// The cell exceeded the configured watchdog deadline; its worker was
    /// abandoned and the rest of the sweep continued. No metrics.
    TimedOut,
}

impl CellStatus {
    /// Lower-case report label.
    pub fn label(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Aborted => "aborted",
            CellStatus::Failed => "failed",
            CellStatus::TimedOut => "timed_out",
        }
    }

    /// Whether this status is a harness failure (no usable metrics), as
    /// opposed to a completed or modeled-abort outcome.
    pub fn is_failure(self) -> bool {
        matches!(self, CellStatus::Failed | CellStatus::TimedOut)
    }

    /// Parses a label produced by [`CellStatus::label`] (the journal's
    /// reader side).
    pub fn parse(label: &str) -> Option<CellStatus> {
        match label {
            "ok" => Some(CellStatus::Ok),
            "aborted" => Some(CellStatus::Aborted),
            "failed" => Some(CellStatus::Failed),
            "timed_out" => Some(CellStatus::TimedOut),
            _ => None,
        }
    }
}

/// The deterministic measurements of one completed cell: the simulator's
/// [`Metrics`](mehpt_sim::Metrics). Wall-clock time deliberately lives
/// outside it (on [`CellResult`]) so serialized reports are bit-identical
/// across thread counts and machines.
pub use mehpt_sim::Metrics as CellMetrics;

/// A replicate's or cell's `metrics` entry: `null` when it has none.
fn metrics_json(m: Option<&CellMetrics>) -> Json {
    let Some(m) = m else {
        return Json::Null;
    };
    Json::obj(vec![
        ("accesses", Json::UInt(m.accesses)),
        ("total_cycles", Json::UInt(m.total_cycles)),
        ("base_cycles", Json::UInt(m.base_cycles)),
        ("translation_cycles", Json::UInt(m.translation_cycles)),
        ("fault_cycles", Json::UInt(m.fault_cycles)),
        ("alloc_cycles", Json::UInt(m.alloc_cycles)),
        ("os_pt_cycles", Json::UInt(m.os_pt_cycles)),
        ("faults", Json::UInt(m.faults)),
        ("pages_4k", Json::UInt(m.pages_4k)),
        ("pages_2m", Json::UInt(m.pages_2m)),
        ("tlb_miss_rate", Json::Num(m.tlb_miss_rate)),
        ("walks", Json::UInt(m.walks)),
        ("mean_walk_accesses", Json::Num(m.mean_walk_accesses)),
        ("mean_walk_cycles", Json::Num(m.mean_walk_cycles)),
        ("pt_final_bytes", Json::UInt(m.pt_final_bytes)),
        ("pt_peak_bytes", Json::UInt(m.pt_peak_bytes)),
        ("pt_max_contiguous", Json::UInt(m.pt_max_contiguous)),
        ("way_sizes_4k", Json::uints(&m.way_sizes_4k)),
        ("way_phys_4k", Json::uints(&m.way_phys_4k)),
        ("upsizes_per_way_4k", Json::uints(&m.upsizes_per_way_4k)),
        ("upsizes_per_way_2m", Json::uints(&m.upsizes_per_way_2m)),
        ("moved_fraction_4k", Json::Num(m.moved_fraction_4k)),
        ("kicks_histogram", Json::uints(&m.kicks_histogram)),
        ("l2p_entries_used", Json::UInt(m.l2p_entries_used)),
        ("chunk_switches", Json::UInt(m.chunk_switches)),
        ("data_bytes_nominal", Json::UInt(m.data_bytes_nominal)),
    ])
}

fn metrics_from_json(v: &Json) -> Result<CellMetrics, String> {
    let uint = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("metrics: missing integer field {key:?}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metrics: missing numeric field {key:?}"))
    };
    let uints = |key: &str| -> Result<Vec<u64>, String> {
        v.get(key)
            .and_then(Json::as_arr)
            .map(|items| items.iter().filter_map(Json::as_u64).collect::<Vec<u64>>())
            .ok_or_else(|| format!("metrics: missing array field {key:?}"))
    };
    Ok(CellMetrics {
        accesses: uint("accesses")?,
        total_cycles: uint("total_cycles")?,
        base_cycles: uint("base_cycles")?,
        translation_cycles: uint("translation_cycles")?,
        fault_cycles: uint("fault_cycles")?,
        alloc_cycles: uint("alloc_cycles")?,
        os_pt_cycles: uint("os_pt_cycles")?,
        faults: uint("faults")?,
        pages_4k: uint("pages_4k")?,
        pages_2m: uint("pages_2m")?,
        tlb_miss_rate: num("tlb_miss_rate")?,
        walks: uint("walks")?,
        mean_walk_accesses: num("mean_walk_accesses")?,
        mean_walk_cycles: num("mean_walk_cycles")?,
        pt_final_bytes: uint("pt_final_bytes")?,
        pt_peak_bytes: uint("pt_peak_bytes")?,
        pt_max_contiguous: uint("pt_max_contiguous")?,
        way_sizes_4k: uints("way_sizes_4k")?,
        way_phys_4k: uints("way_phys_4k")?,
        upsizes_per_way_4k: uints("upsizes_per_way_4k")?,
        upsizes_per_way_2m: uints("upsizes_per_way_2m")?,
        moved_fraction_4k: num("moved_fraction_4k")?,
        kicks_histogram: uints("kicks_histogram")?,
        l2p_entries_used: uint("l2p_entries_used")?,
        chunk_switches: uint("chunk_switches")?,
        data_bytes_nominal: uint("data_bytes_nominal")?,
    })
}

/// One attempt at running a replicate: the retry machinery's audit trail.
///
/// Attempt 0 runs the classic replicate seed; retry attempts run
/// identity-derived retry seeds ([`CellSpec::retry_seed`]). The final
/// attempt's outcome *is* the replicate's outcome; earlier entries record
/// what `--retries` recovered from.
#[derive(Clone, Debug, PartialEq)]
pub struct AttemptRecord {
    /// Attempt index (0 = the original run).
    pub attempt: u32,
    /// The seed this attempt simulated under.
    pub seed: u64,
    /// How this attempt ended.
    pub status: CellStatus,
    /// Abort reason, caught panic message or watchdog record, when not
    /// [`CellStatus::Ok`].
    pub error: Option<String>,
}

impl AttemptRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("attempt", Json::UInt(self.attempt as u64)),
            ("seed", Json::UInt(self.seed)),
            ("status", Json::Str(self.status.label().to_string())),
            ("error", Json::opt_str(self.error.as_deref())),
        ])
    }

    fn from_json(v: &Json) -> Result<AttemptRecord, String> {
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .and_then(CellStatus::parse)
            .ok_or_else(|| "attempt: bad status".to_string())?;
        Ok(AttemptRecord {
            attempt: v
                .get("attempt")
                .and_then(Json::as_u64)
                .ok_or_else(|| "attempt: missing index".to_string())? as u32,
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| "attempt: missing seed".to_string())?,
            status,
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// The outcome of one replicate of one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct RepResult {
    /// Replicate index (0-based; replicate 0 runs the cell seed itself).
    pub replicate: u32,
    /// The identity-derived seed this replicate's *final* attempt
    /// simulated under (the classic replicate seed unless retried).
    pub seed: u64,
    /// How this replicate ended (the final attempt's status).
    pub status: CellStatus,
    /// Abort reason or caught panic message, when not [`CellStatus::Ok`].
    pub error: Option<String>,
    /// The replicate's measurements ([`None`] after a panic).
    pub metrics: Option<CellMetrics>,
    /// Wall-clock milliseconds (progress stream only, never serialized).
    pub wall_millis: u64,
    /// Full attempt history, in attempt order; never empty. The last
    /// entry is the final attempt, whose seed, status and error the fields
    /// above repeat.
    pub attempts: Vec<AttemptRecord>,
}

impl RepResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("replicate", Json::UInt(self.replicate as u64)),
            ("seed", Json::UInt(self.seed)),
            ("status", Json::Str(self.status.label().to_string())),
            ("error", Json::opt_str(self.error.as_deref())),
            (
                "attempts",
                Json::Arr(self.attempts.iter().map(AttemptRecord::to_json).collect()),
            ),
        ])
    }

    /// The journal-record payload: the report-side fields *plus* the full
    /// metrics block, so a resumed sweep can rebuild stats bit-for-bit.
    pub(crate) fn to_journal_json(&self) -> Json {
        let mut json = self.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.push(("metrics".to_string(), metrics_json(self.metrics.as_ref())));
        }
        json
    }

    /// Parses a journal-record payload written by
    /// [`RepResult::to_journal_json`]. `wall_millis` is zero — it never
    /// enters the serialized report, so resumed reports stay
    /// byte-identical to uninterrupted ones.
    pub(crate) fn from_journal_json(v: &Json) -> Result<RepResult, String> {
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .and_then(CellStatus::parse)
            .ok_or_else(|| "replicate: bad status".to_string())?;
        let attempts = v
            .get("attempts")
            .and_then(Json::as_arr)
            .ok_or_else(|| "replicate: missing attempts".to_string())?
            .iter()
            .map(AttemptRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if attempts.is_empty() {
            return Err("replicate: empty attempt history".to_string());
        }
        let metrics = match v.get("metrics") {
            None | Some(Json::Null) => None,
            Some(m) => Some(metrics_from_json(m)?),
        };
        Ok(RepResult {
            replicate: v
                .get("replicate")
                .and_then(Json::as_u64)
                .ok_or_else(|| "replicate: missing index".to_string())?
                as u32,
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| "replicate: missing seed".to_string())?,
            status,
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
            metrics,
            wall_millis: 0,
            attempts,
        })
    }
}

/// The outcome of one cell: every replicate, plus the aggregate view.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// What was run.
    pub spec: CellSpec,
    /// Aggregate status: [`CellStatus::Failed`] if any replicate panicked,
    /// else [`CellStatus::TimedOut`] if any replicate hit the watchdog,
    /// else [`CellStatus::Aborted`] if any replicate hit a modeled abort,
    /// else [`CellStatus::Ok`].
    pub status: CellStatus,
    /// The first replicate error, when not [`CellStatus::Ok`].
    pub error: Option<String>,
    /// Replicate 0's measurements ([`None`] when it failed). The primary
    /// replicate: single-seed sweeps and every table renderer read this.
    pub metrics: Option<CellMetrics>,
    /// Every replicate's outcome, in replicate order (length = `--seeds`).
    pub replicates: Vec<RepResult>,
    /// Mean/min/max/95% CI over the metric-bearing replicates ([`None`]
    /// when every replicate failed).
    pub stats: Option<CellStats>,
    /// Total wall-clock milliseconds across replicates. Streamed to
    /// progress output and aggregated on stderr, but **never serialized**
    /// — reports must be identical across `--jobs` settings.
    pub wall_millis: u64,
}

impl CellResult {
    /// Assembles a cell from its replicate outcomes (order-invariant: the
    /// list is sorted by replicate index first, and stats aggregation
    /// canonicalizes value order internally).
    pub fn from_replicates(spec: CellSpec, mut reps: Vec<RepResult>) -> CellResult {
        assert!(!reps.is_empty(), "a cell has at least one replicate");
        reps.sort_by_key(|r| r.replicate);
        let status = if reps.iter().any(|r| r.status == CellStatus::Failed) {
            CellStatus::Failed
        } else if reps.iter().any(|r| r.status == CellStatus::TimedOut) {
            CellStatus::TimedOut
        } else if reps.iter().any(|r| r.status == CellStatus::Aborted) {
            CellStatus::Aborted
        } else {
            CellStatus::Ok
        };
        let error = reps.iter().find_map(|r| r.error.clone());
        let metric_refs: Vec<&CellMetrics> =
            reps.iter().filter_map(|r| r.metrics.as_ref()).collect();
        let stats = CellStats::from_metrics(&metric_refs);
        CellResult {
            metrics: reps[0].metrics.clone(),
            wall_millis: reps.iter().map(|r| r.wall_millis).sum(),
            status,
            error,
            stats,
            replicates: reps,
            spec,
        }
    }

    /// Convenience constructor for a single-replicate cell.
    pub fn single(spec: CellSpec, rep: RepResult) -> CellResult {
        CellResult::from_replicates(spec, vec![rep])
    }

    fn to_json(&self) -> Json {
        let s = &self.spec;
        Json::obj(vec![
            ("id", Json::Str(s.id())),
            ("app", Json::Str(s.app.name().to_string())),
            ("kind", Json::Str(s.kind.label().to_string())),
            ("thp", Json::Bool(s.thp)),
            ("variant", Json::Str(s.variant.tag().to_string())),
            ("fragmentation", Json::Num(s.fragmentation)),
            ("graph_nodes", Json::UInt(s.graph_nodes)),
            ("seed", Json::UInt(s.seed)),
            ("status", Json::Str(self.status.label().to_string())),
            ("error", Json::opt_str(self.error.as_deref())),
            (
                "replicates",
                Json::Arr(self.replicates.iter().map(RepResult::to_json).collect()),
            ),
            (
                "stats",
                match &self.stats {
                    Some(st) => st.to_json(),
                    None => Json::Null,
                },
            ),
            ("metrics", metrics_json(self.metrics.as_ref())),
        ])
    }
}

/// Per-status cell tallies of a sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Cells that completed normally.
    pub ok: usize,
    /// Cells that hit a modeled abort.
    pub aborted: usize,
    /// Cells with a panicked replicate.
    pub failed: usize,
    /// Cells with a watchdog-abandoned replicate (and no panicked one).
    pub timed_out: usize,
}

impl StatusCounts {
    /// Tallies `cells` by status.
    pub fn tally(cells: &[CellResult]) -> StatusCounts {
        let mut c = StatusCounts::default();
        for cell in cells {
            match cell.status {
                CellStatus::Ok => c.ok += 1,
                CellStatus::Aborted => c.aborted += 1,
                CellStatus::Failed => c.failed += 1,
                CellStatus::TimedOut => c.timed_out += 1,
            }
        }
        c
    }

    /// Harness failures: panicked plus timed-out cells. Non-zero makes
    /// the CLI exit 1.
    pub fn bad(&self) -> usize {
        self.failed + self.timed_out
    }
}

/// A whole sweep's structured report: every cell plus aggregate counts.
#[derive(Clone, Debug)]
pub struct LabReport {
    /// Preset or sweep name.
    pub preset: String,
    /// The uniform workload scale the sweep ran at.
    pub scale: f64,
    /// The base seed the per-cell seeds derive from.
    pub base_seed: u64,
    /// Replicates per cell (`--seeds`; 1 = the classic single-seed sweep).
    pub seeds: u32,
    /// Retry budget per replicate (`--retries`; 0 = single attempt).
    pub retries: u32,
    /// The watchdog deadline the sweep ran under, in seconds
    /// ([`None`] = no watchdog). Configuration, not measurement: this is
    /// the only duration that ever enters the serialized report.
    pub timeout_secs: Option<f64>,
    /// The active fault-injection spec ([`None`] outside fault testing).
    pub fault: Option<String>,
    /// Per-cell outcomes, in grid-expansion order.
    pub cells: Vec<CellResult>,
}

impl LabReport {
    /// Per-status cell counts.
    pub fn counts(&self) -> StatusCounts {
        StatusCounts::tally(&self.cells)
    }

    /// Total wall-clock milliseconds across cells (CPU-side; not part of
    /// the serialized report).
    pub fn total_wall_millis(&self) -> u64 {
        self.cells.iter().map(|c| c.wall_millis).sum()
    }

    /// Worker threads the watchdog abandoned over the sweep: one per
    /// timed-out *attempt* across every replicate of every cell. Derived
    /// from the records — not from runtime events — so the count is
    /// deterministic and survives a journal resume unchanged.
    pub fn workers_abandoned(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|c| &c.replicates)
            .flat_map(|r| &r.attempts)
            .filter(|a| a.status == CellStatus::TimedOut)
            .count() as u64
    }

    /// Looks up one cell by its grid coordinates (the first match on any
    /// graph size).
    pub fn cell(
        &self,
        app: mehpt_workloads::App,
        kind: PtKind,
        thp: bool,
        variant: Variant,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.spec.app == app
                && c.spec.kind == kind
                && c.spec.thp == thp
                && c.spec.variant == variant
        })
    }

    /// Looks up one cell by grid coordinates including the graph size.
    pub fn cell_at(
        &self,
        app: mehpt_workloads::App,
        kind: PtKind,
        thp: bool,
        variant: Variant,
        graph_nodes: u64,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.spec.app == app
                && c.spec.kind == kind
                && c.spec.thp == thp
                && c.spec.variant == variant
                && c.spec.graph_nodes == graph_nodes
        })
    }

    /// Looks up one cell's metrics by its grid coordinates (graph size
    /// defaults to the first matching cell).
    pub fn metrics(
        &self,
        app: mehpt_workloads::App,
        kind: PtKind,
        thp: bool,
        variant: Variant,
    ) -> Option<&CellMetrics> {
        self.cell(app, kind, thp, variant)
            .and_then(|c| c.metrics.as_ref())
    }

    /// The serialized JSON report. Deterministic: a pure function of the
    /// cell specs, the failure-handling configuration and the simulation
    /// results.
    pub fn to_json(&self) -> String {
        let counts = self.counts();
        let total_cycles: u64 = self
            .cells
            .iter()
            .filter_map(|c| c.metrics.as_ref())
            .map(|m| m.total_cycles)
            .sum();
        let total_accesses: u64 = self
            .cells
            .iter()
            .filter_map(|c| c.metrics.as_ref())
            .map(|m| m.accesses)
            .sum();
        Json::obj(vec![
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("preset", Json::Str(self.preset.clone())),
            ("scale", Json::Num(self.scale)),
            ("base_seed", Json::UInt(self.base_seed)),
            ("seeds", Json::UInt(self.seeds as u64)),
            ("retries", Json::UInt(self.retries as u64)),
            ("timeout_secs", Json::opt_num(self.timeout_secs)),
            ("fault", Json::opt_str(self.fault.as_deref())),
            (
                "summary",
                Json::obj(vec![
                    ("cells", Json::UInt(self.cells.len() as u64)),
                    ("ok", Json::UInt(counts.ok as u64)),
                    ("aborted", Json::UInt(counts.aborted as u64)),
                    ("failed", Json::UInt(counts.failed as u64)),
                    ("timed_out", Json::UInt(counts.timed_out as u64)),
                    ("workers_abandoned", Json::UInt(self.workers_abandoned())),
                    ("total_cycles", Json::UInt(total_cycles)),
                    ("total_accesses", Json::UInt(total_accesses)),
                ]),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(CellResult::to_json).collect()),
            ),
        ])
        .render()
    }

    /// The CSV report: one row per cell with the headline metrics of the
    /// primary replicate plus the aggregate mean/min/max/CI columns
    /// (empty aggregate columns for all-failed cells). `attempts` totals
    /// the attempts made across the cell's replicates — it exceeds
    /// `replicates` exactly when `--retries` re-ran something.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "id,app,kind,thp,variant,graph_nodes,fragmentation,seed,status,replicates,attempts,\
             accesses,total_cycles,faults,pages_4k,pages_2m,tlb_miss_rate,\
             walks,mean_walk_cycles,pt_final_bytes,pt_peak_bytes,\
             pt_max_contiguous,l2p_entries_used,chunk_switches,\
             cpa_mean,cpa_min,cpa_max,cpa_ci95,\
             total_cycles_mean,total_cycles_ci95,pt_peak_bytes_mean,pt_peak_bytes_ci95,\
             error\n",
        );
        for cell in &self.cells {
            let s = &cell.spec;
            let m = cell.metrics.as_ref();
            let num = |f: Option<u64>| f.map(|v| v.to_string()).unwrap_or_default();
            let fnum = |f: Option<f64>| f.map(|v| format!("{v}")).unwrap_or_default();
            let st = cell.stats.as_ref();
            let cpa = st.and_then(|st| st.field("cycles_per_access")).copied();
            let cyc = st.and_then(|st| st.field("total_cycles")).copied();
            let peak = st.and_then(|st| st.field("pt_peak_bytes")).copied();
            let attempts: usize = cell.replicates.iter().map(|r| r.attempts.len()).sum();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                s.id(),
                s.app.name(),
                s.kind.label(),
                s.thp,
                s.variant.tag(),
                s.graph_nodes,
                s.fragmentation,
                s.seed,
                cell.status.label(),
                cell.replicates.len(),
                attempts,
                num(m.map(|m| m.accesses)),
                num(m.map(|m| m.total_cycles)),
                num(m.map(|m| m.faults)),
                num(m.map(|m| m.pages_4k)),
                num(m.map(|m| m.pages_2m)),
                fnum(m.map(|m| m.tlb_miss_rate)),
                num(m.map(|m| m.walks)),
                fnum(m.map(|m| m.mean_walk_cycles)),
                num(m.map(|m| m.pt_final_bytes)),
                num(m.map(|m| m.pt_peak_bytes)),
                num(m.map(|m| m.pt_max_contiguous)),
                num(m.map(|m| m.l2p_entries_used)),
                num(m.map(|m| m.chunk_switches)),
                fnum(cpa.map(|v| v.mean)),
                fnum(cpa.map(|v| v.min)),
                fnum(cpa.map(|v| v.max)),
                fnum(cpa.map(|v| v.ci95)),
                fnum(cyc.map(|v| v.mean)),
                fnum(cyc.map(|v| v.ci95)),
                fnum(peak.map(|v| v.mean)),
                fnum(peak.map(|v| v.ci95)),
                csv_escape(cell.error.as_deref().unwrap_or("")),
            ));
        }
        out
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{ExperimentGrid, Tuning};
    use mehpt_workloads::App;

    fn fake_metrics(cycles: u64) -> CellMetrics {
        CellMetrics {
            accesses: 100,
            total_cycles: cycles,
            base_cycles: 0,
            translation_cycles: 0,
            fault_cycles: 0,
            alloc_cycles: 0,
            os_pt_cycles: 0,
            faults: 1,
            pages_4k: 1,
            pages_2m: 0,
            tlb_miss_rate: 0.5,
            walks: 2,
            mean_walk_accesses: 1.0,
            mean_walk_cycles: 30.0,
            pt_final_bytes: 4096,
            pt_peak_bytes: 8192,
            pt_max_contiguous: 4096,
            way_sizes_4k: vec![8192; 3],
            way_phys_4k: vec![8192; 3],
            upsizes_per_way_4k: vec![0; 3],
            upsizes_per_way_2m: vec![],
            moved_fraction_4k: 0.5,
            kicks_histogram: vec![10, 2],
            l2p_entries_used: 3,
            chunk_switches: 0,
            data_bytes_nominal: 1 << 30,
        }
    }

    /// The history of a replicate that ran once.
    fn one_attempt(seed: u64, status: CellStatus, error: &Option<String>) -> Vec<AttemptRecord> {
        vec![AttemptRecord {
            attempt: 0,
            seed,
            status,
            error: error.clone(),
        }]
    }

    fn fake_report() -> LabReport {
        let grid =
            ExperimentGrid::paper(vec![App::Gups, App::Bfs], vec![PtKind::MeHpt], vec![false]);
        let cells = grid
            .expand(&Tuning::quick())
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let status = if i == 0 {
                    CellStatus::Ok
                } else {
                    CellStatus::Failed
                };
                let error = (i != 0).then(|| "injected, with comma".to_string());
                let rep = RepResult {
                    replicate: 0,
                    seed: spec.seed,
                    status,
                    attempts: one_attempt(spec.seed, status, &error),
                    error,
                    metrics: (i == 0).then(|| fake_metrics(1000)),
                    wall_millis: 12 + i as u64,
                };
                CellResult::single(spec, rep)
            })
            .collect();
        LabReport {
            preset: "test".into(),
            scale: 0.005,
            base_seed: 0x5eed,
            seeds: 1,
            retries: 0,
            timeout_secs: None,
            fault: None,
            cells,
        }
    }

    #[test]
    fn json_report_is_deterministic_and_ignores_wall_clock() {
        let mut a = fake_report();
        let mut b = fake_report();
        a.cells[0].wall_millis = 1;
        b.cells[0].wall_millis = 99_999;
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"schema_version\": 4"));
        assert!(a.to_json().contains("\"retries\": 0"));
        assert!(a.to_json().contains("\"workers_abandoned\": 0"));
        assert!(a.to_json().contains("\"attempts\": ["));
        assert!(a.to_json().contains("\"timeout_secs\": null"));
        assert!(a.to_json().contains("\"fault\": null"));
        assert!(a.to_json().contains("\"timed_out\": 0"));
        assert!(a.to_json().contains("\"status\": \"failed\""));
        assert!(a.to_json().contains("\"metrics\": null"));
        assert!(a.to_json().contains("\"stats\": null"));
    }

    #[test]
    fn failure_configuration_serializes_and_timed_out_outranks_aborted() {
        let mut r = fake_report();
        r.timeout_secs = Some(2.0);
        r.fault = Some("hang:@2".to_string());
        let spec = r.cells[0].spec.clone();
        let rep = |r: u32, status: CellStatus| {
            let error = status
                .is_failure()
                .then(|| "replicate exceeded the 2s deadline; worker abandoned".to_string());
            RepResult {
                replicate: r,
                seed: spec.replicate_seed(r),
                status,
                attempts: one_attempt(spec.replicate_seed(r), status, &error),
                error,
                metrics: (!status.is_failure()).then(|| fake_metrics(1000)),
                wall_millis: 2000,
            }
        };
        r.cells[0] = CellResult::from_replicates(
            spec.clone(),
            vec![rep(0, CellStatus::Aborted), rep(1, CellStatus::TimedOut)],
        );
        assert_eq!(r.cells[0].status, CellStatus::TimedOut);
        let json = r.to_json();
        assert!(json.contains("\"timeout_secs\": 2"));
        assert!(json.contains("\"fault\": \"hang:@2\""));
        assert!(json.contains("\"status\": \"timed_out\""));
        assert!(json.contains("\"timed_out\": 1"));
        assert!(json.contains("\"workers_abandoned\": 1"));
        assert_eq!(r.workers_abandoned(), 1);
        assert!(json.contains("worker abandoned"));
        let counts = r.counts();
        assert_eq!(counts.timed_out, 1);
        assert_eq!(counts.bad(), 2, "timed-out and failed both count as bad");
        // A timed-out sibling still leaves the surviving replicate's
        // stats in place.
        assert_eq!(r.cells[0].stats.as_ref().unwrap().replicates, 1);
    }

    #[test]
    fn replicate_aggregation_summarizes_statuses_and_stats() {
        let grid = ExperimentGrid::paper(vec![App::Gups], vec![PtKind::MeHpt], vec![false]);
        let spec = grid.expand(&Tuning::quick()).remove(0);
        let rep = |r: u32, cycles: u64, status: CellStatus| {
            let error = (status == CellStatus::Failed).then(|| "boom".to_string());
            RepResult {
                replicate: r,
                seed: spec.replicate_seed(r),
                status,
                attempts: one_attempt(spec.replicate_seed(r), status, &error),
                error,
                metrics: (status != CellStatus::Failed).then(|| fake_metrics(cycles)),
                wall_millis: 5,
            }
        };
        // Out-of-order arrival, one aborted replicate: still aggregates.
        let cell = CellResult::from_replicates(
            spec.clone(),
            vec![
                rep(2, 1200, CellStatus::Aborted),
                rep(0, 1000, CellStatus::Ok),
                rep(1, 1100, CellStatus::Ok),
            ],
        );
        assert_eq!(cell.status, CellStatus::Aborted);
        assert_eq!(cell.replicates.len(), 3);
        assert_eq!(cell.metrics.as_ref().unwrap().total_cycles, 1000);
        let st = cell.stats.as_ref().unwrap();
        assert_eq!(st.replicates, 3);
        let cyc = st.field("total_cycles").unwrap();
        assert!((cyc.mean - 1100.0).abs() < 1e-9);
        assert_eq!((cyc.min, cyc.max), (1000.0, 1200.0));
        assert!(cyc.ci95 > 0.0);

        // A failed primary replicate leaves metrics None but stats intact.
        let cell = CellResult::from_replicates(
            spec.clone(),
            vec![rep(0, 0, CellStatus::Failed), rep(1, 1100, CellStatus::Ok)],
        );
        assert_eq!(cell.status, CellStatus::Failed);
        assert!(cell.metrics.is_none());
        assert_eq!(cell.stats.as_ref().unwrap().replicates, 1);
        assert_eq!(cell.error.as_deref(), Some("boom"));
    }

    #[test]
    fn csv_has_a_row_per_cell_and_escapes_errors() {
        let r = fake_report();
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 1 + r.cells.len());
        assert!(csv.lines().next().unwrap().contains(",attempts,"));
        assert!(csv.contains("\"injected, with comma\""));
    }

    #[test]
    fn attempt_histories_serialize_and_round_trip() {
        // A retried replicate: attempt 0 panicked, attempt 1 succeeded.
        let retried = RepResult {
            replicate: 1,
            seed: 42,
            status: CellStatus::Ok,
            error: None,
            metrics: Some(fake_metrics(1000)),
            wall_millis: 7,
            attempts: vec![
                AttemptRecord {
                    attempt: 0,
                    seed: 41,
                    status: CellStatus::Failed,
                    error: Some("boom".into()),
                },
                AttemptRecord {
                    attempt: 1,
                    seed: 42,
                    status: CellStatus::Ok,
                    error: None,
                },
            ],
        };
        let text = retried.to_journal_json().render();
        let back = RepResult::from_journal_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.attempts, retried.attempts);
        assert_eq!(back.metrics, retried.metrics);
        assert_eq!(back.wall_millis, 0, "wall-clock never round-trips");
        assert_eq!(back.to_journal_json().render(), text);

        // A single timed-out attempt serializes its one record, and the
        // parsed form serializes to the very same bytes.
        let error = Some("replicate exceeded the 2s deadline; worker abandoned".to_string());
        let plain = RepResult {
            replicate: 0,
            seed: 7,
            status: CellStatus::TimedOut,
            attempts: one_attempt(7, CellStatus::TimedOut, &error),
            error,
            metrics: None,
            wall_millis: 2000,
        };
        let text = plain.to_journal_json().render();
        assert_eq!(text.matches("\"attempt\": ").count(), 1);
        let back = RepResult::from_journal_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.attempts, plain.attempts);
        assert_eq!(back.to_journal_json().render(), text);
        assert!(RepResult::from_journal_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn counts_and_speedup() {
        let r = fake_report();
        let counts = r.counts();
        assert_eq!(
            counts,
            StatusCounts {
                ok: 1,
                aborted: 0,
                failed: 1,
                timed_out: 0
            }
        );
        assert_eq!(counts.bad(), 1);
        let fast = fake_metrics(100);
        let slow = fake_metrics(300);
        assert!((fast.speedup_over(&slow) - 3.0).abs() < 1e-9);
    }
}
