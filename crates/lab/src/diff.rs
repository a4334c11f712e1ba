//! `mehpt-lab diff` — cell-by-cell comparison of two sweep reports.
//!
//! Two reports of the same grid (before/after a model change, two `--jobs`
//! settings, two machines) are matched by cell identity and compared on
//! every metric, each exactly once:
//!
//! * the [`STAT_FIELDS`] headline metrics, read from the cell's `stats`
//!   block (mean and 95% CI over its replicates);
//! * every other key of the cell's `metrics` object (replicate 0's
//!   measurements): each scalar, and each vector's length and elements.
//!   A stat field missing from `stats` is compared here too.
//!
//! A value counts as drift only if it falls outside every acceptance band
//! that applies to it:
//!
//! * the **tolerance band**, for every value: `|a - b| <= abs_tol +
//!   rel_tol * max(|a|, |b|)` (defaults are zero — exact equality, the
//!   right setting for determinism checks);
//! * the **CI band**, for the stat fields only (when both reports carry
//!   multi-seed stats and [`DiffOptions::ci_overlap`] is on): if the two
//!   95% confidence intervals overlap, the difference is within the
//!   sweeps' own run-to-run noise and is not flagged.
//!
//! Cells present on only one side, per-cell status changes and metrics
//! present on only one side are always drift. Cells that *failed*
//! (panicked or timed out) on either side carry no comparable metrics;
//! their statuses are still compared, but their fields are skipped and
//! counted ([`DiffReport::cells_skipped`]) instead of flagged as missing.
//! Schema v2, v3 and v4 reports share the `stats` and `metrics` layout.

use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::STAT_FIELDS;

/// Acceptance bands for [`diff_documents`].
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Absolute tolerance per metric (0.0 = exact).
    pub abs_tol: f64,
    /// Relative tolerance per metric, as a fraction of the larger
    /// magnitude (0.0 = exact).
    pub rel_tol: f64,
    /// Accept differences whose 95% confidence intervals overlap.
    pub ci_overlap: bool,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            abs_tol: 0.0,
            rel_tol: 0.0,
            ci_overlap: true,
        }
    }
}

/// One out-of-tolerance difference.
#[derive(Clone, Debug)]
pub struct Drift {
    /// The cell's identity string.
    pub id: String,
    /// The drifting field (a stat field name, or `status`).
    pub field: String,
    /// Rendered value in the first report.
    pub a: String,
    /// Rendered value in the second report.
    pub b: String,
}

/// The outcome of comparing two reports.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Cells present in both reports and compared field-by-field.
    pub cells_compared: usize,
    /// Cells present in both reports but failed/timed-out on at least one
    /// side: status compared, metric fields skipped.
    pub cells_skipped: usize,
    /// Metric values compared across the compared cells.
    pub values_compared: usize,
    /// Out-of-tolerance differences, in first-report cell order.
    pub drifts: Vec<Drift>,
    /// Cell ids only in the first report.
    pub only_a: Vec<String>,
    /// Cell ids only in the second report.
    pub only_b: Vec<String>,
}

impl DiffReport {
    /// `true` when the reports agree within tolerance: no drifting values,
    /// no one-sided cells.
    pub fn clean(&self) -> bool {
        self.drifts.is_empty() && self.only_a.is_empty() && self.only_b.is_empty()
    }

    /// The compact human-readable comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let skipped = if self.cells_skipped > 0 {
            format!(" ({} failed/timed-out cell(s) skipped)", self.cells_skipped)
        } else {
            String::new()
        };
        if self.clean() {
            let _ = writeln!(
                out,
                "diff: {} cell(s), {} value(s): no drift{skipped}",
                self.cells_compared, self.values_compared
            );
            return out;
        }
        let _ = writeln!(
            out,
            "{:<44} {:<18} {:>16} {:>16}",
            "CELL", "FIELD", "A", "B"
        );
        let _ = writeln!(out, "{}", "-".repeat(97));
        for d in &self.drifts {
            let _ = writeln!(out, "{:<44} {:<18} {:>16} {:>16}", d.id, d.field, d.a, d.b);
        }
        for id in &self.only_a {
            let _ = writeln!(
                out,
                "{id:<44} {:<18} {:>16} {:>16}",
                "(cell)", "present", "missing"
            );
        }
        for id in &self.only_b {
            let _ = writeln!(
                out,
                "{id:<44} {:<18} {:>16} {:>16}",
                "(cell)", "missing", "present"
            );
        }
        let _ = writeln!(out, "{}", "-".repeat(97));
        let _ = writeln!(
            out,
            "diff: {} cell(s), {} value(s): {} drifted, {} only in A, {} only in B{skipped}",
            self.cells_compared,
            self.values_compared,
            self.drifts.len(),
            self.only_a.len(),
            self.only_b.len()
        );
        out
    }
}

/// Report labels of the statuses that leave a cell without usable metrics
/// (the serialized counterparts of `CellStatus::is_failure`).
fn failed_status(status: &str) -> bool {
    matches!(status, "failed" | "timed_out")
}

/// One side's view of a cell: status plus per-field (mean, ci95) pairs.
struct CellView<'a> {
    status: &'a str,
    cell: &'a Json,
}

impl<'a> CellView<'a> {
    fn new(cell: &'a Json) -> Option<CellView<'a>> {
        Some(CellView {
            status: cell.get("status")?.as_str()?,
            cell,
        })
    }

    /// The (mean, ci95) of one stat field, read from the cell's `stats`
    /// block (`null` when no replicate produced metrics).
    fn field(&self, name: &str) -> Option<(f64, f64)> {
        let f = self.cell.get("stats")?.get(name)?;
        Some((f.get("mean")?.as_f64()?, f.get("ci95")?.as_f64()?))
    }

    /// The entries of the cell's `metrics` object other than the stat
    /// fields that [`CellView::field`] reads from `stats`; none when it
    /// has no metrics.
    fn metrics(&self) -> Vec<(&'a str, &'a Json)> {
        match self.cell.get("metrics") {
            Some(Json::Obj(entries)) => entries
                .iter()
                .filter(|(key, _)| self.field(key).is_none())
                .map(|(key, value)| (key.as_str(), value))
                .collect(),
            _ => Vec::new(),
        }
    }
}

fn cells_by_id(doc: &Json) -> Result<Vec<(&str, CellView<'_>)>, String> {
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("report has no \"cells\" array (not a mehpt-lab report?)")?;
    cells
        .iter()
        .map(|c| {
            let id = c
                .get("id")
                .and_then(Json::as_str)
                .ok_or("cell without an \"id\"")?;
            let view = CellView::new(c).ok_or("cell without a \"status\"")?;
            Ok((id, view))
        })
        .collect()
}

fn within(a: (f64, f64), b: (f64, f64), opts: &DiffOptions) -> bool {
    let (va, ca) = a;
    let (vb, cb) = b;
    if (va - vb).abs() <= opts.abs_tol + opts.rel_tol * va.abs().max(vb.abs()) {
        return true;
    }
    // CI-overlap acceptance: only meaningful when at least one side
    // actually has a band (multi-seed stats), otherwise exactness rules.
    opts.ci_overlap && (ca > 0.0 || cb > 0.0) && va - ca <= vb + cb && vb - cb <= va + ca
}

/// Compares one `metrics` value of both sides under the tolerance band:
/// a number, a vector (its length, then its common elements), or anything
/// else (a `null` non-finite number), which must be equal.
fn compare_metric(
    id: &str,
    field: &str,
    a: &Json,
    b: &Json,
    opts: &DiffOptions,
    report: &mut DiffReport,
) {
    let mut drift = |field: String, a: String, b: String| {
        report.drifts.push(Drift {
            id: id.to_string(),
            field,
            a,
            b,
        })
    };
    report.values_compared += 1;
    match (a, b) {
        (Json::Arr(xs), Json::Arr(ys)) => {
            if xs.len() != ys.len() {
                drift(
                    format!("{field}.len"),
                    xs.len().to_string(),
                    ys.len().to_string(),
                );
            }
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                compare_metric(id, &format!("{field}[{i}]"), x, y, opts, report);
            }
        }
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) if within((x, 0.0), (y, 0.0), opts) => {}
            (Some(x), Some(y)) => drift(field.to_string(), fmt_value(x, 0.0), fmt_value(y, 0.0)),
            _ if a == b => {}
            _ => drift(
                field.to_string(),
                a.render().trim_end().into(),
                b.render().trim_end().into(),
            ),
        },
    }
}

fn fmt_value(value: f64, ci: f64) -> String {
    if ci > 0.0 {
        format!("{value:.4}±{ci:.4}")
    } else if value == value.trunc() && value.abs() < 1e15 {
        format!("{value}")
    } else {
        format!("{value:.6}")
    }
}

/// Compares two parsed report documents. Errors on documents that are not
/// lab reports; disagreement is expressed in the returned [`DiffReport`],
/// not as an error.
pub fn diff_documents(a: &Json, b: &Json, opts: &DiffOptions) -> Result<DiffReport, String> {
    let cells_a = cells_by_id(a)?;
    let cells_b = cells_by_id(b)?;
    let index_b: std::collections::HashMap<&str, &CellView<'_>> =
        cells_b.iter().map(|(id, v)| (*id, v)).collect();
    let index_a: std::collections::HashSet<&str> = cells_a.iter().map(|(id, _)| *id).collect();

    let mut report = DiffReport::default();
    for (id, va) in &cells_a {
        let Some(vb) = index_b.get(id) else {
            report.only_a.push(id.to_string());
            continue;
        };
        if va.status != vb.status {
            report.drifts.push(Drift {
                id: id.to_string(),
                field: "status".to_string(),
                a: va.status.to_string(),
                b: vb.status.to_string(),
            });
        }
        if failed_status(va.status) || failed_status(vb.status) {
            // A failed/timed-out side has no metrics to compare; the
            // status check above already told the whole story.
            report.cells_skipped += 1;
            continue;
        }
        report.cells_compared += 1;
        for name in STAT_FIELDS {
            match (va.field(name), vb.field(name)) {
                (Some(fa), Some(fb)) => {
                    report.values_compared += 1;
                    if !within(fa, fb, opts) {
                        report.drifts.push(Drift {
                            id: id.to_string(),
                            field: name.to_string(),
                            a: fmt_value(fa.0, fa.1),
                            b: fmt_value(fb.0, fb.1),
                        });
                    }
                }
                (None, None) => {}
                (fa, _) => report.drifts.push(one_sided(id, name, fa.is_some())),
            }
        }
        let (metrics_a, metrics_b) = (va.metrics(), vb.metrics());
        for &(key, ma) in &metrics_a {
            match metrics_b.iter().find(|(k, _)| *k == key) {
                Some((_, mb)) => compare_metric(id, key, ma, mb, opts, &mut report),
                None => report.drifts.push(one_sided(id, key, true)),
            }
        }
        for (key, _) in metrics_b {
            if !metrics_a.iter().any(|(k, _)| *k == key) {
                report.drifts.push(one_sided(id, key, false));
            }
        }
    }
    for (id, _) in &cells_b {
        if !index_a.contains(id) {
            report.only_b.push(id.to_string());
        }
    }
    Ok(report)
}

/// The drift of a field that only one report's cell has: the first's if
/// `in_a`.
fn one_sided(id: &str, field: &str, in_a: bool) -> Drift {
    let (a, b) = if in_a {
        ("present", "missing")
    } else {
        ("missing", "present")
    };
    Drift {
        id: id.to_string(),
        field: field.to_string(),
        a: a.to_string(),
        b: b.to_string(),
    }
}

/// Convenience wrapper: parse two report texts and diff them.
pub fn diff_texts(a: &str, b: &str, opts: &DiffOptions) -> Result<DiffReport, String> {
    let a = Json::parse(a).map_err(|e| format!("first report: {e}"))?;
    let b = Json::parse(b).map_err(|e| format!("second report: {e}"))?;
    diff_documents(&a, &b, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: &str, status: &str, mean: f64, ci: f64) -> String {
        let stats_fields: Vec<String> = STAT_FIELDS
            .iter()
            .map(|f| format!("\"{f}\": {{\"mean\": {mean}, \"min\": {mean}, \"max\": {mean}, \"ci95\": {ci}}}"))
            .collect();
        format!(
            "{{\"id\": \"{id}\", \"status\": \"{status}\", \"stats\": {{\"replicates\": 3, {}}}}}",
            stats_fields.join(", ")
        )
    }

    fn doc(cells: &[String]) -> String {
        format!(
            "{{\"schema_version\": 2, \"cells\": [{}]}}",
            cells.join(", ")
        )
    }

    #[test]
    fn identical_reports_are_clean() {
        let a = doc(&[
            cell("c1", "ok", 100.0, 0.0),
            cell("c2", "aborted", 5.0, 0.0),
        ]);
        let d = diff_texts(&a, &a, &DiffOptions::default()).unwrap();
        assert!(d.clean(), "{}", d.render());
        assert_eq!(d.cells_compared, 2);
        assert_eq!(d.values_compared, 2 * STAT_FIELDS.len());
        assert!(d.render().contains("no drift"));
    }

    #[test]
    fn exact_default_flags_any_numeric_change() {
        let a = doc(&[cell("c1", "ok", 100.0, 0.0)]);
        let b = doc(&[cell("c1", "ok", 100.5, 0.0)]);
        let d = diff_texts(&a, &b, &DiffOptions::default()).unwrap();
        assert!(!d.clean());
        assert_eq!(d.drifts.len(), STAT_FIELDS.len());
        assert!(d.render().contains("cycles_per_access"));
    }

    #[test]
    fn tolerance_bands_accept_small_drift() {
        let a = doc(&[cell("c1", "ok", 100.0, 0.0)]);
        let b = doc(&[cell("c1", "ok", 100.5, 0.0)]);
        let rel = DiffOptions {
            rel_tol: 0.01,
            ..DiffOptions::default()
        };
        assert!(diff_texts(&a, &b, &rel).unwrap().clean());
        let abs = DiffOptions {
            abs_tol: 0.5,
            ..DiffOptions::default()
        };
        assert!(diff_texts(&a, &b, &abs).unwrap().clean());
    }

    #[test]
    fn overlapping_cis_are_not_drift() {
        let a = doc(&[cell("c1", "ok", 100.0, 3.0)]);
        let b = doc(&[cell("c1", "ok", 102.0, 1.0)]);
        let d = diff_texts(&a, &b, &DiffOptions::default()).unwrap();
        assert!(d.clean(), "CI bands [97,103] and [101,103] overlap");
        let no_ci = DiffOptions {
            ci_overlap: false,
            ..DiffOptions::default()
        };
        assert!(!diff_texts(&a, &b, &no_ci).unwrap().clean());
        // Disjoint intervals drift even with CI-overlap on.
        let c = doc(&[cell("c1", "ok", 110.0, 1.0)]);
        assert!(!diff_texts(&a, &c, &DiffOptions::default()).unwrap().clean());
    }

    #[test]
    fn status_changes_and_one_sided_cells_are_drift() {
        let a = doc(&[cell("c1", "ok", 1.0, 0.0), cell("only-a", "ok", 1.0, 0.0)]);
        let b = doc(&[
            cell("c1", "failed", 1.0, 0.0),
            cell("only-b", "ok", 1.0, 0.0),
        ]);
        let d = diff_texts(&a, &b, &DiffOptions::default()).unwrap();
        assert!(!d.clean());
        assert!(d.drifts.iter().any(|x| x.field == "status"));
        assert_eq!(d.only_a, vec!["only-a".to_string()]);
        assert_eq!(d.only_b, vec!["only-b".to_string()]);
        let table = d.render();
        assert!(table.contains("only-a") && table.contains("missing"));
    }

    #[test]
    fn failed_cells_are_skipped_and_counted_not_errors() {
        // Failed on both sides with matching statuses: clean, skipped.
        // (A real failed cell has "stats": null — no stats block at all.)
        let failed = "{\"id\": \"c1\", \"status\": \"failed\", \"stats\": null, \
                      \"metrics\": null}"
            .to_string();
        let timed = "{\"id\": \"c1\", \"status\": \"timed_out\", \"stats\": null, \
                     \"metrics\": null}"
            .to_string();
        let a = doc(&[failed.clone(), cell("c2", "ok", 7.0, 0.0)]);
        let d = diff_texts(&a, &a, &DiffOptions::default()).unwrap();
        assert!(d.clean(), "{}", d.render());
        assert_eq!(d.cells_skipped, 1);
        assert_eq!(d.cells_compared, 1);
        assert!(d.render().contains("1 failed/timed-out cell(s) skipped"));

        // Failed on one side only: the status drift is the whole story —
        // no bogus present/missing drifts for every stat field.
        let b = doc(&[cell("c1", "ok", 7.0, 0.0), cell("c2", "ok", 7.0, 0.0)]);
        let d = diff_texts(&a, &b, &DiffOptions::default()).unwrap();
        assert!(!d.clean());
        assert_eq!(d.drifts.len(), 1);
        assert_eq!(d.drifts[0].field, "status");
        assert_eq!(d.cells_skipped, 1);

        // A timed-out vs failed pair: status drift, still skipped.
        let c = doc(&[timed, cell("c2", "ok", 7.0, 0.0)]);
        let d = diff_texts(&a, &c, &DiffOptions::default()).unwrap();
        assert_eq!(d.drifts.len(), 1);
        assert_eq!(
            (d.drifts[0].a.as_str(), d.drifts[0].b.as_str()),
            ("failed", "timed_out")
        );
        assert_eq!(d.cells_skipped, 1);
    }

    /// An ok cell with stat fields at 1.0 ± 0.5 and the given `metrics`
    /// object.
    fn with_metrics(metrics: &str) -> String {
        let cell = cell("c1", "ok", 1.0, 0.5);
        doc(&[format!(
            "{}, \"metrics\": {metrics}}}",
            &cell[..cell.len() - 1]
        )])
    }

    #[test]
    fn every_metric_is_compared_once_under_the_tolerance_band() {
        let a = with_metrics(r#"{"faults": 1, "walks": 10, "kicks_histogram": [5, 1]}"#);
        let d = diff_texts(&a, &a, &DiffOptions::default()).unwrap();
        assert!(d.clean(), "{}", d.render());
        // The 8 stat fields, then `walks` and the vector's length and two
        // elements; `faults` is a stat field, compared through `stats`.
        assert_eq!(d.values_compared, STAT_FIELDS.len() + 4);

        // Without a `stats` block, the stat fields are compared from
        // `metrics`.
        let flat = doc(&[r#"{"id": "c1", "status": "ok", "metrics": {"faults": 1}}"#.into()]);
        let d = diff_texts(&flat, &flat, &DiffOptions::default()).unwrap();
        assert_eq!(d.values_compared, 1);

        // A metric's drift is not forgiven by the stat fields' CI band,
        // only by the tolerance band.
        let b = with_metrics(r#"{"faults": 1, "walks": 11, "kicks_histogram": [5, 1]}"#);
        let d = diff_texts(&a, &b, &DiffOptions::default()).unwrap();
        assert_eq!(d.drifts.len(), 1);
        assert_eq!(
            (d.drifts[0].a.as_str(), d.drifts[0].b.as_str()),
            ("10", "11")
        );
        let rel = DiffOptions {
            rel_tol: 0.1,
            ..DiffOptions::default()
        };
        assert!(diff_texts(&a, &b, &rel).unwrap().clean());
        // `faults` differs only in `metrics`: the stat field rules it.
        let b = with_metrics(r#"{"faults": 2, "walks": 10, "kicks_histogram": [5, 1]}"#);
        assert!(diff_texts(&a, &b, &DiffOptions::default()).unwrap().clean());
    }

    #[test]
    fn vector_lengths_elements_and_one_sided_metrics_are_drift() {
        let a = with_metrics(r#"{"walks": 10, "kicks_histogram": [5, 1]}"#);
        let b = with_metrics(r#"{"walks": 10, "kicks_histogram": [5, 2, 1]}"#);
        let d = diff_texts(&a, &b, &DiffOptions::default()).unwrap();
        let fields: Vec<&str> = d.drifts.iter().map(|x| x.field.as_str()).collect();
        assert_eq!(fields, ["kicks_histogram.len", "kicks_histogram[1]"]);

        let b = with_metrics(r#"{"kicks_histogram": [5, 1], "chunk_switches": 0}"#);
        let d = diff_texts(&a, &b, &DiffOptions::default()).unwrap();
        let sides: Vec<(&str, &str, &str)> = d
            .drifts
            .iter()
            .map(|x| (x.field.as_str(), x.a.as_str(), x.b.as_str()))
            .collect();
        assert_eq!(
            sides,
            [
                ("walks", "present", "missing"),
                ("chunk_switches", "missing", "present")
            ]
        );

        // A non-finite value is written as null and equals only null.
        let nan = with_metrics(r#"{"walks": null, "kicks_histogram": [5, 1]}"#);
        assert!(diff_texts(&nan, &nan, &DiffOptions::default())
            .unwrap()
            .clean());
        assert!(!diff_texts(&a, &nan, &DiffOptions::default())
            .unwrap()
            .clean());
    }

    #[test]
    fn non_reports_error_out() {
        assert!(diff_texts("{}", "{}", &DiffOptions::default()).is_err());
        assert!(diff_texts("not json", "{}", &DiffOptions::default()).is_err());
    }
}
