//! Metric names, units, and the result line the benchmark prints.

use crate::replay::{kind_index, Span, Trace};
use mehpt_sim::PtKind;

/// The end-to-end metrics (printed with `--trace 0`), as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("maccess_per_s", "Maccess/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (printed with `--trace 1`), as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("workloads.next.calls", "count"),
    ("workloads.next.ns", "ns"),
    ("tlb.lookup.calls", "count"),
    ("tlb.lookup.ns", "ns"),
    ("tlb.fill.calls", "count"),
    ("tlb.miss_ratio", "ratio"),
    ("tlb.memmodel.refs_per_walk", "refs"),
    ("tlb.memmodel.l2_hit_ratio", "ratio"),
    ("tlb.memmodel.l3_hit_ratio", "ratio"),
    ("radix.walk.calls", "count"),
    ("radix.walk.ns", "ns"),
    ("radix.walk.refs_per_walk", "refs"),
    ("radix.map.calls", "count"),
    ("radix.map.ns", "ns"),
    ("ecpt.walk.calls", "count"),
    ("ecpt.walk.ns", "ns"),
    ("ecpt.walk.probes_per_walk", "probes"),
    ("ecpt.walk.cwc_miss_ratio", "ratio"),
    ("ecpt.map.calls", "count"),
    ("ecpt.map.ns", "ns"),
    ("ecpt.map.kicks_per_insert", "kicks"),
    ("ecpt.map.migrated_per_insert", "entries"),
    ("core.walk.calls", "count"),
    ("core.walk.ns", "ns"),
    ("core.walk.probes_per_walk", "probes"),
    ("core.walk.cwc_miss_ratio", "ratio"),
    ("core.map.calls", "count"),
    ("core.map.ns", "ns"),
    ("core.map.kicks_per_insert", "kicks"),
    ("core.map.migrated_per_insert", "entries"),
    ("mem.alloc.calls", "count"),
    ("mem.alloc.ns", "ns"),
    ("mem.alloc_2m.fallback_ratio", "ratio"),
    ("mem.relocations", "count"),
    ("mem.setup.ns", "ns"),
    ("sim.residual_ns_per_access", "ns"),
    ("lab.cell_ms_p50", "ms"),
    ("lab.cell_ms_p90", "ms"),
    ("lab.overhead_s", "s"),
    ("lab.report_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.span_cost_ns", "ns"),
];

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Builds the metrics of `table` in its order from `(name, value)` pairs,
/// which must name every entry exactly once, in order.
fn in_order(table: &[(&'static str, &'static str)], values: Vec<(String, f64)>) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per listed metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), (given, value))| {
            assert_eq!(name, given, "metrics must follow the listed order");
            Metric { name, unit, value }
        })
        .collect()
}

/// The end-to-end metrics from their measured values.
pub fn end_to_end(maccess_per_s: f64, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    in_order(
        &END_TO_END,
        vec![
            ("maccess_per_s".to_string(), maccess_per_s),
            ("setup_s".to_string(), setup_s),
            ("peak_rss_mb".to_string(), peak_rss_mb),
        ],
    )
}

/// Host times the traced run measures outside the replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTimes {
    /// Untraced wall time of the replayed cells, summed over passes.
    pub untraced_ns: f64,
    /// Traced (replay) wall time of the same cells.
    pub traced_ns: f64,
    /// Median cell time.
    pub cell_ms_p50: f64,
    /// 90th-percentile cell time.
    pub cell_ms_p90: f64,
    /// Sweep wall time not spent in cells.
    pub overhead_s: f64,
    /// Time to build, serialize and write the reports.
    pub report_s: f64,
}

/// The per-layer metrics of a traced run. `trace` sums `passes` identical
/// replays, so counts are divided by `passes`.
pub fn per_layer(trace: &Trace, passes: u64, span_cost_ns: f64, host: &HostTimes) -> Vec<Metric> {
    let per_pass = |n: u64| (n / passes.max(1)) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let ns = |s: &Span| s.ns_per_call(span_cost_ns);
    let walks: u64 = trace.walk.iter().map(|s| s.calls).sum();
    let lookups = trace.lookup.calls;
    let residual = (host.untraced_ns - trace.busy_ns(span_cost_ns)) / trace.accesses.max(1) as f64;
    let (l2, l3) = (trace.mm_l2, trace.mm_l3);

    let mut v: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| v.push((name.to_string(), value));
    put("workloads.next.calls", per_pass(trace.next.calls));
    put("workloads.next.ns", ns(&trace.next));
    put("tlb.lookup.calls", per_pass(lookups));
    put("tlb.lookup.ns", ns(&trace.lookup));
    put("tlb.fill.calls", per_pass(trace.fill.calls));
    put("tlb.miss_ratio", ratio(trace.tlb_misses, lookups));
    put("tlb.memmodel.refs_per_walk", ratio(trace.mm_refs, walks));
    put("tlb.memmodel.l2_hit_ratio", ratio(l2.0, l2.0 + l2.1));
    put("tlb.memmodel.l3_hit_ratio", ratio(l3.0, l3.0 + l3.1));
    let r = kind_index(PtKind::Radix);
    put("radix.walk.calls", per_pass(trace.walk[r].calls));
    put("radix.walk.ns", ns(&trace.walk[r]));
    put(
        "radix.walk.refs_per_walk",
        ratio(trace.walk_refs[r], trace.walk[r].calls),
    );
    put("radix.map.calls", per_pass(trace.map[r].calls));
    put("radix.map.ns", ns(&trace.map[r]));
    for (layer, kind) in [("ecpt", PtKind::Ecpt), ("core", PtKind::MeHpt)] {
        let k = kind_index(kind);
        let (walk, map) = (&trace.walk[k], &trace.map[k]);
        put(&format!("{layer}.walk.calls"), per_pass(walk.calls));
        put(&format!("{layer}.walk.ns"), ns(walk));
        put(
            &format!("{layer}.walk.probes_per_walk"),
            ratio(trace.walk_refs[k], walk.calls),
        );
        put(
            &format!("{layer}.walk.cwc_miss_ratio"),
            ratio(trace.cwt_walks[k], walk.calls),
        );
        put(&format!("{layer}.map.calls"), per_pass(map.calls));
        put(&format!("{layer}.map.ns"), ns(map));
        put(
            &format!("{layer}.map.kicks_per_insert"),
            ratio(trace.kicks[k], map.calls),
        );
        put(
            &format!("{layer}.map.migrated_per_insert"),
            ratio(trace.migrated[k], map.calls),
        );
    }
    put("mem.alloc.calls", per_pass(trace.alloc.calls));
    put("mem.alloc.ns", ns(&trace.alloc));
    put(
        "mem.alloc_2m.fallback_ratio",
        ratio(trace.alloc_2m.1, trace.alloc_2m.0),
    );
    put("mem.relocations", per_pass(trace.relocations));
    put("mem.setup.ns", ns(&trace.setup));
    put("sim.residual_ns_per_access", residual);
    put("lab.cell_ms_p50", host.cell_ms_p50);
    put("lab.cell_ms_p90", host.cell_ms_p90);
    put("lab.overhead_s", host.overhead_s);
    put("lab.report_s", host.report_s);
    put(
        "bench.trace_overhead",
        host.traced_ns / host.untraced_ns.max(1.0),
    );
    put("bench.span_cost_ns", span_cost_ns);
    in_order(&PER_LAYER, v)
}

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n.is_multiple_of(2) => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        n => s[n / 2],
    }
}

/// The `p`th percentile of `v` by the nearest-rank rule (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s.get(rank.min(s.len()).wrapping_sub(1))
        .copied()
        .unwrap_or(0.0)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The one-line JSON result object the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}
