//! The benchmark's own tests: pinned cell lists, the output check, the
//! replay's fidelity, and agreement with `BENCHMARK.json`.

use mehpt_lab::engine::simulate_cell;
use mehpt_lab::json::Json;
use mehpt_lab::CellMetrics;
use mehpt_sim::{PtKind, MODEL_REVISION};
use mehpt_speedbench::cells::{
    combined, digest, invariant_error, CheckMode, Expected, Workload, DEFAULT_SEED, EXPECTED,
    HELD_OUT_SEED, WORKLOADS,
};
use mehpt_speedbench::host::{scaled, Reference, NOMINAL_S};
use mehpt_speedbench::replay::{replay, Counts, Sampler, Trace};
use mehpt_speedbench::report::{
    end_to_end, per_layer, result_line, HostTimes, END_TO_END, PER_LAYER,
};

fn ids(w: Workload, seed: u64) -> Vec<String> {
    w.cells(seed).iter().map(|c| c.id()).collect()
}

/// The `(cell id, digest)` pairs stored per cell for a workload and seed,
/// in file order.
fn stored(w: Workload, seed: u64) -> Vec<(String, u64)> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|f| {
            f.len() == 5
                && f[0] == MODEL_REVISION.to_string()
                && f[1] == w.name()
                && f[2] == format!("{seed:#x}")
                && f[3] != "*"
        })
        .map(|f| (f[3].to_string(), u64::from_str_radix(f[4], 16).unwrap()))
        .collect()
}

#[test]
fn gups_and_mummer_cell_lists_are_pinned() {
    assert_eq!(
        ids(Workload::GupsHpt, DEFAULT_SEED),
        [
            "GUPS-ecpt-nothp-full-n1000000-f70",
            "GUPS-mehpt-nothp-full-n1000000-f70"
        ]
    );
    assert_eq!(
        ids(Workload::MummerThp, DEFAULT_SEED),
        [
            "MUMmer-radix-thp-full-n1000000-f70",
            "MUMmer-ecpt-thp-full-n1000000-f70",
            "MUMmer-mehpt-thp-full-n1000000-f70"
        ]
    );
    let gups = Workload::GupsHpt.cells(DEFAULT_SEED);
    assert!(gups
        .iter()
        .all(|c| c.scale == 0.1 && c.mem_bytes == 64 << 30 && !c.thp));
    let mummer = Workload::MummerThp.cells(DEFAULT_SEED);
    assert!(mummer
        .iter()
        .all(|c| c.scale == 1.0 && c.thp && c.fragmentation == 0.7));
}

#[test]
fn paper_quick_is_the_212_cells_of_all_quick() {
    let cells = ids(Workload::PaperQuick, DEFAULT_SEED);
    assert_eq!(cells.len(), 212);
    let unique: std::collections::HashSet<&String> = cells.iter().collect();
    assert_eq!(unique.len(), 212);
    let pinned: Vec<String> = stored(Workload::PaperQuick, DEFAULT_SEED)
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    assert_eq!(cells, pinned, "the stored digests pin the cell list by id");
    let specs = Workload::PaperQuick.cells(DEFAULT_SEED);
    assert!(specs
        .iter()
        .all(|c| c.scale == 0.005 && c.mem_bytes == 2 << 30));
}

#[test]
fn the_seed_changes_inputs_but_not_cells() {
    for w in WORKLOADS {
        assert_eq!(ids(w, DEFAULT_SEED), ids(w, HELD_OUT_SEED));
        let (a, b) = (w.cells(DEFAULT_SEED), w.cells(HELD_OUT_SEED));
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
    }
}

#[test]
fn stored_digests_cover_both_seeds_of_every_workload() {
    for w in WORKLOADS {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let got: Vec<String> = stored(w, seed).into_iter().map(|(id, _)| id).collect();
            assert_eq!(got, ids(w, seed), "{} at {seed:#x}", w.name());
        }
    }
}

#[test]
fn a_perturbed_digest_is_a_failure() {
    let expected = Expected::stored();
    let good = stored(Workload::GupsHpt, DEFAULT_SEED);
    let (mode, failed) = expected.check(MODEL_REVISION, Workload::GupsHpt, DEFAULT_SEED, &good);
    assert_eq!((mode, failed.len()), (CheckMode::PerCell, 0));

    let mut bad = good.clone();
    bad[1].1 ^= 1;
    let (_, failed) = expected.check(MODEL_REVISION, Workload::GupsHpt, DEFAULT_SEED, &bad);
    assert_eq!(failed, [bad[1].0.clone()]);

    // A revision with no stored digests fails every cell.
    let (_, failed) = expected.check(MODEL_REVISION + 1, Workload::GupsHpt, DEFAULT_SEED, &good);
    assert_eq!(failed.len(), good.len());
}

#[test]
fn a_perturbed_combined_digest_fails_every_cell() {
    let cells = vec![("a".to_string(), 1), ("b".to_string(), 2)];
    let text = format!(
        "{MODEL_REVISION} mummer_thp 7 * {:016x}\n",
        combined(&[1, 2])
    );
    let expected = Expected::parse(&text).unwrap();
    let check = |cells: &[(String, u64)], seed| {
        expected.check(MODEL_REVISION, Workload::MummerThp, seed, cells)
    };
    assert_eq!(check(&cells, 7), (CheckMode::Combined, vec![]));
    let mut bad = cells.clone();
    bad[0].1 = 3;
    assert_eq!(check(&bad, 7).1.len(), 2);
    // A seed with nothing stored is checked by invariants only.
    assert_eq!(check(&bad, 8), (CheckMode::Unstored, vec![]));
}

#[test]
fn digests_see_every_checked_field_and_the_abort_reason() {
    let spec = &Workload::PaperQuick.cells(DEFAULT_SEED)[0];
    let m = CellMetrics::from(&simulate_cell(spec));
    let base = digest(&m, None);
    assert_ne!(base, digest(&m, Some("aborted")));
    let mut p = m.clone();
    p.walks += 1;
    assert_ne!(base, digest(&p, None));
    let mut p = m.clone();
    p.way_sizes_4k.push(0);
    assert_ne!(base, digest(&p, None));
    assert_eq!(invariant_error(spec, &m, false), None);
    let mut p = m.clone();
    p.total_cycles += 1;
    assert!(invariant_error(spec, &p, false).is_some());
}

#[test]
fn the_replay_reproduces_the_untraced_counts() {
    let cells = Workload::PaperQuick.cells(DEFAULT_SEED);
    let mut trace = Trace::default();
    let mut sampler = Sampler::new();
    for kind in [PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt] {
        for thp in [false, true] {
            let spec = cells
                .iter()
                .find(|c| c.kind == kind && c.thp == thp && c.app.name() == "MUMmer")
                .expect("the quick union has MUMmer on every kind");
            let r = simulate_cell(spec);
            let want = Counts {
                accesses: r.accesses,
                faults: r.faults,
                pages_4k: r.pages_4k,
                pages_2m: r.pages_2m,
                walks: r.walks,
            };
            assert_eq!(
                replay(spec, &mut trace, &mut sampler),
                want,
                "{}",
                spec.id()
            );
        }
    }
    assert!(trace.lookup.calls > 0 && trace.walk.iter().all(|w| w.calls > 0));
}

#[test]
fn a_slow_host_scales_time_down() {
    assert_eq!(scaled(2.0, NOMINAL_S), 2.0);
    assert_eq!(scaled(1.0, 2.0 * NOMINAL_S), 0.5);
    assert!(Reference::new().time() > 0.0);
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let b = benchmark_json();
    let listed = |key| names_and_units(b.get(key).unwrap());
    let printed = |ms: Vec<mehpt_speedbench::report::Metric>| -> Vec<(String, String)> {
        ms.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("end_to_end"), printed(end_to_end(1.0, 1.0, 1.0)));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let traced = per_layer(&Trace::default(), 1, 0.0, &HostTimes::default());
    assert_eq!(listed("per_layer"), printed(traced));

    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS.map(Workload::name));
}

#[test]
fn the_result_line_is_one_json_object_with_the_contract_keys() {
    let line = result_line(true, 2, 0, &end_to_end(1.25, 0.5, 80.0));
    assert!(!line.contains('\n'));
    let j = Json::parse(&line).unwrap();
    let Json::Obj(fields) = &j else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let m = j.get("metrics").unwrap().get("maccess_per_s").unwrap();
    assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
    assert_eq!(m.get("unit").and_then(Json::as_str), Some("Maccess/s"));
}
