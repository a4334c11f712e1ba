use mehpt_types::{VirtAddr, GIB, MIB};

use crate::trace::{Phase, Region, Workload};

/// The eleven applications of the paper's evaluation (Section VI).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum App {
    Bc,
    Bfs,
    Cc,
    Dc,
    Dfs,
    Gups,
    Mummer,
    Pr,
    Sssp,
    Sysbench,
    Tc,
}

/// Workload construction parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadCfg {
    /// Scales every footprint and access count (1.0 = the calibrated,
    /// paper-matching size; smaller values for quick tests).
    pub scale: f64,
    /// Trace seed.
    pub seed: u64,
    /// Graph size for the GraphBIG applications (the paper's default input
    /// is 1M nodes; Figure 15 uses 1K/10K/100K).
    pub graph_nodes: u64,
}

impl Default for WorkloadCfg {
    fn default() -> WorkloadCfg {
        WorkloadCfg {
            scale: 1.0,
            seed: 42,
            graph_nodes: 1_000_000,
        }
    }
}

/// Per-application calibration: touched footprints chosen so the resulting
/// page-table sizes match Table I (see DESIGN.md §3 and §6).
struct GraphSpec {
    name: &'static str,
    nominal_gb: f64,
    /// Dense pages touched at 1M nodes (drives the ECPT way size).
    dense_pages: u64,
    /// Probability a steady-state access is a random property gather.
    rand_ratio: f64,
}

const GRAPH_SPECS: &[(App, GraphSpec)] = &[
    (
        App::Bc,
        GraphSpec {
            name: "BC",
            nominal_gb: 17.3,
            dense_pages: 1_260_000,
            rand_ratio: 0.50,
        },
    ),
    (
        App::Bfs,
        GraphSpec {
            name: "BFS",
            nominal_gb: 9.3,
            dense_pages: 2_400_000,
            rand_ratio: 0.50,
        },
    ),
    (
        App::Cc,
        GraphSpec {
            name: "CC",
            nominal_gb: 9.3,
            dense_pages: 2_420_000,
            rand_ratio: 0.45,
        },
    ),
    (
        App::Dc,
        GraphSpec {
            name: "DC",
            nominal_gb: 9.3,
            dense_pages: 2_380_000,
            rand_ratio: 0.25,
        },
    ),
    (
        App::Dfs,
        GraphSpec {
            name: "DFS",
            nominal_gb: 9.0,
            dense_pages: 2_360_000,
            rand_ratio: 0.60,
        },
    ),
    (
        App::Pr,
        GraphSpec {
            name: "PR",
            nominal_gb: 9.3,
            dense_pages: 2_400_000,
            rand_ratio: 0.35,
        },
    ),
    (
        App::Sssp,
        GraphSpec {
            name: "SSSP",
            nominal_gb: 9.3,
            dense_pages: 2_410_000,
            rand_ratio: 0.55,
        },
    ),
    (
        App::Tc,
        GraphSpec {
            name: "TC",
            nominal_gb: 11.9,
            dense_pages: 315_000,
            rand_ratio: 0.30,
        },
    ),
];

impl App {
    /// All applications, in the paper's table order.
    pub fn all() -> [App; 11] {
        [
            App::Bc,
            App::Bfs,
            App::Cc,
            App::Dc,
            App::Dfs,
            App::Gups,
            App::Mummer,
            App::Pr,
            App::Sssp,
            App::Sysbench,
            App::Tc,
        ]
    }

    /// The eight GraphBIG applications.
    pub fn graph_apps() -> [App; 8] {
        [
            App::Bc,
            App::Bfs,
            App::Cc,
            App::Dc,
            App::Dfs,
            App::Pr,
            App::Sssp,
            App::Tc,
        ]
    }

    /// The application's display name.
    pub fn name(self) -> &'static str {
        match self {
            App::Gups => "GUPS",
            App::Mummer => "MUMmer",
            App::Sysbench => "SysBench",
            app => {
                GRAPH_SPECS
                    .iter()
                    .find(|(a, _)| *a == app)
                    .expect("graph app")
                    .1
                    .name
            }
        }
    }

    /// Whether this is a GraphBIG application (affected by `graph_nodes`).
    pub fn is_graph(self) -> bool {
        GRAPH_SPECS.iter().any(|(a, _)| *a == self)
    }

    /// Builds the calibrated workload trace.
    pub fn build(self, cfg: &WorkloadCfg) -> Workload {
        match self {
            App::Gups => build_gups(cfg),
            App::Sysbench => build_sysbench(cfg),
            App::Mummer => build_mummer(cfg),
            graph => build_graph(graph, cfg),
        }
    }
}

fn scaled(v: u64, scale: f64) -> u64 {
    ((v as f64 * scale) as u64).max(1)
}

/// Base virtual addresses keep regions far apart (distinct PUD regions).
const REGION_BASES: [u64; 3] = [0x1000_0000_0000, 0x2000_0000_0000, 0x3000_0000_0000];

fn region(name: &'static str, idx: usize, bytes: u64, thp: bool) -> Region {
    Region {
        name,
        base: VirtAddr::new(REGION_BASES[idx]),
        bytes: bytes.next_multiple_of(2 * MIB),
        thp_eligible: thp,
    }
}

/// A GraphBIG application: dense vertex-property and edge arrays loaded
/// sequentially, then a steady state mixing a wrapping edge scan with
/// random property gathers. Graph regions are not THP-friendly (the paper:
/// graph applications see no page-table change under THP).
fn build_graph(app: App, cfg: &WorkloadCfg) -> Workload {
    let spec = &GRAPH_SPECS
        .iter()
        .find(|(a, _)| *a == app)
        .expect("graph app")
        .1;
    let node_scale = cfg.graph_nodes as f64 / 1_000_000.0;
    let dense_pages = scaled(spec.dense_pages, cfg.scale * node_scale);
    let props_pages = (dense_pages * 3 / 5).max(1);
    let edges_pages = (dense_pages - props_pages).max(1);
    let regions = vec![
        region("props", 0, props_pages * 4096, false),
        region("edges", 1, edges_pages * 4096, false),
    ];
    let steady = scaled(12_000_000, cfg.scale * node_scale.min(1.0)).max(dense_pages / 4);
    let phases = vec![
        // Graph load: build CSR arrays.
        Phase::SeqScan {
            region: 0,
            pages: props_pages,
            reps_per_page: 1,
        },
        Phase::SeqScan {
            region: 1,
            pages: edges_pages,
            reps_per_page: 1,
        },
        // Analytics: edge scan + random neighbour-property gathers.
        Phase::Mixed {
            seq_region: 1,
            seq_pages: edges_pages,
            seq_reps: 4,
            rand_region: 0,
            rand_span_pages: props_pages,
            rand_ratio: spec.rand_ratio,
            count: steady,
        },
    ];
    Workload::new(
        spec.name,
        (spec.nominal_gb * GIB as f64) as u64,
        regions,
        phases,
        cfg.seed ^ (app as u64) << 8,
    )
}

/// GUPS: uniform random 8-byte updates over a huge table. Sparse touches
/// (≈1 page per 8-page cluster) are what drive ECPT to 64MB ways; the
/// table is one giant allocation, so THP backs it fully.
fn build_gups(cfg: &WorkloadCfg) -> Workload {
    let table_pages = scaled(16 * 1024 * 1024, cfg.scale); // 64GB
                                                           // 1.5M clusters touched (one page each) grow the ECPT 4KB ways to the
                                                           // paper's 64MB; 16M updates keep the run translation-dominated.
    let clusters = scaled(1_500_000, cfg.scale);
    let draws = scaled(16_000_000, cfg.scale);
    let regions = vec![region("table", 0, table_pages * 4096, true)];
    let phases = vec![
        Phase::SeqScan {
            region: 0,
            pages: scaled(16_384, cfg.scale), // init a 64MB prefix
            reps_per_page: 1,
        },
        Phase::SparseRand {
            region: 0,
            count: draws,
            clusters_span: clusters,
        },
    ];
    Workload::new("GUPS", 64 * GIB, regions, phases, cfg.seed ^ 0x6e5)
}

/// SysBench memory: large sequential block transfers over a window plus
/// random reads over the whole buffer; THP-friendly like GUPS.
fn build_sysbench(cfg: &WorkloadCfg) -> Workload {
    let buf_pages = scaled(16 * 1024 * 1024, cfg.scale); // 64GB
    let window = scaled(131_072, cfg.scale); // 512MB sequential window
    let clusters = scaled(1_450_000, cfg.scale);
    let regions = vec![region("buffer", 0, buf_pages * 4096, true)];
    let phases = vec![
        Phase::SeqScan {
            region: 0,
            pages: window,
            reps_per_page: 2,
        },
        // Random block reads over the whole buffer: sparse at cluster
        // granularity, like GUPS, plus a recurring sequential component.
        Phase::SparseRand {
            region: 0,
            count: scaled(12_000_000, cfg.scale),
            clusters_span: clusters,
        },
        Phase::SeqScan {
            region: 0,
            pages: window,
            reps_per_page: 2,
        },
        Phase::SparseRand {
            region: 0,
            count: scaled(4_000_000, cfg.scale),
            clusters_span: clusters,
        },
    ];
    Workload::new("SysBench", 64 * GIB, regions, phases, cfg.seed ^ 0x5b)
}

/// MUMmer: genome alignment — a sequential reference stream (one large
/// mmap, THP-friendly) and random suffix-tree node walks (pointer-heavy
/// heap, not THP-friendly).
fn build_mummer(cfg: &WorkloadCfg) -> Workload {
    // Calibrated so the 4KB HPT sits at the 8KB->1MB chunk boundary, as in
    // the paper: the ECPT way reaches 1MB (Table I), while ME-HPT's per-way
    // resizing leaves two ways on 8KB chunks and switches one to a 1MB
    // chunk - the mixed state behind MUMmer's 195 L2P entries (Figure 14).
    let ref_pages = scaled(66_000, cfg.scale); // ~270MB reference
    let tree_pages = scaled(60_000, cfg.scale); // ~246MB suffix tree
    let regions = vec![
        region("reference", 0, ref_pages * 4096, true),
        region("tree", 1, tree_pages * 4096, false),
    ];
    let phases = vec![
        Phase::SeqScan {
            region: 0,
            pages: ref_pages,
            reps_per_page: 2,
        },
        Phase::SeqScan {
            region: 1,
            pages: tree_pages,
            reps_per_page: 1,
        },
        Phase::Mixed {
            seq_region: 0,
            seq_pages: ref_pages,
            seq_reps: 8,
            rand_region: 1,
            rand_span_pages: tree_pages,
            rand_ratio: 0.55,
            count: scaled(3_000_000, cfg.scale),
        },
    ];
    Workload::new(
        "MUMmer",
        (6.9 * GIB as f64) as u64,
        regions,
        phases,
        cfg.seed ^ 0x30a3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_apps_build_and_emit() {
        let cfg = WorkloadCfg {
            scale: 0.001,
            ..WorkloadCfg::default()
        };
        for app in App::all() {
            let mut w = app.build(&cfg);
            assert!(w.total_accesses() > 0, "{}", app.name());
            let first = w.next().expect("non-empty trace");
            assert!(
                w.regions().iter().any(|r| r.contains(first)),
                "{}: first access outside regions",
                app.name()
            );
        }
    }

    #[test]
    fn names_match_the_paper() {
        let names: Vec<&str> = App::all().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            ["BC", "BFS", "CC", "DC", "DFS", "GUPS", "MUMmer", "PR", "SSSP", "SysBench", "TC"]
        );
    }

    #[test]
    fn gups_touches_sparsely() {
        // GUPS's defining property: touched pages land in mostly-distinct
        // clusters (few pages per 32KB cluster).
        let cfg = WorkloadCfg {
            scale: 0.01,
            ..WorkloadCfg::default()
        };
        let w = App::Gups.build(&cfg);
        let mut pages = HashSet::new();
        let mut clusters = HashSet::new();
        for va in w {
            pages.insert(va.0 >> 12);
            clusters.insert(va.0 >> 15);
        }
        let density = pages.len() as f64 / clusters.len() as f64;
        assert!(
            density < 2.0,
            "GUPS should be sparse: {density} pages/cluster"
        );
    }

    #[test]
    fn graph_apps_touch_densely() {
        let cfg = WorkloadCfg {
            scale: 0.01,
            ..WorkloadCfg::default()
        };
        let w = App::Bfs.build(&cfg);
        let mut pages = HashSet::new();
        let mut clusters = HashSet::new();
        for va in w {
            pages.insert(va.0 >> 12);
            clusters.insert(va.0 >> 15);
        }
        let density = pages.len() as f64 / clusters.len() as f64;
        assert!(
            density > 6.0,
            "BFS should be dense: {density} pages/cluster"
        );
    }

    #[test]
    fn graph_nodes_scales_footprint() {
        let small = App::Pr.build(&WorkloadCfg {
            graph_nodes: 1_000,
            ..WorkloadCfg::default()
        });
        let large = App::Pr.build(&WorkloadCfg {
            graph_nodes: 100_000,
            ..WorkloadCfg::default()
        });
        let bytes = |w: &Workload| -> u64 { w.regions().iter().map(|r| r.bytes).sum() };
        assert!(bytes(&large) > 50 * bytes(&small));
    }

    #[test]
    fn thp_eligibility_matches_the_paper() {
        let cfg = WorkloadCfg {
            scale: 0.001,
            ..WorkloadCfg::default()
        };
        assert!(App::Gups
            .build(&cfg)
            .regions()
            .iter()
            .all(|r| r.thp_eligible));
        assert!(App::Bfs
            .build(&cfg)
            .regions()
            .iter()
            .all(|r| !r.thp_eligible));
        let mummer = App::Mummer.build(&cfg);
        assert!(mummer.regions().iter().any(|r| r.thp_eligible));
        assert!(mummer.regions().iter().any(|r| !r.thp_eligible));
    }

    #[test]
    fn nominal_footprints_match_table_1() {
        let cfg = WorkloadCfg {
            scale: 0.001,
            ..WorkloadCfg::default()
        };
        let gb = |app: App| App::build(app, &cfg).nominal_data_bytes() as f64 / GIB as f64;
        assert!((gb(App::Gups) - 64.0).abs() < 0.1);
        assert!((gb(App::Bfs) - 9.3).abs() < 0.1);
        assert!((gb(App::Mummer) - 6.9).abs() < 0.1);
    }
}
