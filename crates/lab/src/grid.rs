//! Declarative experiment grids and their expansion into runnable cells.
//!
//! A grid is the cross product of every axis the paper's evaluation
//! sweeps: application × page-table kind × THP × design variant ×
//! fragmentation ([`FmfiAxis`]) × graph size. Expansion produces
//! self-contained [`CellSpec`]s whose randomness derives from the cell
//! *identity* (not its grid position), so adding, removing or reordering
//! cells never perturbs any other cell — and replicate seeds
//! ([`CellSpec::replicate_seed`]) extend the same guarantee to multi-seed
//! sweeps.

use mehpt_core::{ChunkSizePolicy, MeHptConfig};
use mehpt_hash::{ResizeMode, WaySizing};
use mehpt_sim::{PtKind, SimConfig};
use mehpt_types::rng::splitmix64;
use mehpt_types::GIB;
use mehpt_workloads::{App, Workload, WorkloadCfg};

/// An ME-HPT design variant for the ablation experiments (Figure 10,
/// Figure 15, Section VII-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The full design (both techniques on).
    Full,
    /// In-place resizing disabled (per-way only).
    NoInPlace,
    /// Per-way resizing disabled (in-place only).
    NoPerWay,
    /// Both disabled: chunked storage only.
    Neither,
    /// Single-size 1MB chunk ladder (Figure 15's `ME-HPT 1MB`).
    Fixed1Mb,
}

impl Variant {
    /// Short report/display tag.
    pub fn tag(self) -> &'static str {
        match self {
            Variant::Full => "full",
            Variant::NoInPlace => "noinplace",
            Variant::NoPerWay => "noperway",
            Variant::Neither => "neither",
            Variant::Fixed1Mb => "fixed1mb",
        }
    }

    /// Parses a tag produced by [`Variant::tag`].
    pub fn parse(tag: &str) -> Option<Variant> {
        match tag {
            "full" => Some(Variant::Full),
            "noinplace" => Some(Variant::NoInPlace),
            "noperway" => Some(Variant::NoPerWay),
            "neither" => Some(Variant::Neither),
            "fixed1mb" => Some(Variant::Fixed1Mb),
            _ => None,
        }
    }

    /// The ME-HPT configuration for this variant.
    pub fn config(self) -> MeHptConfig {
        let base = MeHptConfig::default();
        match self {
            Variant::Full => base,
            Variant::NoInPlace => MeHptConfig {
                resize_mode: ResizeMode::OutOfPlace,
                ..base
            },
            Variant::NoPerWay => MeHptConfig {
                sizing: WaySizing::AllWay,
                ..base
            },
            Variant::Neither => MeHptConfig {
                resize_mode: ResizeMode::OutOfPlace,
                sizing: WaySizing::AllWay,
                ..base
            },
            Variant::Fixed1Mb => MeHptConfig {
                chunk_policy: ChunkSizePolicy::fixed(1 << 20),
                ..base
            },
        }
    }
}

/// The fragmentation (FMFI) axis of a grid: either pinned at one level
/// (the paper's default 0.7) or swept across several (Fig. 7-style
/// fragmentation curves).
#[derive(Clone, Debug, PartialEq)]
pub enum FmfiAxis {
    /// One fragmentation level for every cell.
    Pinned(f64),
    /// An explicit list of FMFI points, one sub-grid per point.
    Points(Vec<f64>),
}

impl FmfiAxis {
    /// The paper's evaluation default: everything pinned at 0.7 FMFI.
    pub fn paper() -> FmfiAxis {
        FmfiAxis::Pinned(0.7)
    }

    /// The paper's fragmentation sweep: FMFI 0.0 → 0.9 in 0.1 steps
    /// (shared with the fragmenter, so the grid and the memory model
    /// agree on the exact points).
    pub fn sweep() -> FmfiAxis {
        FmfiAxis::Points(mehpt_mem::Fragmenter::SWEEP_FMFI.to_vec())
    }

    /// The axis as a list of FMFI points, in sweep order.
    pub fn points(&self) -> Vec<f64> {
        match self {
            FmfiAxis::Pinned(f) => vec![*f],
            FmfiAxis::Points(v) => v.clone(),
        }
    }
}

/// Machine- and scale-level knobs applied uniformly to every cell of a
/// grid (the CLI's `--scale`, `--mem-gb`, `--quick`, `--max-accesses`).
#[derive(Clone, Copy, Debug)]
pub struct Tuning {
    /// Workload footprint/access scale (1.0 = the calibrated paper size).
    pub scale: f64,
    /// Simulated physical memory in bytes.
    pub mem_bytes: u64,
    /// Per-cell access cap; `None` runs each trace to completion.
    pub max_accesses: Option<u64>,
    /// Base seed every per-cell seed is derived from.
    pub base_seed: u64,
    /// Watchdog deadline per work unit, in whole seconds (`--timeout`);
    /// `None` disables the watchdog. Presets may override this default.
    pub timeout_secs: Option<u64>,
}

impl Default for Tuning {
    fn default() -> Tuning {
        Tuning {
            scale: 1.0,
            mem_bytes: 64 * GIB,
            max_accesses: None,
            base_seed: 0x5eed,
            timeout_secs: None,
        }
    }
}

impl Tuning {
    /// A configuration for fast smoke runs (`--quick`): tiny footprints on
    /// a 2GB machine. Figures keep their shape; absolute numbers shrink.
    pub fn quick() -> Tuning {
        Tuning {
            scale: 0.005,
            mem_bytes: 2 * GIB,
            ..Tuning::default()
        }
    }
}

/// One fully specified experiment cell: everything needed to run one
/// simulation, independently of every other cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Application under test.
    pub app: App,
    /// Page-table organization.
    pub kind: PtKind,
    /// THP on/off.
    pub thp: bool,
    /// ME-HPT variant (always [`Variant::Full`] for radix/ECPT).
    pub variant: Variant,
    /// Target fragmentation (FMFI at the 2MB order).
    pub fragmentation: f64,
    /// Graph node count (graph apps only; ignored by the others).
    pub graph_nodes: u64,
    /// Workload scale factor.
    pub scale: f64,
    /// Simulated physical memory in bytes.
    pub mem_bytes: u64,
    /// The cell's private seed, derived from the base seed and the cell
    /// identity — *not* from the cell's position in the grid, so adding or
    /// removing cells never changes any other cell's randomness.
    pub seed: u64,
    /// Per-cell access cap.
    pub max_accesses: Option<u64>,
}

impl CellSpec {
    /// Stable identity string: names the cell in reports, filenames and
    /// progress lines, and feeds the per-cell seed derivation.
    pub fn id(&self) -> String {
        format!(
            "{}-{}-{}-{}-n{}-f{:02}",
            self.app.name(),
            match self.kind {
                PtKind::Radix => "radix",
                PtKind::Ecpt => "ecpt",
                PtKind::MeHpt => "mehpt",
            },
            if self.thp { "thp" } else { "nothp" },
            self.variant.tag(),
            self.graph_nodes,
            (self.fragmentation * 100.0).round() as u64,
        )
    }

    /// The simulator configuration this cell runs under.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper(self.kind, self.thp);
        cfg.mehpt = self.variant.config();
        cfg.fragmentation = self.fragmentation;
        cfg.mem_bytes = self.mem_bytes;
        cfg.seed = self.seed;
        cfg.max_accesses = self.max_accesses;
        cfg
    }

    /// Builds the cell's workload (seeded from the cell seed, so the trace
    /// stream is also a pure function of the cell identity).
    pub fn workload(&self) -> Workload {
        let mut s = self.seed ^ 0x776f_726b_6c6f_6164; // "workload"
        self.app.build(&WorkloadCfg {
            scale: self.scale,
            seed: splitmix64(&mut s),
            graph_nodes: self.graph_nodes,
        })
    }

    /// The seed of replicate `r` of this cell.
    ///
    /// Replicate 0 *is* the cell seed, so single-seed sweeps are unchanged
    /// by the replication axis; higher replicates derive from the cell
    /// seed and the replicate index only — independent of `--jobs`, of the
    /// grid shape, and of how many replicates run.
    pub fn replicate_seed(&self, r: u32) -> u64 {
        if r == 0 {
            self.seed
        } else {
            cell_seed(self.seed, &format!("replicate-{r}"))
        }
    }

    /// A copy of this spec re-seeded for replicate `r` (what the engine
    /// actually simulates).
    pub fn replicate(&self, r: u32) -> CellSpec {
        CellSpec {
            seed: self.replicate_seed(r),
            ..self.clone()
        }
    }

    /// The seed of retry attempt `attempt` of replicate `r`.
    ///
    /// Attempt 0 *is* the classic replicate seed, so sweeps without
    /// retries are unchanged; later attempts derive from the replicate
    /// seed and the attempt index only — independent of `--jobs`, of why
    /// the earlier attempt failed, and of when the retry was scheduled.
    pub fn retry_seed(&self, r: u32, attempt: u32) -> u64 {
        let base = self.replicate_seed(r);
        if attempt == 0 {
            base
        } else {
            cell_seed(base, &format!("retry-{attempt}"))
        }
    }

    /// A copy of this spec re-seeded for attempt `attempt` of replicate
    /// `r` (what the engine actually simulates under `--retries`).
    pub fn replicate_attempt(&self, r: u32, attempt: u32) -> CellSpec {
        CellSpec {
            seed: self.retry_seed(r, attempt),
            ..self.clone()
        }
    }
}

/// Derives the deterministic seed of the cell named `id` under `base_seed`.
///
/// FNV-1a over the identity string, mixed through splitmix64. Identical for
/// every thread count and every expansion order.
pub fn cell_seed(base_seed: u64, id: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut s = h ^ base_seed;
    splitmix64(&mut s)
}

/// A declarative experiment grid: the cross product of every axis the
/// paper's evaluation sweeps. Axes with a single value pin that dimension.
#[derive(Clone, Debug)]
pub struct ExperimentGrid {
    /// Applications to run.
    pub apps: Vec<App>,
    /// Page-table organizations.
    pub kinds: Vec<PtKind>,
    /// THP settings.
    pub thps: Vec<bool>,
    /// ME-HPT variants (applied to [`PtKind::MeHpt`] cells only; other
    /// kinds always run a single cell per point).
    pub variants: Vec<Variant>,
    /// The fragmentation (FMFI) axis: pinned or a Fig. 7-style sweep.
    pub fmfi: FmfiAxis,
    /// Graph sizes (GraphBIG apps only; non-graph apps ignore the value
    /// but still run once per entry, so keep this axis at one value unless
    /// the grid is graph-only).
    pub graph_nodes: Vec<u64>,
}

impl ExperimentGrid {
    /// The paper's default single-point axes: 0.7 FMFI, 1M-node graphs.
    pub fn paper(apps: Vec<App>, kinds: Vec<PtKind>, thps: Vec<bool>) -> ExperimentGrid {
        ExperimentGrid {
            apps,
            kinds,
            thps,
            variants: vec![Variant::Full],
            fmfi: FmfiAxis::paper(),
            graph_nodes: vec![1_000_000],
        }
    }

    /// Expands the grid into cells, deduplicated and in a deterministic
    /// order (the nesting order of the axes; variants collapse to
    /// [`Variant::Full`] for non-ME-HPT kinds).
    pub fn expand(&self, tuning: &Tuning) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let fragmentations = self.fmfi.points();
        for &app in &self.apps {
            for &graph_nodes in &self.graph_nodes {
                for &kind in &self.kinds {
                    let variants: &[Variant] = if kind == PtKind::MeHpt {
                        &self.variants
                    } else {
                        &[Variant::Full]
                    };
                    for &variant in variants {
                        for &thp in &self.thps {
                            for &fragmentation in &fragmentations {
                                let mut spec = CellSpec {
                                    app,
                                    kind,
                                    thp,
                                    variant,
                                    fragmentation,
                                    graph_nodes,
                                    scale: tuning.scale,
                                    mem_bytes: tuning.mem_bytes,
                                    seed: 0,
                                    max_accesses: tuning.max_accesses,
                                };
                                let id = spec.id();
                                if seen.insert(id.clone()) {
                                    spec.seed = cell_seed(tuning.base_seed, &id);
                                    cells.push(spec);
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_toggle_the_right_switches() {
        assert_eq!(
            Variant::NoInPlace.config().resize_mode,
            ResizeMode::OutOfPlace
        );
        assert_eq!(Variant::NoInPlace.config().sizing, WaySizing::PerWay);
        assert_eq!(Variant::Neither.config().sizing, WaySizing::AllWay);
        assert_eq!(Variant::Fixed1Mb.config().chunk_policy.first(), 1 << 20);
        for v in [
            Variant::Full,
            Variant::NoInPlace,
            Variant::NoPerWay,
            Variant::Neither,
            Variant::Fixed1Mb,
        ] {
            assert_eq!(Variant::parse(v.tag()), Some(v));
        }
    }

    #[test]
    fn expansion_is_deterministic_and_dedups_non_mehpt_variants() {
        let mut grid = ExperimentGrid::paper(
            vec![App::Gups, App::Bfs],
            vec![PtKind::Ecpt, PtKind::MeHpt],
            vec![false, true],
        );
        grid.variants = vec![Variant::Full, Variant::NoInPlace];
        let t = Tuning::quick();
        let a = grid.expand(&t);
        let b = grid.expand(&t);
        assert_eq!(a, b);
        // ECPT gets 1 variant, ME-HPT 2: (1 + 2) kinds×variants × 2 apps × 2 thp.
        assert_eq!(a.len(), 12);
        let ids: std::collections::HashSet<String> = a.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), a.len(), "ids must be unique");
    }

    #[test]
    fn cell_seed_is_position_independent() {
        let grid =
            ExperimentGrid::paper(vec![App::Gups, App::Bfs], vec![PtKind::MeHpt], vec![false]);
        let solo = ExperimentGrid::paper(vec![App::Bfs], vec![PtKind::MeHpt], vec![false]);
        let t = Tuning::quick();
        let wide = grid.expand(&t);
        let narrow = solo.expand(&t);
        let bfs_wide = wide.iter().find(|c| c.app == App::Bfs).unwrap();
        assert_eq!(bfs_wide.seed, narrow[0].seed);
        assert_ne!(wide[0].seed, wide[1].seed);
    }

    #[test]
    fn fmfi_sweep_multiplies_cells_and_keeps_ids_unique() {
        let mut grid = ExperimentGrid::paper(vec![App::Gups], vec![PtKind::MeHpt], vec![false]);
        let pinned = grid.expand(&Tuning::quick()).len();
        grid.fmfi = FmfiAxis::sweep();
        let swept = grid.expand(&Tuning::quick());
        assert_eq!(swept.len(), pinned * FmfiAxis::sweep().points().len());
        let ids: std::collections::HashSet<String> = swept.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), swept.len());
        assert!((swept[0].fragmentation - 0.0).abs() < 1e-12);
        assert!((swept.last().unwrap().fragmentation - 0.9).abs() < 1e-12);
    }

    #[test]
    fn replicate_seeds_are_stable_and_distinct() {
        let grid = ExperimentGrid::paper(vec![App::Gups], vec![PtKind::MeHpt], vec![false]);
        let cell = &grid.expand(&Tuning::quick())[0];
        assert_eq!(cell.replicate_seed(0), cell.seed, "replicate 0 is the cell");
        assert_eq!(cell.replicate_seed(3), cell.replicate_seed(3));
        let seeds: std::collections::HashSet<u64> =
            (0..16).map(|r| cell.replicate_seed(r)).collect();
        assert_eq!(seeds.len(), 16);
        let rep = cell.replicate(2);
        assert_eq!(rep.id(), cell.id(), "replicates share the cell identity");
        assert_ne!(rep.seed, cell.seed);
    }

    #[test]
    fn retry_seeds_extend_replicate_seeds_deterministically() {
        let grid = ExperimentGrid::paper(vec![App::Gups], vec![PtKind::MeHpt], vec![false]);
        let cell = &grid.expand(&Tuning::quick())[0];
        for r in 0..3 {
            assert_eq!(
                cell.retry_seed(r, 0),
                cell.replicate_seed(r),
                "attempt 0 is the classic replicate seed"
            );
        }
        // Distinct across both axes, stable across calls.
        let seeds: std::collections::HashSet<u64> = (0..4)
            .flat_map(|r| (0..4).map(move |a| (r, a)))
            .map(|(r, a)| cell.retry_seed(r, a))
            .collect();
        assert_eq!(seeds.len(), 16);
        assert_eq!(cell.retry_seed(1, 2), cell.retry_seed(1, 2));
        let spec = cell.replicate_attempt(1, 2);
        assert_eq!(spec.id(), cell.id(), "attempts share the cell identity");
        assert_eq!(spec.seed, cell.retry_seed(1, 2));
    }

    #[test]
    fn sim_config_carries_the_cell_knobs() {
        let grid = ExperimentGrid::paper(vec![App::Mummer], vec![PtKind::MeHpt], vec![true]);
        let cell = &grid.expand(&Tuning::quick())[0];
        let cfg = cell.sim_config();
        assert_eq!(cfg.mem_bytes, 2 * GIB);
        assert!(cfg.thp);
        assert_eq!(cfg.seed, cell.seed);
    }
}
