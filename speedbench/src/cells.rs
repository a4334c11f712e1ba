//! The benchmark's workloads, their cells, and the output check.
//!
//! Every cell is a lab [`CellSpec`], so a cell's seed, trace and simulator
//! configuration derive from the workload seed exactly as `mehpt-lab`
//! derives them from `--seed`.

use std::collections::HashMap;

use mehpt_lab::cli::{parse_args, union_specs, LabArgs};
use mehpt_lab::{CellMetrics, CellSpec, ExperimentGrid, Tuning};
use mehpt_sim::PtKind;
use mehpt_types::GIB;
use mehpt_workloads::App;

/// The lab's base seed, used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// The seed kept out of tuning: later gain claims confirm on it.
pub const HELD_OUT_SEED: u64 = 0xc0ffee;

/// Expected digests, keyed by model revision (see [`Expected`]).
pub const EXPECTED: &str = include_str!("../expected.txt");

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// GUPS, THP off, ECPT and ME-HPT, scale 0.1 on the paper's machine.
    GupsHpt,
    /// MUMmer at paper scale, THP on, all three page tables.
    MummerThp,
    /// The union of every preset at `--quick` tuning, through the lab.
    PaperQuick,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [Workload::GupsHpt, Workload::MummerThp, Workload::PaperQuick];

impl Workload {
    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GupsHpt => "gups_hpt",
            Workload::MummerThp => "mummer_thp",
            Workload::PaperQuick => "paper_quick",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs through the lab engine and report writer
    /// (otherwise each cell is one `Simulator::run`).
    pub fn uses_lab(self) -> bool {
        self == Workload::PaperQuick
    }

    /// The workload's cells under workload seed `seed`.
    pub fn cells(self, seed: u64) -> Vec<CellSpec> {
        let paper = |scale| Tuning {
            scale,
            mem_bytes: 64 * GIB,
            base_seed: seed,
            ..Tuning::default()
        };
        match self {
            Workload::GupsHpt => ExperimentGrid::paper(
                vec![App::Gups],
                vec![PtKind::Ecpt, PtKind::MeHpt],
                vec![false],
            )
            .expand(&paper(0.1)),
            Workload::MummerThp => ExperimentGrid::paper(
                vec![App::Mummer],
                vec![PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt],
                vec![true],
            )
            .expand(&paper(1.0)),
            Workload::PaperQuick => union_specs(&quick_args(seed)),
        }
    }
}

/// The lab arguments of `mehpt-lab all --quick --seed <seed>`.
pub fn quick_args(seed: u64) -> LabArgs {
    let args = ["all", "--quick", "--seed", &seed.to_string()].map(String::from);
    parse_args(&args).expect("a valid lab command line")
}

/// A 64-bit FNV-1a digest of the deterministic fields of one cell's
/// result: cycle components, faults, pages, walks, page-table bytes, way
/// sizes and the abort reason.
pub fn digest(m: &CellMetrics, aborted: Option<&str>) -> u64 {
    let mut words = vec![
        m.accesses,
        m.total_cycles,
        m.base_cycles,
        m.translation_cycles,
        m.fault_cycles,
        m.alloc_cycles,
        m.os_pt_cycles,
        m.faults,
        m.pages_4k,
        m.pages_2m,
        m.walks,
        m.pt_final_bytes,
        m.pt_peak_bytes,
        m.pt_max_contiguous,
        m.way_sizes_4k.len() as u64,
    ];
    words.extend(&m.way_sizes_4k);
    words.push(m.way_phys_4k.len() as u64);
    words.extend(&m.way_phys_4k);
    let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    match aborted {
        Some(reason) => {
            bytes.push(1);
            bytes.extend(reason.as_bytes());
        }
        None => bytes.push(0),
    }
    fnv1a(&bytes)
}

/// Folds a workload's cell digests, in cell order, into one digest.
pub fn combined(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Model-level identities every correct cell result satisfies, whatever
/// the seed: the cycle components sum to the total, and a run that did not
/// abort simulated its whole trace and mapped one page per fault.
pub fn invariant_error(spec: &CellSpec, m: &CellMetrics, aborted: bool) -> Option<String> {
    let parts =
        m.base_cycles + m.translation_cycles + m.fault_cycles + m.alloc_cycles + m.os_pt_cycles;
    if parts != m.total_cycles {
        return Some(format!(
            "cycle components sum to {parts}, total is {}",
            m.total_cycles
        ));
    }
    if m.walks < m.faults {
        return Some(format!("{} walks for {} faults", m.walks, m.faults));
    }
    if aborted {
        return None;
    }
    let trace = spec.workload().total_accesses();
    let expected = spec.max_accesses.map_or(trace, |cap| cap.min(trace));
    if m.accesses != expected {
        return Some(format!("{} accesses, the trace has {expected}", m.accesses));
    }
    if m.faults != m.pages_4k + m.pages_2m {
        return Some(format!(
            "{} faults mapped {} pages",
            m.faults,
            m.pages_4k + m.pages_2m
        ));
    }
    None
}

/// How a workload's digests were checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckMode {
    /// Each cell against its own stored digest.
    PerCell,
    /// The workload's combined digest; a mismatch fails every cell.
    Combined,
    /// No digest is stored for this seed: invariants and determinism only.
    Unstored,
}

/// Stored digests, parsed from lines of
/// `<model revision> <workload> <seed> <cell id | *> <digest hex>`,
/// where `*` marks a workload's combined digest.
#[derive(Debug, Default)]
pub struct Expected {
    entries: HashMap<(u32, String, u64, String), u64>,
}

impl Expected {
    /// Parses the stored format; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut entries = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("expected digests, line {}: {line:?}", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let [rev, workload, seed, cell, hex] = f[..] else {
                return Err(bad());
            };
            let rev = rev.parse().map_err(|_| bad())?;
            let seed = parse_seed(seed).ok_or_else(bad)?;
            let digest = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
            entries.insert((rev, workload.to_string(), seed, cell.to_string()), digest);
        }
        Ok(Expected { entries })
    }

    /// The digests stored with the benchmark.
    pub fn stored() -> Expected {
        Expected::parse(EXPECTED).expect("the stored digests parse")
    }

    fn knows_revision(&self, rev: u32) -> bool {
        self.entries.keys().any(|k| k.0 == rev)
    }

    fn get(&self, rev: u32, workload: Workload, seed: u64, cell: &str) -> Option<u64> {
        let key = (rev, workload.name().to_string(), seed, cell.to_string());
        self.entries.get(&key).copied()
    }

    /// Checks one pass's `(cell id, digest)` list. Returns the mode used
    /// and the ids of the cells that fail it. An unknown model revision
    /// fails every cell: the digests must be regenerated with `--bless`.
    pub fn check(
        &self,
        rev: u32,
        workload: Workload,
        seed: u64,
        cells: &[(String, u64)],
    ) -> (CheckMode, Vec<String>) {
        let all = || cells.iter().map(|(id, _)| id.clone()).collect();
        if !self.knows_revision(rev) {
            return (CheckMode::PerCell, all());
        }
        if cells
            .iter()
            .any(|(id, _)| self.get(rev, workload, seed, id).is_some())
        {
            let failed = cells
                .iter()
                .filter(|(id, d)| self.get(rev, workload, seed, id) != Some(*d))
                .map(|(id, _)| id.clone())
                .collect();
            return (CheckMode::PerCell, failed);
        }
        match self.get(rev, workload, seed, "*") {
            Some(want) => {
                let digests: Vec<u64> = cells.iter().map(|&(_, d)| d).collect();
                let failed = if combined(&digests) == want {
                    Vec::new()
                } else {
                    all()
                };
                (CheckMode::Combined, failed)
            }
            None => (CheckMode::Unstored, Vec::new()),
        }
    }
}

/// Parses a seed written in decimal or as `0x` hex.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}
