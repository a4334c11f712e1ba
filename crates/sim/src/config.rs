use mehpt_core::MeHptConfig;
use mehpt_types::GIB;

/// Which page-table organization a run simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PtKind {
    /// x86-64 4-level radix tree with page-walk caches.
    Radix,
    /// The ECPT baseline (contiguous ways, out-of-place all-way resizing).
    Ecpt,
    /// The paper's full ME-HPT design.
    MeHpt,
}

impl PtKind {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PtKind::Radix => "Radix",
            PtKind::Ecpt => "ECPT",
            PtKind::MeHpt => "ME-HPT",
        }
    }
}

/// Non-translation cycles charged per memory access (compute, L1D —
/// calibrated so overall speedups land in the paper's range).
pub(crate) const BASE_ACCESS_CYCLES: u64 = 12;
/// OS overhead per page fault, excluding allocation and page-table
/// insertion costs.
pub(crate) const PAGE_FAULT_CYCLES: u64 = 700;
/// OS cost of one page-table insertion (entry write + bookkeeping).
pub(crate) const INSERT_CYCLES: u64 = 150;
/// OS cost per cuckoo re-insertion.
pub(crate) const KICK_CYCLES: u64 = 120;
/// OS cost per entry migrated by gradual resizing (read + rehash + write;
/// in-place resizing halves the number of these).
pub(crate) const MIGRATE_ENTRY_CYCLES: u64 = 80;

/// What a run simulates: the page table, the workload's machine and its
/// seed. The machine's fixed costs are the constants above and Table III's,
/// which no run varies.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Page-table organization under test.
    pub kind: PtKind,
    /// ME-HPT configuration (used when `kind == PtKind::MeHpt`; the
    /// ablation benchmarks toggle its `resize_mode`/`sizing` switches).
    pub mehpt: MeHptConfig,
    /// Whether the OS backs THP-eligible regions with 2MB pages.
    pub thp: bool,
    /// Physical memory size (the paper's server has 64GB).
    pub mem_bytes: u64,
    /// Target fragmentation (FMFI at the 2MB order; the paper uses 0.7).
    pub fragmentation: f64,
    /// Seed (fragmenter layout, etc.).
    pub seed: u64,
    /// Workload accesses to simulate; `None` runs the full trace.
    pub max_accesses: Option<u64>,
}

impl SimConfig {
    /// The paper's evaluation configuration for one page-table kind.
    pub fn paper(kind: PtKind, thp: bool) -> SimConfig {
        SimConfig {
            kind,
            mehpt: MeHptConfig::default(),
            thp,
            mem_bytes: 64 * GIB,
            fragmentation: 0.7,
            seed: 0x5eed,
            max_accesses: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PtKind::Radix.label(), "Radix");
        assert_eq!(PtKind::Ecpt.label(), "ECPT");
        assert_eq!(PtKind::MeHpt.label(), "ME-HPT");
    }

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper(PtKind::Ecpt, true);
        assert_eq!(c.mem_bytes, 64 * GIB);
        assert!((c.fragmentation - 0.7).abs() < 1e-9);
        assert!(c.thp);
    }
}
