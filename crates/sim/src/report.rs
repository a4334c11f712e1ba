use crate::PtKind;

/// Everything a simulation run measured — the raw material for every table
/// and figure of the paper. The lab serializes it as a cell's `metrics`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Accesses simulated.
    pub accesses: u64,
    /// Total cycles (the figure-9 metric).
    pub total_cycles: u64,
    /// Cycles in the fixed per-access base cost.
    pub base_cycles: u64,
    /// Cycles in TLB lookups and page walks.
    pub translation_cycles: u64,
    /// Cycles in OS fault handling (excluding allocation).
    pub fault_cycles: u64,
    /// Cycles in physical-memory allocation (data zeroing + page-table
    /// chunk allocation at the configured fragmentation).
    pub alloc_cycles: u64,
    /// Cycles in page-table maintenance (inserts, kicks, migrations).
    pub os_pt_cycles: u64,
    /// Page faults taken.
    pub faults: u64,
    /// 4KB pages mapped.
    pub pages_4k: u64,
    /// 2MB pages mapped.
    pub pages_2m: u64,
    /// TLB miss rate over all accesses (L2 TLB misses / accesses).
    pub tlb_miss_rate: f64,
    /// Page walks performed.
    pub walks: u64,
    /// Mean memory accesses per walk.
    pub mean_walk_accesses: f64,
    /// Mean walk latency in cycles.
    pub mean_walk_cycles: f64,
    /// Final page-table memory in bytes.
    pub pt_final_bytes: u64,
    /// Peak page-table memory in bytes (Figure 10's input).
    pub pt_peak_bytes: u64,
    /// Largest contiguous page-table allocation (Figure 8 / Table I).
    pub pt_max_contiguous: u64,
    /// Final size of each 4KB-table way in bytes (Figure 12).
    pub way_sizes_4k: Vec<u64>,
    /// Physical bytes backing each 4KB-table way — differs from
    /// `way_sizes_4k` when a way fills only part of a chunk (Figure 15).
    pub way_phys_4k: Vec<u64>,
    /// Upsizes per way of the 4KB table (Figure 11).
    pub upsizes_per_way_4k: Vec<u64>,
    /// Upsizes per way of the 2MB table.
    pub upsizes_per_way_2m: Vec<u64>,
    /// Mean fraction of entries physically moved per 4KB-table upsize
    /// (Figure 13; 1.0 for out-of-place designs).
    pub moved_fraction_4k: f64,
    /// Histogram of cuckoo re-insertions per insert/rehash, all tables
    /// pooled (Figure 16).
    pub kicks_histogram: Vec<u64>,
    /// L2P entries in use at the end (Figure 14; 0 for non-ME-HPT).
    pub l2p_entries_used: u64,
    /// Chunk-size switches performed (ME-HPT only).
    pub chunk_switches: u64,
    /// The workload's nominal data footprint (Table I column 2).
    pub data_bytes_nominal: u64,
}

impl Metrics {
    /// Cycles per access (the normalized figure-9 metric).
    pub fn cycles_per_access(&self) -> f64 {
        self.total_cycles as f64 / self.accesses.max(1) as f64
    }

    /// Speedup over a baseline run of the same workload (cycles-per-access
    /// ratio, robust to aborted baselines that ran fewer accesses).
    pub fn speedup_over(&self, baseline: &Metrics) -> f64 {
        baseline.cycles_per_access() / self.cycles_per_access()
    }

    /// The mean number of cuckoo re-insertions per insert/rehash.
    pub fn mean_kicks(&self) -> f64 {
        let total: u64 = self.kicks_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .kicks_histogram
            .iter()
            .enumerate()
            .map(|(n, &c)| n as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }
}

/// One simulation run: what ran, how it ended, and what it measured.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Workload name.
    pub app: String,
    /// Page-table organization simulated.
    pub kind: PtKind,
    /// Whether THP was enabled.
    pub thp: bool,
    /// Why the run aborted, if it did (ECPT allocation failure).
    pub aborted: Option<String>,
    /// The run's measurements.
    pub metrics: Metrics,
}

/// A copy of the report's measurements. Kept for speedbench, which calls
/// `CellMetrics::from(&report)`.
impl From<&SimReport> for Metrics {
    fn from(r: &SimReport) -> Metrics {
        r.metrics.clone()
    }
}

/// Reads a measurement straight off the report (`report.accesses`). Kept
/// for speedbench's contract tests, which do so; the workspace reads
/// `report.metrics`.
impl std::ops::Deref for SimReport {
    type Target = Metrics;

    fn deref(&self) -> &Metrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(cycles: u64, accesses: u64) -> Metrics {
        Metrics {
            accesses,
            total_cycles: cycles,
            ..Metrics::default()
        }
    }

    #[test]
    fn speedup_normalizes_per_access() {
        let fast = metrics(100, 10);
        let slow = metrics(300, 10);
        assert!((fast.speedup_over(&slow) - 3.0).abs() < 1e-9);
        // An aborted baseline with fewer accesses normalizes fairly.
        let aborted = metrics(150, 5);
        assert!((fast.speedup_over(&aborted) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mean_kicks_weighted() {
        let mut m = metrics(0, 0);
        m.kicks_histogram = vec![6, 2, 2];
        assert!((m.mean_kicks() - 0.6).abs() < 1e-9);
    }
}
