/// Whether a resize grew or shrank a way.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResizeKind {
    /// The way doubled.
    Upsize,
    /// The way halved.
    Downsize,
}

/// A completed resize of one way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResizeEvent {
    /// Which way resized.
    pub way: usize,
    /// Upsize or downsize.
    pub kind: ResizeKind,
    /// Way capacity (entries) before.
    pub from_entries: usize,
    /// Way capacity (entries) after.
    pub to_entries: usize,
    /// Entries that physically changed location during migration.
    pub moved: u64,
    /// Entries that stayed in place (only possible with in-place resizing).
    pub kept: u64,
}

impl ResizeEvent {
    /// The fraction of migrated entries that physically moved.
    ///
    /// The paper's Figure 13: with in-place resizing this is ≈ 0.5 for an
    /// upsize; with out-of-place resizing it is 1.0.
    pub fn moved_fraction(&self) -> f64 {
        let total = self.moved + self.kept;
        if total == 0 {
            return 0.0;
        }
        self.moved as f64 / total as f64
    }
}

/// Statistics of an elastic cuckoo table: the library's
/// [`ElasticCuckooTable`](crate::ElasticCuckooTable) and the page-table
/// engine's per-page-size tables alike.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    /// Completed resizes, in order (Figures 11 and 13 derive from these).
    pub resizes: Vec<ResizeEvent>,
    /// Histogram of cuckoo re-insertions: `kicks_histogram[n]` counts the
    /// inserts/rehashes that needed exactly `n` re-insertions (Figure 16).
    pub kicks_histogram: Vec<u64>,
    /// Entries migrated by gradual resizing and chunk-size switches.
    pub entries_migrated: u64,
    /// Chunk-size switches performed (the only out-of-place resizes in the
    /// full ME-HPT design; the paper observes at most one per run).
    pub chunk_switches: u64,
    /// High-water mark of the table's memory in bytes (out-of-place
    /// resizing pushes this to `old + new`; in-place resizing keeps it at
    /// `max(old, new)`).
    pub peak_bytes: u64,
    /// The largest chunk ever allocated — the contiguity requirement
    /// (Figure 8). A library way and an ECPT way are one chunk each.
    pub max_chunk_bytes: u64,
}

impl TableStats {
    #[inline]
    pub(crate) fn record_kicks(&mut self, kicks: usize) {
        if self.kicks_histogram.len() <= kicks {
            self.kicks_histogram.resize(kicks + 1, 0);
        }
        self.kicks_histogram[kicks] += 1;
    }

    /// Number of upsizes completed by each way.
    pub fn upsizes_per_way(&self, ways: usize) -> Vec<u64> {
        let mut counts = vec![0u64; ways];
        for e in &self.resizes {
            if e.kind == ResizeKind::Upsize {
                counts[e.way] += 1;
            }
        }
        counts
    }

    /// Number of downsizes completed by each way.
    pub fn downsizes_per_way(&self, ways: usize) -> Vec<u64> {
        let mut counts = vec![0u64; ways];
        for e in &self.resizes {
            if e.kind == ResizeKind::Downsize {
                counts[e.way] += 1;
            }
        }
        counts
    }

    /// Mean number of cuckoo re-insertions per insert or rehash (Figure 16
    /// reports ≈ 0.7 on average, with P(0) ≈ 0.64).
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

    /// Mean fraction of entries physically moved per upsize (Figure 13).
    pub fn mean_upsize_moved_fraction(&self) -> f64 {
        let ups: Vec<&ResizeEvent> = self
            .resizes
            .iter()
            .filter(|e| e.kind == ResizeKind::Upsize && e.moved + e.kept > 0)
            .collect();
        if ups.is_empty() {
            return 0.0;
        }
        ups.iter().map(|e| e.moved_fraction()).sum::<f64>() / ups.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kicks_histogram_grows_on_demand() {
        let mut s = TableStats::default();
        s.record_kicks(0);
        s.record_kicks(3);
        s.record_kicks(0);
        assert_eq!(s.kicks_histogram, vec![2, 0, 0, 1]);
        assert!((s.mean_kicks() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_way_resize_counts() {
        let mut s = TableStats::default();
        for way in [0, 0, 1] {
            s.resizes.push(ResizeEvent {
                way,
                kind: ResizeKind::Upsize,
                from_entries: 128,
                to_entries: 256,
                moved: 60,
                kept: 68,
            });
        }
        s.resizes.push(ResizeEvent {
            way: 2,
            kind: ResizeKind::Downsize,
            from_entries: 256,
            to_entries: 128,
            moved: 10,
            kept: 0,
        });
        assert_eq!(s.upsizes_per_way(3), vec![2, 1, 0]);
        assert_eq!(s.downsizes_per_way(3), vec![0, 0, 1]);
        assert!((s.mean_upsize_moved_fraction() - 60.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    fn moved_fraction_of_empty_resize_is_zero() {
        let e = ResizeEvent {
            way: 0,
            kind: ResizeKind::Upsize,
            from_entries: 128,
            to_entries: 256,
            moved: 0,
            kept: 0,
        };
        assert_eq!(e.moved_fraction(), 0.0);
    }
}
