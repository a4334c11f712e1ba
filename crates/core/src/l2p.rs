use mehpt_mem::Chunk;
use mehpt_types::PageSize;

/// The Logical-to-Physical (L2P) table: the MMU-resident indirection table
/// that lets an HPT way live in discontiguous physical-memory chunks
/// (Section IV-A).
///
/// Geometry follows Section V-A: 32 entries per (way, page size) subtable,
/// 3 ways × 3 page sizes = 288 entries, ~1.16KB of MMU state. Per way, the
/// three subtables are laid out contiguously (Figure 6): the 4KB subtable
/// grows downward from the top, the 2MB subtable grows upward from the
/// bottom, and the 1GB subtable sits in the middle — so a subtable that
/// needs more than its 32 entries can *steal* the 1GB region (growing to a
/// hard cap of 64 entries), and a displaced 1GB entry in turn steals the
/// most significant entry of the 2MB subtable.
///
/// This type does the slot accounting and holds the chunk pointers; the
/// ways of [`MeHptTable`](crate::MeHptTable) consume it when they grow or
/// shrink. When a subtable cannot claim another entry, the way must switch
/// to the next larger chunk size (Section IV-B).
///
/// # Examples
///
/// ```
/// use mehpt_core::L2pTable;
/// use mehpt_types::PageSize;
///
/// let l2p = L2pTable::paper_default();
/// assert_eq!(l2p.total_entries(), 288);
/// assert_eq!(l2p.capacity_remaining(0, PageSize::Base4K), 64); // 32 + stolen 32
/// ```
#[derive(Clone, Debug)]
pub struct L2pTable {
    /// Entries per subtable before stealing (32 in the paper).
    e: usize,
    /// Per way: owner of each of the `3*e` slots.
    /// Layout: `[0, e)` = 4KB home region, `[e, 2e)` = 1GB home region,
    /// `[2e, 3e)` = 2MB home region.
    owners: Vec<Vec<Option<PageSize>>>,
    /// Per `(way, page size)`: the chunk pointers and their claimed slots,
    /// in logical-chunk order.
    chunks: Vec<Vec<(Chunk, usize)>>,
}

impl L2pTable {
    /// Bits per entry: a 33-bit chunk base (Section V-B).
    pub const ENTRY_BITS: u64 = 33;

    /// The paper's geometry: 3 ways × 3 page sizes × 32 entries.
    pub fn paper_default() -> L2pTable {
        L2pTable::new(3, 32)
    }

    /// Creates a table with `ways` ways and `entries_per_subtable` entries
    /// per (way, page size) subtable.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(ways: usize, entries_per_subtable: usize) -> L2pTable {
        assert!(ways > 0 && entries_per_subtable > 0);
        L2pTable {
            e: entries_per_subtable,
            owners: (0..ways)
                .map(|_| vec![None; 3 * entries_per_subtable])
                .collect(),
            chunks: (0..ways * 3).map(|_| Vec::new()).collect(),
        }
    }

    /// The number of ways.
    pub fn ways(&self) -> usize {
        self.owners.len()
    }

    /// Total entries across all subtables (the paper's 288).
    pub fn total_entries(&self) -> usize {
        self.owners.len() * 3 * self.e
    }

    /// Entries currently in use across all subtables (Figure 14's metric).
    pub fn used_entries(&self) -> usize {
        self.owners
            .iter()
            .map(|w| w.iter().filter(|s| s.is_some()).count())
            .sum()
    }

    /// High-water mark helper: entries in use for one (way, page size).
    pub fn subtable_len(&self, way: usize, ps: PageSize) -> usize {
        self.chunks[self.key(way, ps)].len()
    }

    /// The chunk pointers of one subtable, in logical order.
    pub fn subtable_chunks(&self, way: usize, ps: PageSize) -> Vec<Chunk> {
        self.chunks[self.key(way, ps)]
            .iter()
            .map(|&(c, _)| c)
            .collect()
    }

    fn key(&self, way: usize, ps: PageSize) -> usize {
        way * 3 + ps.index()
    }

    /// The slot indices a subtable may claim next, in preference order.
    ///
    /// Home region first; then the 1GB region if no 1GB entry occupies it
    /// (4KB scans it upward, 2MB downward); a displaced 1GB subtable claims
    /// the most significant free entry of the 2MB region, then of the 4KB
    /// region.
    fn candidate_slots(&self, way: usize, ps: PageSize) -> Vec<usize> {
        let e = self.e;
        let owners = &self.owners[way];
        let free = |i: usize| owners[i].is_none();
        let middle_has_1g = (e..2 * e).any(|i| owners[i] == Some(PageSize::Giant1G));
        let mut out = Vec::new();
        match ps {
            PageSize::Base4K => {
                out.extend((0..e).filter(|&i| free(i)));
                if !middle_has_1g {
                    out.extend((e..2 * e).filter(|&i| free(i)));
                }
            }
            PageSize::Huge2M => {
                out.extend((2 * e..3 * e).rev().filter(|&i| free(i)));
                if !middle_has_1g {
                    out.extend((e..2 * e).rev().filter(|&i| free(i)));
                }
            }
            PageSize::Giant1G => {
                out.extend((e..2 * e).filter(|&i| free(i)));
                // Displaced: take the most significant entries of the 2MB
                // subtable (Figure 6c), then of the 4KB subtable.
                out.extend((2 * e..3 * e).filter(|&i| free(i)));
                out.extend((0..e).rev().filter(|&i| free(i)));
            }
        }
        out
    }

    /// How many more chunks the subtable can accept right now (capped at
    /// the paper's 2×32 = 64 per subtable).
    pub fn capacity_remaining(&self, way: usize, ps: PageSize) -> usize {
        let hard_cap = 2 * self.e;
        let len = self.subtable_len(way, ps);
        self.candidate_slots(way, ps)
            .len()
            .min(hard_cap.saturating_sub(len))
    }

    /// Registers `chunk` as the next logical chunk of the subtable.
    ///
    /// # Errors
    ///
    /// Returns [`L2pFull`] when the subtable cannot claim another entry —
    /// the signal that the way must switch to a larger chunk size.
    pub fn push_chunk(&mut self, way: usize, ps: PageSize, chunk: Chunk) -> Result<(), L2pFull> {
        if self.capacity_remaining(way, ps) == 0 {
            return Err(L2pFull { way, page_size: ps });
        }
        let slot = self.candidate_slots(way, ps)[0];
        self.owners[way][slot] = Some(ps);
        let key = self.key(way, ps);
        self.chunks[key].push((chunk, slot));
        Ok(())
    }

    /// Removes and returns the last logical chunk of the subtable.
    pub fn pop_chunk(&mut self, way: usize, ps: PageSize) -> Option<Chunk> {
        let key = self.key(way, ps);
        let (chunk, slot) = self.chunks[key].pop()?;
        self.owners[way][slot] = None;
        Some(chunk)
    }

    /// Removes one specific chunk (used when an out-of-place resize
    /// retires the old table's chunks). Returns whether it was present.
    pub fn remove_chunk(&mut self, way: usize, ps: PageSize, chunk: Chunk) -> bool {
        let key = self.key(way, ps);
        if let Some(pos) = self.chunks[key].iter().position(|&(c, _)| c == chunk) {
            let (_, slot) = self.chunks[key].remove(pos);
            self.owners[way][slot] = None;
            return true;
        }
        false
    }

    /// Empties the subtable, returning all its chunks (a chunk-size
    /// switch rehomes the whole way).
    pub fn clear_subtable(&mut self, way: usize, ps: PageSize) -> Vec<Chunk> {
        let key = self.key(way, ps);
        let entries = std::mem::take(&mut self.chunks[key]);
        entries
            .into_iter()
            .map(|(chunk, slot)| {
                self.owners[way][slot] = None;
                chunk
            })
            .collect()
    }

    /// The modeled MMU state size in bytes: [`L2pTable::ENTRY_BITS`] per
    /// entry (Section V-B: "32 entries × 3 ways × 3 page sizes × 33 bits =
    /// 1.16KB").
    pub fn state_bytes(&self) -> f64 {
        (self.total_entries() as u64 * Self::ENTRY_BITS) as f64 / 8.0
    }
}

/// A subtable of the L2P table has no entry left (Section IV-B: time to
/// switch to the next chunk size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2pFull {
    /// The way whose subtable is full.
    pub way: usize,
    /// The page size of the full subtable.
    pub page_size: PageSize,
}

impl core::fmt::Display for L2pFull {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "L2P subtable full for way {} ({} pages)",
            self.way, self.page_size
        )
    }
}

impl std::error::Error for L2pFull {}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_mem::{AllocCostModel, AllocTag, PhysMem};
    use mehpt_types::MIB;

    fn chunk(mem: &mut PhysMem) -> Chunk {
        mem.alloc(8192, AllocTag::PageTable).unwrap()
    }

    fn mem() -> PhysMem {
        PhysMem::with_cost_model(64 * MIB, AllocCostModel::zero_cost())
    }

    #[test]
    fn paper_geometry() {
        let l2p = L2pTable::paper_default();
        assert_eq!(l2p.total_entries(), 288);
        assert_eq!(l2p.used_entries(), 0);
        assert!((l2p.state_bytes() - 1188.0).abs() < 1.0); // ≈1.16KB
    }

    #[test]
    fn subtable_grows_to_64_by_stealing_the_1g_region() {
        let mut m = mem();
        let mut l2p = L2pTable::paper_default();
        for i in 0..64 {
            let c = chunk(&mut m);
            l2p.push_chunk(0, PageSize::Base4K, c)
                .unwrap_or_else(|e| panic!("push {i}: {e}"));
        }
        assert_eq!(l2p.subtable_len(0, PageSize::Base4K), 64);
        // The hard cap: entry 65 must be refused.
        let c = chunk(&mut m);
        assert!(l2p.push_chunk(0, PageSize::Base4K, c).is_err());
    }

    #[test]
    fn one_1g_entry_blocks_stealing_the_middle() {
        let mut m = mem();
        let mut l2p = L2pTable::paper_default();
        let c = chunk(&mut m);
        l2p.push_chunk(0, PageSize::Giant1G, c).unwrap();
        // 4KB can now use only its home 32 entries.
        assert_eq!(l2p.capacity_remaining(0, PageSize::Base4K), 32);
        for _ in 0..32 {
            let c = chunk(&mut m);
            l2p.push_chunk(0, PageSize::Base4K, c).unwrap();
        }
        let c = chunk(&mut m);
        assert!(l2p.push_chunk(0, PageSize::Base4K, c).is_err());
    }

    #[test]
    fn displaced_1g_steals_most_significant_2m_entry() {
        let mut m = mem();
        let mut l2p = L2pTable::paper_default();
        // 4KB takes its home region and the whole 1GB region (Figure 6b).
        for _ in 0..64 {
            let c = chunk(&mut m);
            l2p.push_chunk(0, PageSize::Base4K, c).unwrap();
        }
        // Now a 1GB entry is needed (Figure 6c): it must land in the 2MB
        // region's most significant entry.
        let c = chunk(&mut m);
        l2p.push_chunk(0, PageSize::Giant1G, c).unwrap();
        assert_eq!(l2p.subtable_len(0, PageSize::Giant1G), 1);
        // 2MB can still grow from the bottom.
        assert!(l2p.capacity_remaining(0, PageSize::Huge2M) > 0);
    }

    #[test]
    fn both_4k_and_2m_can_share_the_stolen_middle() {
        let mut m = mem();
        let mut l2p = L2pTable::paper_default();
        for _ in 0..40 {
            let c = chunk(&mut m);
            l2p.push_chunk(0, PageSize::Base4K, c).unwrap();
        }
        for _ in 0..40 {
            let c = chunk(&mut m);
            l2p.push_chunk(0, PageSize::Huge2M, c).unwrap();
        }
        assert_eq!(l2p.used_entries(), 80);
        // 32+32+32 = 96 slots in way 0; 80 used, 16 left to share.
        assert_eq!(l2p.capacity_remaining(0, PageSize::Base4K), 16);
    }

    #[test]
    fn pop_and_clear_release_slots() {
        let mut m = mem();
        let mut l2p = L2pTable::paper_default();
        let c1 = chunk(&mut m);
        let c2 = chunk(&mut m);
        l2p.push_chunk(1, PageSize::Huge2M, c1).unwrap();
        l2p.push_chunk(1, PageSize::Huge2M, c2).unwrap();
        assert_eq!(l2p.pop_chunk(1, PageSize::Huge2M), Some(c2));
        assert_eq!(l2p.used_entries(), 1);
        let rest = l2p.clear_subtable(1, PageSize::Huge2M);
        assert_eq!(rest, vec![c1]);
        assert_eq!(l2p.used_entries(), 0);
        assert_eq!(l2p.pop_chunk(1, PageSize::Huge2M), None);
    }

    #[test]
    fn ways_are_independent() {
        let mut m = mem();
        let mut l2p = L2pTable::paper_default();
        for _ in 0..64 {
            let c = chunk(&mut m);
            l2p.push_chunk(0, PageSize::Base4K, c).unwrap();
        }
        assert_eq!(l2p.capacity_remaining(1, PageSize::Base4K), 64);
    }

    #[test]
    fn chunks_keep_logical_order() {
        let mut m = mem();
        let mut l2p = L2pTable::paper_default();
        let c1 = chunk(&mut m);
        let c2 = chunk(&mut m);
        let c3 = chunk(&mut m);
        for c in [c1, c2, c3] {
            l2p.push_chunk(2, PageSize::Base4K, c).unwrap();
        }
        assert_eq!(l2p.subtable_chunks(2, PageSize::Base4K), vec![c1, c2, c3]);
    }
}
