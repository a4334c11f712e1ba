use mehpt_ecpt::{chunks_for, Backing, CuckooConfig, Hpt, HptTable};
use mehpt_hash::{Config, ResizeMode, WaySizing};
use mehpt_mem::Chunk;
use mehpt_types::PageSize;

use crate::chunk::ChunkSizePolicy;
use crate::l2p::L2pTable;

/// Configuration of ME-HPT: the ECPT baseline's knobs plus the paper's
/// techniques.
///
/// The defaults are the full ME-HPT design of the paper (Table III plus all
/// four techniques). The `resize_mode` and `sizing` switches exist for the
/// ablation experiments of Figure 10: setting one to the ECPT baseline's
/// value (out-of-place, all-way) reverts that dimension while keeping
/// chunked storage.
#[derive(Clone, Debug, PartialEq)]
pub struct MeHptConfig {
    /// The elastic-cuckoo knobs shared with the ECPT baseline (128 × 64B =
    /// the paper's 8KB starting way).
    pub base: CuckooConfig,
    /// In-place resizing (Section IV-C), or out-of-place (baseline).
    pub resize_mode: ResizeMode,
    /// Per-way resizing with weighted insertion (Section IV-D), or all-way
    /// resizing (baseline).
    pub sizing: WaySizing,
    /// The chunk-size ladder (Section IV-B).
    pub chunk_policy: ChunkSizePolicy,
    /// L2P entries per (way, page size) subtable (32 in the paper).
    pub l2p_entries_per_subtable: usize,
}

impl Default for MeHptConfig {
    fn default() -> MeHptConfig {
        MeHptConfig {
            base: CuckooConfig {
                seed: 0x3e_87,
                ..CuckooConfig::default()
            },
            resize_mode: ResizeMode::InPlace,
            sizing: WaySizing::PerWay,
            chunk_policy: ChunkSizePolicy::paper_default(),
            l2p_entries_per_subtable: 32,
        }
    }
}

/// The ME-HPT elastic cuckoo page table for one page size: the shared
/// engine backed by the process's [`L2pTable`].
///
/// With the default configuration it combines all four techniques of the
/// paper:
///
/// * ways are collections of discontiguous **chunks** indexed through the
///   [`L2pTable`] (Section IV-A);
/// * chunk sizes **grow dynamically** (8KB → 1MB → …) when the L2P
///   subtable fills — the only out-of-place resize (Section IV-B);
/// * ordinary resizes are **in place**: upsizing appends chunks and
///   consumes one extra hash-key bit, so ≈half the migrated entries never
///   move (Section IV-C);
/// * **per-way resizing** grows one way at a time, with weighted-random
///   insertion and a 2× balance gate (Section IV-D).
pub type MeHptTable = HptTable<L2pTable>;

/// A process's complete ME-HPT: one chunked elastic cuckoo table per page
/// size, the shared [`L2pTable`] (its [`backing`](Hpt::backing)), and the
/// Cuckoo Walk Tables.
///
/// This is the paper's full design. Compared to the ECPT baseline
/// ([`mehpt_ecpt::Ecpt`]) it:
///
/// * never allocates more contiguous memory than one chunk (8KB or 1MB for
///   all of the paper's workloads — Figure 8);
/// * uses `max(old, new)` memory during resizes instead of `old + new`
///   (in-place resizing — Figure 10);
/// * grows one way at a time (per-way resizing — Figures 11/12);
/// * keeps lookups at W parallel probes, with the L2P access hidden behind
///   the CWC probe (Section V-D), so the same
///   [`EcptWalker`](mehpt_ecpt::EcptWalker) hardware model is used.
///
/// # Examples
///
/// ```
/// use mehpt_core::MeHpt;
/// use mehpt_mem::PhysMem;
/// use mehpt_types::{PageSize, Ppn, VirtAddr, MIB};
///
/// let mut mem = PhysMem::new(64 * MIB);
/// let mut hpt = MeHpt::new(&mut mem)?;
/// let va = VirtAddr::new(0x7000_3000);
/// hpt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(11), &mut mem)?;
/// assert_eq!(hpt.translate(va), Some((Ppn(11), PageSize::Base4K)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type MeHpt = Hpt<L2pTable>;

/// ME-HPT's storage: chunks registered in the L2P table, on the
/// [`ChunkSizePolicy`] ladder.
impl Backing for L2pTable {
    type Config = MeHptConfig;

    fn new(cfg: &MeHptConfig) -> L2pTable {
        L2pTable::new(cfg.base.ways, cfg.l2p_entries_per_subtable)
    }

    fn table(cfg: &MeHptConfig) -> Config {
        Config {
            base: cfg.base.clone(),
            resize_mode: cfg.resize_mode,
            sizing: cfg.sizing,
        }
    }

    fn seeds(seed: u64, ps: PageSize) -> (u64, u64) {
        let ps = ps.index() as u64;
        (seed ^ ps, seed ^ 0xfeed_f00d ^ (ps << 32))
    }

    fn first_chunk(cfg: &MeHptConfig, _len: usize) -> u64 {
        cfg.chunk_policy.first()
    }

    /// The current chunk size, or the next ones up the ladder until the
    /// new storage fits the subtable beside the old.
    fn resize_chunk(
        &self,
        cfg: &MeHptConfig,
        way: usize,
        ps: PageSize,
        current: u64,
        len: usize,
    ) -> Option<u64> {
        let mut bytes = current;
        while self.capacity_remaining(way, ps) < chunks_for(len, bytes) {
            bytes = cfg.chunk_policy.next(bytes)?;
        }
        Some(bytes)
    }

    /// The next chunk size, or larger until the way fits an emptied
    /// subtable.
    fn switch_chunk(cfg: &MeHptConfig, current: u64, len: usize) -> u64 {
        let cap = 2 * cfg.l2p_entries_per_subtable;
        let mut bytes = cfg.chunk_policy.next(current).unwrap_or(current);
        while chunks_for(len, bytes) > cap {
            bytes = cfg
                .chunk_policy
                .next(bytes)
                .expect("way outgrew the largest chunk size and the L2P table");
        }
        bytes
    }

    fn room(&self, way: usize, ps: PageSize) -> usize {
        self.capacity_remaining(way, ps)
    }

    fn register(&mut self, way: usize, ps: PageSize, chunk: Chunk) {
        self.push_chunk(way, ps, chunk).expect("room checked");
    }

    fn unregister(&mut self, way: usize, ps: PageSize, chunk: Chunk) {
        let removed = self.remove_chunk(way, ps, chunk);
        debug_assert!(removed, "chunk was never registered");
    }

    fn l2p_entries(&self) -> usize {
        self.used_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_hash::{ResizeEvent, ResizeKind};
    use mehpt_mem::{AllocCostModel, AllocTag, PhysMem};
    use mehpt_types::{Ppn, Vpn, GIB, KIB, MIB};

    fn setup() -> (PhysMem, L2pTable) {
        (
            PhysMem::with_cost_model(4 * GIB, AllocCostModel::zero_cost()),
            L2pTable::paper_default(),
        )
    }

    fn table(mem: &mut PhysMem, l2p: &mut L2pTable) -> MeHptTable {
        MeHptTable::new(PageSize::Base4K, MeHptConfig::default(), mem, l2p).unwrap()
    }

    #[test]
    fn starts_with_one_8kb_chunk_per_way() {
        let (mut mem, mut l2p) = setup();
        let t = table(&mut mem, &mut l2p);
        assert_eq!(t.way_sizes(), vec![8 * KIB, 8 * KIB, 8 * KIB]);
        assert_eq!(t.way_chunk_bytes(), vec![8 * KIB, 8 * KIB, 8 * KIB]);
        assert_eq!(l2p.used_entries(), 3);
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let (mut mem, mut l2p) = setup();
        let mut t = table(&mut mem, &mut l2p);
        for i in 0..20_000u64 {
            t.insert(Vpn(i * 5), Ppn(i), &mut mem, &mut l2p).unwrap();
        }
        for i in 0..20_000u64 {
            assert_eq!(t.lookup(Vpn(i * 5)), Some(Ppn(i)), "lookup {i}");
        }
        for i in 0..20_000u64 {
            assert_eq!(t.remove(Vpn(i * 5), &mut mem, &mut l2p), Some(Ppn(i)));
        }
        assert_eq!(t.pages(), 0);
    }

    #[test]
    fn contiguity_capped_at_chunk_size() {
        let (mut mem, mut l2p) = setup();
        let mut t = table(&mut mem, &mut l2p);
        // Grow the table well past the 512KB 8KB-chunk limit: it must
        // switch to 1MB chunks, never allocating more than 1MB at once.
        for i in 0..300_000u64 {
            t.insert(Vpn(i * 8), Ppn(i), &mut mem, &mut l2p).unwrap();
        }
        let max_way: u64 = t.way_sizes().into_iter().max().unwrap();
        assert!(max_way > 4 * MIB, "ways must have outgrown 4MB: {max_way}");
        assert_eq!(
            mem.stats()
                .tag(mehpt_mem::AllocTag::PageTable)
                .max_contiguous_bytes,
            MIB,
            "no allocation larger than one 1MB chunk"
        );
        assert_eq!(t.stats().max_chunk_bytes, MIB);
        assert!(t.stats().chunk_switches >= 1);
    }

    #[test]
    fn in_place_upsizes_keep_half_in_place() {
        let (mut mem, mut l2p) = setup();
        let mut t = table(&mut mem, &mut l2p);
        for i in 0..100_000u64 {
            t.insert(Vpn(i * 8), Ppn(i), &mut mem, &mut l2p).unwrap();
        }
        let inplace_ups: Vec<&ResizeEvent> = t
            .stats()
            .resizes
            .iter()
            .filter(|e| e.kind == ResizeKind::Upsize && e.kept > 0)
            .collect();
        assert!(!inplace_ups.is_empty());
        let f: f64 = inplace_ups
            .iter()
            .map(|e| e.moved as f64 / (e.moved + e.kept) as f64)
            .sum::<f64>()
            / inplace_ups.len() as f64;
        assert!((0.35..0.65).contains(&f), "moved fraction {f}");
    }

    #[test]
    fn per_way_keeps_ways_within_double() {
        let (mut mem, mut l2p) = setup();
        let mut t = table(&mut mem, &mut l2p);
        for i in 0..100_000u64 {
            t.insert(Vpn(i * 8), Ppn(i), &mut mem, &mut l2p).unwrap();
            if i % 4096 == 0 {
                let sizes = t.way_sizes();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max <= 2 * min, "imbalance {sizes:?} at {i}");
            }
        }
        // Per-way resizing produces ways of different sizes at least some
        // of the time (Figure 12's point).
        let n_resizes = t.stats().resizes.len();
        assert!(n_resizes > 5);
    }

    #[test]
    fn lookups_stay_correct_through_all_resize_machinery() {
        let (mut mem, mut l2p) = setup();
        let mut t = table(&mut mem, &mut l2p);
        for i in 0..150_000u64 {
            t.insert(Vpn(i), Ppn(i + 3), &mut mem, &mut l2p).unwrap();
            if i % 11 == 0 {
                let probe = i / 2;
                assert_eq!(t.lookup(Vpn(probe)), Some(Ppn(probe + 3)), "at {i}");
            }
        }
    }

    #[test]
    fn downsizes_free_chunks_and_l2p_entries() {
        let (mut mem, mut l2p) = setup();
        let mut t = table(&mut mem, &mut l2p);
        for i in 0..30_000u64 {
            t.insert(Vpn(i * 8), Ppn(i), &mut mem, &mut l2p).unwrap();
        }
        let grown_bytes = t.memory_bytes();
        let grown_capacity = t.capacity();
        let grown_l2p = l2p.used_entries();
        for i in 0..30_000u64 {
            t.remove(Vpn(i * 8), &mut mem, &mut l2p);
        }
        // Churn to drive the gradual downsizes to completion.
        for i in 0..60_000u64 {
            t.insert(Vpn(1_000_000 + (i % 64)), Ppn(i), &mut mem, &mut l2p)
                .unwrap();
            t.remove(Vpn(1_000_000 + (i % 64)), &mut mem, &mut l2p);
        }
        // Logical capacity shrinks hard; physical memory shrinks down to
        // the chunk-granularity floor (one chunk per way).
        assert!(
            t.capacity() < grown_capacity / 2,
            "capacity {} did not shrink from {grown_capacity}",
            t.capacity()
        );
        assert!(t.memory_bytes() <= grown_bytes);
        assert!(l2p.used_entries() <= grown_l2p);
        let downs = t
            .stats()
            .resizes
            .iter()
            .filter(|e| e.kind == ResizeKind::Downsize)
            .count();
        assert!(downs > 0, "no downsizes happened");
    }

    #[test]
    fn ablation_out_of_place_uses_more_memory() {
        let run = |resize_mode| {
            let (mut mem, mut l2p) = setup();
            // All-way sizing isolates the in-place effect: with per-way
            // resizing only one way resizes at a time, muting the contrast.
            let cfg = MeHptConfig {
                resize_mode,
                sizing: WaySizing::AllWay,
                ..MeHptConfig::default()
            };
            let mut t = MeHptTable::new(PageSize::Base4K, cfg, &mut mem, &mut l2p).unwrap();
            for i in 0..100_000u64 {
                t.insert(Vpn(i * 8), Ppn(i), &mut mem, &mut l2p).unwrap();
            }
            t.stats().peak_bytes
        };
        let inplace = run(ResizeMode::InPlace);
        let oop = run(ResizeMode::OutOfPlace);
        assert!(
            (inplace as f64) < 0.8 * oop as f64,
            "in-place peak {inplace} not clearly below out-of-place {oop}"
        );
    }

    #[test]
    fn destroy_returns_everything() {
        let (mut mem, mut l2p) = setup();
        let before = mem.stats().tag(AllocTag::PageTable).current_bytes;
        let mut t = table(&mut mem, &mut l2p);
        for i in 0..50_000u64 {
            t.insert(Vpn(i * 8), Ppn(i), &mut mem, &mut l2p).unwrap();
        }
        t.destroy(&mut mem, &mut l2p);
        assert_eq!(mem.stats().tag(AllocTag::PageTable).current_bytes, before);
        assert_eq!(l2p.used_entries(), 0);
    }

    #[test]
    fn probe_reads_one_slot_per_way() {
        let (mut mem, mut l2p) = setup();
        let mut t = table(&mut mem, &mut l2p);
        for i in 0..50_000u64 {
            t.insert(Vpn(i * 8), Ppn(i), &mut mem, &mut l2p).unwrap();
            if i % 977 == 0 {
                assert_eq!(t.probe(Vpn(i * 8)), (Some(Ppn(i)), 3));
            }
        }
    }

    #[test]
    fn update_existing_translation() {
        let (mut mem, mut l2p) = setup();
        let mut t = table(&mut mem, &mut l2p);
        t.insert(Vpn(9), Ppn(1), &mut mem, &mut l2p).unwrap();
        t.insert(Vpn(9), Ppn(2), &mut mem, &mut l2p).unwrap();
        assert_eq!(t.pages(), 1);
        assert_eq!(t.lookup(Vpn(9)), Some(Ppn(2)));
    }
}
