use std::mem;

use mehpt_ecpt::{ClusterEntry, InsertReport};
use mehpt_hash::{HashFamily, ResizeEvent, ResizeKind};
use mehpt_mem::{AllocError, AllocTag, Chunk, PhysMem};
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, PhysAddr, Ppn, Vpn};

use crate::chunk::ChunkSizePolicy;
use crate::l2p::L2pTable;

/// Configuration of a [`MeHptTable`].
///
/// The defaults are the full ME-HPT design of the paper (Table III plus all
/// four techniques). The `in_place` and `per_way` switches exist for the
/// ablation experiments of Figure 10: turning one off reverts that
/// dimension to the ECPT baseline behaviour while keeping chunked storage.
#[derive(Clone, Debug, PartialEq)]
pub struct MeHptConfig {
    /// Number of cuckoo ways.
    pub ways: usize,
    /// Initial (and minimum) entries per way; a power of two
    /// (128 × 64B = the paper's 8KB starting way).
    pub initial_entries_per_way: usize,
    /// Occupancy fraction that triggers an upsize.
    pub upsize_threshold: f64,
    /// Occupancy fraction that triggers a downsize.
    pub downsize_threshold: f64,
    /// Entries migrated from each resizing way per insert.
    pub migrate_per_insert: usize,
    /// Cuckoo kicks before an insert forces an upsize.
    pub max_kicks: usize,
    /// In-place resizing (Section IV-C). Off = out-of-place (baseline).
    pub in_place: bool,
    /// Per-way resizing with weighted insertion (Section IV-D). Off =
    /// all-way resizing (baseline).
    pub per_way: bool,
    /// The chunk-size ladder (Section IV-B).
    pub chunk_policy: ChunkSizePolicy,
    /// L2P entries per (way, page size) subtable (32 in the paper).
    pub l2p_entries_per_subtable: usize,
    /// Seed for hash functions and way choice.
    pub seed: u64,
}

impl Default for MeHptConfig {
    fn default() -> MeHptConfig {
        MeHptConfig {
            ways: 3,
            initial_entries_per_way: 128,
            upsize_threshold: 0.6,
            downsize_threshold: 0.2,
            migrate_per_insert: 2,
            max_kicks: 128,
            in_place: true,
            per_way: true,
            chunk_policy: ChunkSizePolicy::paper_default(),
            l2p_entries_per_subtable: 32,
            seed: 0x3e_87,
        }
    }
}

/// Statistics of one [`MeHptTable`].
#[derive(Clone, Debug, Default)]
pub struct MeHptStats {
    /// Completed resize events (Figures 11 and 13 derive from these).
    pub resizes: Vec<ResizeEvent>,
    /// Histogram of cuckoo re-insertions per insert or rehash (Figure 16).
    pub kicks_histogram: Vec<u64>,
    /// Entries migrated by gradual resizing.
    pub entries_migrated: u64,
    /// Chunk-size switches performed (the only out-of-place resizes in the
    /// full design; the paper observes at most one per run).
    pub chunk_switches: u64,
    /// High-water mark of table memory in bytes.
    pub peak_bytes: u64,
    /// The largest chunk ever allocated — the contiguity requirement
    /// (Figure 8).
    pub max_chunk_bytes: u64,
}

impl MeHptStats {
    fn record_kicks(&mut self, kicks: usize) {
        if self.kicks_histogram.len() <= kicks {
            self.kicks_histogram.resize(kicks + 1, 0);
        }
        self.kicks_histogram[kicks] += 1;
    }
}

/// One way's physical storage: a flat logical array of cluster entries
/// scattered over discontiguous chunks.
#[derive(Debug)]
struct Storage {
    slots: Vec<Option<ClusterEntry>>,
    chunks: Vec<Chunk>,
    chunk_bytes: u64,
}

impl Storage {
    fn epc(&self) -> usize {
        ChunkSizePolicy::entries_per_chunk(self.chunk_bytes)
    }

    /// Chunks needed to back `len` entries at `chunk_bytes` granularity.
    fn chunks_for(len: usize, chunk_bytes: u64) -> usize {
        let epc = ChunkSizePolicy::entries_per_chunk(chunk_bytes);
        len.div_ceil(epc).max(1)
    }

    /// The physical address of logical entry `idx` — the L2P translation:
    /// chunk `idx / entries_per_chunk`, offset `idx % entries_per_chunk`.
    fn addr(&self, idx: usize) -> PhysAddr {
        let epc = self.epc();
        self.chunks[idx / epc].addr((idx % epc) as u64 * ClusterEntry::BYTES)
    }

    fn bytes(&self) -> u64 {
        self.chunks.iter().map(Chunk::bytes).sum()
    }
}

#[derive(Clone, Copy, Debug)]
struct Resize {
    old_len: usize,
    rehash_ptr: usize,
    kind: ResizeKind,
    in_place: bool,
    moved: u64,
    kept: u64,
}

#[derive(Debug)]
struct Way {
    storage: Storage,
    /// Old table during an out-of-place (ablation-mode) resize.
    old_storage: Option<Storage>,
    logical_len: usize,
    resize: Option<Resize>,
    occupied: usize,
}

impl Way {
    /// Resolves a hash value to `(in_old_storage, index)`.
    fn locate(&self, h: u64) -> (bool, usize) {
        match &self.resize {
            Some(r) => {
                let old_idx = h as usize & (r.old_len - 1);
                if old_idx >= r.rehash_ptr {
                    (!r.in_place, old_idx)
                } else {
                    (false, h as usize & (self.logical_len - 1))
                }
            }
            None => (false, h as usize & (self.logical_len - 1)),
        }
    }

    fn slot_mut(&mut self, in_old: bool, idx: usize) -> &mut Option<ClusterEntry> {
        if in_old {
            &mut self.old_storage.as_mut().unwrap().slots[idx]
        } else {
            &mut self.storage.slots[idx]
        }
    }

    fn slot(&self, in_old: bool, idx: usize) -> &Option<ClusterEntry> {
        if in_old {
            &self.old_storage.as_ref().unwrap().slots[idx]
        } else {
            &self.storage.slots[idx]
        }
    }

    fn addr(&self, in_old: bool, idx: usize) -> PhysAddr {
        if in_old {
            self.old_storage.as_ref().unwrap().addr(idx)
        } else {
            self.storage.addr(idx)
        }
    }

    fn bytes(&self) -> u64 {
        self.storage.bytes() + self.old_storage.as_ref().map(Storage::bytes).unwrap_or(0)
    }

    fn is_resizing(&self) -> bool {
        self.resize.is_some()
    }
}

/// The ME-HPT elastic cuckoo page table for one page size.
///
/// Combines all four techniques of the paper:
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
pub struct MeHptTable {
    ways: Vec<Way>,
    family: HashFamily,
    cfg: MeHptConfig,
    rng: Xoshiro256,
    ps: PageSize,
    clusters: usize,
    pages: u64,
    stats: MeHptStats,
}

impl std::fmt::Debug for MeHptTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeHptTable")
            .field("page_size", &self.ps)
            .field("pages", &self.pages)
            .field("clusters", &self.clusters)
            .field("way_sizes", &self.way_sizes())
            .finish_non_exhaustive()
    }
}

impl MeHptTable {
    /// Creates a table for `ps` pages, allocating the initial chunks and
    /// registering them in `l2p`.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure of the initial chunks.
    pub fn new(
        ps: PageSize,
        cfg: MeHptConfig,
        mem: &mut PhysMem,
        l2p: &mut L2pTable,
    ) -> Result<MeHptTable, AllocError> {
        assert!(cfg.ways >= 2, "cuckoo hashing needs at least 2 ways");
        assert!(
            cfg.initial_entries_per_way.is_power_of_two(),
            "way sizes must be powers of two"
        );
        assert_eq!(
            l2p.ways(),
            cfg.ways,
            "the L2P table must have one column per way"
        );
        let chunk_bytes = cfg.chunk_policy.first();
        let n_chunks = Storage::chunks_for(cfg.initial_entries_per_way, chunk_bytes);
        let mut ways: Vec<Way> = Vec::with_capacity(cfg.ways);
        let rollback = |ways: Vec<Way>, mem: &mut PhysMem, l2p: &mut L2pTable| {
            for (w, way) in ways.into_iter().enumerate() {
                for c in way.storage.chunks {
                    l2p.remove_chunk(w, ps, c);
                    mem.free(c);
                }
            }
        };
        for w in 0..cfg.ways {
            let mut chunks = Vec::with_capacity(n_chunks);
            for _ in 0..n_chunks {
                match mem.alloc(chunk_bytes, AllocTag::PageTable) {
                    Ok(c) => {
                        l2p.push_chunk(w, ps, c).expect("fresh L2P cannot be full");
                        chunks.push(c);
                    }
                    Err(e) => {
                        for c in chunks {
                            l2p.remove_chunk(w, ps, c);
                            mem.free(c);
                        }
                        rollback(ways, mem, l2p);
                        return Err(e);
                    }
                }
            }
            ways.push(Way {
                storage: Storage {
                    slots: (0..cfg.initial_entries_per_way).map(|_| None).collect(),
                    chunks,
                    chunk_bytes,
                },
                old_storage: None,
                logical_len: cfg.initial_entries_per_way,
                resize: None,
                occupied: 0,
            });
        }
        let family = HashFamily::new(cfg.ways, cfg.seed ^ ps.index() as u64);
        let rng = Xoshiro256::seed_from_u64(cfg.seed ^ 0xfeed_f00d ^ (ps.index() as u64) << 32);
        let mut table = MeHptTable {
            ways,
            family,
            cfg,
            rng,
            ps,
            clusters: 0,
            pages: 0,
            stats: MeHptStats::default(),
        };
        table.stats.max_chunk_bytes = chunk_bytes;
        table.note_bytes();
        Ok(table)
    }

    /// The page size this table translates.
    pub fn page_size(&self) -> PageSize {
        self.ps
    }

    /// The number of valid translations (pages) stored.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The number of occupied cluster entries.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Logical capacity in cluster entries.
    pub fn capacity(&self) -> usize {
        self.ways.iter().map(|w| w.logical_len).sum()
    }

    /// The logical size of each way in bytes (entries × 64B) — Figure 12.
    pub fn way_sizes(&self) -> Vec<u64> {
        self.ways
            .iter()
            .map(|w| w.logical_len as u64 * ClusterEntry::BYTES)
            .collect()
    }

    /// The physical bytes backing each way (whole chunks, even when the
    /// way only fills part of one — Figure 15's metric).
    pub fn way_phys_bytes(&self) -> Vec<u64> {
        self.ways.iter().map(|w| w.storage.bytes()).collect()
    }

    /// The chunk size each way currently uses.
    pub fn way_chunk_bytes(&self) -> Vec<u64> {
        self.ways.iter().map(|w| w.storage.chunk_bytes).collect()
    }

    /// Physical memory currently held (all chunks, both tables during an
    /// out-of-place resize).
    pub fn memory_bytes(&self) -> u64 {
        self.ways.iter().map(Way::bytes).sum()
    }

    /// Whether any way is mid-resize.
    pub fn is_resizing(&self) -> bool {
        self.ways.iter().any(Way::is_resizing)
    }

    /// Collected statistics.
    pub fn stats(&self) -> &MeHptStats {
        &self.stats
    }

    /// Functional lookup (no timing).
    pub fn lookup(&self, vpn: Vpn) -> Option<Ppn> {
        let tag = ClusterEntry::tag_of(vpn);
        for w in 0..self.ways.len() {
            let h = self.family.hash(w, &tag);
            let (in_old, idx) = self.ways[w].locate(h);
            if let Some(cluster) = self.ways[w].slot(in_old, idx) {
                if cluster.tag() == tag {
                    return cluster.get(vpn);
                }
            }
        }
        None
    }

    /// One walker probe of `vpn`: hashes each way once, pushes the way
    /// slot's physical address onto `out` (W addresses) and returns the
    /// translation if a slot's tag matches — what [`MeHptTable::lookup`]
    /// returns. The L2P lookup that produces the addresses costs ~4 cycles
    /// in hardware and is hidden behind the CWC access (Section V-D).
    pub fn probe(&self, vpn: Vpn, out: &mut Vec<PhysAddr>) -> Option<Ppn> {
        let tag = ClusterEntry::tag_of(vpn);
        let mut hit = None;
        for (w, way) in self.ways.iter().enumerate() {
            let (in_old, idx) = way.locate(self.family.hash(w, &tag));
            out.push(way.addr(in_old, idx));
            match way.slot(in_old, idx) {
                Some(cluster) if hit.is_none() && cluster.tag() == tag => {
                    hit = Some(cluster.get(vpn));
                }
                _ => {}
            }
        }
        hit.flatten()
    }

    /// Inserts (or updates) the translation `vpn → ppn`.
    ///
    /// # Errors
    ///
    /// Fails only if a chunk allocation fails — with the default 8KB/1MB
    /// chunks this effectively never happens, which is the point of the
    /// design.
    pub fn insert(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        mem: &mut PhysMem,
        l2p: &mut L2pTable,
    ) -> Result<InsertReport, AllocError> {
        let mut report = InsertReport::default();
        let tag = ClusterEntry::tag_of(vpn);
        for w in 0..self.ways.len() {
            let h = self.family.hash(w, &tag);
            let (in_old, idx) = self.ways[w].locate(h);
            if let Some(cluster) = self.ways[w].slot_mut(in_old, idx).as_mut() {
                if cluster.tag() == tag {
                    if cluster.set(vpn, ppn).is_none() {
                        self.pages += 1;
                    }
                    return Ok(report);
                }
            }
        }
        report.started_resize = self.maybe_resize(mem, l2p)?;
        report.migrated = self.migration_step(mem, l2p);
        let way = self.choose_insert_way();
        let mut cluster = ClusterEntry::new(tag);
        cluster.set(vpn, ppn);
        report.kicks = self.place(way, cluster, mem, l2p)? as u32;
        self.clusters += 1;
        self.pages += 1;
        self.stats.record_kicks(report.kicks as usize);
        self.note_bytes();
        Ok(report)
    }

    /// Removes the translation for `vpn`, returning it. A downsize may be
    /// triggered; allocation failures during downsizing are silently
    /// deferred.
    pub fn remove(&mut self, vpn: Vpn, mem: &mut PhysMem, l2p: &mut L2pTable) -> Option<Ppn> {
        let tag = ClusterEntry::tag_of(vpn);
        for w in 0..self.ways.len() {
            let h = self.family.hash(w, &tag);
            let (in_old, idx) = self.ways[w].locate(h);
            let slot = self.ways[w].slot_mut(in_old, idx);
            if let Some(cluster) = slot.as_mut() {
                if cluster.tag() == tag {
                    let ppn = cluster.clear(vpn)?;
                    self.pages -= 1;
                    if cluster.is_empty() {
                        *slot = None;
                        self.ways[w].occupied -= 1;
                        self.clusters -= 1;
                    }
                    let _ = self.maybe_resize(mem, l2p);
                    self.migration_step(mem, l2p);
                    return Some(ppn);
                }
            }
        }
        None
    }

    /// Releases all physical memory and L2P entries.
    pub fn destroy(mut self, mem: &mut PhysMem, l2p: &mut L2pTable) {
        for (w, way) in self.ways.drain(..).enumerate() {
            for c in way.storage.chunks {
                l2p.remove_chunk(w, self.ps, c);
                mem.free(c);
            }
            if let Some(old) = way.old_storage {
                for c in old.chunks {
                    l2p.remove_chunk(w, self.ps, c);
                    mem.free(c);
                }
            }
        }
    }

    // ---- internals ----

    fn note_bytes(&mut self) {
        let bytes = self.memory_bytes();
        self.stats.peak_bytes = self.stats.peak_bytes.max(bytes);
    }

    fn other_way(&mut self, not: usize) -> usize {
        let pick = self.rng.next_index(self.ways.len() - 1);
        if pick >= not {
            pick + 1
        } else {
            pick
        }
    }

    /// Weighted random insertion (Section IV-D) when per-way resizing is
    /// on; uniform otherwise.
    fn choose_insert_way(&mut self) -> usize {
        if !self.cfg.per_way {
            return self.rng.next_index(self.ways.len());
        }
        let min_len = self.ways.iter().map(|w| w.logical_len).min().unwrap();
        let weights: Vec<u64> = self
            .ways
            .iter()
            .map(|w| {
                let free = w.logical_len.saturating_sub(w.occupied) as u64;
                let at_threshold =
                    w.occupied as f64 >= self.cfg.upsize_threshold * w.logical_len as f64;
                if w.logical_len > min_len && at_threshold {
                    0
                } else {
                    free
                }
            })
            .collect();
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return self.rng.next_index(self.ways.len());
        }
        let mut r = self.rng.next_below(total);
        for (i, w) in weights.iter().enumerate() {
            if r < *w {
                return i;
            }
            r -= w;
        }
        unreachable!("weighted choice must land in a bucket")
    }

    /// Places a cluster starting at `way`, cuckoo-kicking as needed.
    fn place(
        &mut self,
        way: usize,
        cluster: ClusterEntry,
        mem: &mut PhysMem,
        l2p: &mut L2pTable,
    ) -> Result<usize, AllocError> {
        let mut way = way;
        let mut entry = cluster;
        let mut kicks = 0usize;
        loop {
            let h = self.family.hash(way, &entry.tag());
            let (in_old, idx) = self.ways[way].locate(h);
            let slot = self.ways[way].slot_mut(in_old, idx);
            match slot {
                None => {
                    *slot = Some(entry);
                    self.ways[way].occupied += 1;
                    return Ok(kicks);
                }
                Some(_) => {
                    entry = mem::replace(slot, Some(entry)).unwrap();
                    kicks += 1;
                    if kicks % self.cfg.max_kicks == 0 {
                        self.finish_all_resizes(mem, l2p);
                        let w = self.fullest_smallest_way();
                        self.start_resize(w, ResizeKind::Upsize, mem, l2p)?;
                    }
                    way = self.other_way(way);
                }
            }
        }
    }

    /// Victim placement during migration: never allocates; drains kicks.
    fn place_infallible(&mut self, way: usize, cluster: ClusterEntry) -> usize {
        let mut way = way;
        let mut entry = cluster;
        let mut kicks = 0usize;
        loop {
            let h = self.family.hash(way, &entry.tag());
            let (in_old, idx) = self.ways[way].locate(h);
            let slot = self.ways[way].slot_mut(in_old, idx);
            match slot {
                None => {
                    *slot = Some(entry);
                    self.ways[way].occupied += 1;
                    return kicks;
                }
                Some(_) => {
                    entry = mem::replace(slot, Some(entry)).unwrap();
                    kicks += 1;
                    way = self.other_way(way);
                    assert!(kicks < 100_000, "victim placement diverged");
                }
            }
        }
    }

    fn fullest_smallest_way(&self) -> usize {
        let min_len = self.ways.iter().map(|w| w.logical_len).min().unwrap();
        (0..self.ways.len())
            .filter(|&w| self.ways[w].logical_len == min_len)
            .max_by_key(|&w| self.ways[w].occupied)
            .unwrap()
    }

    /// Threshold checks; returns whether a resize started.
    fn maybe_resize(&mut self, mem: &mut PhysMem, l2p: &mut L2pTable) -> Result<bool, AllocError> {
        if self.is_resizing() {
            return Ok(false);
        }
        if self.cfg.per_way {
            let lens: Vec<usize> = self.ways.iter().map(|w| w.logical_len).collect();
            let min_len = *lens.iter().min().unwrap();
            let max_len = *lens.iter().max().unwrap();
            for w in 0..self.ways.len() {
                let way = &self.ways[w];
                let up = way.occupied as f64 >= self.cfg.upsize_threshold * way.logical_len as f64;
                if up && way.logical_len <= min_len {
                    self.start_resize(w, ResizeKind::Upsize, mem, l2p)?;
                    return Ok(true);
                }
                let down =
                    (way.occupied as f64) < self.cfg.downsize_threshold * way.logical_len as f64;
                if down
                    && way.logical_len >= max_len
                    && way.logical_len > self.cfg.initial_entries_per_way
                {
                    // Downsize failures are deferred, not fatal.
                    if self.start_resize(w, ResizeKind::Downsize, mem, l2p).is_ok() {
                        return Ok(true);
                    }
                    return Ok(false);
                }
            }
            Ok(false)
        } else {
            let cap = self.capacity();
            if (self.clusters + 1) as f64 > self.cfg.upsize_threshold * cap as f64 {
                for w in 0..self.ways.len() {
                    self.start_resize(w, ResizeKind::Upsize, mem, l2p)?;
                }
                return Ok(true);
            }
            if (self.clusters as f64) < self.cfg.downsize_threshold * cap as f64
                && self.ways[0].logical_len > self.cfg.initial_entries_per_way
            {
                for w in 0..self.ways.len() {
                    if self
                        .start_resize(w, ResizeKind::Downsize, mem, l2p)
                        .is_err()
                    {
                        return Ok(false);
                    }
                }
                return Ok(true);
            }
            Ok(false)
        }
    }

    /// Starts a resize of way `w`, choosing in-place growth, out-of-place
    /// (ablation) or a chunk-size switch.
    fn start_resize(
        &mut self,
        w: usize,
        kind: ResizeKind,
        mem: &mut PhysMem,
        l2p: &mut L2pTable,
    ) -> Result<(), AllocError> {
        debug_assert!(!self.ways[w].is_resizing());
        let old_len = self.ways[w].logical_len;
        let new_len = match kind {
            ResizeKind::Upsize => old_len * 2,
            ResizeKind::Downsize => old_len / 2,
        };
        if self.cfg.in_place {
            match kind {
                ResizeKind::Upsize => {
                    let chunk_bytes = self.ways[w].storage.chunk_bytes;
                    let needed = Storage::chunks_for(new_len, chunk_bytes);
                    let extra = needed.saturating_sub(self.ways[w].storage.chunks.len());
                    if extra > 0 && l2p.capacity_remaining(w, self.ps) < extra {
                        // The L2P subtable is full: switch chunk size
                        // (Section IV-B; "by construction, out-of-place").
                        return self.chunk_switch(w, new_len, mem, l2p);
                    }
                    let mut newly: Vec<Chunk> = Vec::with_capacity(extra);
                    for _ in 0..extra {
                        match mem.alloc(chunk_bytes, AllocTag::PageTable) {
                            Ok(c) => {
                                l2p.push_chunk(w, self.ps, c).expect("capacity checked");
                                newly.push(c);
                            }
                            Err(e) => {
                                for c in newly {
                                    l2p.remove_chunk(w, self.ps, c);
                                    mem.free(c);
                                }
                                return Err(e);
                            }
                        }
                    }
                    let way = &mut self.ways[w];
                    way.storage.chunks.extend(newly);
                    way.storage.slots.resize_with(new_len, || None);
                    way.logical_len = new_len;
                    way.resize = Some(Resize {
                        old_len,
                        rehash_ptr: 0,
                        kind,
                        in_place: true,
                        moved: 0,
                        kept: 0,
                    });
                }
                ResizeKind::Downsize => {
                    // Nothing to allocate: the array shrinks after the
                    // migration completes.
                    let way = &mut self.ways[w];
                    way.logical_len = new_len;
                    way.resize = Some(Resize {
                        old_len,
                        rehash_ptr: 0,
                        kind,
                        in_place: true,
                        moved: 0,
                        kept: 0,
                    });
                }
            }
        } else {
            // Ablation mode: gradual out-of-place. Old and new chunks hold
            // L2P entries simultaneously, so the subtable may run out much
            // earlier — exactly the pressure Section VII-D describes.
            let mut chunk_bytes = self.ways[w].storage.chunk_bytes;
            loop {
                let n = Storage::chunks_for(new_len, chunk_bytes);
                if l2p.capacity_remaining(w, self.ps) >= n {
                    break;
                }
                match self.cfg.chunk_policy.next(chunk_bytes) {
                    Some(nb) => chunk_bytes = nb,
                    None => return self.chunk_switch(w, new_len, mem, l2p),
                }
            }
            let n = Storage::chunks_for(new_len, chunk_bytes);
            let mut chunks = Vec::with_capacity(n);
            for _ in 0..n {
                match mem.alloc(chunk_bytes, AllocTag::PageTable) {
                    Ok(c) => {
                        l2p.push_chunk(w, self.ps, c).expect("capacity checked");
                        chunks.push(c);
                    }
                    Err(e) => {
                        for c in chunks {
                            l2p.remove_chunk(w, self.ps, c);
                            mem.free(c);
                        }
                        return Err(e);
                    }
                }
            }
            let new_storage = Storage {
                slots: (0..new_len).map(|_| None).collect(),
                chunks,
                chunk_bytes,
            };
            let way = &mut self.ways[w];
            way.old_storage = Some(mem::replace(&mut way.storage, new_storage));
            way.logical_len = new_len;
            way.resize = Some(Resize {
                old_len,
                rehash_ptr: 0,
                kind,
                in_place: false,
                moved: 0,
                kept: 0,
            });
        }
        self.stats.max_chunk_bytes = self
            .stats
            .max_chunk_bytes
            .max(self.ways[w].storage.chunk_bytes);
        self.note_bytes();
        Ok(())
    }

    /// Synchronously rehomes way `w` into chunks of the next size
    /// (Figure 3d → 3e): allocate the new chunks, rehash every entry, free
    /// the old chunks. The paper observes at most one of these per run.
    fn chunk_switch(
        &mut self,
        w: usize,
        new_len: usize,
        mem: &mut PhysMem,
        l2p: &mut L2pTable,
    ) -> Result<(), AllocError> {
        let old_len = self.ways[w].logical_len;
        // Find a chunk size whose chunk count fits an emptied subtable.
        let cap = 2 * self.cfg.l2p_entries_per_subtable;
        let mut chunk_bytes = self
            .cfg
            .chunk_policy
            .next(self.ways[w].storage.chunk_bytes)
            .unwrap_or(self.ways[w].storage.chunk_bytes);
        while Storage::chunks_for(new_len, chunk_bytes) > cap {
            chunk_bytes = self
                .cfg
                .chunk_policy
                .next(chunk_bytes)
                .expect("way outgrew the largest chunk size and the L2P table");
        }
        let n = Storage::chunks_for(new_len, chunk_bytes);
        // Allocate the new chunks first (no L2P claims yet).
        let mut new_chunks = Vec::with_capacity(n);
        for _ in 0..n {
            match mem.alloc(chunk_bytes, AllocTag::PageTable) {
                Ok(c) => new_chunks.push(c),
                Err(e) => {
                    for c in new_chunks {
                        mem.free(c);
                    }
                    return Err(e);
                }
            }
        }
        // Drain the way.
        let old_slots = mem::take(&mut self.ways[w].storage.slots);
        let old_chunks = l2p.clear_subtable(w, self.ps);
        debug_assert_eq!(old_chunks, self.ways[w].storage.chunks);
        for c in self.ways[w].storage.chunks.drain(..) {
            mem.free(c);
        }
        for &c in &new_chunks {
            l2p.push_chunk(w, self.ps, c)
                .expect("cleared subtable fits the new chunk count");
        }
        let entries: Vec<ClusterEntry> = old_slots.into_iter().flatten().collect();
        let moved = entries.len() as u64;
        self.ways[w].occupied = 0;
        self.ways[w].storage = Storage {
            slots: (0..new_len).map(|_| None).collect(),
            chunks: new_chunks,
            chunk_bytes,
        };
        self.ways[w].logical_len = new_len;
        for entry in entries {
            let kicks = self.place_infallible(w, entry);
            self.stats.record_kicks(kicks);
        }
        self.stats.chunk_switches += 1;
        self.stats.entries_migrated += moved;
        self.stats.resizes.push(ResizeEvent {
            way: w,
            kind: ResizeKind::Upsize,
            from_entries: old_len,
            to_entries: new_len,
            moved,
            kept: 0,
        });
        self.stats.max_chunk_bytes = self.stats.max_chunk_bytes.max(chunk_bytes);
        self.note_bytes();
        Ok(())
    }

    /// Advances all in-flight migrations; returns entries migrated.
    fn migration_step(&mut self, mem: &mut PhysMem, l2p: &mut L2pTable) -> u32 {
        let mut migrated = 0;
        for w in 0..self.ways.len() {
            for _ in 0..self.cfg.migrate_per_insert {
                if !self.ways[w].is_resizing() {
                    break;
                }
                migrated += self.migrate_one(w, mem, l2p);
            }
        }
        migrated
    }

    fn finish_all_resizes(&mut self, mem: &mut PhysMem, l2p: &mut L2pTable) {
        for w in 0..self.ways.len() {
            while self.ways[w].is_resizing() {
                self.migrate_one(w, mem, l2p);
            }
        }
    }

    /// Migrates the entry under way `w`'s rehash pointer (Section IV-C's
    /// detailed rehash algorithm). Returns 1 if an entry was processed.
    fn migrate_one(&mut self, w: usize, mem: &mut PhysMem, l2p: &mut L2pTable) -> u32 {
        let (idx, in_place, done) = {
            let r = self.ways[w].resize.as_mut().unwrap();
            if r.rehash_ptr >= r.old_len {
                (0, r.in_place, true)
            } else {
                let i = r.rehash_ptr;
                r.rehash_ptr += 1;
                (i, r.in_place, false)
            }
        };
        if done {
            self.complete_resize(w, mem, l2p);
            return 0;
        }
        let taken = if in_place {
            self.ways[w].storage.slots[idx].take()
        } else {
            self.ways[w].old_storage.as_mut().unwrap().slots[idx].take()
        };
        let Some(cluster) = taken else {
            return 0;
        };
        self.ways[w].occupied -= 1;
        self.stats.entries_migrated += 1;
        // Rehash with the same function, one more (or one fewer) bit of the
        // hash key: the entry stays in place or moves to the same offset in
        // the other half (Figure 5).
        let h = self.family.hash(w, &cluster.tag());
        let new_idx = h as usize & (self.ways[w].logical_len - 1);
        let stays = in_place && new_idx == idx;
        {
            let r = self.ways[w].resize.as_mut().unwrap();
            if stays {
                r.kept += 1;
            } else {
                r.moved += 1;
            }
        }
        let dst = &mut self.ways[w].storage.slots[new_idx];
        match dst {
            None => {
                *dst = Some(cluster);
                self.ways[w].occupied += 1;
                self.stats.record_kicks(0);
            }
            Some(_) => {
                // Conflict: the occupant is cuckooed into a different way
                // (Section IV-C).
                let victim = mem::replace(dst, Some(cluster)).unwrap();
                self.ways[w].occupied += 1;
                self.ways[w].occupied -= 1; // victim leaves this way
                let other = self.other_way(w);
                let kicks = self.place_infallible(other, victim);
                self.stats.record_kicks(kicks + 1);
            }
        }
        let _ = (mem, l2p);
        1
    }

    /// Finalizes a completed migration.
    fn complete_resize(&mut self, w: usize, mem: &mut PhysMem, l2p: &mut L2pTable) {
        let r = self.ways[w].resize.take().expect("resize must be active");
        if r.in_place {
            match r.kind {
                ResizeKind::Upsize => {}
                ResizeKind::Downsize => {
                    let way = &mut self.ways[w];
                    let new_len = way.logical_len;
                    debug_assert!(
                        way.storage.slots[new_len..].iter().all(Option::is_none),
                        "upper half must be empty after downsize migration"
                    );
                    way.storage.slots.truncate(new_len);
                    way.storage.slots.shrink_to_fit();
                    let keep = Storage::chunks_for(new_len, way.storage.chunk_bytes);
                    while way.storage.chunks.len() > keep {
                        let c = way.storage.chunks.pop().unwrap();
                        let popped = l2p.pop_chunk(w, self.ps);
                        debug_assert_eq!(popped, Some(c));
                        mem.free(c);
                    }
                }
            }
        } else {
            let old = self.ways[w].old_storage.take().expect("OOP resize has old");
            debug_assert!(old.slots.iter().all(Option::is_none));
            for c in old.chunks {
                let removed = l2p.remove_chunk(w, self.ps, c);
                debug_assert!(removed);
                mem.free(c);
            }
        }
        self.stats.resizes.push(ResizeEvent {
            way: w,
            kind: r.kind,
            from_entries: r.old_len,
            to_entries: self.ways[w].logical_len,
            moved: r.moved,
            kept: r.kept,
        });
        self.note_bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_mem::AllocCostModel;
    use mehpt_types::{GIB, KIB, MIB};

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
        let run = |in_place: bool| {
            let (mut mem, mut l2p) = setup();
            // All-way sizing isolates the in-place effect: with per-way
            // resizing only one way resizes at a time, muting the contrast.
            let cfg = MeHptConfig {
                in_place,
                per_way: false,
                ..MeHptConfig::default()
            };
            let mut t = MeHptTable::new(PageSize::Base4K, cfg, &mut mem, &mut l2p).unwrap();
            for i in 0..100_000u64 {
                t.insert(Vpn(i * 8), Ppn(i), &mut mem, &mut l2p).unwrap();
            }
            t.stats().peak_bytes
        };
        let inplace = run(true);
        let oop = run(false);
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
    fn probe_lands_inside_owned_chunks() {
        let (mut mem, mut l2p) = setup();
        let mut t = table(&mut mem, &mut l2p);
        let mut out = Vec::new();
        for i in 0..50_000u64 {
            t.insert(Vpn(i * 8), Ppn(i), &mut mem, &mut l2p).unwrap();
            if i % 977 == 0 {
                out.clear();
                assert_eq!(t.probe(Vpn(i * 8), &mut out), Some(Ppn(i)));
                assert_eq!(out.len(), 3, "one probe per way");
                for addr in &out {
                    // Each probe address must fall in some live page-table
                    // chunk (we only check it is within the memory the
                    // allocator handed out).
                    assert!(addr.0 < mem.total_bytes());
                }
            }
        }
    }

    /// Hashes a `u64` key byte by byte, as `Hasher::write` does, so the
    /// reference below bypasses the slicing-by-8 `write_u64`.
    struct Bytewise(u64);

    impl std::hash::Hash for Bytewise {
        fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
            h.write(&self.0.to_ne_bytes());
        }
    }

    /// The per-way probe computation `probe` replaced: one byte-wise CRC
    /// per way, then the slot address.
    fn reference_probe(t: &MeHptTable, vpn: Vpn) -> Vec<PhysAddr> {
        let tag = ClusterEntry::tag_of(vpn);
        (0..t.ways.len())
            .map(|w| {
                let (in_old, idx) = t.ways[w].locate(t.family.hash(w, &Bytewise(tag)));
                t.ways[w].addr(in_old, idx)
            })
            .collect()
    }

    #[test]
    fn probe_matches_per_way_reference_through_resizes() {
        for in_place in [true, false] {
            let (mut mem, mut l2p) = setup();
            let cfg = MeHptConfig {
                in_place,
                ..MeHptConfig::default()
            };
            let mut t = MeHptTable::new(PageSize::Base4K, cfg, &mut mem, &mut l2p).unwrap();
            let mut out = Vec::new();
            let mut mid_resize_checks = 0;
            for i in 0..40_000u64 {
                t.insert(Vpn(i * 8 + i % 3), Ppn(i), &mut mem, &mut l2p)
                    .unwrap();
                if i % 97 != 0 {
                    continue;
                }
                mid_resize_checks += u32::from(t.is_resizing());
                for probe in (0..i * 2).step_by(1 + i as usize / 16) {
                    let vpn = Vpn(probe * 4 + probe % 3);
                    out.clear();
                    assert_eq!(t.probe(vpn, &mut out), t.lookup(vpn), "{vpn:?} at {i}");
                    assert_eq!(out, reference_probe(&t, vpn), "{vpn:?} at {i}");
                }
            }
            assert!(mid_resize_checks > 0, "never checked mid-resize");
            // The out-of-place ablation covers `old_storage` probes instead.
            if in_place {
                assert!(t.stats().chunk_switches > 0, "never switched chunk size");
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
