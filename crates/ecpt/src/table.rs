use std::fmt;
use std::mem;

use mehpt_hash::{HashFamily, ResizeEvent, ResizeKind};
use mehpt_mem::{AllocError, AllocTag, Chunk, PhysMem};
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, PhysAddr, Ppn, Vpn};

use crate::entry::{pte_clear, pte_get, pte_set, ClusterEntry, CLUSTER_PTES};

/// The elastic-cuckoo knobs of one per-page-size table, shared by ECPT and
/// ME-HPT.
///
/// Defaults are Table III's parameters: 3 ways of 128 entries (8KB per
/// way), upsize above 0.6 occupancy, downsize below 0.2.
#[derive(Clone, Debug, PartialEq)]
pub struct EcptConfig {
    /// Number of cuckoo ways.
    pub ways: usize,
    /// Initial (and minimum) entries per way; a power of two.
    pub initial_entries_per_way: usize,
    /// Occupancy fraction that triggers an upsize.
    pub upsize_threshold: f64,
    /// Occupancy fraction that triggers a downsize.
    pub downsize_threshold: f64,
    /// Entries migrated from each resizing way per insert.
    pub migrate_per_insert: usize,
    /// Cuckoo kicks before an insert forces a resize.
    pub max_kicks: usize,
    /// Seed for hash functions and way choice.
    pub seed: u64,
}

impl Default for EcptConfig {
    fn default() -> EcptConfig {
        EcptConfig {
            ways: 3,
            initial_entries_per_way: 128,
            upsize_threshold: 0.6,
            downsize_threshold: 0.2,
            migrate_per_insert: 2,
            max_kicks: 128,
            seed: 0xec9_7ab1e,
        }
    }
}

/// What one insert did, for OS cost accounting in the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Cuckoo re-insertions needed to place the entry.
    pub kicks: u32,
    /// Entries migrated on behalf of an in-flight resize.
    pub migrated: u32,
    /// Whether this insert triggered a resize.
    pub started_resize: bool,
    /// Whether the insert added a translation; `false` when it rewrote the
    /// PPN of one already mapped.
    pub added: bool,
}

/// What sets one hashed-page-table design apart on the shared engine
/// ([`HptTable`]): where its ways' chunks come from, and the few policies
/// that differ between the designs.
///
/// * ECPT is `()`: every way is one contiguous chunk the size of the whole
///   way, resized out of place, all ways at once.
/// * ME-HPT's backing is its per-process L2P table (`mehpt_core`): a way is
///   a run of L2P-registered chunks on a chunk-size ladder, and switches to
///   the next chunk size when its L2P subtable is full.
///
/// One backing value serves all page-size tables of a process, which is
/// how ME-HPT's L2P subtables steal entries from each other.
pub trait Backing {
    /// The design's configuration: the [`EcptConfig`] knobs plus whatever
    /// the design adds.
    type Config: Clone + fmt::Debug + Default;

    /// The backing of a new process.
    fn new(cfg: &Self::Config) -> Self;

    /// The cuckoo knobs.
    fn base(cfg: &Self::Config) -> &EcptConfig;

    /// In-place resizing (Section IV-C); off resizes out of place.
    fn in_place(_cfg: &Self::Config) -> bool {
        false
    }

    /// Per-way resizing with weighted insertion (Section IV-D); off resizes
    /// all ways together.
    fn per_way(_cfg: &Self::Config) -> bool {
        false
    }

    /// The `(hash family, RNG)` seeds of the `ps` table, from `seed`, the
    /// configured seed already offset by the page size.
    fn seeds(seed: u64, ps: PageSize) -> (u64, u64);

    /// The chunk size of a new way of `len` entries.
    fn first_chunk(cfg: &Self::Config, len: usize) -> u64;

    /// The chunk size of the new storage of an out-of-place resize of way
    /// `way` to `len` entries, whose chunks are now `current` bytes, or
    /// `None` to switch chunk size instead.
    fn resize_chunk(
        &self,
        cfg: &Self::Config,
        way: usize,
        ps: PageSize,
        current: u64,
        len: usize,
    ) -> Option<u64>;

    /// The chunk size a chunk-size switch to `len` entries moves to from
    /// `current`-byte chunks.
    fn switch_chunk(cfg: &Self::Config, current: u64, len: usize) -> u64;

    /// How many more chunks way `way` of the `ps` table may hold.
    fn room(&self, way: usize, ps: PageSize) -> usize;

    /// Records a chunk newly added to way `way` of the `ps` table; the
    /// caller has checked [`Backing::room`].
    fn register(&mut self, way: usize, ps: PageSize, chunk: Chunk);

    /// Forgets a chunk the way is about to free.
    fn unregister(&mut self, way: usize, ps: PageSize, chunk: Chunk);

    /// L2P entries in use (Figure 14's metric); 0 without an L2P table.
    fn l2p_entries(&self) -> usize {
        0
    }
}

impl Backing for () {
    type Config = EcptConfig;

    fn new(_cfg: &EcptConfig) {}

    fn base(cfg: &EcptConfig) -> &EcptConfig {
        cfg
    }

    fn seeds(seed: u64, _ps: PageSize) -> (u64, u64) {
        (seed, seed ^ 0xdead_10cc)
    }

    fn first_chunk(_cfg: &EcptConfig, len: usize) -> u64 {
        len as u64 * ClusterEntry::BYTES
    }

    fn resize_chunk(
        &self,
        _: &EcptConfig,
        _: usize,
        _: PageSize,
        _: u64,
        len: usize,
    ) -> Option<u64> {
        Some(len as u64 * ClusterEntry::BYTES)
    }

    fn switch_chunk(_cfg: &EcptConfig, _current: u64, _len: usize) -> u64 {
        unreachable!("contiguous ways never run out of room")
    }

    fn room(&self, _way: usize, _ps: PageSize) -> usize {
        usize::MAX
    }

    fn register(&mut self, _way: usize, _ps: PageSize, _chunk: Chunk) {}

    fn unregister(&mut self, _way: usize, _ps: PageSize, _chunk: Chunk) {}
}

/// Chunks of `chunk_bytes` needed to hold `len` cluster entries (at least
/// one).
pub fn chunks_for(len: usize, chunk_bytes: u64) -> usize {
    len.div_ceil((chunk_bytes / ClusterEntry::BYTES) as usize)
        .max(1)
}

/// Allocates `n` page-table chunks of `bytes`, all or none.
fn alloc_chunks(mem: &mut PhysMem, n: usize, bytes: u64) -> Result<Vec<Chunk>, AllocError> {
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        match mem.alloc(bytes, AllocTag::PageTable) {
            Ok(c) => chunks.push(c),
            Err(e) => {
                for c in chunks {
                    mem.free(c);
                }
                return Err(e);
            }
        }
    }
    Ok(chunks)
}

/// One way's physical storage: a flat logical array of cluster entries
/// over equal, power-of-two chunks (one chunk for an ECPT way).
///
/// On the host the entries are two parallel arrays, so a probe reads 8-byte
/// tags and touches a PTE row only when its tag matches. The model still
/// sees one 64-byte line per slot ([`ClusterEntry::BYTES`]).
#[derive(Debug)]
struct Storage {
    /// Per slot: 0 when empty, otherwise the cluster's tag + 1.
    tags: Vec<u64>,
    /// Per slot: the cluster's PTEs; meaningful only under a nonzero tag.
    ptes: Vec<[u64; CLUSTER_PTES]>,
    chunks: Vec<Chunk>,
    /// log2 of the entries per chunk.
    shift: u32,
}

// The small helpers of `Storage`, `Way` and `HptStats` are `#[inline]`:
// the engine's methods are generic, so they are compiled in the crates that
// use them, where non-generic helpers would otherwise stay out-of-line
// calls on the probe and insert paths.
impl Storage {
    /// Allocates storage for `len` entries in `chunk_bytes` chunks, without
    /// registering them.
    fn alloc(mem: &mut PhysMem, len: usize, chunk_bytes: u64) -> Result<Storage, AllocError> {
        debug_assert!(chunk_bytes.is_power_of_two());
        Ok(Storage {
            tags: vec![0; len],
            ptes: vec![[0; CLUSTER_PTES]; len],
            chunks: alloc_chunks(mem, chunks_for(len, chunk_bytes), chunk_bytes)?,
            shift: (chunk_bytes / ClusterEntry::BYTES).trailing_zeros(),
        })
    }

    fn chunk_bytes(&self) -> u64 {
        ClusterEntry::BYTES << self.shift
    }

    /// The PTE row of slot `idx` if it holds the cluster stored under
    /// `key` (a tag + 1).
    #[inline]
    fn row(&self, idx: usize, key: u64) -> Option<&[u64; CLUSTER_PTES]> {
        (self.tags[idx] == key).then(|| &self.ptes[idx])
    }

    #[inline]
    fn row_mut(&mut self, idx: usize, key: u64) -> Option<&mut [u64; CLUSTER_PTES]> {
        (self.tags[idx] == key).then(|| &mut self.ptes[idx])
    }

    /// Takes the cluster out of slot `idx`, leaving it empty.
    #[inline]
    fn take(&mut self, idx: usize) -> Option<ClusterEntry> {
        match mem::take(&mut self.tags[idx]) {
            0 => None,
            key => Some(ClusterEntry::from_parts(key - 1, self.ptes[idx])),
        }
    }

    /// Stores `entry` in slot `idx`; returns the cluster it displaced.
    #[inline]
    fn replace(&mut self, idx: usize, entry: ClusterEntry) -> Option<ClusterEntry> {
        let prev = self.take(idx);
        self.tags[idx] = entry.tag() + 1;
        self.ptes[idx] = *entry.ptes();
        prev
    }

    /// Grows or shrinks the slot arrays to `len` slots; new slots are empty.
    fn set_len(&mut self, len: usize) {
        self.tags.resize(len, 0);
        self.ptes.resize(len, [0; CLUSTER_PTES]);
    }

    fn is_empty(&self) -> bool {
        self.tags.iter().all(|&t| t == 0)
    }

    /// The physical address of logical entry `idx` — the L2P translation:
    /// chunk `idx >> shift`, offset `idx & mask`.
    #[inline]
    fn addr(&self, idx: usize) -> PhysAddr {
        let offset = idx & ((1 << self.shift) - 1);
        self.chunks[idx >> self.shift].addr(offset as u64 * ClusterEntry::BYTES)
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.chunks.iter().map(Chunk::bytes).sum()
    }

    fn register<B: Backing>(&self, b: &mut B, w: usize, ps: PageSize) {
        for &c in &self.chunks {
            b.register(w, ps, c);
        }
    }

    /// Unregisters and frees every chunk.
    fn release<B: Backing>(self, mem: &mut PhysMem, b: &mut B, w: usize, ps: PageSize) {
        for c in self.chunks {
            b.unregister(w, ps, c);
            mem.free(c);
        }
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
    /// The old table during an out-of-place resize.
    old_storage: Option<Storage>,
    logical_len: usize,
    resize: Option<Resize>,
    /// Cluster entries held, in either table.
    occupied: usize,
}

impl Way {
    /// Resolves a hash value to `(in_old_storage, index)`.
    #[inline]
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

    /// The current storage, or the old one during an out-of-place resize.
    #[inline]
    fn storage(&self, in_old: bool) -> &Storage {
        if in_old {
            self.old_storage
                .as_ref()
                .expect("an old-table slot implies an out-of-place resize")
        } else {
            &self.storage
        }
    }

    #[inline]
    fn storage_mut(&mut self, in_old: bool) -> &mut Storage {
        if in_old {
            self.old_storage
                .as_mut()
                .expect("an old-table slot implies an out-of-place resize")
        } else {
            &mut self.storage
        }
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.storage.bytes() + self.old_storage.as_ref().map_or(0, Storage::bytes)
    }

    #[inline]
    fn is_resizing(&self) -> bool {
        self.resize.is_some()
    }
}

/// Statistics of one [`HptTable`].
#[derive(Clone, Debug, Default)]
pub struct HptStats {
    /// Completed resize events (Figures 11 and 13 derive from these).
    pub resizes: Vec<ResizeEvent>,
    /// Histogram of cuckoo re-insertions per insert or rehash (Figure 16).
    pub kicks_histogram: Vec<u64>,
    /// Entries migrated by gradual resizing.
    pub entries_migrated: u64,
    /// Chunk-size switches performed (the only out-of-place resizes in the
    /// full ME-HPT design; the paper observes at most one per run).
    pub chunk_switches: u64,
    /// High-water mark of table memory in bytes.
    pub peak_bytes: u64,
    /// The largest chunk ever allocated — the contiguity requirement
    /// (Figure 8).
    pub max_chunk_bytes: u64,
}

impl HptStats {
    #[inline]
    fn record_kicks(&mut self, kicks: usize) {
        if self.kicks_histogram.len() <= kicks {
            self.kicks_histogram.resize(kicks + 1, 0);
        }
        self.kicks_histogram[kicks] += 1;
    }
}

/// The elastic cuckoo page table for one page size: the engine of both
/// ECPT ([`EcptTable`]) and ME-HPT (`mehpt_core::MeHptTable`).
///
/// A W-way cuckoo table of [`ClusterEntry`]s that resizes gradually: per-way
/// rehash pointers split each resizing way into migrated and live regions,
/// and every insert migrates a few entries (Section II-B). The backing `B`
/// decides where the ways' chunks come from; the configuration picks
///
/// * **out-of-place** resizing, where old and new storage coexist until
///   the migration completes, or **in-place** resizing, where upsizing
///   appends chunks and consumes one extra hash-key bit so ≈half the
///   migrated entries never move (Section IV-C);
/// * **all-way** sizing, or **per-way** sizing, which grows one way at a
///   time with weighted-random insertion and a 2× balance gate
///   (Section IV-D).
///
/// An upsize fails if physical memory cannot supply the new chunks —
/// exactly how ECPT, whose chunks are whole ways, dies on a highly
/// fragmented machine in the paper's experiments.
pub struct HptTable<B: Backing> {
    ways: Vec<Way>,
    family: HashFamily,
    cfg: B::Config,
    rng: Xoshiro256,
    ps: PageSize,
    clusters: usize,
    pages: u64,
    stats: HptStats,
}

/// The ECPT baseline's table for one page size: each way is **one
/// contiguous chunk** of physical memory — the design whose contiguity
/// requirement (up to 64MB per way, Table I) motivates the paper — resized
/// out of place and all ways at once.
pub type EcptTable = HptTable<()>;

impl<B: Backing> fmt::Debug for HptTable<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HptTable")
            .field("page_size", &self.ps)
            .field("pages", &self.pages)
            .field("clusters", &self.clusters)
            .field("way_sizes", &self.way_sizes())
            .finish_non_exhaustive()
    }
}

impl<B: Backing> HptTable<B> {
    /// Creates the table for `ps` pages, allocating the initial ways and
    /// registering their chunks with `backing`. Its hash functions and way
    /// choices derive from the configured seed and `ps`.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure of the initial ways.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (fewer than two
    /// ways or a non-power-of-two initial size).
    pub fn new(
        ps: PageSize,
        cfg: B::Config,
        mem: &mut PhysMem,
        backing: &mut B,
    ) -> Result<HptTable<B>, AllocError> {
        let base = B::base(&cfg);
        assert!(base.ways >= 2, "cuckoo hashing needs at least 2 ways");
        let len = base.initial_entries_per_way;
        assert!(len.is_power_of_two(), "way sizes must be powers of two");
        let chunk_bytes = B::first_chunk(&cfg, len);
        let mut ways: Vec<Way> = Vec::with_capacity(base.ways);
        for w in 0..base.ways {
            match Storage::alloc(mem, len, chunk_bytes) {
                Ok(storage) => {
                    storage.register(backing, w, ps);
                    ways.push(Way {
                        storage,
                        old_storage: None,
                        logical_len: len,
                        resize: None,
                        occupied: 0,
                    });
                }
                Err(e) => {
                    for (w, way) in ways.into_iter().enumerate() {
                        way.storage.release(mem, backing, w, ps);
                    }
                    return Err(e);
                }
            }
        }
        let seed = base.seed.wrapping_add(ps.index() as u64 * 0x9e37_79b9);
        let (hash_seed, rng_seed) = B::seeds(seed, ps);
        let mut table = HptTable {
            family: HashFamily::new(base.ways, hash_seed),
            rng: Xoshiro256::seed_from_u64(rng_seed),
            ways,
            cfg,
            ps,
            clusters: 0,
            pages: 0,
            stats: HptStats::default(),
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

    /// The occupied cluster entries of each way; they sum to
    /// [`HptTable::clusters`].
    pub fn way_clusters(&self) -> Vec<usize> {
        self.ways.iter().map(|w| w.occupied).collect()
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

    /// The physical bytes backing each way's current storage (whole
    /// chunks, even when the way only fills part of one — Figure 15's
    /// metric).
    pub fn way_phys_bytes(&self) -> Vec<u64> {
        self.ways.iter().map(|w| w.storage.bytes()).collect()
    }

    /// The chunk size each way currently uses.
    pub fn way_chunk_bytes(&self) -> Vec<u64> {
        self.ways.iter().map(|w| w.storage.chunk_bytes()).collect()
    }

    /// Physical memory currently held (both tables during an out-of-place
    /// resize).
    pub fn memory_bytes(&self) -> u64 {
        self.ways.iter().map(Way::bytes).sum()
    }

    /// Whether any way is mid-resize.
    pub fn is_resizing(&self) -> bool {
        self.ways.iter().any(Way::is_resizing)
    }

    /// Collected statistics.
    pub fn stats(&self) -> &HptStats {
        &self.stats
    }

    /// The per-way hash functions.
    pub fn hash_family(&self) -> &HashFamily {
        &self.family
    }

    /// The physical address of the slot that way `way`'s hash value `h`
    /// selects, honoring the way's rehash pointer.
    pub fn slot_addr(&self, way: usize, h: u64) -> PhysAddr {
        let (in_old, idx) = self.ways[way].locate(h);
        self.ways[way].storage(in_old).addr(idx)
    }

    /// Functional lookup (no timing).
    pub fn lookup(&self, vpn: Vpn) -> Option<Ppn> {
        let tag = ClusterEntry::tag_of(vpn);
        for (w, way) in self.ways.iter().enumerate() {
            let (in_old, idx) = way.locate(self.family.hash(w, &tag));
            if let Some(row) = way.storage(in_old).row(idx, tag + 1) {
                return pte_get(row, vpn);
            }
        }
        None
    }

    /// One walker probe of `vpn`: hashes each way once, pushes the way
    /// slot's physical address onto `out` (W addresses, honoring the rehash
    /// pointers — Section II-B: "a lookup operation during resizing only
    /// needs W probes") and returns the translation if a slot's tag
    /// matches — what [`HptTable::lookup`] returns. In ME-HPT the L2P
    /// lookup that produces the addresses costs ~4 cycles in hardware and
    /// hides behind the CWC access (Section V-D).
    pub fn probe(&self, vpn: Vpn, out: &mut Vec<PhysAddr>) -> Option<Ppn> {
        let tag = ClusterEntry::tag_of(vpn);
        let mut hit = None;
        for (w, way) in self.ways.iter().enumerate() {
            let (in_old, idx) = way.locate(self.family.hash(w, &tag));
            let storage = way.storage(in_old);
            out.push(storage.addr(idx));
            if hit.is_none() {
                hit = storage.row(idx, tag + 1).map(|row| pte_get(row, vpn));
            }
        }
        hit.flatten()
    }

    /// Inserts (or updates) the translation `vpn → ppn`;
    /// [`InsertReport::added`] tells the two apart.
    ///
    /// # Errors
    ///
    /// Fails only when a resize needs chunks that physical memory cannot
    /// provide — ECPT's failure mode on fragmented machines; with ME-HPT's
    /// small chunks this effectively never happens, which is the point of
    /// the design. The insert itself is rolled back.
    pub fn insert(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        mem: &mut PhysMem,
        backing: &mut B,
    ) -> Result<InsertReport, AllocError> {
        let mut report = InsertReport::default();
        let tag = ClusterEntry::tag_of(vpn);
        for w in 0..self.ways.len() {
            let h = self.family.hash(w, &tag);
            let (in_old, idx) = self.ways[w].locate(h);
            if let Some(row) = self.ways[w].storage_mut(in_old).row_mut(idx, tag + 1) {
                report.added = pte_set(row, vpn, ppn).is_none();
                self.pages += u64::from(report.added);
                return Ok(report);
            }
        }
        // A new cluster is needed: resize bookkeeping first.
        report.started_resize = self.maybe_resize(mem, backing)?;
        report.migrated = self.migration_step(mem, backing);
        let way = self.choose_insert_way();
        let mut cluster = ClusterEntry::new(tag);
        cluster.set(vpn, ppn);
        report.kicks = self.place(way, cluster, mem, backing)? as u32;
        report.added = true;
        self.clusters += 1;
        self.pages += 1;
        self.stats.record_kicks(report.kicks as usize);
        self.note_bytes();
        Ok(report)
    }

    /// Removes the translation for `vpn`, returning it. Empty clusters are
    /// deleted; a downsize may be triggered, and is deferred if its
    /// allocation fails.
    pub fn remove(&mut self, vpn: Vpn, mem: &mut PhysMem, backing: &mut B) -> Option<Ppn> {
        let tag = ClusterEntry::tag_of(vpn);
        for w in 0..self.ways.len() {
            let h = self.family.hash(w, &tag);
            let (in_old, idx) = self.ways[w].locate(h);
            let storage = self.ways[w].storage_mut(in_old);
            if let Some(row) = storage.row_mut(idx, tag + 1) {
                let ppn = pte_clear(row, vpn)?;
                self.pages -= 1;
                if row.iter().all(|&p| p == 0) {
                    storage.tags[idx] = 0;
                    self.ways[w].occupied -= 1;
                    self.clusters -= 1;
                }
                let _ = self.maybe_resize(mem, backing);
                self.migration_step(mem, backing);
                return Some(ppn);
            }
        }
        None
    }

    /// Releases all physical memory (and the backing's records of it).
    pub fn destroy(mut self, mem: &mut PhysMem, backing: &mut B) {
        for (w, way) in self.ways.drain(..).enumerate() {
            way.storage.release(mem, backing, w, self.ps);
            if let Some(old) = way.old_storage {
                old.release(mem, backing, w, self.ps);
            }
        }
    }

    // ---- internals ----

    fn base(&self) -> &EcptConfig {
        B::base(&self.cfg)
    }

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
        if !B::per_way(&self.cfg) {
            return self.rng.next_index(self.ways.len());
        }
        let min_len = self
            .ways
            .iter()
            .map(|w| w.logical_len)
            .min()
            .expect("a table has ways");
        let up = self.base().upsize_threshold;
        let weights: Vec<u64> = self
            .ways
            .iter()
            .map(|w| {
                let free = w.logical_len.saturating_sub(w.occupied) as u64;
                let at_threshold = w.occupied as f64 >= up * w.logical_len as f64;
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

    /// Places a cluster starting at `way`, cuckoo-kicking occupants. At
    /// every `max_kicks` kicks it drains the in-flight resizes and forces
    /// an upsize so the pending entry can land: of the fullest smallest way
    /// under per-way resizing, of every way otherwise.
    fn place(
        &mut self,
        way: usize,
        cluster: ClusterEntry,
        mem: &mut PhysMem,
        backing: &mut B,
    ) -> Result<usize, AllocError> {
        let mut way = way;
        let mut entry = cluster;
        let mut kicks = 0usize;
        loop {
            let h = self.family.hash(way, &entry.tag());
            let (in_old, idx) = self.ways[way].locate(h);
            let Some(evicted) = self.ways[way].storage_mut(in_old).replace(idx, entry) else {
                self.ways[way].occupied += 1;
                return Ok(kicks);
            };
            entry = evicted;
            kicks += 1;
            if kicks.is_multiple_of(self.base().max_kicks) {
                self.finish_all_resizes(mem, backing);
                if B::per_way(&self.cfg) {
                    let w = self.fullest_smallest_way();
                    self.start_resize(w, ResizeKind::Upsize, mem, backing)?;
                } else {
                    self.resize_all(ResizeKind::Upsize, mem, backing)?;
                }
            }
            way = self.other_way(way);
        }
    }

    /// Like `place`, but for entries displaced while migrating or
    /// rehoming: it never allocates.
    fn place_infallible(&mut self, way: usize, cluster: ClusterEntry) -> usize {
        let mut way = way;
        let mut entry = cluster;
        let mut kicks = 0usize;
        loop {
            let h = self.family.hash(way, &entry.tag());
            let (in_old, idx) = self.ways[way].locate(h);
            let Some(evicted) = self.ways[way].storage_mut(in_old).replace(idx, entry) else {
                self.ways[way].occupied += 1;
                return kicks;
            };
            entry = evicted;
            kicks += 1;
            way = self.other_way(way);
            assert!(kicks < 10_000, "victim placement diverged");
        }
    }

    fn fullest_smallest_way(&self) -> usize {
        let min_len = self
            .ways
            .iter()
            .map(|w| w.logical_len)
            .min()
            .expect("a table has ways");
        (0..self.ways.len())
            .filter(|&w| self.ways[w].logical_len == min_len)
            .max_by_key(|&w| self.ways[w].occupied)
            .expect("some way has the smallest size")
    }

    /// Threshold checks; returns whether a resize started. Downsize
    /// failures are deferred, not fatal.
    fn maybe_resize(&mut self, mem: &mut PhysMem, backing: &mut B) -> Result<bool, AllocError> {
        if self.is_resizing() {
            return Ok(false);
        }
        let base = self.base();
        let (up, down, min_len) = (
            base.upsize_threshold,
            base.downsize_threshold,
            base.initial_entries_per_way,
        );
        if B::per_way(&self.cfg) {
            let smallest = self
                .ways
                .iter()
                .map(|w| w.logical_len)
                .min()
                .expect("a table has ways");
            let largest = self
                .ways
                .iter()
                .map(|w| w.logical_len)
                .max()
                .expect("a table has ways");
            for w in 0..self.ways.len() {
                let way = &self.ways[w];
                let len = way.logical_len;
                if way.occupied as f64 >= up * len as f64 && len <= smallest {
                    self.start_resize(w, ResizeKind::Upsize, mem, backing)?;
                    return Ok(true);
                }
                if (way.occupied as f64) < down * len as f64 && len >= largest && len > min_len {
                    let started = self.start_resize(w, ResizeKind::Downsize, mem, backing);
                    return Ok(started.is_ok());
                }
            }
            Ok(false)
        } else {
            let cap = self.capacity() as f64;
            if (self.clusters + 1) as f64 > up * cap {
                self.resize_all(ResizeKind::Upsize, mem, backing)?;
                return Ok(true);
            }
            if (self.clusters as f64) < down * cap && self.ways[0].logical_len > min_len {
                let started = self.resize_all(ResizeKind::Downsize, mem, backing);
                return Ok(started.is_ok());
            }
            Ok(false)
        }
    }

    /// Starts a resize of every way. If one fails, the ways already started
    /// keep resizing.
    fn resize_all(
        &mut self,
        kind: ResizeKind,
        mem: &mut PhysMem,
        backing: &mut B,
    ) -> Result<(), AllocError> {
        for w in 0..self.ways.len() {
            self.start_resize(w, kind, mem, backing)?;
        }
        Ok(())
    }

    /// Starts a resize of way `w`: in place, out of place, or — when the
    /// backing has no room for the chunks — a chunk-size switch.
    fn start_resize(
        &mut self,
        w: usize,
        kind: ResizeKind,
        mem: &mut PhysMem,
        backing: &mut B,
    ) -> Result<(), AllocError> {
        debug_assert!(!self.ways[w].is_resizing());
        let ps = self.ps;
        let old_len = self.ways[w].logical_len;
        let new_len = match kind {
            ResizeKind::Upsize => old_len * 2,
            ResizeKind::Downsize => old_len / 2,
        };
        let in_place = B::in_place(&self.cfg);
        let chunk_bytes = self.ways[w].storage.chunk_bytes();
        if in_place {
            // A downsize allocates nothing: the array shrinks once the
            // migration completes.
            if kind == ResizeKind::Upsize {
                let needed = chunks_for(new_len, chunk_bytes);
                let extra = needed.saturating_sub(self.ways[w].storage.chunks.len());
                if extra > backing.room(w, ps) {
                    // Section IV-B: "by construction, out-of-place".
                    return self.chunk_switch(w, new_len, mem, backing);
                }
                let added = alloc_chunks(mem, extra, chunk_bytes)?;
                let storage = &mut self.ways[w].storage;
                for c in added {
                    backing.register(w, ps, c);
                    storage.chunks.push(c);
                }
                storage.set_len(new_len);
            }
        } else {
            // Old and new chunks are held at once, so an L2P subtable may
            // run out much earlier — the pressure Section VII-D describes.
            let Some(new_bytes) = backing.resize_chunk(&self.cfg, w, ps, chunk_bytes, new_len)
            else {
                return self.chunk_switch(w, new_len, mem, backing);
            };
            let storage = Storage::alloc(mem, new_len, new_bytes)?;
            storage.register(backing, w, ps);
            let way = &mut self.ways[w];
            way.old_storage = Some(mem::replace(&mut way.storage, storage));
        }
        let way = &mut self.ways[w];
        way.logical_len = new_len;
        way.resize = Some(Resize {
            old_len,
            rehash_ptr: 0,
            kind,
            in_place,
            moved: 0,
            kept: 0,
        });
        let chunk_bytes = way.storage.chunk_bytes();
        self.stats.max_chunk_bytes = self.stats.max_chunk_bytes.max(chunk_bytes);
        self.note_bytes();
        Ok(())
    }

    /// Synchronously rehomes way `w` into chunks of a larger size
    /// (Figure 3d → 3e): allocate the new chunks, free the old ones, rehash
    /// every entry. The paper observes at most one of these per run.
    fn chunk_switch(
        &mut self,
        w: usize,
        new_len: usize,
        mem: &mut PhysMem,
        backing: &mut B,
    ) -> Result<(), AllocError> {
        let old_len = self.ways[w].logical_len;
        let chunk_bytes = B::switch_chunk(&self.cfg, self.ways[w].storage.chunk_bytes(), new_len);
        // Allocate before freeing; register once the old chunks are gone.
        let new = Storage::alloc(mem, new_len, chunk_bytes)?;
        let way = &mut self.ways[w];
        let mut old = mem::replace(&mut way.storage, new);
        way.logical_len = new_len;
        way.occupied = 0;
        let entries: Vec<ClusterEntry> = (0..old.tags.len()).filter_map(|i| old.take(i)).collect();
        old.release(mem, backing, w, self.ps);
        self.ways[w].storage.register(backing, w, self.ps);
        let moved = entries.len() as u64;
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

    /// Advances all in-flight migrations by the per-insert quota; returns
    /// entries migrated.
    fn migration_step(&mut self, mem: &mut PhysMem, backing: &mut B) -> u32 {
        let mut migrated = 0;
        for w in 0..self.ways.len() {
            for _ in 0..self.base().migrate_per_insert {
                if !self.ways[w].is_resizing() {
                    break;
                }
                migrated += self.migrate_one(w, mem, backing);
            }
        }
        migrated
    }

    fn finish_all_resizes(&mut self, mem: &mut PhysMem, backing: &mut B) {
        for w in 0..self.ways.len() {
            while self.ways[w].is_resizing() {
                self.migrate_one(w, mem, backing);
            }
        }
    }

    /// Migrates the entry under way `w`'s rehash pointer (Section IV-C's
    /// detailed rehash algorithm). Returns 1 if an entry was processed.
    fn migrate_one(&mut self, w: usize, mem: &mut PhysMem, backing: &mut B) -> u32 {
        let way = &mut self.ways[w];
        let r = way.resize.as_mut().expect("resize must be active");
        if r.rehash_ptr >= r.old_len {
            self.complete_resize(w, mem, backing);
            return 0;
        }
        let idx = r.rehash_ptr;
        r.rehash_ptr += 1;
        let in_place = r.in_place;
        let Some(cluster) = way.storage_mut(!in_place).take(idx) else {
            return 0;
        };
        self.stats.entries_migrated += 1;
        // Rehash with the same function and one more (or one fewer) bit of
        // the hash key: in place, the entry stays or moves to the same
        // offset in the other half (Figure 5).
        let h = self.family.hash(w, &cluster.tag());
        let way = &mut self.ways[w];
        let new_idx = h as usize & (way.logical_len - 1);
        let r = way.resize.as_mut().expect("resize must be active");
        if in_place && new_idx == idx {
            r.kept += 1;
        } else {
            r.moved += 1;
        }
        // The entry stays in way `w`. On a conflict it displaces the
        // occupant, which is cuckooed into a different way (Section IV-C).
        match way.storage.replace(new_idx, cluster) {
            None => self.stats.record_kicks(0),
            Some(victim) => {
                way.occupied -= 1;
                let other = self.other_way(w);
                let kicks = self.place_infallible(other, victim);
                self.stats.record_kicks(kicks + 1);
            }
        }
        1
    }

    /// Finalizes a completed migration: frees what the way no longer needs
    /// and records the event.
    fn complete_resize(&mut self, w: usize, mem: &mut PhysMem, backing: &mut B) {
        let way = &mut self.ways[w];
        let r = way.resize.take().expect("resize must be active");
        if let Some(old) = way.old_storage.take() {
            debug_assert!(old.is_empty());
            old.release(mem, backing, w, self.ps);
        } else if r.kind == ResizeKind::Downsize {
            let new_len = way.logical_len;
            let storage = &mut way.storage;
            debug_assert!(
                storage.tags[new_len..].iter().all(|&t| t == 0),
                "upper half must be empty after downsize migration"
            );
            storage.set_len(new_len);
            storage.tags.shrink_to_fit();
            storage.ptes.shrink_to_fit();
            let keep = chunks_for(new_len, storage.chunk_bytes());
            while storage.chunks.len() > keep {
                let c = storage.chunks.pop().expect("more chunks than kept");
                backing.unregister(w, self.ps, c);
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
    use mehpt_types::MIB;

    fn mem() -> PhysMem {
        PhysMem::with_cost_model(256 * MIB, AllocCostModel::zero_cost())
    }

    /// ECPT's policies with in-place resizing on 4KB chunks, so the engine's
    /// in-place paths run without ME-HPT's L2P table.
    struct InPlace;

    impl Backing for InPlace {
        type Config = EcptConfig;

        fn new(_cfg: &EcptConfig) -> InPlace {
            InPlace
        }

        fn base(cfg: &EcptConfig) -> &EcptConfig {
            cfg
        }

        fn in_place(_cfg: &EcptConfig) -> bool {
            true
        }

        fn seeds(seed: u64, _ps: PageSize) -> (u64, u64) {
            (seed, !seed)
        }

        fn first_chunk(_cfg: &EcptConfig, _len: usize) -> u64 {
            4096
        }

        fn resize_chunk(
            &self,
            _: &EcptConfig,
            _: usize,
            _: PageSize,
            current: u64,
            _: usize,
        ) -> Option<u64> {
            Some(current)
        }

        fn switch_chunk(_cfg: &EcptConfig, current: u64, _len: usize) -> u64 {
            current
        }

        fn room(&self, _way: usize, _ps: PageSize) -> usize {
            usize::MAX
        }

        fn register(&mut self, _way: usize, _ps: PageSize, _chunk: Chunk) {}

        fn unregister(&mut self, _way: usize, _ps: PageSize, _chunk: Chunk) {}
    }

    fn table<B: Backing<Config = EcptConfig>>(m: &mut PhysMem, b: &mut B) -> HptTable<B> {
        HptTable::new(PageSize::Base4K, EcptConfig::default(), m, b).unwrap()
    }

    /// The `(way, slot)` holding `vpn`'s cluster.
    fn slot_of<B: Backing>(t: &HptTable<B>, vpn: Vpn) -> (usize, usize) {
        let key = ClusterEntry::tag_of(vpn) + 1;
        (0..t.ways.len())
            .find_map(|w| {
                let idx = t.ways[w].storage.tags.iter().position(|&k| k == key)?;
                Some((w, idx))
            })
            .expect("the cluster is stored")
    }

    #[test]
    fn an_emptied_cluster_frees_its_slot_for_another_tag() {
        let (mut m, mut b) = (mem(), ());
        let mut t = table(&mut m, &mut b);
        let vpn = Vpn(0x4_2000);
        t.insert(vpn, Ppn(1), &mut m, &mut b).unwrap();
        t.insert(Vpn(vpn.0 + 1), Ppn(2), &mut m, &mut b).unwrap();
        let (w, idx) = slot_of(&t, vpn);
        t.remove(vpn, &mut m, &mut b);
        assert_eq!(t.ways[w].storage.tags[idx], ClusterEntry::tag_of(vpn) + 1);
        t.remove(Vpn(vpn.0 + 1), &mut m, &mut b);
        assert_eq!(
            t.ways[w].storage.tags[idx], 0,
            "the last PTE frees the slot"
        );
        assert_eq!((t.clusters(), t.ways[w].occupied), (0, 0));
        // Another cluster that hashes to the freed slot lands there without
        // a kick and reads back its own PTEs, none of the old ones.
        let len = t.ways[w].logical_len;
        let other = (0..)
            .map(|i| ClusterEntry::tag_of(vpn) + 1 + i)
            .find(|tag| t.family.hash(w, tag) as usize & (len - 1) == idx)
            .unwrap();
        let other_vpn = Vpn(other * CLUSTER_PTES as u64 + 3);
        let mut entry = ClusterEntry::new(other);
        entry.set(other_vpn, Ppn(9));
        assert_eq!(t.place(w, entry, &mut m, &mut b).unwrap(), 0);
        assert_eq!(t.ways[w].storage.tags[idx], other + 1);
        assert_eq!(t.lookup(other_vpn), Some(Ppn(9)));
        assert_eq!(t.lookup(Vpn(other * CLUSTER_PTES as u64)), None);
        assert_eq!(t.lookup(vpn), None);
    }

    #[test]
    fn ppn_zero_round_trips() {
        let (mut m, mut b) = (mem(), ());
        let mut t = table(&mut m, &mut b);
        let (a, c) = (Vpn(0x100), Vpn(0x101));
        assert!(t.insert(a, Ppn(0), &mut m, &mut b).unwrap().added);
        assert!(t.insert(c, Ppn(0), &mut m, &mut b).unwrap().added);
        assert_eq!(t.lookup(a), Some(Ppn(0)));
        let mut addrs = Vec::new();
        assert_eq!(t.probe(c, &mut addrs), Some(Ppn(0)));
        assert_eq!(addrs.len(), 3, "one slot address per way");
        assert_eq!(t.remove(a, &mut m, &mut b), Some(Ppn(0)));
        assert_eq!(t.clusters(), 1, "a PPN-0 PTE keeps its cluster");
        assert_eq!(t.lookup(c), Some(Ppn(0)));
        assert_eq!(t.remove(c, &mut m, &mut b), Some(Ppn(0)));
        assert_eq!((t.clusters(), t.pages()), (0, 0));
    }

    fn downsize_leaves_consistent_ways<B: Backing<Config = EcptConfig>>(mut b: B) {
        let mut m = mem();
        let mut t = table(&mut m, &mut b);
        // One cluster per page, enough to upsize every way a few times.
        let vpn = |i: u64| Vpn(i * 8 * 7);
        for i in 0..3000 {
            t.insert(vpn(i), Ppn(i), &mut m, &mut b).unwrap();
        }
        for i in 40..3000 {
            assert_eq!(t.remove(vpn(i), &mut m, &mut b), Some(Ppn(i)));
        }
        t.finish_all_resizes(&mut m, &mut b);
        let downsizes = t.stats().resizes.iter();
        assert!(downsizes.filter(|e| e.kind == ResizeKind::Downsize).count() > 0);
        for way in &t.ways {
            assert!(way.old_storage.is_none() && way.resize.is_none());
            let s = &way.storage;
            assert_eq!(s.tags.len(), way.logical_len);
            assert_eq!(s.ptes.len(), way.logical_len);
            assert_eq!(s.tags.iter().filter(|&&k| k != 0).count(), way.occupied);
            assert_eq!(s.chunks.len(), chunks_for(way.logical_len, s.chunk_bytes()));
        }
        for i in 0..40 {
            assert_eq!(t.lookup(vpn(i)), Some(Ppn(i)));
        }
        assert_eq!(t.lookup(vpn(40)), None);
        t.destroy(&mut m, &mut b);
    }

    #[test]
    fn out_of_place_downsize_leaves_consistent_ways() {
        downsize_leaves_consistent_ways(());
    }

    #[test]
    fn in_place_downsize_leaves_consistent_ways() {
        downsize_leaves_consistent_ways(InPlace);
    }
}
