use std::fmt;
use std::mem;

use mehpt_hash::{
    Alloc, Config, CuckooConfig, ElasticCuckoo, HashFamily, InsertReport, Slots, TableStats,
};
use mehpt_mem::{AllocError, AllocTag, Chunk, PhysMem};
use mehpt_types::{PageSize, Ppn, Vpn};

use crate::entry::{pte_clear, pte_get, pte_set, ClusterEntry, CLUSTER_PTES};

/// What sets one hashed-page-table design apart on the shared engine
/// ([`HptTable`]): where its ways' chunks come from, and which resize
/// techniques it uses.
///
/// * ECPT is `()`: every way is one contiguous chunk the size of the whole
///   way, resized out of place, all ways at once. The provided methods are
///   its chunk policy.
/// * ME-HPT's backing is its per-process L2P table (`mehpt_core`): a way is
///   a run of L2P-registered chunks on a chunk-size ladder, and switches to
///   the next chunk size when its L2P subtable is full.
///
/// One backing value serves all page-size tables of a process, which is
/// how ME-HPT's L2P subtables steal entries from each other.
pub trait Backing {
    /// The design's configuration: the [`CuckooConfig`] knobs plus whatever
    /// the design adds.
    type Config: Clone + fmt::Debug + Default;

    /// The backing of a new process.
    fn new(cfg: &Self::Config) -> Self;

    /// The elastic-cuckoo configuration of each per-page-size table: the
    /// knobs and the resize techniques (Sections IV-C and IV-D).
    fn table(cfg: &Self::Config) -> Config;

    /// The `(hash family, RNG)` seeds of the `ps` table, from `seed`, the
    /// configured seed already offset by the page size.
    fn seeds(seed: u64, ps: PageSize) -> (u64, u64);

    /// The chunk size of a new way of `len` entries: the whole way.
    fn first_chunk(_cfg: &Self::Config, len: usize) -> u64 {
        len as u64 * ClusterEntry::BYTES
    }

    /// The chunk size of the new storage of an out-of-place resize of way
    /// `way` to `len` entries, whose chunks are now `current` bytes, or
    /// `None` to switch chunk size instead: the whole way.
    fn resize_chunk(
        &self,
        _cfg: &Self::Config,
        _way: usize,
        _ps: PageSize,
        _current: u64,
        len: usize,
    ) -> Option<u64> {
        Some(len as u64 * ClusterEntry::BYTES)
    }

    /// The chunk size a chunk-size switch to `len` entries moves to from
    /// `current`-byte chunks. Contiguous ways never switch.
    fn switch_chunk(_cfg: &Self::Config, _current: u64, _len: usize) -> u64 {
        unreachable!("contiguous ways never run out of room")
    }

    /// How many more chunks way `way` of the `ps` table may hold.
    fn room(&self, _way: usize, _ps: PageSize) -> usize {
        usize::MAX
    }

    /// Records a chunk newly added to way `way` of the `ps` table; the
    /// caller has checked [`Backing::room`].
    fn register(&mut self, _way: usize, _ps: PageSize, _chunk: Chunk) {}

    /// Forgets a chunk the way is about to free.
    fn unregister(&mut self, _way: usize, _ps: PageSize, _chunk: Chunk) {}

    /// L2P entries in use (Figure 14's metric); 0 without an L2P table.
    fn l2p_entries(&self) -> usize {
        0
    }
}

impl Backing for () {
    type Config = CuckooConfig;

    fn new(_cfg: &CuckooConfig) {}

    fn table(cfg: &CuckooConfig) -> Config {
        Config {
            base: cfg.clone(),
            ..Config::ecpt_baseline()
        }
    }

    fn seeds(seed: u64, _ps: PageSize) -> (u64, u64) {
        (seed, seed ^ 0xdead_10cc)
    }
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
/// On the host a slot is one 8-byte [`Slot`] word: the cluster's tag and
/// the index of its PTE row in the table's [`Arena`]. A probe compares a
/// slot's tag and follows its row index only on a match, and kicks and
/// migrations move 8 bytes. The model still sees one 64-byte line per slot
/// ([`ClusterEntry::BYTES`]).
#[derive(Debug)]
struct Storage {
    /// Per slot: 0 when empty, otherwise a [`Slot`] word.
    slots: Vec<u64>,
    chunks: Vec<Chunk>,
    /// The size of every chunk, a power of two.
    chunk_bytes: u64,
}

/// A stored cluster, as a way slot holds it and as it moves between
/// slots: one word, `tag << 31 | (row + 1)`, of the cluster's tag and its
/// row in the arena. Tags are below 2^33 (the tags of the 4KB VPNs of
/// 48-bit virtual addresses) and rows below 2^31 − 1, so no stored cluster
/// is the word 0, which marks an empty slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot(u64);

impl Slot {
    const ROW_BITS: u32 = 31;
    /// Tags are below this bound.
    const TAG_LIMIT: u64 = 1 << (64 - Self::ROW_BITS);
    /// Rows are below this bound.
    const ROW_LIMIT: u32 = (1 << Self::ROW_BITS) - 1;

    #[inline]
    fn new(tag: u64, row: u32) -> Slot {
        debug_assert!(tag < Self::TAG_LIMIT && row < Self::ROW_LIMIT);
        Slot(tag << Self::ROW_BITS | (u64::from(row) + 1))
    }

    /// The slot word `word` as a cluster, or `None` for an empty slot.
    #[inline]
    fn from_word(word: u64) -> Option<Slot> {
        (word != 0).then_some(Slot(word))
    }

    #[inline]
    fn tag(self) -> u64 {
        self.0 >> Self::ROW_BITS
    }

    #[inline]
    fn row(self) -> u32 {
        (self.0 & u64::from(Self::ROW_LIMIT)) as u32 - 1
    }
}

/// PTE rows per block of an [`Arena`]: 64KB.
const BLOCK_ROWS: usize = 1024;

/// One block of an [`Arena`]'s rows.
type RowBlock = [[u64; CLUSTER_PTES]; BLOCK_ROWS];

/// The PTE rows of a table's clusters, one per stored cluster wherever
/// its slot is, so host memory follows the clusters stored rather than
/// the ways' capacity. Rows no slot refers to are zeroed and wait on a
/// free list for the next new cluster.
///
/// The rows live in fixed 64KB blocks, not one growing array, so growing
/// never copies rows or asks the host allocator for one large contiguous
/// block (such an array reached 16MB in one `gups_hpt` speedbench cell,
/// and its doublings left the process's peak RSS at the mercy of heap
/// fragmentation).
#[derive(Debug, Default)]
struct Arena {
    /// Row `r` is `blocks[r / BLOCK_ROWS][r % BLOCK_ROWS]`.
    blocks: Vec<Box<RowBlock>>,
    /// The rows handed out or on the free list.
    len: usize,
    free: Vec<u32>,
}

impl Arena {
    /// A zeroed row for a new cluster.
    ///
    /// # Panics
    ///
    /// Panics if a new row would not fit a [`Slot`]: a table holds fewer
    /// than 2^31 − 1 clusters.
    fn take(&mut self) -> u32 {
        if let Some(row) = self.free.pop() {
            return row;
        }
        let row = self.len;
        assert!(
            row < Slot::ROW_LIMIT as usize,
            "a table holds fewer than 2^31 - 1 clusters"
        );
        if row.is_multiple_of(BLOCK_ROWS) {
            self.add_block();
        }
        self.len += 1;
        row as u32
    }

    /// Adds a zeroed block of rows.
    #[cold]
    fn add_block(&mut self) {
        let block = vec![[0; CLUSTER_PTES]; BLOCK_ROWS].into_boxed_slice();
        self.blocks
            .push(block.try_into().expect("one block of rows"));
    }

    /// Zeroes `row` and puts it on the free list.
    fn give_back(&mut self, row: u32) {
        self[row as usize] = [0; CLUSTER_PTES];
        self.free.push(row);
    }
}

impl std::ops::Index<usize> for Arena {
    type Output = [u64; CLUSTER_PTES];

    #[inline]
    fn index(&self, row: usize) -> &Self::Output {
        &self.blocks[row / BLOCK_ROWS][row % BLOCK_ROWS]
    }
}

impl std::ops::IndexMut<usize> for Arena {
    #[inline]
    fn index_mut(&mut self, row: usize) -> &mut Self::Output {
        &mut self.blocks[row / BLOCK_ROWS][row % BLOCK_ROWS]
    }
}

// The small helpers of `Storage` are `#[inline]`: the engine's methods are
// generic, so they are compiled in the crates that use them, where
// non-generic helpers would otherwise stay out-of-line calls on the probe
// and insert paths.
impl Storage {
    /// Allocates storage for `len` entries in `chunk_bytes` chunks, without
    /// registering them.
    fn alloc(mem: &mut PhysMem, len: usize, chunk_bytes: u64) -> Result<Storage, AllocError> {
        debug_assert!(chunk_bytes.is_power_of_two());
        Ok(Storage {
            slots: vec![0; len],
            chunks: alloc_chunks(mem, chunks_for(len, chunk_bytes), chunk_bytes)?,
            chunk_bytes,
        })
    }

    /// The cluster in slot `idx`, if any.
    #[inline]
    fn get(&self, idx: usize) -> Option<Slot> {
        Slot::from_word(self.slots[idx])
    }

    /// The arena row of slot `idx` if it holds cluster `tag`.
    #[inline]
    fn row(&self, idx: usize, tag: u64) -> Option<usize> {
        self.get(idx)
            .filter(|s| s.tag() == tag)
            .map(|s| s.row() as usize)
    }

    /// Grows or shrinks the slot array to `len` slots; new slots are empty.
    fn set_len(&mut self, len: usize) {
        self.slots.resize(len, 0);
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

impl Slots for Storage {
    type Entry = Slot;

    #[inline]
    fn hash(family: &HashFamily, way: usize, entry: &Slot) -> u64 {
        family.hash(way, &entry.tag())
    }

    #[inline]
    fn take(&mut self, idx: usize) -> Option<Slot> {
        Slot::from_word(mem::take(&mut self.slots[idx]))
    }

    #[inline]
    fn replace(&mut self, idx: usize, entry: Slot) -> Option<Slot> {
        Slot::from_word(mem::replace(&mut self.slots[idx], entry.0))
    }

    #[inline]
    fn is_free(&self, idx: usize) -> bool {
        self.slots[idx] == 0
    }

    #[inline]
    fn slot_count(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.chunks.iter().map(Chunk::bytes).sum()
    }

    #[inline]
    fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }
}

/// The page-table allocation context: physical memory, the design's
/// backing and configuration, and the table's page size.
struct Ctx<'a, B: Backing> {
    mem: &'a mut PhysMem,
    backing: &'a mut B,
    cfg: &'a B::Config,
    ps: PageSize,
}

impl<B: Backing> Alloc<Storage> for Ctx<'_, B> {
    type Error = AllocError;

    /// Appends the chunks the larger way needs, unless the backing has no
    /// room for them.
    fn grow(&mut self, w: usize, slots: &mut Storage, len: usize) -> Result<bool, AllocError> {
        let chunk_bytes = slots.chunk_bytes();
        let extra = chunks_for(len, chunk_bytes).saturating_sub(slots.chunks.len());
        if extra > self.backing.room(w, self.ps) {
            return Ok(false);
        }
        for c in alloc_chunks(self.mem, extra, chunk_bytes)? {
            self.backing.register(w, self.ps, c);
            slots.chunks.push(c);
        }
        slots.set_len(len);
        Ok(true)
    }

    /// Old and new chunks are held at once, so an L2P subtable may run out
    /// much earlier — the pressure Section VII-D describes.
    fn resized(
        &mut self,
        w: usize,
        slots: &Storage,
        len: usize,
    ) -> Result<Option<Storage>, AllocError> {
        let current = slots.chunk_bytes();
        let Some(bytes) = self
            .backing
            .resize_chunk(self.cfg, w, self.ps, current, len)
        else {
            return Ok(None);
        };
        let storage = Storage::alloc(self.mem, len, bytes)?;
        storage.register(self.backing, w, self.ps);
        Ok(Some(storage))
    }

    /// Allocates the new chunks before freeing the old ones, and registers
    /// them once the old ones are gone.
    fn switch(
        &mut self,
        w: usize,
        slots: &mut Storage,
        len: usize,
    ) -> Result<Vec<Slot>, AllocError> {
        let chunk_bytes = B::switch_chunk(self.cfg, slots.chunk_bytes(), len);
        let mut old = mem::replace(slots, Storage::alloc(self.mem, len, chunk_bytes)?);
        let entries = (0..old.slots.len()).filter_map(|i| old.take(i)).collect();
        old.release(self.mem, self.backing, w, self.ps);
        slots.register(self.backing, w, self.ps);
        Ok(entries)
    }

    /// Frees the chunks past the shrunk way's end.
    fn shrink(&mut self, w: usize, slots: &mut Storage, len: usize) {
        slots.set_len(len);
        slots.slots.shrink_to_fit();
        let keep = chunks_for(len, slots.chunk_bytes());
        while slots.chunks.len() > keep {
            let c = slots.chunks.pop().expect("more chunks than kept");
            self.backing.unregister(w, self.ps, c);
            self.mem.free(c);
        }
    }

    fn release(&mut self, w: usize, slots: Storage) {
        slots.release(self.mem, self.backing, w, self.ps);
    }
}

/// The elastic cuckoo page table for one page size: the engine of both
/// ECPT ([`EcptTable`]) and ME-HPT (`mehpt_core::MeHptTable`).
///
/// The workspace's elastic-cuckoo core ([`ElasticCuckoo`]) over ways of
/// [`ClusterEntry`] slots, whose chunks the backing `B` provides; the
/// backing's configuration picks out-of-place or in-place, all-way or
/// per-way resizing (see [`ElasticCuckoo`]). A slot holds a cluster's tag
/// and the index of its PTE row in the table's one arena of rows, packed
/// in one word.
///
/// An upsize fails if physical memory cannot supply the new chunks —
/// exactly how ECPT, whose chunks are whole ways, dies on a highly
/// fragmented machine in the paper's experiments.
pub struct HptTable<B: Backing> {
    core: ElasticCuckoo<Storage>,
    arena: Arena,
    cfg: B::Config,
    ps: PageSize,
    pages: u64,
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
            .field("clusters", &self.clusters())
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
        let table = B::table(&cfg);
        let base = &table.base;
        let len = base.initial_entries_per_way;
        let chunk_bytes = B::first_chunk(&cfg, len);
        let mut ways: Vec<Storage> = Vec::with_capacity(base.ways);
        for w in 0..base.ways {
            match Storage::alloc(mem, len, chunk_bytes) {
                Ok(storage) => {
                    storage.register(backing, w, ps);
                    ways.push(storage);
                }
                Err(e) => {
                    for (w, storage) in ways.into_iter().enumerate() {
                        storage.release(mem, backing, w, ps);
                    }
                    return Err(e);
                }
            }
        }
        let seed = base.seed.wrapping_add(ps.index() as u64 * 0x9e37_79b9);
        let (hash_seed, rng_seed) = B::seeds(seed, ps);
        Ok(HptTable {
            core: ElasticCuckoo::new(table, ways, hash_seed, rng_seed),
            arena: Arena::default(),
            cfg,
            ps,
            pages: 0,
        })
    }

    /// The number of valid translations (pages) stored.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The number of occupied cluster entries.
    pub fn clusters(&self) -> usize {
        self.core.len()
    }

    /// The occupied cluster entries of each way; they sum to
    /// [`HptTable::clusters`].
    pub fn way_clusters(&self) -> Vec<usize> {
        self.core.ways().iter().map(|w| w.occupied()).collect()
    }

    /// The number of ways W: a probe reads one slot per way, in every
    /// resize state.
    #[inline]
    pub fn way_count(&self) -> usize {
        self.core.ways().len()
    }

    /// Logical capacity in cluster entries.
    pub fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// The logical size of each way in bytes (entries × 64B) — Figure 12.
    pub fn way_sizes(&self) -> Vec<u64> {
        self.core
            .ways()
            .iter()
            .map(|w| w.capacity() as u64 * ClusterEntry::BYTES)
            .collect()
    }

    /// The physical bytes backing each way's current storage (whole
    /// chunks, even when the way only fills part of one — Figure 15's
    /// metric).
    pub fn way_phys_bytes(&self) -> Vec<u64> {
        self.core
            .ways()
            .iter()
            .map(|w| w.slots(false).bytes())
            .collect()
    }

    /// The chunk size each way currently uses.
    pub fn way_chunk_bytes(&self) -> Vec<u64> {
        self.core
            .ways()
            .iter()
            .map(|w| w.slots(false).chunk_bytes())
            .collect()
    }

    /// Physical memory currently held (both tables during an out-of-place
    /// resize).
    pub fn memory_bytes(&self) -> u64 {
        self.core.memory_bytes()
    }

    /// Whether any way is mid-resize.
    pub fn is_resizing(&self) -> bool {
        self.core.is_resizing()
    }

    /// Collected statistics.
    pub fn stats(&self) -> &TableStats {
        self.core.stats()
    }

    /// The per-way hash functions.
    pub fn hash_family(&self) -> &HashFamily {
        self.core.family()
    }

    /// Functional lookup (no timing).
    pub fn lookup(&self, vpn: Vpn) -> Option<Ppn> {
        let row = self.find_row(ClusterEntry::tag_of(vpn))?;
        pte_get(&self.arena[row], vpn)
    }

    /// One walker probe of `vpn`: hashes each way once and reads the way
    /// slot it selects (W slots, honoring the rehash pointers — Section
    /// II-B: "a lookup operation during resizing only needs W probes").
    /// Returns the translation if a slot's tag matches — what
    /// [`HptTable::lookup`] returns — and the number of slots read. In
    /// ME-HPT the L2P lookup that finds the slots costs ~4 cycles in
    /// hardware and hides behind the CWC access (Section V-D).
    pub fn probe(&self, vpn: Vpn) -> (Option<Ppn>, u32) {
        let tag = ClusterEntry::tag_of(vpn);
        let family = self.core.family();
        let (mut hit, mut reads) = (None, 0);
        for (w, way) in self.core.ways().iter().enumerate() {
            let (in_old, idx) = way.locate(family.hash(w, &tag));
            let storage = way.slots(in_old);
            reads += 1;
            if hit.is_none() {
                hit = storage
                    .row(idx, tag)
                    .map(|row| pte_get(&self.arena[row], vpn));
            }
        }
        (hit.flatten(), reads)
    }

    /// The `(way, in_old_table, index)` of the slot holding cluster `tag`.
    fn find(&self, tag: u64) -> Option<(usize, bool, usize)> {
        self.core.find(&tag, |s, i| s.row(i, tag).is_some())
    }

    /// The arena row of cluster `tag`.
    fn find_row(&self, tag: u64) -> Option<usize> {
        let (w, in_old, idx) = self.find(tag)?;
        self.core.ways()[w].slots(in_old).row(idx, tag)
    }

    /// Inserts (or updates) the translation `vpn → ppn`;
    /// [`InsertReport::added`] tells the two apart.
    ///
    /// # Errors
    ///
    /// Fails only when a resize needs chunks that physical memory cannot
    /// provide — ECPT's failure mode on fragmented machines; with ME-HPT's
    /// small chunks this effectively never happens, which is the point of
    /// the design. The table then holds exactly the translations it held
    /// before the call: `vpn` is not mapped, and every earlier translation
    /// still resolves, including an entry that a cuckoo kick had displaced
    /// when a forced upsize failed. Resizes that started before the
    /// failure stay in flight.
    pub fn insert(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        mem: &mut PhysMem,
        backing: &mut B,
    ) -> Result<InsertReport, AllocError> {
        let tag = ClusterEntry::tag_of(vpn);
        assert!(
            tag < Slot::TAG_LIMIT,
            "{vpn:?} lies beyond the 4KB pages of 48-bit virtual addresses"
        );
        if let Some(row) = self.find_row(tag) {
            let added = pte_set(&mut self.arena[row], vpn, ppn).is_none();
            self.pages += u64::from(added);
            return Ok(InsertReport {
                added,
                ..InsertReport::default()
            });
        }
        // A new cluster is needed.
        let row = self.arena.take();
        pte_set(&mut self.arena[row as usize], vpn, ppn);
        let mut ctx = Ctx {
            mem,
            backing,
            cfg: &self.cfg,
            ps: self.ps,
        };
        match self.core.insert(Slot::new(tag, row), &mut ctx) {
            Ok(report) => {
                self.pages += 1;
                Ok(report)
            }
            Err(e) => {
                // A failed forced upsize leaves the new cluster stored; a
                // failed threshold resize stores nothing.
                if let Some((w, in_old, idx)) = self.find(tag) {
                    self.core.vacate(w, in_old, idx);
                }
                self.arena.give_back(row);
                Err(e)
            }
        }
    }

    /// Removes the translation for `vpn`, returning it. Empty clusters are
    /// deleted; a downsize may be triggered, and is deferred if its
    /// allocation fails.
    pub fn remove(&mut self, vpn: Vpn, mem: &mut PhysMem, backing: &mut B) -> Option<Ppn> {
        let tag = ClusterEntry::tag_of(vpn);
        let (w, in_old, idx) = self.find(tag)?;
        let row = self.core.ways()[w].slots(in_old).row(idx, tag)? as u32;
        let ptes = &mut self.arena[row as usize];
        let ppn = pte_clear(ptes, vpn)?;
        self.pages -= 1;
        if ptes.iter().all(|&p| p == 0) {
            self.core.vacate(w, in_old, idx);
            self.arena.give_back(row);
        }
        let mut ctx = Ctx {
            mem,
            backing,
            cfg: &self.cfg,
            ps: self.ps,
        };
        self.core.after_remove(&mut ctx);
        Some(ppn)
    }

    /// Checks the engine's invariants and the arena's: every stored
    /// cluster has its own row, in bounds and not empty; free rows are
    /// zeroed and referenced by no slot; and the arena holds no other
    /// rows. Test helper.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.core.check_invariants();
        let arena = &self.arena;
        let mut owner = vec![false; arena.len];
        for s in self.core.ways().iter().flat_map(|w| w.tables()) {
            for slot in (0..s.slots.len()).filter_map(|i| s.get(i)) {
                let row = slot.row() as usize;
                assert!(row < arena.len, "row {row} out of bounds");
                assert!(!owner[row], "row {row} is held by two slots");
                owner[row] = true;
                assert!(arena[row].iter().any(|&p| p != 0), "empty cluster");
            }
        }
        for &row in &arena.free {
            let row = row as usize;
            assert!(!owner[row], "free row {row} is held by a slot");
            assert_eq!(arena[row], [0; CLUSTER_PTES], "free row {row}");
            owner[row] = true;
        }
        assert_eq!(arena.len, self.clusters() + arena.free.len());
    }

    /// Releases all physical memory (and the backing's records of it).
    pub fn destroy(self, mem: &mut PhysMem, backing: &mut B) {
        let mut ctx = Ctx {
            mem,
            backing,
            cfg: &self.cfg,
            ps: self.ps,
        };
        self.core.release(&mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_hash::{ResizeKind, ResizeMode};
    use mehpt_mem::AllocCostModel;
    use mehpt_types::MIB;

    fn mem() -> PhysMem {
        PhysMem::with_cost_model(256 * MIB, AllocCostModel::zero_cost())
    }

    /// ECPT's policies with in-place resizing on 4KB chunks, so the engine's
    /// in-place paths run without ME-HPT's L2P table.
    struct InPlace;

    impl Backing for InPlace {
        type Config = CuckooConfig;

        fn new(_cfg: &CuckooConfig) -> InPlace {
            InPlace
        }

        fn table(cfg: &CuckooConfig) -> Config {
            Config {
                base: cfg.clone(),
                resize_mode: ResizeMode::InPlace,
                ..Config::ecpt_baseline()
            }
        }

        fn seeds(seed: u64, _ps: PageSize) -> (u64, u64) {
            (seed, !seed)
        }

        fn first_chunk(_cfg: &CuckooConfig, _len: usize) -> u64 {
            4096
        }

        fn resize_chunk(
            &self,
            _: &CuckooConfig,
            _: usize,
            _: PageSize,
            current: u64,
            _: usize,
        ) -> Option<u64> {
            Some(current)
        }
    }

    fn table<B: Backing<Config = CuckooConfig>>(m: &mut PhysMem, b: &mut B) -> HptTable<B> {
        HptTable::new(PageSize::Base4K, CuckooConfig::default(), m, b).unwrap()
    }

    /// The tag of the cluster in slot `idx` of way `w`'s current storage.
    fn tag_at<B: Backing>(t: &HptTable<B>, w: usize, idx: usize) -> Option<u64> {
        t.core.ways()[w].slots(false).get(idx).map(Slot::tag)
    }

    #[test]
    fn an_emptied_cluster_frees_its_slot_for_another_tag() {
        let (mut m, mut b) = (mem(), ());
        let mut t = table(&mut m, &mut b);
        let vpn = Vpn(0x4_2000);
        t.insert(vpn, Ppn(1), &mut m, &mut b).unwrap();
        t.insert(Vpn(vpn.0 + 1), Ppn(2), &mut m, &mut b).unwrap();
        let (w, in_old, idx) = t.find(ClusterEntry::tag_of(vpn)).unwrap();
        assert!(!in_old);
        t.remove(vpn, &mut m, &mut b);
        assert_eq!(tag_at(&t, w, idx), Some(ClusterEntry::tag_of(vpn)));
        t.remove(Vpn(vpn.0 + 1), &mut m, &mut b);
        assert_eq!(tag_at(&t, w, idx), None, "the last PTE frees the slot");
        assert_eq!((t.clusters(), t.way_clusters()[w]), (0, 0));
        // Another cluster that hashes to the freed slot lands there without
        // a kick and reads back its own PTEs, none of the old ones. Inserts
        // start in a random way, so candidates that land elsewhere are
        // removed again.
        let len = t.core.ways()[w].capacity();
        let family = t.hash_family().clone();
        let vpn_of = |tag: u64| Vpn(tag * CLUSTER_PTES as u64 + 3);
        let other = (0..)
            .map(|i| ClusterEntry::tag_of(vpn) + 1 + i)
            .filter(|tag| family.hash(w, tag) as usize & (len - 1) == idx)
            .find(|&tag| {
                let report = t.insert(vpn_of(tag), Ppn(9), &mut m, &mut b).unwrap();
                if t.find(tag) == Some((w, false, idx)) {
                    assert_eq!(report.kicks, 0);
                    return true;
                }
                t.remove(vpn_of(tag), &mut m, &mut b);
                false
            })
            .unwrap();
        let other_vpn = vpn_of(other);
        assert_eq!(tag_at(&t, w, idx), Some(other));
        assert_eq!(t.lookup(other_vpn), Some(Ppn(9)));
        assert_eq!(t.lookup(Vpn(other * CLUSTER_PTES as u64)), None);
        assert_eq!(t.lookup(vpn), None);
    }

    /// Rows past the first block land in further blocks, and rows freed
    /// in any block are reused before a new one is added.
    #[test]
    fn arena_rows_span_blocks() {
        let (mut m, mut b) = (mem(), ());
        let mut t = table(&mut m, &mut b);
        let clusters = 2 * BLOCK_ROWS as u64 + 5;
        let vpn = |c: u64| Vpn(c * CLUSTER_PTES as u64 + c % 8);
        for c in 0..clusters {
            t.insert(vpn(c), Ppn(c + 1), &mut m, &mut b).unwrap();
        }
        assert_eq!((t.arena.len, t.arena.blocks.len()), (clusters as usize, 3));
        for c in (0..clusters).step_by(7) {
            assert_eq!(t.remove(vpn(c), &mut m, &mut b), Some(Ppn(c + 1)));
        }
        t.check_invariants();
        for c in (0..clusters).step_by(7) {
            t.insert(vpn(c), Ppn(c + 2), &mut m, &mut b).unwrap();
        }
        assert_eq!((t.arena.len, t.arena.blocks.len()), (clusters as usize, 3));
        t.check_invariants();
        for c in 0..clusters {
            let ppn = if c % 7 == 0 { c + 2 } else { c + 1 };
            assert_eq!(t.lookup(vpn(c)), Some(Ppn(ppn)), "cluster {c}");
        }
    }

    #[test]
    fn slot_words_round_trip_at_the_bounds() {
        let (tag_max, row_max) = (Slot::TAG_LIMIT - 1, Slot::ROW_LIMIT - 1);
        for (tag, row) in [(0, 0), (0, row_max), (tag_max, 0), (tag_max, row_max)] {
            let slot = Slot::new(tag, row);
            assert_ne!(slot.0, 0, "({tag}, {row}) reads as an empty slot");
            assert_eq!((slot.tag(), slot.row()), (tag, row));
            assert_eq!(Slot::from_word(slot.0), Some(slot));
        }
        assert_eq!(Slot::new(tag_max, row_max).0, u64::MAX);
        assert_eq!(Slot::from_word(0), None);
        // The largest tag is that of the last 4KB page of a 48-bit space.
        assert_eq!(ClusterEntry::tag_of(Vpn((1 << 36) - 1)), tag_max);
    }

    #[test]
    fn a_slot_finds_only_its_own_tag() {
        let mut s = Storage {
            slots: vec![0; 2],
            chunks: Vec::new(),
            chunk_bytes: 4096,
        };
        s.replace(1, Slot::new(0, 7));
        assert_eq!(s.row(0, 0), None, "an empty slot holds no tag 0");
        assert_eq!(s.row(1, 0), Some(7));
        assert_eq!(s.row(1, 1), None);
        let max = Slot::new(Slot::TAG_LIMIT - 1, 0);
        assert_eq!(s.replace(1, max), Some(Slot::new(0, 7)));
        assert_eq!(s.row(1, Slot::TAG_LIMIT - 1), Some(0));
        assert_eq!(s.take(1), Some(max));
        assert!(s.is_free(1));
    }

    #[test]
    fn ppn_zero_round_trips() {
        let (mut m, mut b) = (mem(), ());
        let mut t = table(&mut m, &mut b);
        let (a, c) = (Vpn(0x100), Vpn(0x101));
        assert!(t.insert(a, Ppn(0), &mut m, &mut b).unwrap().added);
        assert!(t.insert(c, Ppn(0), &mut m, &mut b).unwrap().added);
        assert_eq!(t.lookup(a), Some(Ppn(0)));
        assert_eq!(t.probe(c), (Some(Ppn(0)), 3), "one slot read per way");
        assert_eq!(t.remove(a, &mut m, &mut b), Some(Ppn(0)));
        assert_eq!(t.clusters(), 1, "a PPN-0 PTE keeps its cluster");
        assert_eq!(t.lookup(c), Some(Ppn(0)));
        assert_eq!(t.remove(c, &mut m, &mut b), Some(Ppn(0)));
        assert_eq!((t.clusters(), t.pages()), (0, 0));
    }

    fn downsize_leaves_consistent_ways<B: Backing<Config = CuckooConfig>>(mut b: B) {
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
        t.core.finish_all_resizes(&mut Ctx {
            mem: &mut m,
            backing: &mut b,
            cfg: &t.cfg,
            ps: t.ps,
        });
        let downsizes = t.stats().resizes.iter();
        assert!(downsizes.filter(|e| e.kind == ResizeKind::Downsize).count() > 0);
        t.check_invariants();
        for way in t.core.ways() {
            assert!(!way.is_resizing() && way.tables().count() == 1);
            let s = way.slots(false);
            assert_eq!(s.slots.len(), way.capacity());
            assert_eq!(s.slots.iter().filter(|&&k| k != 0).count(), way.occupied());
            assert_eq!(s.chunks.len(), chunks_for(way.capacity(), s.chunk_bytes()));
        }
        for i in 0..40 {
            assert_eq!(t.lookup(vpn(i)), Some(Ppn(i)));
        }
        assert_eq!(t.lookup(vpn(40)), None);
        t.destroy(&mut m, &mut b);
    }

    /// A kick chain that reaches `max_kicks` forces an upsize; on memory too
    /// small for it, the insert fails while it holds a displaced earlier
    /// cluster. That cluster must land again, and the new one must not
    /// stay.
    #[test]
    fn a_failed_forced_upsize_keeps_every_earlier_translation() {
        // The three initial 8KB ways fit; no 16KB way does.
        let mut m = PhysMem::with_cost_model(32 << 10, AllocCostModel::zero_cost());
        let cfg = CuckooConfig {
            upsize_threshold: 0.95,
            max_kicks: 2,
            ..CuckooConfig::default()
        };
        let mut t = EcptTable::new(PageSize::Base4K, cfg, &mut m, &mut ()).unwrap();
        let vpn = |i: u64| Vpn(i * CLUSTER_PTES as u64);
        let failed = (0..300)
            .find(|&i| t.insert(vpn(i), Ppn(i), &mut m, &mut ()).is_err())
            .expect("a forced upsize must fail");
        assert!(failed > 2, "the table failed before it filled: {failed}");
        assert!(t.stats().resizes.is_empty(), "no upsize could allocate");
        for i in 0..failed {
            assert_eq!(t.lookup(vpn(i)), Some(Ppn(i)), "insert {i} of {failed}");
        }
        assert_eq!(t.lookup(vpn(failed)), None);
        assert_eq!(t.pages(), failed);
        assert_eq!(t.clusters() as u64, failed);
        t.check_invariants();
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
