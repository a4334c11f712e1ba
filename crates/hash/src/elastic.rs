use std::hash::Hash;
use std::mem;

use mehpt_types::rng::Xoshiro256;

use crate::stats::{ResizeEvent, ResizeKind, TableStats};
use crate::{Config, HashFamily, ResizeMode, WaySizing};

/// The slots of one way (or of its old table during an out-of-place
/// resize): the storage an [`ElasticCuckoo`] core runs over.
///
/// The library's [`ElasticCuckooTable`](crate::ElasticCuckooTable) stores a
/// `Vec` of `(K, V)` slots; the page-table engine (`mehpt_ecpt::HptTable`)
/// stores a tag and a PTE-row index per slot over physical-memory chunks,
/// the rows themselves in one arena per table.
pub trait Slots {
    /// What one slot holds.
    type Entry;

    /// The hash of `entry`'s key under way `way`'s function of `family`.
    fn hash(family: &HashFamily, way: usize, entry: &Self::Entry) -> u64;

    /// Takes the entry out of slot `idx`, leaving it empty.
    fn take(&mut self, idx: usize) -> Option<Self::Entry>;

    /// Stores `entry` in slot `idx`; returns the entry it displaced.
    fn replace(&mut self, idx: usize, entry: Self::Entry) -> Option<Self::Entry>;

    /// Whether slot `idx` is empty.
    fn is_free(&self, idx: usize) -> bool;

    /// The number of slots.
    fn slot_count(&self) -> usize;

    /// Bytes of memory the slots hold.
    fn bytes(&self) -> u64;

    /// The size of the largest single allocation behind the slots.
    fn chunk_bytes(&self) -> u64;
}

/// The allocation context each mutating call of an [`ElasticCuckoo`] core
/// passes through: where a way's slots come from and go back to.
///
/// The library's context is `()`, which cannot fail; the page-table
/// engine's holds the physical memory, the design's backing and the page
/// size.
pub trait Alloc<S: Slots> {
    /// Why an allocation failed.
    type Error;

    /// Grows `slots` of way `way` in place to `len` slots, the new ones
    /// empty. `Ok(false)` means the way has no room for more chunks and
    /// must switch chunk size instead.
    ///
    /// # Errors
    ///
    /// Fails when memory cannot supply the new chunks.
    fn grow(&mut self, way: usize, slots: &mut S, len: usize) -> Result<bool, Self::Error>;

    /// New, empty storage of `len` slots for an out-of-place resize of way
    /// `way`, whose current storage is `slots`; `None` to switch chunk size
    /// instead.
    ///
    /// # Errors
    ///
    /// Fails when memory cannot supply the new storage.
    fn resized(&mut self, way: usize, slots: &S, len: usize) -> Result<Option<S>, Self::Error>;

    /// Moves way `way` into new storage of `len` slots in larger chunks,
    /// frees the old storage, and returns the entries it held. Contexts
    /// whose [`Alloc::grow`] and [`Alloc::resized`] always find room never
    /// switch, which is what the default assumes.
    ///
    /// # Errors
    ///
    /// Fails, leaving `slots` unchanged, when memory cannot supply the new
    /// storage.
    fn switch(
        &mut self,
        _way: usize,
        _slots: &mut S,
        _len: usize,
    ) -> Result<Vec<S::Entry>, Self::Error> {
        unreachable!("the context always has room to grow a way")
    }

    /// Shrinks `slots` of way `way` to `len` slots once a downsize has
    /// emptied the rest.
    fn shrink(&mut self, way: usize, slots: &mut S, len: usize);

    /// Frees storage the way no longer uses; the default drops it.
    fn release(&mut self, _way: usize, _slots: S) {}
}

/// What one insert did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Cuckoo re-insertions needed to place the entry.
    pub kicks: u32,
    /// Entries migrated on behalf of an in-flight resize.
    pub migrated: u32,
    /// Whether this insert triggered a resize.
    pub started_resize: bool,
    /// Whether the insert added an entry; `false` when it rewrote one
    /// already present.
    pub added: bool,
    /// Whether the entry was its region's first of its page size, which
    /// changes the region's walk-table mask. Page tables set it
    /// (`mehpt_ecpt::Hpt::map`); the hash tables leave it `false`.
    pub cwt_grew: bool,
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

/// One way of an [`ElasticCuckoo`] core: its slots, the old table during
/// an out-of-place resize, and its rehash pointer.
#[derive(Clone, Debug)]
pub struct Way<S> {
    slots: S,
    /// The old table during an out-of-place resize.
    old: Option<S>,
    /// The logical capacity in entries (what occupancy is measured
    /// against).
    len: usize,
    resize: Option<Resize>,
    /// Entries held, in either table.
    occupied: usize,
}

// The small helpers of `Way` are `#[inline]`: the page-table engine's
// probe and insert paths call them from other crates.
impl<S: Slots> Way<S> {
    /// Resolves hash value `h` to `(in_old_table, index)`, honoring the
    /// paper's rehash-pointer rule: keys whose old-table index is at or
    /// above the rehash pointer are still in the live region of the old
    /// table; below it, the key lives in the new table (indexed with one
    /// more or one fewer bit of the same hash value).
    #[inline]
    pub fn locate(&self, h: u64) -> (bool, usize) {
        match &self.resize {
            Some(r) => {
                let old_idx = h as usize & (r.old_len - 1);
                if old_idx >= r.rehash_ptr {
                    (!r.in_place, old_idx)
                } else {
                    (false, h as usize & (self.len - 1))
                }
            }
            None => (false, h as usize & (self.len - 1)),
        }
    }

    /// The current slots, or the old table's during an out-of-place
    /// resize.
    #[inline]
    pub fn slots(&self, in_old: bool) -> &S {
        if in_old {
            self.old
                .as_ref()
                .expect("an old-table slot implies an out-of-place resize")
        } else {
            &self.slots
        }
    }

    /// Mutable [`Way::slots`]; entries may be edited in place, but only
    /// the core adds or removes them.
    #[inline]
    pub fn slots_mut(&mut self, in_old: bool) -> &mut S {
        if in_old {
            self.old
                .as_mut()
                .expect("an old-table slot implies an out-of-place resize")
        } else {
            &mut self.slots
        }
    }

    /// The current slots, then the old table's if a resize holds one.
    pub fn tables(&self) -> impl Iterator<Item = &S> {
        std::iter::once(&self.slots).chain(self.old.as_ref())
    }

    /// The logical capacity in entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Entries held.
    #[inline]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Whether the way is mid-resize.
    #[inline]
    pub fn is_resizing(&self) -> bool {
        self.resize.is_some()
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.slots.bytes() + self.old.as_ref().map_or(0, S::bytes)
    }
}

/// The elastic-cuckoo core: a W-way cuckoo table that resizes gradually,
/// generic over its [`Slots`] store and the [`Alloc`] context its mutating
/// calls pass through. It is the only copy of the algorithm in the
/// workspace: the library's [`ElasticCuckooTable`](crate::ElasticCuckooTable)
/// and the page-table engine (`mehpt_ecpt::HptTable`, for ECPT and ME-HPT)
/// both run on it.
///
/// Per-way rehash pointers split each resizing way into migrated and live
/// regions, and every insert migrates a few entries (Section II-B). The
/// [`Config`] picks
///
/// * **out-of-place** resizing, where old and new storage coexist until
///   the migration completes, or **in-place** resizing, where upsizing
///   grows the storage and consumes one extra hash-key bit so ≈half the
///   migrated entries never move (Section IV-C);
/// * **all-way** sizing, or **per-way** sizing, which grows one way at a
///   time with weighted-random insertion and a 2× balance gate
///   (Section IV-D).
///
/// Lookups always probe exactly W slots; the owners loop over
/// [`ElasticCuckoo::ways`] with [`Way::locate`] themselves.
#[derive(Clone, Debug)]
pub struct ElasticCuckoo<S> {
    ways: Vec<Way<S>>,
    family: HashFamily,
    cfg: Config,
    rng: Xoshiro256,
    len: usize,
    stats: TableStats,
}

impl<S: Slots> ElasticCuckoo<S> {
    /// A core over `ways`, each of `cfg.base.initial_entries_per_way`
    /// empty slots, hashing with a family seeded by `hash_seed` and
    /// choosing ways with an RNG seeded by `rng_seed`.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two ways or a non-power-of-two initial size.
    pub fn new(cfg: Config, ways: Vec<S>, hash_seed: u64, rng_seed: u64) -> ElasticCuckoo<S> {
        let len = cfg.base.initial_entries_per_way;
        assert!(ways.len() >= 2, "cuckoo hashing needs at least 2 ways");
        assert!(len.is_power_of_two(), "way sizes must be powers of two");
        let stats = TableStats {
            max_chunk_bytes: ways.iter().map(S::chunk_bytes).max().unwrap_or(0),
            ..TableStats::default()
        };
        let mut core = ElasticCuckoo {
            family: HashFamily::new(ways.len(), hash_seed),
            rng: Xoshiro256::seed_from_u64(rng_seed),
            ways: ways
                .into_iter()
                .map(|slots| Way {
                    slots,
                    old: None,
                    len,
                    resize: None,
                    occupied: 0,
                })
                .collect(),
            cfg,
            len: 0,
            stats,
        };
        core.note_bytes();
        core
    }

    /// The ways.
    #[inline]
    pub fn ways(&self) -> &[Way<S>] {
        &self.ways
    }

    /// The ways, for editing entries in place.
    #[inline]
    pub fn ways_mut(&mut self) -> &mut [Way<S>] {
        &mut self.ways
    }

    /// The per-way hash functions.
    #[inline]
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// The entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical capacity in entries across ways.
    pub fn capacity(&self) -> usize {
        self.ways.iter().map(|w| w.len).sum()
    }

    /// Memory held by every way's storage (both tables during an
    /// out-of-place resize).
    pub fn memory_bytes(&self) -> u64 {
        self.ways.iter().map(Way::bytes).sum()
    }

    /// Whether any way is mid-resize.
    pub fn is_resizing(&self) -> bool {
        self.ways.iter().any(Way::is_resizing)
    }

    /// Collected statistics.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Inserts an entry whose key is absent: resize bookkeeping first, then
    /// a migration step on behalf of in-flight resizes ("the OS uses the
    /// opportunity to rehash"), then cuckoo placement from a chosen way.
    ///
    /// # Errors
    ///
    /// Fails when a resize needs storage `alloc` cannot provide. A failed
    /// threshold resize stores nothing. A failed forced upsize comes after
    /// the entry was placed, so the entry is stored and counted, and so is
    /// every entry stored before.
    pub fn insert<A: Alloc<S>>(
        &mut self,
        entry: S::Entry,
        alloc: &mut A,
    ) -> Result<InsertReport, A::Error> {
        let started_resize = self.maybe_resize(alloc)?;
        let migrated = self.migration_step(alloc);
        let way = self.choose_insert_way();
        let placed = self.place(way, entry, alloc);
        // `place` stores the entry even when it fails.
        self.len += 1;
        let kicks = placed?;
        self.stats.record_kicks(kicks);
        // Storage bytes change only where a resize starts, completes or
        // switches chunks, and each of those records them.
        Ok(InsertReport {
            kicks: kicks as u32,
            migrated,
            started_resize,
            added: true,
            cwt_grew: false,
        })
    }

    /// The `(way, in_old_table, index)` of the slot holding `key`, probing
    /// each way once; `hit(slots, index)` tells whether a slot holds it.
    pub fn find<Q: Hash + ?Sized>(
        &self,
        key: &Q,
        hit: impl Fn(&S, usize) -> bool,
    ) -> Option<(usize, bool, usize)> {
        self.ways.iter().enumerate().find_map(|(w, way)| {
            let (in_old, idx) = way.locate(self.family.hash(w, key));
            hit(way.slots(in_old), idx).then_some((w, in_old, idx))
        })
    }

    /// Takes the entry out of slot `idx` of way `way` (of its old table if
    /// `in_old`), as [`Way::locate`] resolved it.
    pub fn vacate(&mut self, way: usize, in_old: bool, idx: usize) -> Option<S::Entry> {
        let entry = self.ways[way].slots_mut(in_old).take(idx)?;
        self.ways[way].occupied -= 1;
        self.len -= 1;
        Some(entry)
    }

    /// The bookkeeping after a removal: the threshold checks, then a
    /// migration step. A resize that cannot allocate is not started; the
    /// next insert's threshold check retries it.
    pub fn after_remove<A: Alloc<S>>(&mut self, alloc: &mut A) {
        let _deferred = self.maybe_resize(alloc);
        self.migration_step(alloc);
    }

    /// Completes every in-flight resize now.
    pub fn finish_all_resizes<A: Alloc<S>>(&mut self, alloc: &mut A) {
        for w in 0..self.ways.len() {
            while self.ways[w].is_resizing() {
                self.migrate_one(w, alloc);
            }
        }
    }

    /// Returns every way's storage to `alloc`.
    pub fn release<A: Alloc<S>>(self, alloc: &mut A) {
        for (w, way) in self.ways.into_iter().enumerate() {
            alloc.release(w, way.slots);
            if let Some(old) = way.old {
                alloc.release(w, old);
            }
        }
    }

    /// Checks structural invariants; test helper.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let counted: usize = self.ways.iter().map(|w| w.occupied).sum();
        assert_eq!(counted, self.len, "per-way occupancy does not sum to len");
        for way in &self.ways {
            assert!(way.len.is_power_of_two());
            let held: usize = way
                .tables()
                .map(|s| (0..s.slot_count()).filter(|&i| !s.is_free(i)).count())
                .sum();
            assert_eq!(held, way.occupied, "stored entries do not match occupancy");
            if let Some(r) = &way.resize {
                assert!(r.rehash_ptr <= r.old_len);
            } else {
                assert!(way.old.is_none());
                assert_eq!(way.slots.slot_count(), way.len);
            }
        }
    }

    fn note_bytes(&mut self) {
        let bytes = self.memory_bytes();
        self.stats.peak_bytes = self.stats.peak_bytes.max(bytes);
    }

    /// A uniformly random way different from `not`.
    fn other_way(&mut self, not: usize) -> usize {
        let pick = self.rng.next_index(self.ways.len() - 1);
        if pick >= not {
            pick + 1
        } else {
            pick
        }
    }

    fn min_len(&self) -> usize {
        self.ways
            .iter()
            .map(|w| w.len)
            .min()
            .expect("a table has ways")
    }

    /// Weighted random insertion (Section IV-D) under per-way sizing:
    /// weight i is the way's free-slot count, forced to zero when the way
    /// is already larger than another way and at its upsize threshold.
    /// Uniform otherwise.
    fn choose_insert_way(&mut self) -> usize {
        if self.cfg.sizing == WaySizing::AllWay {
            return self.rng.next_index(self.ways.len());
        }
        let min_len = self.min_len();
        let up = self.cfg.base.upsize_threshold;
        let weight = |w: &Way<S>| {
            let free = w.len.saturating_sub(w.occupied) as u64;
            let at_threshold = w.occupied as f64 >= up * w.len as f64;
            if w.len > min_len && at_threshold {
                0
            } else {
                free
            }
        };
        let total: u64 = self.ways.iter().map(weight).sum();
        if total == 0 {
            return self.rng.next_index(self.ways.len());
        }
        let mut r = self.rng.next_below(total);
        for (i, w) in self.ways.iter().map(weight).enumerate() {
            if r < w {
                return i;
            }
            r -= w;
        }
        unreachable!("weighted choice must land in a bucket")
    }

    /// Places an entry starting at `way`, cuckoo-kicking occupants into a
    /// different way; returns the kicks. At every `max_kicks` kicks it
    /// drains the in-flight resizes and forces an upsize so the pending
    /// entry can land: of the fullest smallest way under per-way sizing, of
    /// every way otherwise. If that upsize fails, the entry it holds, the
    /// new one or an evicted one, is placed without allocating before the
    /// error returns, so every entry stays stored.
    fn place<A: Alloc<S>>(
        &mut self,
        way: usize,
        entry: S::Entry,
        alloc: &mut A,
    ) -> Result<usize, A::Error> {
        let mut way = way;
        let mut entry = entry;
        let mut kicks = 0usize;
        loop {
            let h = S::hash(&self.family, way, &entry);
            let (in_old, idx) = self.ways[way].locate(h);
            let Some(evicted) = self.ways[way].slots_mut(in_old).replace(idx, entry) else {
                self.ways[way].occupied += 1;
                return Ok(kicks);
            };
            entry = evicted;
            kicks += 1;
            if kicks.is_multiple_of(self.cfg.base.max_kicks) {
                self.finish_all_resizes(alloc);
                let upsized = if self.cfg.sizing == WaySizing::PerWay {
                    let w = self.fullest_smallest_way();
                    self.start_resize(w, ResizeKind::Upsize, alloc)
                } else {
                    self.resize_all(ResizeKind::Upsize, alloc)
                };
                if let Err(e) = upsized {
                    let way = self.other_way(way);
                    self.place_infallible(way, entry);
                    return Err(e);
                }
            }
            way = self.other_way(way);
        }
    }

    /// Like `place`, but for entries displaced while migrating or
    /// rehoming: it never allocates.
    fn place_infallible(&mut self, way: usize, entry: S::Entry) -> usize {
        let mut way = way;
        let mut entry = entry;
        let mut kicks = 0usize;
        loop {
            let h = S::hash(&self.family, way, &entry);
            let (in_old, idx) = self.ways[way].locate(h);
            let Some(evicted) = self.ways[way].slots_mut(in_old).replace(idx, entry) else {
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
        let min_len = self.min_len();
        (0..self.ways.len())
            .filter(|&w| self.ways[w].len == min_len)
            .max_by_key(|&w| self.ways[w].occupied)
            .expect("some way has the smallest size")
    }

    /// Threshold checks; returns whether a resize started. Downsize
    /// failures are deferred, not fatal.
    fn maybe_resize<A: Alloc<S>>(&mut self, alloc: &mut A) -> Result<bool, A::Error> {
        if self.is_resizing() {
            return Ok(false);
        }
        let base = &self.cfg.base;
        let (up, down, min_len) = (
            base.upsize_threshold,
            base.downsize_threshold,
            base.initial_entries_per_way,
        );
        if self.cfg.sizing == WaySizing::PerWay {
            // One way at a time, and never one already larger than another
            // (upsize) or smaller than another (downsize): Section IV-D's
            // balance gate.
            let smallest = self.min_len();
            let largest = self
                .ways
                .iter()
                .map(|w| w.len)
                .max()
                .expect("a table has ways");
            for w in 0..self.ways.len() {
                let way = &self.ways[w];
                let len = way.len;
                if way.occupied as f64 >= up * len as f64 && len <= smallest {
                    self.start_resize(w, ResizeKind::Upsize, alloc)?;
                    return Ok(true);
                }
                if (way.occupied as f64) < down * len as f64 && len >= largest && len > min_len {
                    let started = self.start_resize(w, ResizeKind::Downsize, alloc);
                    return Ok(started.is_ok());
                }
            }
            Ok(false)
        } else {
            let cap = self.capacity() as f64;
            if (self.len + 1) as f64 > up * cap {
                self.resize_all(ResizeKind::Upsize, alloc)?;
                return Ok(true);
            }
            if (self.len as f64) < down * cap && self.ways[0].len > min_len {
                let started = self.resize_all(ResizeKind::Downsize, alloc);
                return Ok(started.is_ok());
            }
            Ok(false)
        }
    }

    /// Starts a resize of every way. If one fails, the ways already started
    /// keep resizing.
    fn resize_all<A: Alloc<S>>(&mut self, kind: ResizeKind, alloc: &mut A) -> Result<(), A::Error> {
        for w in 0..self.ways.len() {
            self.start_resize(w, kind, alloc)?;
        }
        Ok(())
    }

    /// Starts a resize of way `w`: in place, out of place, or — when the
    /// context has no room for the storage — a chunk-size switch.
    fn start_resize<A: Alloc<S>>(
        &mut self,
        w: usize,
        kind: ResizeKind,
        alloc: &mut A,
    ) -> Result<(), A::Error> {
        debug_assert!(!self.ways[w].is_resizing());
        let old_len = self.ways[w].len;
        let new_len = match kind {
            ResizeKind::Upsize => old_len * 2,
            ResizeKind::Downsize => old_len / 2,
        };
        let in_place = self.cfg.resize_mode == ResizeMode::InPlace;
        if in_place {
            // The old table becomes the lower half of the new one. A
            // downsize allocates nothing: the storage shrinks once the
            // migration completes.
            if kind == ResizeKind::Upsize && !alloc.grow(w, &mut self.ways[w].slots, new_len)? {
                // Section IV-B: "by construction, out-of-place".
                return self.chunk_switch(w, new_len, alloc);
            }
        } else {
            let Some(slots) = alloc.resized(w, &self.ways[w].slots, new_len)? else {
                return self.chunk_switch(w, new_len, alloc);
            };
            let way = &mut self.ways[w];
            way.old = Some(mem::replace(&mut way.slots, slots));
        }
        let way = &mut self.ways[w];
        way.len = new_len;
        way.resize = Some(Resize {
            old_len,
            rehash_ptr: 0,
            kind,
            in_place,
            moved: 0,
            kept: 0,
        });
        let chunk_bytes = way.slots.chunk_bytes();
        self.stats.max_chunk_bytes = self.stats.max_chunk_bytes.max(chunk_bytes);
        self.note_bytes();
        Ok(())
    }

    /// Synchronously rehomes way `w` into storage of a larger chunk size
    /// (Figure 3d → 3e) and rehashes every entry. The paper observes at
    /// most one of these per run.
    fn chunk_switch<A: Alloc<S>>(
        &mut self,
        w: usize,
        new_len: usize,
        alloc: &mut A,
    ) -> Result<(), A::Error> {
        let old_len = self.ways[w].len;
        let entries = alloc.switch(w, &mut self.ways[w].slots, new_len)?;
        let way = &mut self.ways[w];
        way.len = new_len;
        way.occupied = 0;
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
        let chunk_bytes = self.ways[w].slots.chunk_bytes();
        self.stats.max_chunk_bytes = self.stats.max_chunk_bytes.max(chunk_bytes);
        self.note_bytes();
        Ok(())
    }

    /// Advances all in-flight migrations by the per-insert quota; returns
    /// entries migrated.
    fn migration_step<A: Alloc<S>>(&mut self, alloc: &mut A) -> u32 {
        let mut migrated = 0;
        for w in 0..self.ways.len() {
            for _ in 0..self.cfg.base.migrate_per_insert {
                if !self.ways[w].is_resizing() {
                    break;
                }
                migrated += self.migrate_one(w, alloc);
            }
        }
        migrated
    }

    /// Migrates the entry under way `w`'s rehash pointer (Section IV-C's
    /// detailed rehash algorithm), finishing the resize once the pointer
    /// passes the old table's end. Returns 1 if an entry was processed.
    fn migrate_one<A: Alloc<S>>(&mut self, w: usize, alloc: &mut A) -> u32 {
        let way = &mut self.ways[w];
        let r = way.resize.as_mut().expect("resize must be active");
        if r.rehash_ptr >= r.old_len {
            self.complete_resize(w, alloc);
            return 0;
        }
        let idx = r.rehash_ptr;
        r.rehash_ptr += 1;
        let in_place = r.in_place;
        let Some(entry) = way.slots_mut(!in_place).take(idx) else {
            return 0;
        };
        self.stats.entries_migrated += 1;
        // Rehash with the same function and one more (or one fewer) bit of
        // the hash key: in place, the entry stays or moves to the same
        // offset in the other half (Figure 5).
        let h = S::hash(&self.family, w, &entry);
        let way = &mut self.ways[w];
        let new_idx = h as usize & (way.len - 1);
        let r = way.resize.as_mut().expect("resize must be active");
        if in_place && new_idx == idx {
            r.kept += 1;
        } else {
            r.moved += 1;
        }
        // The entry stays in way `w`. On a conflict (an entry inserted
        // during the resize or, in a downsize, a not-yet-migrated one) it
        // displaces the occupant, which is cuckooed into a different way
        // (Section IV-C).
        match way.slots.replace(new_idx, entry) {
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
    fn complete_resize<A: Alloc<S>>(&mut self, w: usize, alloc: &mut A) {
        let way = &mut self.ways[w];
        let r = way.resize.take().expect("resize must be active");
        if let Some(old) = way.old.take() {
            debug_assert!((0..old.slot_count()).all(|i| old.is_free(i)));
            alloc.release(w, old);
        } else if r.kind == ResizeKind::Downsize {
            debug_assert!(
                (way.len..way.slots.slot_count()).all(|i| way.slots.is_free(i)),
                "upper half must be empty after downsize migration"
            );
            alloc.shrink(w, &mut way.slots, way.len);
        }
        self.stats.resizes.push(ResizeEvent {
            way: w,
            kind: r.kind,
            from_entries: r.old_len,
            to_entries: self.ways[w].len,
            moved: r.moved,
            kept: r.kept,
        });
        self.note_bytes();
    }
}
