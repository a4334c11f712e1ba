use std::mem;

use mehpt_hash::{HashFamily, ResizeEvent, ResizeKind};
use mehpt_mem::{AllocError, AllocTag, Chunk, PhysMem};
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PhysAddr, Ppn, Vpn};

use crate::entry::ClusterEntry;

/// Configuration of one per-page-size ECPT table.
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
}

/// One cuckoo way backed by a single contiguous physical-memory chunk.
#[derive(Debug)]
struct WayArray {
    slots: Vec<Option<ClusterEntry>>,
    chunk: Chunk,
}

impl WayArray {
    fn new(entries: usize, mem: &mut PhysMem) -> Result<WayArray, AllocError> {
        let chunk = mem.alloc(entries as u64 * ClusterEntry::BYTES, AllocTag::PageTable)?;
        Ok(WayArray {
            slots: (0..entries).map(|_| None).collect(),
            chunk,
        })
    }

    fn addr(&self, idx: usize) -> PhysAddr {
        self.chunk.addr(idx as u64 * ClusterEntry::BYTES)
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

#[derive(Debug)]
struct Way {
    cur: WayArray,
    /// `(old array, rehash pointer, kind, moved)` during a resize.
    old: Option<(WayArray, usize, ResizeKind, u64)>,
    occupied: usize,
}

impl Way {
    fn is_resizing(&self) -> bool {
        self.old.is_some()
    }

    /// Resolves a hash value to `(in_old_table, index)`.
    fn locate(&self, h: u64) -> (bool, usize) {
        match &self.old {
            Some((old, ptr, _, _)) => {
                let old_idx = h as usize & (old.len() - 1);
                if old_idx >= *ptr {
                    (true, old_idx)
                } else {
                    (false, h as usize & (self.cur.len() - 1))
                }
            }
            None => (false, h as usize & (self.cur.len() - 1)),
        }
    }

    fn slot_mut(&mut self, in_old: bool, idx: usize) -> &mut Option<ClusterEntry> {
        if in_old {
            &mut self.old.as_mut().unwrap().0.slots[idx]
        } else {
            &mut self.cur.slots[idx]
        }
    }

    fn slot(&self, in_old: bool, idx: usize) -> &Option<ClusterEntry> {
        if in_old {
            &self.old.as_ref().unwrap().0.slots[idx]
        } else {
            &self.cur.slots[idx]
        }
    }

    fn addr(&self, in_old: bool, idx: usize) -> PhysAddr {
        if in_old {
            self.old.as_ref().unwrap().0.addr(idx)
        } else {
            self.cur.addr(idx)
        }
    }

    fn bytes(&self) -> u64 {
        self.cur.chunk.bytes()
            + self
                .old
                .as_ref()
                .map(|(o, _, _, _)| o.chunk.bytes())
                .unwrap_or(0)
    }
}

/// Statistics of one [`EcptTable`].
#[derive(Clone, Debug, Default)]
pub(crate) struct EcptStats {
    pub resizes: Vec<ResizeEvent>,
    pub kicks_histogram: Vec<u64>,
    pub entries_migrated: u64,
    pub peak_bytes: u64,
}

impl EcptStats {
    fn record_kicks(&mut self, kicks: usize) {
        if self.kicks_histogram.len() <= kicks {
            self.kicks_histogram.resize(kicks + 1, 0);
        }
        self.kicks_histogram[kicks] += 1;
    }
}

/// The elastic cuckoo page table for one page size (ECPT baseline).
///
/// A W-way cuckoo table of [`ClusterEntry`]s. Each way occupies **one
/// contiguous chunk** of physical memory allocated from [`PhysMem`] — the
/// design whose contiguity requirement (up to 64MB per way, Table I)
/// motivates the paper. Resizing is gradual and **out of place**: new
/// chunks are allocated at double (half) the size, per-way rehash pointers
/// split the old ways into migrated/live regions, and old chunks are freed
/// once migration completes. An upsize *fails* if physical memory cannot
/// supply the contiguous chunks — exactly how ECPT dies on a highly
/// fragmented machine in the paper's experiments.
#[derive(Debug)]
pub struct EcptTable {
    ways: Vec<Way>,
    family: HashFamily,
    cfg: EcptConfig,
    rng: Xoshiro256,
    clusters: usize,
    pages: u64,
    stats: EcptStats,
}

impl EcptTable {
    /// Creates a table with the default (Table III) configuration.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure of the initial 8KB ways.
    pub fn new(mem: &mut PhysMem) -> Result<EcptTable, AllocError> {
        EcptTable::with_config(EcptConfig::default(), mem)
    }

    /// Creates a table from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure of the initial ways.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (fewer than two
    /// ways or a non-power-of-two initial size).
    pub fn with_config(cfg: EcptConfig, mem: &mut PhysMem) -> Result<EcptTable, AllocError> {
        assert!(cfg.ways >= 2, "cuckoo hashing needs at least 2 ways");
        assert!(
            cfg.initial_entries_per_way.is_power_of_two(),
            "way sizes must be powers of two"
        );
        let mut ways = Vec::with_capacity(cfg.ways);
        for _ in 0..cfg.ways {
            match WayArray::new(cfg.initial_entries_per_way, mem) {
                Ok(w) => ways.push(Way {
                    cur: w,
                    old: None,
                    occupied: 0,
                }),
                Err(e) => {
                    for w in ways {
                        mem.free(w.cur.chunk);
                    }
                    return Err(e);
                }
            }
        }
        let family = HashFamily::new(cfg.ways, cfg.seed);
        let rng = Xoshiro256::seed_from_u64(cfg.seed ^ 0xdead_10cc);
        Ok(EcptTable {
            ways,
            family,
            cfg,
            rng,
            clusters: 0,
            pages: 0,
            stats: EcptStats::default(),
        })
    }

    /// The number of valid translations (pages) stored.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The number of occupied cluster entries.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Logical capacity in cluster entries (sum of current way sizes).
    pub fn capacity(&self) -> usize {
        self.ways.iter().map(|w| w.cur.len()).sum()
    }

    /// Bytes held per way (current + old during a resize).
    pub fn way_bytes(&self) -> Vec<u64> {
        self.ways.iter().map(Way::bytes).collect()
    }

    /// The size of each way's *current* table in bytes.
    pub fn way_sizes(&self) -> Vec<u64> {
        self.ways.iter().map(|w| w.cur.chunk.bytes()).collect()
    }

    /// Total bytes of physical memory held by the table right now.
    pub fn memory_bytes(&self) -> u64 {
        self.ways.iter().map(Way::bytes).sum()
    }

    /// High-water mark of [`EcptTable::memory_bytes`].
    pub fn peak_bytes(&self) -> u64 {
        self.stats.peak_bytes
    }

    /// Whether any way has a resize in flight.
    pub fn is_resizing(&self) -> bool {
        self.ways.iter().any(Way::is_resizing)
    }

    /// Completed resize events.
    pub fn resizes(&self) -> &[ResizeEvent] {
        &self.stats.resizes
    }

    /// Histogram of cuckoo re-insertions per insert or rehash (Figure 16).
    pub fn kicks_histogram(&self) -> &[u64] {
        &self.stats.kicks_histogram
    }

    /// Entries migrated by gradual resizing so far.
    pub fn entries_migrated(&self) -> u64 {
        self.stats.entries_migrated
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
    /// slot's physical address onto `out` (W addresses, honoring the rehash
    /// pointers — Section II-B: "a lookup operation during resizing only
    /// needs W probes") and returns the translation if a slot's tag
    /// matches. Returns what [`EcptTable::lookup`] returns.
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
    /// Fails only when a resize is needed and physical memory cannot
    /// provide the new contiguous ways — the paper's failure mode for ECPT
    /// on fragmented machines. The table is left consistent (the insert
    /// itself is rolled back).
    pub fn insert(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        mem: &mut PhysMem,
    ) -> Result<InsertReport, AllocError> {
        let mut report = InsertReport::default();
        let tag = ClusterEntry::tag_of(vpn);
        // Update in place if the cluster already exists.
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
        // A new cluster is needed: resize bookkeeping first.
        report.started_resize = self.maybe_resize(mem)?;
        report.migrated = self.migration_step(mem);
        let way = self.rng.next_index(self.ways.len());
        let mut cluster = ClusterEntry::new(tag);
        cluster.set(vpn, ppn);
        report.kicks = self.place(way, cluster, mem)? as u32;
        self.clusters += 1;
        self.pages += 1;
        self.stats.record_kicks(report.kicks as usize);
        self.note_bytes();
        Ok(report)
    }

    /// Removes the translation for `vpn`, returning it.
    ///
    /// Empty clusters are deleted; a downsize may be triggered (and is
    /// skipped silently if its allocation fails — the OS retries later).
    pub fn remove(&mut self, vpn: Vpn, mem: &mut PhysMem) -> Option<Ppn> {
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
                    let _ = self.maybe_resize(mem);
                    self.migration_step(mem);
                    return Some(ppn);
                }
            }
        }
        None
    }

    /// Releases all physical memory held by the table.
    pub fn destroy(mut self, mem: &mut PhysMem) {
        for way in self.ways.drain(..) {
            mem.free(way.cur.chunk);
            if let Some((old, _, _, _)) = way.old {
                mem.free(old.chunk);
            }
        }
    }

    // ---- internals ----

    fn note_bytes(&mut self) {
        let bytes = self.memory_bytes();
        self.stats.peak_bytes = self.stats.peak_bytes.max(bytes);
    }

    /// Places a cluster starting at `way`, cuckoo-kicking occupants.
    fn place(
        &mut self,
        way: usize,
        cluster: ClusterEntry,
        mem: &mut PhysMem,
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
                        // Pressure valve: force an upsize so the pending
                        // entry can land.
                        self.finish_all_resizes(mem);
                        self.start_resize(ResizeKind::Upsize, mem)?;
                    }
                    way = self.other_way(way);
                }
            }
        }
    }

    fn other_way(&mut self, not: usize) -> usize {
        let pick = self.rng.next_index(self.ways.len() - 1);
        if pick >= not {
            pick + 1
        } else {
            pick
        }
    }

    /// Checks thresholds; returns whether a resize started.
    fn maybe_resize(&mut self, mem: &mut PhysMem) -> Result<bool, AllocError> {
        if self.is_resizing() {
            return Ok(false);
        }
        let cap = self.capacity();
        if (self.clusters + 1) as f64 > self.cfg.upsize_threshold * cap as f64 {
            self.start_resize(ResizeKind::Upsize, mem)?;
            return Ok(true);
        }
        if (self.clusters as f64) < self.cfg.downsize_threshold * cap as f64
            && self.ways[0].cur.len() > self.cfg.initial_entries_per_way
        {
            self.start_resize(ResizeKind::Downsize, mem)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Starts an all-way out-of-place resize: allocates every new way
    /// first (rolling back on failure), then swaps them in.
    fn start_resize(&mut self, kind: ResizeKind, mem: &mut PhysMem) -> Result<(), AllocError> {
        debug_assert!(!self.is_resizing());
        let mut new_arrays = Vec::with_capacity(self.ways.len());
        for way in &self.ways {
            let new_len = match kind {
                ResizeKind::Upsize => way.cur.len() * 2,
                ResizeKind::Downsize => way.cur.len() / 2,
            };
            match WayArray::new(new_len, mem) {
                Ok(a) => new_arrays.push(a),
                Err(e) => {
                    for a in new_arrays {
                        mem.free(a.chunk);
                    }
                    return Err(e);
                }
            }
        }
        for (way, new_array) in self.ways.iter_mut().zip(new_arrays) {
            let old = mem::replace(&mut way.cur, new_array);
            way.old = Some((old, 0, kind, 0));
        }
        self.note_bytes();
        Ok(())
    }

    /// Advances all in-flight migrations by the per-insert quota; returns
    /// entries migrated.
    fn migration_step(&mut self, mem: &mut PhysMem) -> u32 {
        let mut migrated = 0;
        for w in 0..self.ways.len() {
            for _ in 0..self.cfg.migrate_per_insert {
                if !self.ways[w].is_resizing() {
                    break;
                }
                migrated += self.migrate_one(w, mem);
            }
        }
        migrated
    }

    fn finish_all_resizes(&mut self, mem: &mut PhysMem) {
        for w in 0..self.ways.len() {
            while self.ways[w].is_resizing() {
                self.migrate_one(w, mem);
            }
        }
    }

    /// Migrates the entry under way `w`'s rehash pointer. Returns 1 if an
    /// entry actually moved.
    fn migrate_one(&mut self, w: usize, mem: &mut PhysMem) -> u32 {
        // Collect state and, if migration is done, complete the resize.
        let (idx, done) = {
            let (old, ptr, _, _) = self.ways[w].old.as_mut().unwrap();
            if *ptr >= old.len() {
                (0, true)
            } else {
                let i = *ptr;
                *ptr += 1;
                (i, false)
            }
        };
        if done {
            self.complete_resize(w, mem);
            return 0;
        }
        let taken = self.ways[w].old.as_mut().unwrap().0.slots[idx].take();
        let Some(cluster) = taken else {
            return 0;
        };
        self.ways[w].old.as_mut().unwrap().3 += 1;
        self.stats.entries_migrated += 1;
        self.ways[w].occupied -= 1;
        // Insert into the new table of the same way.
        let h = self.family.hash(w, &cluster.tag());
        let new_idx = h as usize & (self.ways[w].cur.len() - 1);
        let dst = &mut self.ways[w].cur.slots[new_idx];
        match dst {
            None => {
                *dst = Some(cluster);
                self.ways[w].occupied += 1;
                self.stats.record_kicks(0);
            }
            Some(_) => {
                let victim = mem::replace(dst, Some(cluster)).unwrap();
                self.ways[w].occupied += 1;
                let other = self.other_way(w);
                let kicks = self.place_infallible(other, victim);
                self.stats.record_kicks(kicks + 1);
            }
        }
        1
    }

    /// Like `place`, but for displaced victims during migration: if the
    /// kick budget is exceeded it drains the active resize (guaranteed to
    /// open space) rather than allocating.
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
                    assert!(
                        kicks < 10_000,
                        "victim placement diverged; table pathologically full"
                    );
                }
            }
        }
    }

    /// Finalizes a way's migration: frees the old chunk, records the event.
    fn complete_resize(&mut self, w: usize, mem: &mut PhysMem) {
        let (old, _, kind, moved) = self.ways[w].old.take().unwrap();
        debug_assert!(old.slots.iter().all(Option::is_none));
        let event = ResizeEvent {
            way: w,
            kind,
            from_entries: old.len(),
            to_entries: self.ways[w].cur.len(),
            moved,
            kept: 0, // out-of-place migration always moves
        };
        self.stats.resizes.push(event);
        mem.free(old.chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_mem::AllocCostModel;
    use mehpt_types::GIB;

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
    fn reference_probe(t: &EcptTable, vpn: Vpn) -> Vec<PhysAddr> {
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
        let mut mem = PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost());
        let mut t = EcptTable::new(&mut mem).unwrap();
        let mut out = Vec::new();
        let mut mid_resize_checks = 0;
        for i in 0..20_000u64 {
            t.insert(Vpn(i * 8 + i % 3), Ppn(i), &mut mem).unwrap();
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
        assert!(
            t.resizes().len() >= 6,
            "too few resizes: {}",
            t.resizes().len()
        );
    }
}
