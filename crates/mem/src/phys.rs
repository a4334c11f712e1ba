use mehpt_types::PhysAddr;

use crate::buddy::MAX_ORDER;
use crate::{order_of, AllocCostModel, AllocError, BuddyAllocator, MemStats, FRAME_BYTES};

/// The buddy order the scalar FMFI metric is measured at (order 9 = 2MB).
///
/// This matches how the fragmentation literature (and Linux's extfrag index)
/// report "the" fragmentation of a machine: with respect to huge-page-sized
/// allocations. The paper's "0.7 FMFI" setting is interpreted at this order.
pub const FMFI_REF_ORDER: u8 = 9;

/// Why an allocation was made; used for statistics and compaction decisions.
///
/// Compaction may relocate `PinnedMovable` ballast and `Data` pages (like
/// Linux's movable migrate type); relocated data pages are reported through
/// [`PhysMem::take_relocations`] so the owning OS can rewrite translations.
/// Page tables and unmovable pins are never moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllocTag {
    /// Page-table structures (radix nodes, HPT ways, ME-HPT chunks).
    PageTable,
    /// Application data pages mapped by the simulated OS.
    Data,
    /// Fragmenter ballast that the OS could migrate during compaction.
    PinnedMovable,
    /// Fragmenter ballast that is pinned for good (e.g. DMA buffers).
    PinnedUnmovable,
}

impl AllocTag {
    /// Number of distinct tags.
    pub const COUNT: usize = 4;

    /// Every tag, in [`AllocTag::index`] order.
    pub(crate) const ALL: [AllocTag; AllocTag::COUNT] = [
        AllocTag::PageTable,
        AllocTag::Data,
        AllocTag::PinnedMovable,
        AllocTag::PinnedUnmovable,
    ];

    /// Dense index for per-tag arrays.
    pub fn index(self) -> usize {
        match self {
            AllocTag::PageTable => 0,
            AllocTag::Data => 1,
            AllocTag::PinnedMovable => 2,
            AllocTag::PinnedUnmovable => 3,
        }
    }

    fn is_movable(self) -> bool {
        // Data pages are movable like Linux's MIGRATE_MOVABLE allocations:
        // compaction may relocate them, and the owner (the simulated OS)
        // must then rewrite the affected translations — see
        // [`PhysMem::take_relocations`].
        matches!(self, AllocTag::PinnedMovable | AllocTag::Data)
    }
}

/// A contiguous physical-memory allocation.
///
/// Returned by [`PhysMem::alloc`]; pass it back to [`PhysMem::free`] to
/// release it. The base address is always aligned to the chunk size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Chunk {
    pub(crate) base: PhysAddr,
    pub(crate) bytes: u64,
    pub(crate) tag: AllocTag,
}

impl Chunk {
    /// The base physical address (aligned to [`Chunk::bytes`]).
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// The size in bytes (a power of two ≥ 4KB).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The tag the chunk was allocated under.
    pub fn tag(&self) -> AllocTag {
        self.tag
    }
}

/// The machine's physical memory: a buddy allocator plus cost accounting,
/// compaction, and fragmentation measurement.
///
/// All sizes are powers of two between 4KB and 256MB. Allocation charges
/// cycles according to the [`AllocCostModel`] at the current fragmentation
/// level; the accumulated cycles (readable through [`PhysMem::stats`]) are
/// what the simulator bills to the OS.
///
/// # Examples
///
/// ```
/// use mehpt_mem::{AllocTag, PhysMem};
/// use mehpt_types::MIB;
///
/// let mut mem = PhysMem::new(256 * MIB);
/// let way = mem.alloc(8 * MIB, AllocTag::PageTable)?;
/// assert!(way.base().0 % (8 * MIB) == 0);
/// assert_eq!(mem.stats().tag(AllocTag::PageTable).max_contiguous_bytes, 8 * MIB);
/// # Ok::<(), mehpt_mem::AllocError>(())
/// ```
#[derive(Clone, Debug)]
pub struct PhysMem {
    /// The frames, and the tag of every live chunk.
    buddy: BuddyAllocator,
    cost: AllocCostModel,
    stats: MemStats,
    /// Rotating start window for compaction scans, so repeated compactions
    /// do not rescan the same prefix.
    compact_cursor: u64,
    /// Frames moved by compaction since the last
    /// [`PhysMem::take_relocations`] call: `(old_frame, new_frame, tag)`.
    relocations: Vec<(u64, u64, AllocTag)>,
}

impl PhysMem {
    /// Creates `total_bytes` of physical memory with the paper-calibrated
    /// allocation cost model.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is smaller than one 4KB frame.
    pub fn new(total_bytes: u64) -> PhysMem {
        PhysMem::with_cost_model(total_bytes, AllocCostModel::paper_calibrated())
    }

    /// Creates physical memory with a custom cost model (e.g.
    /// [`AllocCostModel::zero_cost`] for functional tests).
    pub fn with_cost_model(total_bytes: u64, cost: AllocCostModel) -> PhysMem {
        PhysMem {
            buddy: BuddyAllocator::new(total_bytes / FRAME_BYTES),
            cost,
            stats: MemStats::default(),
            compact_cursor: 0,
            relocations: Vec::new(),
        }
    }

    /// The total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.buddy.total_frames() * FRAME_BYTES
    }

    /// Currently free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.buddy.free_frames() * FRAME_BYTES
    }

    /// The FMFI fragmentation index for allocations of `bytes`.
    ///
    /// See [`BuddyAllocator::fmfi`]; 0 = perfectly defragmented, 1 = no
    /// block of that size exists.
    pub fn fmfi_for(&self, bytes: u64) -> f64 {
        self.buddy.fmfi(order_of(bytes))
    }

    /// The machine's scalar FMFI, measured at the 2MB reference order.
    pub fn fmfi(&self) -> f64 {
        self.buddy.fmfi(FMFI_REF_ORDER)
    }

    /// Allocation statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Read-only access to the underlying buddy allocator.
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// Allocates and zeroes `bytes` of contiguous physical memory.
    ///
    /// On fragmentation, first tries the buddy allocator directly, then
    /// attempts compaction (relocating movable pinned pages out of a
    /// suitable window). The cycle cost — from the calibrated model at the
    /// current fragmentation level — is added to [`PhysMem::stats`].
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] if fewer than `bytes` are free in total;
    /// [`AllocError::TooFragmented`] if memory is sufficient but no
    /// contiguous block can be found or created.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two in `[4KB, 256MB]`.
    pub fn alloc(&mut self, bytes: u64, tag: AllocTag) -> Result<Chunk, AllocError> {
        let order = order_of(bytes);
        assert!(
            order <= MAX_ORDER,
            "allocation of {bytes} bytes exceeds max order"
        );
        // Only page-table chunks are priced by the fragmentation, as it
        // stands before the allocation.
        let fmfi_now = if tag == AllocTag::PageTable {
            self.fmfi()
        } else {
            0.0
        };
        let frame = match self.buddy.alloc(order, tag) {
            Some(f) => Some(f),
            None => self.compact_for(order, tag),
        };
        let Some(frame) = frame else {
            self.stats.failed_allocs += 1;
            return Err(if self.buddy.free_frames() < (1 << order) {
                AllocError::OutOfMemory { requested: bytes }
            } else {
                AllocError::TooFragmented {
                    requested: bytes,
                    fmfi: self.buddy.fmfi(order),
                }
            });
        };
        // Page-table chunks pay the paper's fragmentation-calibrated cost;
        // data pages (and fragmenter ballast) pay only entry + zeroing.
        let cycles = match tag {
            AllocTag::PageTable => self.cost.cycles(bytes, fmfi_now),
            AllocTag::Data => self.cost.data_cycles(bytes),
            AllocTag::PinnedMovable | AllocTag::PinnedUnmovable => 0,
        };
        self.stats.record_alloc(tag, bytes, cycles);
        Ok(Chunk {
            base: PhysAddr(frame * FRAME_BYTES),
            bytes,
            tag,
        })
    }

    /// Releases a chunk previously returned by [`PhysMem::alloc`].
    ///
    /// # Panics
    ///
    /// Panics on double free or on a chunk this memory never produced.
    pub fn free(&mut self, chunk: Chunk) {
        let frame = chunk.base.0 / FRAME_BYTES;
        let released = self.buddy.release(frame, order_of(chunk.bytes));
        assert!(released.is_some(), "free of unknown chunk {chunk:?}");
        self.stats.record_free(chunk.tag, chunk.bytes);
    }

    /// Relocations performed by compaction since the last call, as
    /// `(old_frame, new_frame, tag)` 4KB-frame pairs. The simulated OS must
    /// drain this after any allocation and rewrite the page-table entries
    /// of relocated `Data` frames (plus the matching TLB shootdowns).
    pub fn take_relocations(&mut self) -> Vec<(u64, u64, AllocTag)> {
        std::mem::take(&mut self.relocations)
    }

    /// Tries to evacuate a naturally aligned window of `order` by relocating
    /// movable occupants (pins and data pages), then claims it under `tag`.
    ///
    /// Returns the start frame of the claimed window on success. Windows
    /// containing page tables or unmovable pins are skipped — the simulator
    /// holds physical pointers into those.
    fn compact_for(&mut self, order: u8, tag: AllocTag) -> Option<u64> {
        let window_frames = 1u64 << order;
        let total = self.buddy.total_frames();
        let n_windows = total / window_frames;
        if n_windows == 0 {
            return None;
        }
        let start_window = self.compact_cursor % n_windows;
        let mut occupants = Vec::new();
        for i in 0..n_windows {
            let w = (start_window + i) % n_windows;
            let start = w * window_frames;
            let end = start + window_frames;
            // Every occupant must lie fully inside the window and be
            // movable; the scan stops at the first that is not.
            occupants.clear();
            let mut evacuable = true;
            for (f, o, t) in self.buddy.allocated_in(start, end) {
                if f < start || f + (1u64 << o) > end || !t.is_movable() {
                    evacuable = false;
                    break;
                }
                occupants.push((f, o, t));
            }
            if !evacuable {
                continue;
            }
            // Enough free space outside the window to rehome everything?
            let occupied: u64 = occupants.iter().map(|&(_, o, _)| 1u64 << o).sum();
            let free_inside = window_frames - occupied;
            if self.buddy.free_frames() - free_inside < occupied {
                continue;
            }
            if let Some(frame) = self.relocate_and_claim(start, order, tag, &occupants) {
                self.compact_cursor = w + 1;
                return Some(frame);
            }
        }
        None
    }

    /// Moves `occupants` (all movable, all inside the window) elsewhere and
    /// claims the window under `tag`. Returns `None` — leaving the failed
    /// occupant in place — if some occupant cannot be rehomed (e.g. a 2MB
    /// data page with no free 2MB block outside the window).
    fn relocate_and_claim(
        &mut self,
        start: u64,
        order: u8,
        tag: AllocTag,
        occupants: &[(u64, u8, AllocTag)],
    ) -> Option<u64> {
        let end = start + (1u64 << order);
        let mut moved_bytes = 0;
        for &(frame, o, occupant) in occupants {
            // Find a new home outside the window. The buddy allocator may
            // hand back blocks inside the window (parts of it can be free);
            // park those and retry.
            let mut parked = Vec::new();
            let new_frame = loop {
                match self.buddy.alloc(o, occupant) {
                    Some(f) if f >= start && f < end => parked.push(f),
                    other => break other,
                }
            };
            for p in parked {
                self.buddy.free(p, o);
            }
            match new_frame {
                Some(nf) => {
                    self.buddy.free(frame, o);
                    moved_bytes += (1u64 << o) * FRAME_BYTES;
                    self.relocations.push((frame, nf, occupant));
                }
                None => {
                    // No home for this occupant (fragmentation at its own
                    // order): leave it in place and give up on this window.
                    // Earlier occupants stay at their new homes — they were
                    // movable anyway.
                    self.stats.compaction_moved_bytes += moved_bytes;
                    return None;
                }
            }
        }
        self.stats.compactions += 1;
        self.stats.compaction_moved_bytes += moved_bytes;
        let claimed = self.buddy.alloc_at(start, order, tag);
        debug_assert_eq!(claimed, Some(start), "evacuated window must be claimable");
        claimed
    }

    /// Allocates one specific 4KB frame (used by the fragmenter to pin a
    /// frame at a chosen location).
    pub(crate) fn alloc_frame_at(&mut self, frame: u64, tag: AllocTag) -> Option<Chunk> {
        self.buddy.alloc_at(frame, 0, tag)?;
        // Pinning ballast is free: the fragmenter models pre-existing memory
        // state, not work done by the workload under measurement.
        self.stats.record_alloc(tag, FRAME_BYTES, 0);
        Some(Chunk {
            base: PhysAddr(frame * FRAME_BYTES),
            bytes: FRAME_BYTES,
            tag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_types::{KIB, MIB};

    fn mem(mib: u64) -> PhysMem {
        PhysMem::with_cost_model(mib * MIB, AllocCostModel::zero_cost())
    }

    #[test]
    fn alloc_is_aligned_to_its_size() {
        let mut m = mem(64);
        for bytes in [4 * KIB, 8 * KIB, MIB, 8 * MIB] {
            let c = m.alloc(bytes, AllocTag::PageTable).unwrap();
            assert_eq!(c.base().0 % bytes, 0, "chunk {c:?} misaligned");
        }
    }

    #[test]
    fn out_of_memory_reported() {
        let mut m = mem(1);
        let err = m.alloc(2 * MIB, AllocTag::Data).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
    }

    #[test]
    fn free_returns_memory() {
        let mut m = mem(16);
        let c = m.alloc(8 * MIB, AllocTag::PageTable).unwrap();
        let free_before = m.free_bytes();
        m.free(c);
        assert_eq!(m.free_bytes(), free_before + 8 * MIB);
        assert_eq!(m.stats().tag(AllocTag::PageTable).current_bytes, 0);
    }

    #[test]
    fn max_contiguous_tracks_page_table_allocations() {
        let mut m = mem(64);
        m.alloc(MIB, AllocTag::PageTable).unwrap();
        m.alloc(8 * MIB, AllocTag::PageTable).unwrap();
        m.alloc(16 * MIB, AllocTag::Data).unwrap();
        assert_eq!(
            m.stats().tag(AllocTag::PageTable).max_contiguous_bytes,
            8 * MIB
        );
    }

    #[test]
    fn compaction_relocates_movable_pins() {
        let mut m = mem(4);
        // Pin one movable frame inside every 1MB window.
        for w in 0..4u64 {
            m.alloc_frame_at(w * 256 + 17, AllocTag::PinnedMovable)
                .unwrap();
        }
        assert!(m.buddy().largest_free_order() < Some(8));
        // Direct allocation of 1MB must fail inside the buddy, but alloc()
        // compacts and succeeds.
        let c = m.alloc(MIB, AllocTag::PageTable).unwrap();
        assert_eq!(c.bytes(), MIB);
        assert!(m.stats().compactions >= 1);
        assert!(m.stats().compaction_moved_bytes >= 4 * KIB);
    }

    #[test]
    fn unmovable_pins_block_compaction() {
        let mut m = mem(4);
        for w in 0..4u64 {
            m.alloc_frame_at(w * 256 + 17, AllocTag::PinnedUnmovable)
                .unwrap();
        }
        let err = m.alloc(MIB, AllocTag::PageTable).unwrap_err();
        assert!(matches!(err, AllocError::TooFragmented { .. }), "{err}");
        assert_eq!(m.stats().failed_allocs, 1);
    }

    #[test]
    fn data_pages_are_relocated_and_reported() {
        let mut m = mem(4);
        // A data page in every 1MB window: direct allocation fails, but
        // compaction migrates the data and reports the moves.
        for w in 0..4u64 {
            m.alloc_frame_at(w * 256 + 3, AllocTag::Data).unwrap();
        }
        let c = m.alloc(MIB, AllocTag::PageTable).unwrap();
        assert_eq!(c.bytes(), MIB);
        let moves = m.take_relocations();
        assert!(!moves.is_empty());
        assert!(moves.iter().all(|&(_, _, t)| t == AllocTag::Data));
        // Old and new frames differ and the list drains.
        assert!(moves.iter().all(|&(old, new, _)| old != new));
        assert!(m.take_relocations().is_empty());
    }

    #[test]
    fn cycles_charged_per_cost_model() {
        let mut m = PhysMem::new(64 * MIB);
        m.alloc(MIB, AllocTag::PageTable).unwrap();
        let cycles = m.stats().tag(AllocTag::PageTable).alloc_cycles;
        // Unfragmented memory: cost is roughly the zeroing cost.
        assert!((MIB / 16..MIB).contains(&cycles), "cycles = {cycles}");
    }

    #[test]
    fn fmfi_rises_as_memory_fragments() {
        let mut m = mem(16);
        let before = m.fmfi();
        for w in 0..8u64 {
            m.alloc_frame_at(w * 512 + 100, AllocTag::PinnedUnmovable)
                .unwrap();
        }
        assert!(m.fmfi() > before);
        assert!(m.fmfi() > 0.9, "every 2MB region is broken: {}", m.fmfi());
    }

    #[test]
    #[should_panic(expected = "unknown chunk")]
    fn double_free_panics() {
        let mut m = mem(16);
        let c = m.alloc(MIB, AllocTag::Data).unwrap();
        m.free(c);
        m.free(c);
    }
}
