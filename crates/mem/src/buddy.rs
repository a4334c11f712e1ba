use std::collections::{BTreeMap, BTreeSet};

/// The largest block order the allocator manages (order 16 = 256MB).
///
/// Large enough for the biggest allocation the paper ever performs (a 64MB
/// ECPT way, order 14) with headroom for ablation experiments.
pub const MAX_ORDER: u8 = 16;

/// A binary buddy allocator over 4KB frames.
///
/// This is the ground-truth model of physical-memory contiguity: a contiguous
/// allocation of order *k* (2ᵏ frames) succeeds only if a free, naturally
/// aligned block of that order exists. Splitting and coalescing follow the
/// classic buddy rules, so fragmentation behaves like a real kernel's page
/// allocator.
///
/// Frames are identified by their 4KB frame number starting at 0.
/// Deterministic: allocation always returns the lowest-addressed suitable
/// block, so identical call sequences yield identical layouts.
///
/// # Examples
///
/// ```
/// use mehpt_mem::BuddyAllocator;
///
/// let mut buddy = BuddyAllocator::new(1024); // 4MB of frames
/// let a = buddy.alloc(0).expect("one frame");
/// let b = buddy.alloc(0).expect("another frame");
/// assert_ne!(a, b);
/// buddy.free(a, 0);
/// buddy.free(b, 0);
/// assert_eq!(buddy.free_frames(), 1024);
/// ```
#[derive(Clone, Debug)]
pub struct BuddyAllocator {
    /// `free[order]` holds the start frame of every free block of that order.
    free: Vec<BTreeSet<u64>>,
    /// Allocated block start → order, used to validate frees.
    allocated: BTreeMap<u64, u8>,
    total_frames: u64,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Creates an allocator managing `total_frames` 4KB frames.
    ///
    /// The frame count need not be a power of two; memory is seeded with the
    /// largest aligned blocks that fit.
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is zero.
    pub fn new(total_frames: u64) -> BuddyAllocator {
        assert!(total_frames > 0, "buddy allocator needs at least one frame");
        let mut buddy = BuddyAllocator {
            free: (0..=MAX_ORDER).map(|_| BTreeSet::new()).collect(),
            allocated: BTreeMap::new(),
            total_frames,
            free_frames: total_frames,
        };
        // Seed free lists greedily with maximal aligned blocks.
        let mut frame = 0;
        while frame < total_frames {
            let align_order = if frame == 0 {
                MAX_ORDER
            } else {
                (frame.trailing_zeros() as u8).min(MAX_ORDER)
            };
            let mut order = align_order;
            while frame + (1 << order) > total_frames {
                order -= 1;
            }
            buddy.free[order as usize].insert(frame);
            frame += 1 << order;
        }
        buddy
    }

    /// The number of frames managed in total.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// The number of currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Allocates a block of `order` (2^order frames), lowest address first.
    ///
    /// Returns the start frame of the block, or `None` if no contiguous block
    /// of that order (or larger, to split) exists — i.e. memory is too
    /// fragmented or too full.
    pub fn alloc(&mut self, order: u8) -> Option<u64> {
        let mut have = order;
        while (have as usize) < self.free.len() && self.free[have as usize].is_empty() {
            have += 1;
        }
        if have as usize >= self.free.len() {
            return None;
        }
        let frame = *self.free[have as usize].iter().next()?;
        self.free[have as usize].remove(&frame);
        // Split down to the requested order, returning upper halves to the
        // free lists.
        while have > order {
            have -= 1;
            self.free[have as usize].insert(frame + (1 << have));
        }
        self.allocated.insert(frame, order);
        self.free_frames -= 1 << order;
        Some(frame)
    }

    /// Allocates the specific block starting at `frame` of `order`, if free.
    ///
    /// Used by compaction to claim a window it has just evacuated.
    pub fn alloc_at(&mut self, frame: u64, order: u8) -> Option<u64> {
        if self.free[order as usize].remove(&frame) {
            self.allocated.insert(frame, order);
            self.free_frames -= 1 << order;
            return Some(frame);
        }
        // The block may exist as part of a larger free block: split it out.
        for have in order + 1..=MAX_ORDER {
            let start = frame & !((1u64 << have) - 1);
            if self.free[have as usize].remove(&start) {
                // Split down, keeping the half that contains `frame`.
                let mut cur_order = have;
                let mut cur_start = start;
                while cur_order > order {
                    cur_order -= 1;
                    let upper = cur_start + (1 << cur_order);
                    if frame >= upper {
                        self.free[cur_order as usize].insert(cur_start);
                        cur_start = upper;
                    } else {
                        self.free[cur_order as usize].insert(upper);
                    }
                }
                debug_assert_eq!(cur_start, frame);
                self.allocated.insert(frame, order);
                self.free_frames -= 1 << order;
                return Some(frame);
            }
        }
        None
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`],
    /// coalescing with free buddies.
    ///
    /// # Panics
    ///
    /// Panics if `(frame, order)` does not match an outstanding allocation —
    /// double frees and size mismatches are bugs.
    pub fn free(&mut self, frame: u64, order: u8) {
        match self.allocated.remove(&frame) {
            Some(found) if found == order => {}
            Some(found) => panic!("free of frame {frame} with order {order}, allocated as {found}"),
            None => panic!("free of frame {frame} which is not allocated"),
        }
        self.free_frames += 1 << order;
        let mut frame = frame;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = frame ^ (1u64 << order);
            // Only merge if the buddy block lies fully inside memory and is free.
            if buddy + (1 << order) > self.total_frames || !self.free[order as usize].remove(&buddy)
            {
                break;
            }
            frame = frame.min(buddy);
            order += 1;
        }
        self.free[order as usize].insert(frame);
    }

    /// The order of the largest currently free block.
    pub fn largest_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| !self.free[o as usize].is_empty())
    }

    /// Free memory (in frames) held in blocks of at least `order`.
    ///
    /// This is the "usable free space" of the FMFI fragmentation metric.
    pub fn usable_free_frames(&self, order: u8) -> u64 {
        (order..=MAX_ORDER)
            .map(|o| self.free[o as usize].len() as u64 * (1u64 << o))
            .sum()
    }

    /// The free-memory fragmentation index w.r.t. allocations of `order`.
    ///
    /// `FMFI(order) = 1 − usable_free(order) / total_free`: the fraction of
    /// free memory that is *unusable* for a contiguous allocation of the given
    /// order (Gorman & Whitcroft). 0 means perfectly defragmented; 1 means no
    /// block of that order exists at all.
    pub fn fmfi(&self, order: u8) -> f64 {
        if self.free_frames == 0 {
            return 1.0;
        }
        1.0 - self.usable_free_frames(order) as f64 / self.free_frames as f64
    }

    /// Whether the block starting at `frame` of `order` is currently allocated.
    pub fn is_allocated(&self, frame: u64, order: u8) -> bool {
        self.allocated.get(&frame) == Some(&order)
    }

    /// Iterates over the allocated blocks `(start_frame, order)` intersecting
    /// the frame range `[start, end)`.
    pub fn allocated_in(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, u8)> + '_ {
        // A block beginning before `start` can still intersect; the largest
        // block is MAX_ORDER frames long, so step back that far.
        let scan_from = start.saturating_sub(1 << MAX_ORDER);
        self.allocated
            .range(scan_from..end)
            .map(|(&f, &o)| (f, o))
            .filter(move |&(f, o)| f + (1u64 << o) > start)
    }

    /// Checks internal invariants; used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let free: u64 = (0..=MAX_ORDER)
            .map(|o| self.free[o as usize].len() as u64 * (1u64 << o))
            .sum();
        let allocated: u64 = self.allocated.values().map(|&o| 1u64 << o).sum();
        assert_eq!(free, self.free_frames, "free frame accounting drifted");
        assert_eq!(
            free + allocated,
            self.total_frames,
            "frames leaked or duplicated"
        );
        for (o, set) in self.free.iter().enumerate() {
            for &f in set {
                assert_eq!(f % (1 << o), 0, "free block {f} misaligned for order {o}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_is_one_big_block() {
        let buddy = BuddyAllocator::new(1 << MAX_ORDER);
        assert_eq!(buddy.largest_free_order(), Some(MAX_ORDER));
        assert_eq!(buddy.fmfi(MAX_ORDER), 0.0);
    }

    #[test]
    fn alloc_free_restores_state() {
        let mut buddy = BuddyAllocator::new(1024);
        let frames: Vec<u64> = (0..10).map(|_| buddy.alloc(2).unwrap()).collect();
        buddy.check_invariants();
        for f in frames {
            buddy.free(f, 2);
        }
        buddy.check_invariants();
        assert_eq!(buddy.free_frames(), 1024);
        assert_eq!(buddy.largest_free_order(), Some(10)); // fully coalesced
    }

    #[test]
    fn split_and_coalesce() {
        let mut buddy = BuddyAllocator::new(16);
        let a = buddy.alloc(0).unwrap();
        assert_eq!(a, 0);
        // Splitting a 16-frame block leaves 1+2+4+8 free.
        assert_eq!(buddy.free_frames(), 15);
        buddy.free(a, 0);
        assert_eq!(buddy.largest_free_order(), Some(4));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut buddy = BuddyAllocator::new(4);
        assert!(buddy.alloc(2).is_some());
        assert!(buddy.alloc(0).is_none());
    }

    #[test]
    fn fragmentation_blocks_large_allocs() {
        let mut buddy = BuddyAllocator::new(32);
        // Allocate every other pair of frames: kills all order-2 blocks.
        let mut held = Vec::new();
        for i in 0..16 {
            let f = buddy.alloc(1).unwrap();
            if i % 2 == 0 {
                held.push(f);
            } else {
                // keep
            }
        }
        // Free the even-indexed ones: memory is half free but chopped up.
        for f in held {
            buddy.free(f, 1);
        }
        assert!(buddy.fmfi(2) > 0.9);
        assert!(buddy.alloc(3).is_none());
        assert!(buddy.alloc(1).is_some());
    }

    #[test]
    fn alloc_at_claims_specific_block() {
        let mut buddy = BuddyAllocator::new(64);
        assert_eq!(buddy.alloc_at(16, 2), Some(16));
        assert!(buddy.is_allocated(16, 2));
        // Same block cannot be claimed twice.
        assert_eq!(buddy.alloc_at(16, 2), None);
        buddy.free(16, 2);
        buddy.check_invariants();
        assert_eq!(buddy.free_frames(), 64);
    }

    #[test]
    fn allocated_in_finds_intersecting_blocks() {
        let mut buddy = BuddyAllocator::new(64);
        let a = buddy.alloc_at(8, 2).unwrap(); // frames 8..12
        let found: Vec<_> = buddy.allocated_in(10, 20).collect();
        assert_eq!(found, vec![(a, 2)]);
        let missed: Vec<_> = buddy.allocated_in(12, 20).collect();
        assert!(missed.is_empty());
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_free_panics() {
        let mut buddy = BuddyAllocator::new(16);
        let f = buddy.alloc(0).unwrap();
        buddy.free(f, 0);
        buddy.free(f, 0);
    }

    #[test]
    fn non_power_of_two_memory() {
        let mut buddy = BuddyAllocator::new(100);
        buddy.check_invariants();
        assert_eq!(buddy.free_frames(), 100);
        let mut n = 0;
        while buddy.alloc(0).is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn fmfi_monotone_in_order() {
        let mut buddy = BuddyAllocator::new(256);
        for _ in 0..32 {
            buddy.alloc(0).unwrap();
        }
        let f: Vec<f64> = (0..8).map(|o| buddy.fmfi(o)).collect();
        for w in f.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "fmfi must be monotone: {f:?}");
        }
    }
}
