use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use mehpt_types::hashmap::SplitMixBuild;

use crate::phys::AllocTag;

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
/// Free blocks of order *k* are bits in a bitmap of `total_frames >> k`
/// bits with summary words above it, so the lowest free block is a few
/// `trailing_zeros` away; for 64GB all orders together take about 4MB.
/// Live blocks sit in one record keyed by start frame, holding each
/// block's order and [`AllocTag`] in one 8-byte word.
///
/// # Examples
///
/// ```
/// use mehpt_mem::{AllocTag, BuddyAllocator};
///
/// let mut buddy = BuddyAllocator::new(1024); // 4MB of frames
/// let a = buddy.alloc(0, AllocTag::Data).expect("one frame");
/// let b = buddy.alloc(0, AllocTag::Data).expect("another frame");
/// assert_ne!(a, b);
/// buddy.free(a, 0);
/// buddy.free(b, 0);
/// assert_eq!(buddy.free_frames(), 1024);
/// ```
#[derive(Clone, Debug)]
pub struct BuddyAllocator {
    /// `free[order]` has bit `i` set when block `i << order` is free.
    free: Vec<BitTree>,
    /// `counts[order]`: the number of free blocks of that order.
    counts: [u64; MAX_ORDER as usize + 1],
    /// Every live block, found by its start frame.
    blocks: HashSet<Block, SplitMixBuild>,
    total_frames: u64,
    free_frames: u64,
}

/// A live block's entry in the block record, packed in one word: the start
/// frame in bits 0–51 (byte addresses are `u64`, so every frame fits), the
/// order in bits 52–56 and the tag's index in bits 57–58. Equality and
/// hashing see the start frame alone, so the record is a set of blocks
/// looked up by frame.
#[derive(Clone, Copy, Debug)]
struct Block(u64);

impl Block {
    const ORDER_SHIFT: u32 = 52;
    const TAG_SHIFT: u32 = 57;

    fn new(frame: u64, order: u8, tag: AllocTag) -> Block {
        Block(
            frame | u64::from(order) << Self::ORDER_SHIFT | (tag.index() as u64) << Self::TAG_SHIFT,
        )
    }

    /// The key that finds the block starting at `frame` (below 2^52).
    fn key(frame: u64) -> Block {
        Block(frame)
    }

    fn frame(self) -> u64 {
        self.0 & ((1 << Self::ORDER_SHIFT) - 1)
    }

    fn order(self) -> u8 {
        (self.0 >> Self::ORDER_SHIFT) as u8 & 31
    }

    fn tag(self) -> AllocTag {
        AllocTag::ALL[(self.0 >> Self::TAG_SHIFT) as usize & 3]
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        self.frame() == other.frame()
    }
}

impl Eq for Block {}

impl Hash for Block {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.frame());
    }
}

impl BuddyAllocator {
    /// Creates an allocator managing `total_frames` 4KB frames.
    ///
    /// The frame count need not be a power of two; memory is seeded with the
    /// largest aligned blocks that fit.
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is zero or not below 2^52 (the frames of a
    /// 64-bit byte address space).
    pub fn new(total_frames: u64) -> BuddyAllocator {
        assert!(total_frames > 0, "buddy allocator needs at least one frame");
        assert!(total_frames < 1 << Block::ORDER_SHIFT, "too many frames");
        let mut buddy = BuddyAllocator {
            free: (0..=MAX_ORDER)
                .map(|o| BitTree::new(total_frames >> o))
                .collect(),
            counts: [0; MAX_ORDER as usize + 1],
            blocks: HashSet::default(),
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
            buddy.put_free(frame, order);
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

    /// Marks the block at `frame` of `order` free.
    #[inline]
    fn put_free(&mut self, frame: u64, order: u8) {
        self.free[order as usize].insert(frame >> order);
        self.counts[order as usize] += 1;
    }

    /// Takes the free block at `frame` of `order`, if there is one.
    #[inline]
    fn take_free(&mut self, frame: u64, order: u8) -> bool {
        let taken = self.free[order as usize].remove(frame >> order);
        self.counts[order as usize] -= u64::from(taken);
        taken
    }

    /// Records the live block at `frame`.
    #[inline]
    fn record(&mut self, frame: u64, order: u8, tag: AllocTag) {
        self.blocks.insert(Block::new(frame, order, tag));
        self.free_frames -= 1 << order;
    }

    /// The live block starting at `frame`.
    #[inline]
    fn block(&self, frame: u64) -> Option<Block> {
        if frame >= self.total_frames {
            return None;
        }
        self.blocks.get(&Block::key(frame)).copied()
    }

    /// Allocates a block of `order` (2^order frames) under `tag`, lowest
    /// address first.
    ///
    /// Returns the start frame of the block, or `None` if no contiguous block
    /// of that order (or larger, to split) exists — i.e. memory is too
    /// fragmented or too full.
    pub fn alloc(&mut self, order: u8, tag: AllocTag) -> Option<u64> {
        let mut have = (order..=MAX_ORDER).find(|&o| self.counts[o as usize] > 0)?;
        let frame = self.free[have as usize].first()? << have;
        self.take_free(frame, have);
        // Split down to the requested order, returning upper halves to the
        // free lists.
        while have > order {
            have -= 1;
            self.put_free(frame + (1 << have), have);
        }
        self.record(frame, order, tag);
        Some(frame)
    }

    /// Allocates the specific block starting at `frame` of `order` under
    /// `tag`, if free.
    ///
    /// Used by compaction to claim a window it has just evacuated. Returns
    /// `None` for a block that is not naturally aligned or not inside
    /// memory.
    pub fn alloc_at(&mut self, frame: u64, order: u8, tag: AllocTag) -> Option<u64> {
        if order > MAX_ORDER || frame & ((1u64 << order) - 1) != 0 {
            return None;
        }
        // The block may exist as part of a larger free block: split it out.
        let have = (order..=MAX_ORDER).find(|&o| {
            let start = frame & !((1u64 << o) - 1);
            self.take_free(start, o)
        })?;
        // Split down, keeping the half that contains `frame`.
        let mut cur_order = have;
        let mut cur_start = frame & !((1u64 << have) - 1);
        while cur_order > order {
            cur_order -= 1;
            let upper = cur_start + (1 << cur_order);
            if frame >= upper {
                self.put_free(cur_start, cur_order);
                cur_start = upper;
            } else {
                self.put_free(upper, cur_order);
            }
        }
        debug_assert_eq!(cur_start, frame);
        self.record(frame, order, tag);
        Some(frame)
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`],
    /// coalescing with free buddies.
    ///
    /// # Panics
    ///
    /// Panics if `(frame, order)` does not match an outstanding allocation —
    /// double frees and size mismatches are bugs.
    pub fn free(&mut self, frame: u64, order: u8) {
        if self.release(frame, order).is_none() {
            panic!("free of frame {frame} which is not allocated");
        }
    }

    /// Frees the block at `frame` of `order` like [`BuddyAllocator::free`]
    /// and returns its tag, or returns `None` and changes nothing if no
    /// block starts at `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the block at `frame` has another order.
    pub(crate) fn release(&mut self, frame: u64, order: u8) -> Option<AllocTag> {
        if frame >= self.total_frames {
            return None;
        }
        let block = self.blocks.take(&Block::key(frame))?;
        if block.order() != order {
            panic!(
                "free of frame {frame} with order {order}, allocated as {}",
                block.order()
            );
        }
        self.free_frames += 1 << order;
        let mut frame = frame;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = frame ^ (1u64 << order);
            // Only merge if the buddy block lies fully inside memory and is free.
            if buddy + (1 << order) > self.total_frames || !self.take_free(buddy, order) {
                break;
            }
            frame = frame.min(buddy);
            order += 1;
        }
        self.put_free(frame, order);
        Some(block.tag())
    }

    /// The order of the largest currently free block.
    pub fn largest_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER).rev().find(|&o| self.counts[o as usize] > 0)
    }

    /// Free memory (in frames) held in blocks of at least `order`.
    ///
    /// This is the "usable free space" of the FMFI fragmentation metric.
    pub fn usable_free_frames(&self, order: u8) -> u64 {
        (order..=MAX_ORDER)
            .map(|o| self.counts[o as usize] << o)
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

    /// The order and tag of the live block starting at `frame`, if one
    /// does.
    pub fn live_block(&self, frame: u64) -> Option<(u8, AllocTag)> {
        self.block(frame).map(|b| (b.order(), b.tag()))
    }

    /// Whether the block starting at `frame` of `order` is currently allocated.
    pub fn is_allocated(&self, frame: u64, order: u8) -> bool {
        self.live_block(frame).is_some_and(|(o, _)| o == order)
    }

    /// Iterates over the allocated blocks `(start_frame, order, tag)`
    /// intersecting the frame range `[start, end)`, in ascending frame
    /// order.
    ///
    /// Walks the blocks that tile the range: a live block is one record
    /// lookup, a free block a few bitmap tests.
    pub fn allocated_in(
        &self,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = (u64, u8, AllocTag)> + '_ {
        let end = end.min(self.total_frames);
        let pos = if start < end {
            self.block_start(start)
        } else {
            end
        };
        AllocatedIn {
            buddy: self,
            pos,
            end,
        }
    }

    /// The start frame of the block, free or live, containing `frame`.
    fn block_start(&self, frame: u64) -> u64 {
        for o in 0..=MAX_ORDER {
            let start = frame & !((1u64 << o) - 1);
            if self.free[o as usize].contains(start >> o)
                || self.block(start).is_some_and(|b| b.order() == o)
            {
                return start;
            }
        }
        panic!("frame {frame} lies in no block");
    }

    /// The order of the free block starting at `frame`.
    fn free_order_at(&self, frame: u64) -> u8 {
        let max = (frame.trailing_zeros() as u8).min(MAX_ORDER);
        (0..=max)
            .find(|&o| self.free[o as usize].contains(frame >> o))
            .unwrap_or_else(|| panic!("frame {frame} starts no block"))
    }

    /// Checks internal invariants; used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let free: u64 = (0..=MAX_ORDER).map(|o| self.counts[o as usize] << o).sum();
        let allocated: u64 = self.blocks.iter().map(|b| 1u64 << b.order()).sum();
        assert_eq!(free, self.free_frames, "free frame accounting drifted");
        assert_eq!(
            free + allocated,
            self.total_frames,
            "frames leaked or duplicated"
        );
        for (o, tree) in self.free.iter().enumerate() {
            tree.check();
            assert_eq!(tree.len(), self.counts[o], "order {o} count drifted");
        }
        // Free and live blocks tile memory exactly, with no overlap.
        let mut frame = 0;
        let mut tiles = 0;
        while frame < self.total_frames {
            let order = match self.block(frame) {
                Some(b) => b.order(),
                None => self.free_order_at(frame),
            };
            frame += 1 << order;
            tiles += 1;
        }
        assert_eq!(frame, self.total_frames, "a block runs past memory");
        let free_blocks: u64 = self.counts.iter().sum();
        assert_eq!(
            tiles,
            free_blocks + self.blocks.len() as u64,
            "blocks overlap"
        );
    }
}

/// The allocated blocks in a frame range, from
/// [`BuddyAllocator::allocated_in`].
struct AllocatedIn<'a> {
    buddy: &'a BuddyAllocator,
    /// Start frame of the next block to look at.
    pos: u64,
    end: u64,
}

impl Iterator for AllocatedIn<'_> {
    type Item = (u64, u8, AllocTag);

    fn next(&mut self) -> Option<(u64, u8, AllocTag)> {
        while self.pos < self.end {
            let frame = self.pos;
            if let Some(b) = self.buddy.block(frame) {
                self.pos += 1 << b.order();
                return Some((frame, b.order(), b.tag()));
            }
            self.pos += 1 << self.buddy.free_order_at(frame);
        }
        None
    }
}

/// Words per piece of a [`BitTree`]'s bits: 4KB, allocated on the first
/// insert into it.
const PIECE_WORDS: usize = 512;

/// A set of bit indices below a fixed bound: the bits themselves plus
/// summary levels, each with one bit per non-zero word of the level below,
/// up to a single top word. The lowest set bit is one `trailing_zeros` per
/// level away.
///
/// The bits are kept in pieces that are allocated on first use, so memory
/// that was never split costs no host memory below its top orders.
#[derive(Clone, Debug)]
struct BitTree {
    /// The bits, `piece_words` words per piece; a piece never inserted
    /// into is empty.
    pieces: Vec<Box<[u64]>>,
    /// [`PIECE_WORDS`], or fewer when all the bits fit in one piece.
    piece_words: usize,
    /// `summary[0]` has one bit per word of the bits, `summary[k + 1]` one
    /// per word of `summary[k]`; the last level is one word. Empty when the
    /// bits are one word.
    summary: Vec<Vec<u64>>,
}

impl BitTree {
    /// An empty set of indices below `bits`.
    fn new(bits: u64) -> BitTree {
        let words = bits.div_ceil(64).max(1) as usize;
        let piece_words = words.min(PIECE_WORDS);
        let mut summary = Vec::new();
        let mut n = words;
        while n > 1 {
            n = n.div_ceil(64);
            summary.push(vec![0; n]);
        }
        BitTree {
            pieces: vec![Box::default(); words.div_ceil(piece_words)],
            piece_words,
            summary,
        }
    }

    /// Word `w` of the bits (0 past the end or in an unallocated piece).
    #[inline]
    fn word(&self, w: usize) -> u64 {
        self.pieces
            .get(w / PIECE_WORDS)
            .and_then(|p| p.get(w % PIECE_WORDS))
            .copied()
            .unwrap_or(0)
    }

    #[inline]
    fn contains(&self, i: u64) -> bool {
        self.word((i / 64) as usize) >> (i % 64) & 1 != 0
    }

    #[inline]
    fn insert(&mut self, i: u64) {
        let mut w = (i / 64) as usize;
        let piece = &mut self.pieces[w / PIECE_WORDS];
        if piece.is_empty() {
            *piece = vec![0; self.piece_words].into_boxed_slice();
        }
        let word = &mut piece[w % PIECE_WORDS];
        let was_empty = *word == 0;
        *word |= 1 << (i % 64);
        if !was_empty {
            return;
        }
        for level in &mut self.summary {
            let word = &mut level[w / 64];
            let was_empty = *word == 0;
            *word |= 1 << (w % 64);
            if !was_empty {
                return;
            }
            w /= 64;
        }
    }

    /// Removes `i`; returns whether it was present.
    #[inline]
    fn remove(&mut self, i: u64) -> bool {
        let mut w = (i / 64) as usize;
        let Some(word) = self
            .pieces
            .get_mut(w / PIECE_WORDS)
            .and_then(|p| p.get_mut(w % PIECE_WORDS))
        else {
            return false;
        };
        let bit = 1 << (i % 64);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        if *word == 0 {
            for level in &mut self.summary {
                let word = &mut level[w / 64];
                *word &= !(1 << (w % 64));
                if *word != 0 {
                    break;
                }
                w /= 64;
            }
        }
        true
    }

    /// The lowest index in the set.
    #[inline]
    fn first(&self) -> Option<u64> {
        let mut w = 0;
        for level in self.summary.iter().rev() {
            let word = level[w];
            if word == 0 {
                return None;
            }
            w = w * 64 + word.trailing_zeros() as usize;
        }
        let word = self.word(w);
        (word != 0).then(|| (w * 64) as u64 + u64::from(word.trailing_zeros()))
    }

    /// The number of indices in the set.
    fn len(&self) -> u64 {
        self.pieces
            .iter()
            .flat_map(|p| p.iter())
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }

    /// Asserts that every summary bit is set exactly when its word is
    /// non-zero.
    fn check(&self) {
        let mut below: Vec<u64> = (0..self.pieces.len() * self.piece_words)
            .map(|w| self.word(w))
            .collect();
        for level in &self.summary {
            // The last piece may run past the bound; its tail stays zero.
            below.truncate(level.len() * 64);
            for (i, w) in below.iter().enumerate() {
                let summary = level[i / 64] >> (i % 64) & 1 != 0;
                assert_eq!(summary, *w != 0, "summary bit of word {i} is stale");
            }
            below.clone_from(level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: AllocTag = AllocTag::Data;

    #[test]
    fn fresh_memory_is_one_big_block() {
        let buddy = BuddyAllocator::new(1 << MAX_ORDER);
        assert_eq!(buddy.largest_free_order(), Some(MAX_ORDER));
        assert_eq!(buddy.fmfi(MAX_ORDER), 0.0);
    }

    #[test]
    fn alloc_free_restores_state() {
        let mut buddy = BuddyAllocator::new(1024);
        let frames: Vec<u64> = (0..10).map(|_| buddy.alloc(2, TAG).unwrap()).collect();
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
        let a = buddy.alloc(0, TAG).unwrap();
        assert_eq!(a, 0);
        // Splitting a 16-frame block leaves 1+2+4+8 free.
        assert_eq!(buddy.free_frames(), 15);
        buddy.free(a, 0);
        assert_eq!(buddy.largest_free_order(), Some(4));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut buddy = BuddyAllocator::new(4);
        assert!(buddy.alloc(2, TAG).is_some());
        assert!(buddy.alloc(0, TAG).is_none());
    }

    #[test]
    fn fragmentation_blocks_large_allocs() {
        let mut buddy = BuddyAllocator::new(32);
        // Allocate every other pair of frames: kills all order-2 blocks.
        let mut held = Vec::new();
        for i in 0..16 {
            let f = buddy.alloc(1, TAG).unwrap();
            if i % 2 == 0 {
                held.push(f);
            }
        }
        // Free the even-indexed ones: memory is half free but chopped up.
        for f in held {
            buddy.free(f, 1);
        }
        assert!(buddy.fmfi(2) > 0.9);
        assert!(buddy.alloc(3, TAG).is_none());
        assert!(buddy.alloc(1, TAG).is_some());
    }

    #[test]
    fn alloc_at_claims_specific_block() {
        let mut buddy = BuddyAllocator::new(64);
        assert_eq!(buddy.alloc_at(16, 2, TAG), Some(16));
        assert!(buddy.is_allocated(16, 2));
        // Same block cannot be claimed twice.
        assert_eq!(buddy.alloc_at(16, 2, TAG), None);
        // Misaligned and out-of-range blocks are never free.
        assert_eq!(buddy.alloc_at(33, 2, TAG), None);
        assert_eq!(buddy.alloc_at(64, 0, TAG), None);
        buddy.free(16, 2);
        buddy.check_invariants();
        assert_eq!(buddy.free_frames(), 64);
    }

    #[test]
    fn allocated_in_finds_intersecting_blocks() {
        let mut buddy = BuddyAllocator::new(64);
        let a = buddy.alloc_at(8, 2, AllocTag::PageTable).unwrap(); // frames 8..12
        let found: Vec<_> = buddy.allocated_in(10, 20).collect();
        assert_eq!(found, vec![(a, 2, AllocTag::PageTable)]);
        let missed: Vec<_> = buddy.allocated_in(12, 20).collect();
        assert!(missed.is_empty());
        assert_eq!(buddy.allocated_in(60, 1000).count(), 0);
        assert_eq!(buddy.allocated_in(64, 1000).count(), 0);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_free_panics() {
        let mut buddy = BuddyAllocator::new(16);
        let f = buddy.alloc(0, TAG).unwrap();
        buddy.free(f, 0);
        buddy.free(f, 0);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn free_past_the_end_panics() {
        let mut buddy = BuddyAllocator::new(16);
        buddy.alloc(0, TAG).unwrap();
        buddy.free(1 << 52, 0);
    }

    #[test]
    #[should_panic(expected = "allocated as 1")]
    fn order_mismatch_panics() {
        let mut buddy = BuddyAllocator::new(16);
        let f = buddy.alloc(1, TAG).unwrap();
        buddy.free(f, 0);
    }

    #[test]
    fn non_power_of_two_memory() {
        let mut buddy = BuddyAllocator::new(100);
        buddy.check_invariants();
        assert_eq!(buddy.free_frames(), 100);
        let mut n = 0;
        while buddy.alloc(0, TAG).is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
        buddy.check_invariants();
    }

    #[test]
    fn fmfi_monotone_in_order() {
        let mut buddy = BuddyAllocator::new(256);
        for _ in 0..32 {
            buddy.alloc(0, TAG).unwrap();
        }
        let f: Vec<f64> = (0..8).map(|o| buddy.fmfi(o)).collect();
        for w in f.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "fmfi must be monotone: {f:?}");
        }
    }

    #[test]
    fn block_packs_frame_order_and_tag() {
        let frame = (1 << 52) - (1 << 16);
        for tag in AllocTag::ALL {
            let b = Block::new(frame, MAX_ORDER, tag);
            assert_eq!((b.frame(), b.order(), b.tag()), (frame, MAX_ORDER, tag));
            assert_eq!(b, Block::key(frame));
        }
    }

    #[test]
    fn bit_tree_finds_the_lowest_index_across_levels() {
        let mut t = BitTree::new(300_000);
        assert_eq!(t.summary.len(), 3);
        assert_eq!(t.first(), None);
        for i in [299_999, 70_000, 4_097] {
            t.insert(i);
        }
        assert_eq!(t.first(), Some(4_097));
        assert!(t.remove(4_097));
        assert!(!t.remove(4_097));
        assert_eq!(t.first(), Some(70_000));
        assert!(t.remove(70_000));
        assert_eq!(t.first(), Some(299_999));
        t.check();
        assert_eq!(t.len(), 1);
        // Only the pieces inserted into hold memory.
        assert_eq!(t.pieces.iter().filter(|p| !p.is_empty()).count(), 3);
        // Out-of-range indices are never present.
        assert!(!t.contains(1 << 40));
        assert!(!t.remove(1 << 40));
    }
}
