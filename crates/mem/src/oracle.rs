//! Test-only oracles: the buddy allocator with one `BTreeSet` free list per
//! order and a `BTreeMap` of live blocks, and the physical memory built on
//! it with its own tag map, as they were before the bitmap allocator. The
//! differential tests below drive both implementations through the same
//! operations and require identical answers after every step.

use std::collections::{BTreeMap, BTreeSet};

use mehpt_types::proptest_lite::{check, Gen};
use mehpt_types::PhysAddr;

use crate::buddy::MAX_ORDER;
use crate::phys::FMFI_REF_ORDER;
use crate::{
    order_of, AllocCostModel, AllocError, AllocTag, BuddyAllocator, Chunk, MemStats, PhysMem,
    FRAME_BYTES,
};

/// The BTree buddy allocator: same rules, same answers, slower.
#[derive(Clone, Debug)]
struct BTreeBuddy {
    free: Vec<BTreeSet<u64>>,
    allocated: BTreeMap<u64, u8>,
    total_frames: u64,
    free_frames: u64,
}

impl BTreeBuddy {
    fn new(total_frames: u64) -> BTreeBuddy {
        let mut buddy = BTreeBuddy {
            free: (0..=MAX_ORDER).map(|_| BTreeSet::new()).collect(),
            allocated: BTreeMap::new(),
            total_frames,
            free_frames: total_frames,
        };
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

    fn alloc(&mut self, order: u8) -> Option<u64> {
        let mut have = order;
        while (have as usize) < self.free.len() && self.free[have as usize].is_empty() {
            have += 1;
        }
        if have as usize >= self.free.len() {
            return None;
        }
        let frame = *self.free[have as usize].iter().next()?;
        self.free[have as usize].remove(&frame);
        while have > order {
            have -= 1;
            self.free[have as usize].insert(frame + (1 << have));
        }
        self.allocated.insert(frame, order);
        self.free_frames -= 1 << order;
        Some(frame)
    }

    fn alloc_at(&mut self, frame: u64, order: u8) -> Option<u64> {
        if self.free[order as usize].remove(&frame) {
            self.allocated.insert(frame, order);
            self.free_frames -= 1 << order;
            return Some(frame);
        }
        for have in order + 1..=MAX_ORDER {
            let start = frame & !((1u64 << have) - 1);
            if self.free[have as usize].remove(&start) {
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
                self.allocated.insert(frame, order);
                self.free_frames -= 1 << order;
                return Some(frame);
            }
        }
        None
    }

    fn free(&mut self, frame: u64, order: u8) {
        assert_eq!(self.allocated.remove(&frame), Some(order), "bad free");
        self.free_frames += 1 << order;
        let mut frame = frame;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = frame ^ (1u64 << order);
            if buddy + (1 << order) > self.total_frames || !self.free[order as usize].remove(&buddy)
            {
                break;
            }
            frame = frame.min(buddy);
            order += 1;
        }
        self.free[order as usize].insert(frame);
    }

    fn largest_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| !self.free[o as usize].is_empty())
    }

    fn usable_free_frames(&self, order: u8) -> u64 {
        (order..=MAX_ORDER)
            .map(|o| self.free[o as usize].len() as u64 * (1u64 << o))
            .sum()
    }

    fn fmfi(&self, order: u8) -> f64 {
        if self.free_frames == 0 {
            return 1.0;
        }
        1.0 - self.usable_free_frames(order) as f64 / self.free_frames as f64
    }

    fn is_allocated(&self, frame: u64, order: u8) -> bool {
        self.allocated.get(&frame) == Some(&order)
    }

    fn allocated_in(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, u8)> + '_ {
        let scan_from = start.saturating_sub(1 << MAX_ORDER);
        self.allocated
            .range(scan_from..end)
            .map(|(&f, &o)| (f, o))
            .filter(move |&(f, o)| f + (1u64 << o) > start)
    }

    fn check_invariants(&self) {
        let free: u64 = self.usable_free_frames(0);
        let allocated: u64 = self.allocated.values().map(|&o| 1u64 << o).sum();
        assert_eq!(free, self.free_frames);
        assert_eq!(free + allocated, self.total_frames);
    }
}

/// Physical memory on the BTree buddy with a separate tag map: allocation,
/// compaction and pinning as [`PhysMem`] does them.
struct OracleMem {
    buddy: BTreeBuddy,
    tags: BTreeMap<u64, AllocTag>,
    cost: AllocCostModel,
    stats: MemStats,
    compact_cursor: u64,
    relocations: Vec<(u64, u64, AllocTag)>,
}

impl OracleMem {
    fn new(total_bytes: u64) -> OracleMem {
        OracleMem {
            buddy: BTreeBuddy::new(total_bytes / FRAME_BYTES),
            tags: BTreeMap::new(),
            cost: AllocCostModel::paper_calibrated(),
            stats: MemStats::default(),
            compact_cursor: 0,
            relocations: Vec::new(),
        }
    }

    fn fmfi(&self) -> f64 {
        self.buddy.fmfi(FMFI_REF_ORDER)
    }

    /// [`PhysMem::alloc`], returning the start frame.
    fn alloc(&mut self, bytes: u64, tag: AllocTag) -> Result<u64, AllocError> {
        let order = order_of(bytes);
        let fmfi_now = self.fmfi();
        let frame = match self.buddy.alloc(order) {
            Some(f) => Some(f),
            None => self.compact_for(order),
        };
        let Some(frame) = frame else {
            self.stats.failed_allocs += 1;
            return Err(if self.buddy.free_frames < (1 << order) {
                AllocError::OutOfMemory { requested: bytes }
            } else {
                AllocError::TooFragmented {
                    requested: bytes,
                    fmfi: self.buddy.fmfi(order),
                }
            });
        };
        let cycles = match tag {
            AllocTag::PageTable => self.cost.cycles(bytes, fmfi_now),
            AllocTag::Data => self.cost.data_cycles(bytes),
            AllocTag::PinnedMovable | AllocTag::PinnedUnmovable => 0,
        };
        self.tags.insert(frame, tag);
        self.stats.record_alloc(tag, bytes, cycles);
        Ok(frame)
    }

    fn free(&mut self, frame: u64, bytes: u64, tag: AllocTag) {
        assert!(self.tags.remove(&frame).is_some());
        self.buddy.free(frame, order_of(bytes));
        self.stats.record_free(tag, bytes);
    }

    fn compact_for(&mut self, order: u8) -> Option<u64> {
        let window_frames = 1u64 << order;
        let n_windows = self.buddy.total_frames / window_frames;
        if n_windows == 0 {
            return None;
        }
        let start_window = self.compact_cursor % n_windows;
        for i in 0..n_windows {
            let w = (start_window + i) % n_windows;
            let start = w * window_frames;
            let end = start + window_frames;
            let occupants: Vec<(u64, u8)> = self.buddy.allocated_in(start, end).collect();
            let evacuable = occupants.iter().all(|&(f, o)| {
                f >= start
                    && f + (1u64 << o) <= end
                    && self
                        .tags
                        .get(&f)
                        .is_some_and(|t| matches!(t, AllocTag::PinnedMovable | AllocTag::Data))
            });
            if !evacuable {
                continue;
            }
            let occupied: u64 = occupants.iter().map(|&(_, o)| 1u64 << o).sum();
            let free_inside = window_frames - occupied;
            if self.buddy.free_frames - free_inside < occupied {
                continue;
            }
            if let Some(frame) = self.relocate_and_claim(start, order, &occupants) {
                self.compact_cursor = w + 1;
                return Some(frame);
            }
        }
        None
    }

    fn relocate_and_claim(
        &mut self,
        start: u64,
        order: u8,
        occupants: &[(u64, u8)],
    ) -> Option<u64> {
        let end = start + (1u64 << order);
        let mut moved_bytes = 0;
        for &(frame, o) in occupants {
            let tag = self.tags.remove(&frame).expect("occupant must be tagged");
            let mut parked = Vec::new();
            let new_frame = loop {
                match self.buddy.alloc(o) {
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
                    self.tags.insert(nf, tag);
                    moved_bytes += (1u64 << o) * FRAME_BYTES;
                    self.relocations.push((frame, nf, tag));
                }
                None => {
                    self.tags.insert(frame, tag);
                    self.stats.compaction_moved_bytes += moved_bytes;
                    return None;
                }
            }
        }
        self.stats.compactions += 1;
        self.stats.compaction_moved_bytes += moved_bytes;
        self.buddy.alloc_at(start, order)
    }

    fn alloc_frame_at(&mut self, frame: u64, tag: AllocTag) -> Option<u64> {
        self.buddy.alloc_at(frame, 0)?;
        self.tags.insert(frame, tag);
        self.stats.record_alloc(tag, FRAME_BYTES, 0);
        Some(frame)
    }
}

/// A frame count: a power of two up to two max-order blocks, or not.
fn gen_total_frames(g: &mut Gen) -> u64 {
    if g.bool() {
        1 << (4 + g.below(14))
    } else {
        let base = 1u64 << (4 + g.below(13));
        base + 1 + g.below(base - 1)
    }
}

/// Every query both allocators answer agrees.
fn assert_same_answers(
    g: &mut Gen,
    new: &BuddyAllocator,
    old: &BTreeBuddy,
    live: &[(u64, u8, AllocTag)],
) {
    new.check_invariants();
    old.check_invariants();
    assert_eq!(new.free_frames(), old.free_frames);
    assert_eq!(new.largest_free_order(), old.largest_free_order());
    for o in 0..=MAX_ORDER + 1 {
        assert_eq!(
            new.usable_free_frames(o),
            old.usable_free_frames(o),
            "order {o}"
        );
        assert_eq!(new.fmfi(o).to_bits(), old.fmfi(o).to_bits(), "order {o}");
    }
    let total = new.total_frames();
    for _ in 0..4 {
        let order = g.below(u64::from(MAX_ORDER) + 1) as u8;
        let frame = (g.below(total + 8) >> order) << order;
        assert_eq!(
            new.is_allocated(frame, order),
            old.is_allocated(frame, order)
        );
        // Non-empty windows start and end anywhere, mid-block included.
        // (The BTree version also returns the block around an empty
        // window's start; nothing asks for empty windows.)
        let start = g.below(total + 8);
        let end = start + 1 + g.below(total / 2 + 1);
        let got: Vec<(u64, u8, AllocTag)> = new.allocated_in(start, end).collect();
        let want: Vec<(u64, u8)> = old.allocated_in(start, end).collect();
        let got_blocks: Vec<(u64, u8)> = got.iter().map(|&(f, o, _)| (f, o)).collect();
        assert_eq!(got_blocks, want, "allocated_in({start}, {end})");
        for (f, o, t) in got {
            assert!(
                live.contains(&(f, o, t)),
                "block {f} order {o} has tag {t:?}"
            );
        }
    }
}

#[test]
fn bitmap_buddy_matches_btree_oracle() {
    check("bitmap_buddy_matches_btree_oracle", 96, |g| {
        let total = gen_total_frames(g);
        let mut new = BuddyAllocator::new(total);
        let mut old = BTreeBuddy::new(total);
        let mut live: Vec<(u64, u8, AllocTag)> = Vec::new();
        assert_same_answers(g, &new, &old, &live);
        for _ in 0..g.len(300) {
            let tag = AllocTag::ALL[g.index(AllocTag::COUNT)];
            match g.weighted(&[4, 3, 4]) {
                0 => {
                    // Mostly small orders, now and then one past the largest.
                    let order = match g.weighted(&[6, 3, 1]) {
                        0 => g.below(3) as u8,
                        1 => g.below(u64::from(MAX_ORDER) + 1) as u8,
                        _ => MAX_ORDER + 1,
                    };
                    let got = new.alloc(order, tag);
                    assert_eq!(got, old.alloc(order), "alloc({order})");
                    if let Some(f) = got {
                        live.push((f, order, tag));
                    }
                }
                1 => {
                    let order = g.below(u64::from(MAX_ORDER) + 1) as u8;
                    let order = if g.bool() { order.min(2) } else { order };
                    let frame = (g.below(total + 8) >> order) << order;
                    let got = new.alloc_at(frame, order, tag);
                    assert_eq!(
                        got,
                        old.alloc_at(frame, order),
                        "alloc_at({frame}, {order})"
                    );
                    if let Some(f) = got {
                        live.push((f, order, tag));
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let (f, o, _) = live.swap_remove(g.index(live.len()));
                        new.free(f, o);
                        old.free(f, o);
                    }
                }
            }
            assert_same_answers(g, &new, &old, &live);
        }
        for (f, o, _) in live.drain(..) {
            new.free(f, o);
            old.free(f, o);
        }
        assert_same_answers(g, &new, &old, &live);
        assert_eq!(new.free_frames(), total);
    });
}

/// One step's results agree between the two memories.
fn assert_same_memory(mem: &PhysMem, oracle: &OracleMem) {
    mem.buddy().check_invariants();
    assert_eq!(mem.stats(), &oracle.stats);
    assert_eq!(mem.free_bytes(), oracle.buddy.free_frames * FRAME_BYTES);
    assert_eq!(mem.fmfi().to_bits(), oracle.fmfi().to_bits());
}

/// Drains both memories' relocations, requires them equal, moves the
/// relocated chunks in `live`, and returns the relocations.
fn apply_relocations(
    mem: &mut PhysMem,
    oracle: &mut OracleMem,
    live: &mut [Chunk],
) -> Vec<(u64, u64, AllocTag)> {
    let moves = mem.take_relocations();
    assert_eq!(moves, std::mem::take(&mut oracle.relocations));
    for &(old, new, tag) in &moves {
        let chunk = live
            .iter_mut()
            .find(|c| c.base.0 / FRAME_BYTES == old)
            .expect("relocated chunk is live");
        assert_eq!(chunk.tag, tag);
        chunk.base = PhysAddr(new * FRAME_BYTES);
    }
    moves
}

#[test]
fn phys_mem_matches_oracle_memory() {
    check("phys_mem_matches_oracle_memory", 48, |g| {
        let bytes = (4 + 4 * g.below(4)) * 1024 * 1024;
        let mut mem = PhysMem::new(bytes);
        let mut oracle = OracleMem::new(bytes);
        let frames = bytes / FRAME_BYTES;
        let mut live: Vec<Chunk> = Vec::new();
        for _ in 0..g.len(400) {
            let tag = AllocTag::ALL[g.index(AllocTag::COUNT)];
            match g.weighted(&[3, 4, 2, 2]) {
                0 => {
                    let frame = g.below(frames);
                    let got = mem.alloc_frame_at(frame, tag);
                    assert_eq!(
                        got.map(|c| c.base.0 / FRAME_BYTES),
                        oracle.alloc_frame_at(frame, tag)
                    );
                    live.extend(got);
                }
                1 => {
                    let size = FRAME_BYTES << g.below(3);
                    let got = mem.alloc(size, AllocTag::Data);
                    let want = oracle.alloc(size, AllocTag::Data);
                    assert_eq!(got.map(|c| c.base.0 / FRAME_BYTES), want);
                    live.extend(got);
                }
                2 => {
                    let size = FRAME_BYTES << (7 + g.below(4));
                    let got = mem.alloc(size, tag);
                    let want = oracle.alloc(size, tag);
                    assert_eq!(got.map(|c| c.base.0 / FRAME_BYTES), want);
                    live.extend(got);
                }
                _ => {
                    if !live.is_empty() {
                        let c = live.swap_remove(g.index(live.len()));
                        mem.free(c);
                        oracle.free(c.base.0 / FRAME_BYTES, c.bytes, c.tag);
                    }
                }
            }
            apply_relocations(&mut mem, &mut oracle, &mut live);
            assert_same_memory(&mem, &oracle);
        }
    });
}

#[test]
fn compaction_relocates_data_and_pins_like_the_oracle() {
    let bytes = 16 * 1024 * 1024;
    let mut mem = PhysMem::new(bytes);
    let mut oracle = OracleMem::new(bytes);
    let mut live = Vec::new();
    // A movable pin and a data page in every 2MB window: no 2MB block is
    // free, but every window can be evacuated.
    for w in 0..8u64 {
        for (offset, tag) in [(17, AllocTag::PinnedMovable), (300, AllocTag::Data)] {
            let frame = w * 512 + offset;
            let got = mem.alloc_frame_at(frame, tag).expect("frame is free");
            assert_eq!(oracle.alloc_frame_at(frame, tag), Some(frame));
            live.push(got);
        }
    }
    let mut moved = Vec::new();
    for _ in 0..3 {
        let got = mem.alloc(2 * 1024 * 1024, AllocTag::PageTable);
        let want = oracle.alloc(2 * 1024 * 1024, AllocTag::PageTable);
        assert_eq!(got.map(|c| c.base.0 / FRAME_BYTES), want);
        moved.extend(apply_relocations(&mut mem, &mut oracle, &mut live));
        assert_same_memory(&mem, &oracle);
    }
    assert!(mem.stats().compactions >= 3);
    for tag in [AllocTag::Data, AllocTag::PinnedMovable] {
        assert!(moved.iter().any(|&(_, _, t)| t == tag), "no {tag:?} moved");
    }
}
