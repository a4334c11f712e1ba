//! Property tests of the physical-memory substrate: buddy invariants under
//! arbitrary allocation/free interleavings, FMFI monotonicity, and
//! compaction safety.

use mehpt_mem::{AllocCostModel, AllocTag, BuddyAllocator, Chunk, PhysMem};
use mehpt_types::proptest_lite::{check, Gen};
use mehpt_types::MIB;

#[derive(Clone, Debug)]
enum Op {
    Alloc(u8),
    FreeNth(usize),
}

fn gen_ops(g: &mut Gen) -> Vec<Op> {
    g.vec_of(400, |g| match g.weighted(&[3, 2]) {
        0 => Op::Alloc(g.below(6) as u8),
        _ => Op::FreeNth(g.u64() as usize),
    })
}

/// Frame accounting never drifts and free blocks stay aligned,
/// whatever the alloc/free interleaving.
#[test]
fn buddy_invariants_hold() {
    check("buddy_invariants_hold", 64, |g| {
        let ops = gen_ops(g);
        let mut buddy = BuddyAllocator::new(4096);
        let mut live: Vec<(u64, u8)> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(order) => {
                    if let Some(frame) = buddy.alloc(order, AllocTag::Data) {
                        assert_eq!(frame % (1 << order), 0, "misaligned block");
                        live.push((frame, order));
                    }
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let (frame, order) = live.swap_remove(n % live.len());
                        buddy.free(frame, order);
                    }
                }
            }
            buddy.check_invariants();
        }
        // Free everything: memory must fully coalesce.
        for (frame, order) in live {
            buddy.free(frame, order);
        }
        buddy.check_invariants();
        assert_eq!(buddy.free_frames(), 4096);
        assert_eq!(buddy.fmfi(9), 0.0, "full coalescing expected");
    });
}

/// Live allocations never overlap.
#[test]
fn buddy_blocks_never_overlap() {
    check("buddy_blocks_never_overlap", 64, |g| {
        let ops = gen_ops(g);
        let mut buddy = BuddyAllocator::new(1024);
        let mut live: Vec<(u64, u8)> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(order) => {
                    if let Some(frame) = buddy.alloc(order, AllocTag::Data) {
                        let (start, end) = (frame, frame + (1u64 << order));
                        for &(f, o) in &live {
                            let (s2, e2) = (f, f + (1u64 << o));
                            assert!(
                                end <= s2 || e2 <= start,
                                "overlap: [{start},{end}) vs [{s2},{e2})"
                            );
                        }
                        live.push((frame, order));
                    }
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let (frame, order) = live.swap_remove(n % live.len());
                        buddy.free(frame, order);
                    }
                }
            }
        }
    });
}

/// PhysMem: stats stay consistent and chunks are aligned and disjoint
/// under arbitrary tagged workloads, including compaction.
#[test]
fn phys_mem_accounting_consistent() {
    check("phys_mem_accounting_consistent", 64, |g| {
        let ops = gen_ops(g);
        let mut mem = PhysMem::with_cost_model(64 * MIB, AllocCostModel::zero_cost());
        let mut live: Vec<Chunk> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(order) => {
                    let bytes = 4096u64 << order.min(10);
                    let tag = if order % 2 == 0 {
                        AllocTag::Data
                    } else {
                        AllocTag::PageTable
                    };
                    if let Ok(chunk) = mem.alloc(bytes, tag) {
                        assert_eq!(chunk.base().0 % bytes, 0);
                        live.push(chunk);
                    }
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let chunk = live.swap_remove(n % live.len());
                        // A compaction may have moved Data chunks; only free
                        // chunks that were never subject to relocation.
                        if chunk.tag() == AllocTag::PageTable {
                            mem.free(chunk);
                        } else {
                            live.push(chunk); // keep data chunks forever
                        }
                    }
                }
            }
            let live_pt: u64 = live
                .iter()
                .filter(|c| c.tag() == AllocTag::PageTable)
                .map(|c| c.bytes())
                .sum();
            assert_eq!(mem.stats().tag(AllocTag::PageTable).current_bytes, live_pt);
        }
    });
}
