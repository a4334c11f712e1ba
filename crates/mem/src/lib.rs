//! Simulated physical memory for the ME-HPT reproduction.
//!
//! The paper's central problem statement (Section III) is about *physical
//! memory contiguity*: an ECPT way can require a 64MB contiguous allocation,
//! which on a fragmented server is slow (120M cycles at 0.7 FMFI) or
//! impossible (above 0.7 FMFI). This crate builds that substrate from
//! scratch:
//!
//! * [`BuddyAllocator`] — a classic binary buddy allocator over 4KB frames,
//!   the ground truth for what contiguous memory exists: per-order free
//!   bitmaps and one record of live blocks and their tags.
//! * [`PhysMem`] — the machine's physical memory: allocation with tags
//!   (page-table vs. data vs. fragmenter), compaction of movable pages,
//!   cycle-cost accounting, and statistics such as the *maximum contiguous
//!   allocation* that Figure 8 and Table I report.
//! * [`Fragmenter`] — reproduces the paper's use of an open-source
//!   fragmentation tool: drives memory to a target [FMFI] and decides which
//!   pinned pages are movable (compactable) vs. unmovable.
//! * [`AllocCostModel`] — the measured allocate-and-zero costs from
//!   Section III (4K/5K/750K/13M/120M cycles for 4KB/8KB/1MB/8MB/64MB at
//!   0.7 FMFI and 2GHz), interpolated over size and fragmentation level.
//!
//! [FMFI]: PhysMem::fmfi
//!
//! # Examples
//!
//! ```
//! use mehpt_mem::{AllocTag, PhysMem};
//! use mehpt_types::MIB;
//!
//! let mut mem = PhysMem::new(64 * MIB);
//! let chunk = mem.alloc(MIB, AllocTag::PageTable)?;
//! assert_eq!(chunk.bytes(), MIB);
//! mem.free(chunk);
//! # Ok::<(), mehpt_mem::AllocError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buddy;
mod cost;
mod error;
mod fragmenter;
#[cfg(test)]
mod oracle;
mod phys;
mod stats;

pub use buddy::BuddyAllocator;
pub use cost::AllocCostModel;
pub use error::AllocError;
pub use fragmenter::Fragmenter;
pub use phys::{AllocTag, Chunk, PhysMem};
pub use stats::{MemStats, TagStats};

/// The frame size all allocations are made of (4KB).
pub const FRAME_BYTES: u64 = 4096;

/// Converts a byte count (power of two, ≥ 4KB) to a buddy order.
///
/// # Panics
///
/// Panics if `bytes` is not a power of two or is smaller than one frame.
pub fn order_of(bytes: u64) -> u8 {
    assert!(
        bytes.is_power_of_two() && bytes >= FRAME_BYTES,
        "allocation size must be a power of two of at least 4KB, got {bytes}"
    );
    (bytes.trailing_zeros() - FRAME_BYTES.trailing_zeros()) as u8
}

/// Converts a buddy order back to a byte count.
pub fn bytes_of_order(order: u8) -> u64 {
    FRAME_BYTES << order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_round_trips() {
        for order in 0..20u8 {
            assert_eq!(order_of(bytes_of_order(order)), order);
        }
    }

    #[test]
    fn known_orders() {
        assert_eq!(order_of(4096), 0);
        assert_eq!(order_of(8192), 1);
        assert_eq!(order_of(1024 * 1024), 8);
        assert_eq!(order_of(64 * 1024 * 1024), 14);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        order_of(12288);
    }
}
