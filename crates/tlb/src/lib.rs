//! MMU-side hardware structures: caches, TLBs and the memory latency model.
//!
//! Everything in Table III of the paper that is not a page table lives here:
//!
//! * [`SetAssocCache`] — a set-associative, exact-LRU cache with its
//!   associativity as a const parameter, used to model page-walk caches
//!   (PWC), cuckoo-walk caches (CWC) and TLBs.
//! * [`Tlb`] and [`TlbHierarchy`] — the two-level data TLB with per-page-size
//!   L1 and L2 arrays (64/32/4-entry L1s; 1020/1020/16-entry L2s, where
//!   Table III gives the 12-way L2s 1024 entries: see ROADMAP.md, open
//!   item 5).
//! * [`MemoryModel`] — the latency seen by page-walk memory references:
//!   Table III's 200-cycle average round trip per batch of parallel
//!   accesses ([`MemoryModel::round_trip`], the walkers' one latency rule),
//!   and an access counter that reference walks charge.
//!
//! # Examples
//!
//! ```
//! use mehpt_tlb::{TlbHierarchy, TlbOutcome};
//! use mehpt_types::{PageSize, VirtAddr};
//!
//! let mut tlb = TlbHierarchy::paper_default();
//! let va = VirtAddr::new(0x7000_1234);
//! assert!(matches!(tlb.lookup(va, PageSize::Base4K), TlbOutcome::Miss { .. }));
//! tlb.fill(va.vpn(PageSize::Base4K), PageSize::Base4K);
//! assert!(matches!(tlb.lookup(va, PageSize::Base4K), TlbOutcome::L1Hit { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod memmodel;
#[cfg(test)]
mod oracle;
mod tlb;

pub use cache::{CacheStats, SetAssocCache};
pub use memmodel::MemoryModel;
pub use tlb::{Tlb, TlbHierarchy, TlbOutcome};
