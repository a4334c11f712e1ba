//! ME-HPT: Memory-Efficient Hashed Page Tables — the paper's contribution.
//!
//! This crate implements the four techniques of *Memory-Efficient Hashed
//! Page Tables* (HPCA 2023) as a configuration of the ECPT crate's
//! page-table engine ([`mehpt_ecpt::HptTable`]), which runs the workspace's
//! one elastic-cuckoo core (`mehpt_hash::ElasticCuckoo`): the engine's
//! storage backing is the L2P table, and [`MeHptConfig`] turns on in-place
//! and per-way resizing (`ResizeMode::InPlace`, `WaySizing::PerWay`).
//!
//! 1. **Logical-to-Physical (L2P) table** ([`L2pTable`]) — a small
//!    MMU-resident indirection table (32 entries × 3 ways × 3 page sizes,
//!    ~1.16KB) that breaks each HPT way into discontiguous chunks, with
//!    cross-page-size entry stealing (Figure 6).
//! 2. **Dynamically-changing chunk sizes** ([`ChunkSizePolicy`]) — ways
//!    start with 8KB chunks and switch to 1MB/8MB/64MB chunks only when the
//!    L2P subtable fills, so small and large processes are both
//!    memory-efficient (Figure 3).
//! 3. **In-place resizing** — the new table shares the old table's memory;
//!    upsizing consumes one extra hash-key bit so ≈50% of entries stay put
//!    (Figures 4, 5, 13).
//! 4. **Per-way resizing** — one way grows at a time, with weighted-random
//!    insertion and a 2× balance gate (Figures 11, 12).
//!
//! [`MeHpt`] is the per-process page table (`Hpt<L2pTable>`); it implements
//! [`HptView`](mehpt_ecpt::HptView), so the ECPT hardware walker times its
//! walks unchanged (the L2P access hides behind the CWC probe,
//! Section V-D).
//!
//! # Examples
//!
//! ```
//! use mehpt_core::{MeHpt, MeHptConfig};
//! use mehpt_mem::{AllocTag, PhysMem};
//! use mehpt_types::{PageSize, Ppn, Vpn, GIB, MIB};
//!
//! let mut mem = PhysMem::new(GIB);
//! let mut hpt = MeHpt::new(&mut mem)?;
//! for i in 0..100_000u64 {
//!     hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut mem)?;
//! }
//! // The table grew to megabytes, yet no allocation exceeded one 1MB chunk.
//! assert!(hpt.memory_bytes() > 4 * MIB);
//! assert_eq!(mem.stats().tag(AllocTag::PageTable).max_contiguous_bytes, MIB);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunk;
mod l2p;
mod table;

pub use chunk::ChunkSizePolicy;
pub use l2p::{L2pFull, L2pTable};
pub use table::{MeHpt, MeHptConfig, MeHptTable};
