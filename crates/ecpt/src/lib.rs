//! Elastic Cuckoo Page Tables (ECPT) — the state-of-the-art HPT baseline —
//! and the page-table engine that ME-HPT shares with it.
//!
//! This crate reproduces the design of Skarlatos et al. (ASPLOS'20), which
//! the paper uses as its baseline (Section II-B, Table III):
//!
//! * one table per page size (4KB / 2MB / 1GB), each a 3-way cuckoo hash
//!   table of **clustered entries** — one 64-byte entry holds the
//!   translations of 8 contiguous pages (Yaniv & Tsafrir's page-table-entry
//!   clustering), keyed by `VPN >> 3`;
//! * **gradual resizing** with per-way rehash pointers: upsizes above 0.6
//!   occupancy, downsizes below 0.2, entries migrated as inserts arrive;
//! * **Cuckoo Walk Tables** (kept by [`Hpt`]) and **Cuckoo Walk Caches**
//!   (in [`EcptWalker`]) that tell the hardware walker which page size's
//!   table to probe, keeping a walk at one (parallel) memory access in the
//!   common case.
//!
//! The engine is [`HptTable`] (one page size) and [`Hpt`] (a process),
//! generic over a [`Backing`]: where the ways' chunks come from, plus the
//! few policies that differ between designs. `HptTable` runs the
//! workspace's one elastic-cuckoo core, `mehpt_hash::ElasticCuckoo`, over
//! ways of clustered entries (per slot a tag and the index of the cluster's
//! PTE row, over physical-memory chunks; the rows live in one dense arena
//! per table, so host memory follows the clusters stored while the model
//! counts 64 bytes per slot); the library's
//! `mehpt_hash::ElasticCuckooTable` runs the same core over `Vec` ways. The
//! ECPT baseline is the backing `()` — [`Ecpt`] and [`EcptTable`]: each way
//! is **one contiguous physical-memory chunk**, resized **out of place**
//! and all ways at once. That is the memory-contiguity problem ME-HPT
//! solves: a way can grow to 64MB, and on a fragmented machine that
//! allocation is slow or impossible.
//! ME-HPT (`mehpt_core`) is the same engine with L2P-registered chunks,
//! in-place and per-way resizing.
//!
//! # Examples
//!
//! ```
//! use mehpt_ecpt::Ecpt;
//! use mehpt_mem::PhysMem;
//! use mehpt_types::{PageSize, Ppn, VirtAddr, MIB};
//!
//! let mut mem = PhysMem::new(64 * MIB);
//! let mut ecpt = Ecpt::new(&mut mem)?;
//! let va = VirtAddr::new(0x7000_2000);
//! ecpt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(99), &mut mem)?;
//! assert_eq!(ecpt.translate(va), Some((Ppn(99), PageSize::Base4K)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cwt;
mod entry;
mod process;
mod table;
mod view;
mod walker;

pub use cwt::CwtSet;
pub use entry::{ClusterEntry, CLUSTER_PTES};
pub use mehpt_hash::{CuckooConfig, InsertReport};
pub use process::{Ecpt, Hpt};
pub use table::{chunks_for, Backing, EcptTable, HptTable};
pub use view::HptView;
pub use walker::{EcptWalker, HptWalkResult};
