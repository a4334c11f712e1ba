//! Elastic cuckoo hashing — the generic algorithmic core of ME-HPT.
//!
//! Section VIII of the paper points out that the four ME-HPT techniques
//! "are generically applicable to many of today's hash table designs and use
//! cases, beyond HPTs": set-associative directories, memory indices and
//! key-value stores. This crate is that generic library:
//!
//! * [`ElasticCuckoo`] — the workspace's only elastic-cuckoo core: a
//!   W-way cuckoo table that resizes gradually while serving operations
//!   (Elastic Cuckoo Hashing, the ECPT substrate), with configurable
//!   [`ResizeMode`] (**out-of-place** as in the ECPT baseline, or the
//!   paper's **in-place** resizing that reuses the old table's memory) and
//!   [`WaySizing`] (**all-way** doubling, or the paper's **per-way**
//!   resizing with weighted-random insertion). It is generic over a
//!   [`Slots`] store per way and the [`Alloc`] context its mutating calls
//!   pass through.
//! * [`ElasticCuckooTable`] — the application-agnostic table on that core:
//!   `Vec` ways of `(K, V)` slots, allocated by the global allocator.
//! * [`HashFamily`] — the per-way CRC-based hash functions (Table III: CRC,
//!   2-cycle latency), decorrelated with a nonlinear finalizer.
//! * [`LevelHashTable`] — a faithful-enough Level Hashing implementation
//!   (Zuo et al., OSDI'18), the only other hashing scheme with a form of
//!   in-place resizing, used by the Section IX comparison benchmark.
//!
//! The page-table engine (`mehpt_ecpt::HptTable`, for ECPT and ME-HPT) is
//! the core's other user: its slot store is a tag and a 4-byte PTE-row
//! index per slot over physical-memory chunks (the rows live in one arena
//! per table, so they never move), and its allocation context is the
//! simulated physical memory plus the design's backing (contiguous ways
//! for ECPT, chunks registered in `mehpt_core::L2pTable` for ME-HPT). Both
//! tables share [`CuckooConfig`], [`TableStats`] and [`InsertReport`].
//!
//! # Examples
//!
//! ```
//! use mehpt_hash::{Config, ElasticCuckooTable, ResizeMode, WaySizing};
//!
//! let config = Config {
//!     resize_mode: ResizeMode::InPlace,
//!     sizing: WaySizing::PerWay,
//!     ..Config::default()
//! };
//! let mut table = ElasticCuckooTable::new(config);
//! for i in 0..10_000u64 {
//!     table.insert(i, i * 2);
//! }
//! assert_eq!(table.get(&4321), Some(&8642));
//! assert_eq!(table.len(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod crc;
mod elastic;
mod level;
mod stats;
mod table;

pub use config::{Config, ConfigError, CuckooConfig, ResizeMode, WaySizing};
pub use crc::{crc64, Crc64Hasher, HashFamily};
pub use elastic::{Alloc, ElasticCuckoo, InsertReport, Slots, Way};
pub use level::{LevelHashTable, LevelStats};
pub use stats::{ResizeEvent, ResizeKind, TableStats};
pub use table::ElasticCuckooTable;
