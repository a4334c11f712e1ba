//! Elastic cuckoo hashing — the generic algorithmic core of ME-HPT.
//!
//! Section VIII of the paper points out that the four ME-HPT techniques
//! "are generically applicable to many of today's hash table designs and use
//! cases, beyond HPTs": set-associative directories, memory indices and
//! key-value stores. This crate is that generic library:
//!
//! * [`ElasticCuckooTable`] — a W-way cuckoo hash table that resizes
//!   gradually while serving operations (Elastic Cuckoo Hashing, the ECPT
//!   substrate), with configurable
//!   [`ResizeMode`] (**out-of-place** as in the ECPT baseline, or the
//!   paper's **in-place** resizing that reuses the old table's memory) and
//!   [`WaySizing`] (**all-way** doubling, or the paper's **per-way**
//!   resizing with weighted-random insertion).
//! * [`HashFamily`] — the per-way CRC-based hash functions (Table III: CRC,
//!   2-cycle latency), decorrelated with a nonlinear finalizer.
//! * [`LevelHashTable`] — a faithful-enough Level Hashing implementation
//!   (Zuo et al., OSDI'18), the only other hashing scheme with a form of
//!   in-place resizing, used by the Section IX comparison benchmark.
//!
//! The page-table crates implement the same algorithms once more, as one
//! engine specialized for translation entries and hardware walkers
//! (`mehpt_ecpt::HptTable`) with two storage backings: contiguous ways for
//! ECPT, L2P-registered chunks for ME-HPT (`mehpt-core`). This crate is the
//! application-agnostic form with exhaustive unit and property tests of the
//! algorithmic invariants.
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

mod chunked;
mod config;
mod crc;
mod level;
mod stats;
mod table;

pub use chunked::ChunkedVec;
pub use config::{Config, ConfigError, ResizeMode, WaySizing};
pub use crc::{crc64, Crc64Hasher, HashFamily};
pub use level::{LevelHashTable, LevelStats};
pub use stats::{ResizeEvent, ResizeKind, TableStats};
pub use table::ElasticCuckooTable;
