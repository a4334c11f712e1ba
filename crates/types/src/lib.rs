//! Common vocabulary types shared by every crate in the ME-HPT workspace.
//!
//! This crate defines the small, dependency-free foundation used throughout
//! the reproduction of *Memory-Efficient Hashed Page Tables* (HPCA 2023):
//!
//! * [`VirtAddr`], [`PhysAddr`], [`Vpn`], [`Ppn`] — newtypes for the two
//!   address spaces and their page numbers ([C-NEWTYPE]).
//! * [`PageSize`] — the three translation granularities supported by the
//!   modeled architecture (4KB, 2MB, 1GB).
//! * [`rng`] — a small deterministic pseudo-random number generator so that
//!   every simulation in the workspace is exactly reproducible from a seed.
//! * [`hashmap`] — a fixed-seed splitmix64 hasher for the simulator's
//!   integer-keyed maps.
//! * [`proptest_lite`] — a dependency-free property-testing harness (the
//!   workspace builds offline, with no crates-io dependencies).
//! * [`ByteSize`] — human-readable formatting of byte quantities, used by the
//!   benchmark harness when printing the paper's tables.
//!
//! # Examples
//!
//! ```
//! use mehpt_types::{PageSize, VirtAddr};
//!
//! let va = VirtAddr::new(0x7f00_1234_5678);
//! assert_eq!(va.vpn(PageSize::Base4K).0, 0x7f00_1234_5678 >> 12);
//! assert_eq!(va.page_offset(PageSize::Base4K), 0x678);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod hashmap;
mod page;
pub mod proptest_lite;
pub mod rng;
mod size;

pub use addr::{PhysAddr, Ppn, VirtAddr, Vpn};
pub use page::{PageSize, PAGE_SIZES};
pub use size::{ByteSize, GIB, KIB, MIB, TIB};
