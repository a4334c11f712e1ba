//! # mehpt — Memory-Efficient Hashed Page Tables
//!
//! A from-scratch Rust reproduction of *Memory-Efficient Hashed Page
//! Tables* (Stojkovic, Mantri, Skarlatos, Xu, Torrellas — HPCA 2023),
//! including every substrate the paper depends on: the ECPT baseline
//! (Elastic Cuckoo Page Tables), an x86-64 radix page table with page-walk
//! caches, a physical-memory allocator with fragmentation modeling and
//! compaction, a TLB hierarchy, synthetic versions of the paper's eleven
//! workloads, and a trace-driven translation simulator that regenerates
//! every table and figure of the evaluation.
//!
//! This crate is a facade: it re-exports the workspace crates as modules.
//! Depend on the individual crates directly if you only need one layer.
//!
//! ## The paper in one paragraph
//!
//! Hashed page tables translate a virtual address with conceptually one
//! memory access, but state-of-the-art designs (ECPT) store each hash-table
//! way in *contiguous* physical memory — up to 64MB per way — which on a
//! fragmented machine is slow to allocate (120M cycles at 0.7 FMFI) or
//! impossible (the run dies above 0.7). ME-HPT fixes this with four
//! techniques: a small MMU-resident **L2P table** breaks ways into
//! discontiguous chunks; **dynamically-changing chunk sizes** keep small
//! processes cheap and large processes mappable; **in-place resizing**
//! makes the new table share the old one's memory (one extra hash-key bit;
//! ~half the entries never move); and **per-way resizing** grows one way at
//! a time. Contiguity needs drop ~92% (64MB → 1MB for the worst workloads)
//! and performance improves over both ECPT and radix tables.
//!
//! ## Quickstart
//!
//! ```
//! use mehpt::core::MeHpt;
//! use mehpt::mem::{AllocTag, PhysMem};
//! use mehpt::types::{PageSize, Ppn, Vpn, GIB, MIB};
//!
//! // A machine with 1GB of physical memory.
//! let mut mem = PhysMem::new(GIB);
//! let mut pt = MeHpt::new(&mut mem)?;
//!
//! // Map 100k pages: the table grows to megabytes...
//! for i in 0..100_000u64 {
//!     pt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut mem)?;
//! }
//! assert!(pt.memory_bytes() > 4 * MIB);
//! // ...but no single allocation ever exceeded one 1MB chunk.
//! assert_eq!(mem.stats().tag(AllocTag::PageTable).max_contiguous_bytes, MIB);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Architecture
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | addresses, page sizes, deterministic RNG, `proptest_lite` |
//! | [`mem`] | buddy allocator, FMFI fragmentation, compaction, alloc costs |
//! | [`hash`] | the one elastic-cuckoo core (all four techniques), the library `ElasticCuckooTable`, level hashing |
//! | [`tlb`] | set-associative caches, TLB hierarchy, flat 200-cycle memory model |
//! | [`radix`] | x86-64 4- or 5-level radix page table + page-walk-cache walker |
//! | [`ecpt`] | the page-table engine ECPT and ME-HPT share (`HptTable<B>`, `Hpt<B>`), the ECPT baseline, CWT/CWC, cuckoo walker |
//! | [`core`] | ME-HPT on that engine: L2P table backing, chunk ladder, in-place + per-way resizing |
//! | [`sim`] | the trace-driven translation simulator (single and multiprogrammed runs) |
//! | [`workloads`] | the eleven calibrated synthetic workloads |
//! | [`lab`] | parallel, deterministic experiment runner (`mehpt-lab`) |
//!
//! See `DESIGN.md` for the full system inventory and the per-experiment
//! index, and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mehpt_core as core;
pub use mehpt_ecpt as ecpt;
pub use mehpt_hash as hash;
pub use mehpt_lab as lab;
pub use mehpt_mem as mem;
pub use mehpt_radix as radix;
pub use mehpt_sim as sim;
pub use mehpt_tlb as tlb;
pub use mehpt_types as types;
pub use mehpt_workloads as workloads;
