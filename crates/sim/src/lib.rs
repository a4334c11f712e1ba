//! The trace-driven translation simulator.
//!
//! This crate replaces the paper's Simics + SST + DRAMSim2 full-system
//! stack (Section VI) with a trace-driven model that exercises exactly the
//! translation-side behaviour the evaluation measures (see DESIGN.md §3):
//!
//! * every virtual-memory access goes through the two-level TLB hierarchy;
//! * TLB misses trigger a *timed* page walk over the configured page-table
//!   organization — radix with page-walk caches, the ECPT baseline, or
//!   ME-HPT — with each page-table memory reference costing Table III's
//!   200-cycle average round trip to memory;
//! * page faults run a demand-paging OS model: THP policy, physical-frame
//!   allocation (with the paper's fragmentation-calibrated cost for
//!   page-table chunks), page-table insertion, gradual resize migration and
//!   cuckoo re-insertions — all billed in cycles;
//! * an ECPT run **aborts** when a contiguous way allocation fails, exactly
//!   like the paper's runs at FMFI > 0.7.
//!
//! There is one simulated machine: physical memory fragmented to the
//! configured FMFI, one core with one TLB hierarchy, and processes that
//! run round-robin in time slices, each with its own page table of the
//! configured design (chosen in one place, when a process is created).
//! [`run_multi`] runs several processes on it; [`Simulator::run`] runs one
//! process with an unbounded slice, as in the paper's single-application
//! experiments.
//!
//! The output is a [`SimReport`] whose [`Metrics`] carry everything the
//! paper's tables and figures need: cycles (total and per component),
//! page-table memory (final, peak, max contiguous), per-way sizes and
//! upsize counts, L2P usage, kick histograms and moved-entry fractions.
//!
//! # Examples
//!
//! ```
//! use mehpt_sim::{PtKind, SimConfig, Simulator};
//! use mehpt_workloads::{App, WorkloadCfg};
//!
//! let wl = App::Mummer.build(&WorkloadCfg { scale: 0.002, ..WorkloadCfg::default() });
//! let report = Simulator::run(wl, SimConfig::paper(PtKind::MeHpt, false));
//! assert!(report.aborted.is_none());
//! assert!(report.metrics.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod multi;
mod os_map;
mod report;
mod runner;

pub use config::{PtKind, SimConfig};
pub use multi::{l2p_save_restore_cycles, run_multi, MultiConfig, MultiReport};
pub use report::{Metrics, SimReport};
pub use runner::Simulator;

/// Revision counter for the simulator's *model semantics*. Bump it
/// whenever a change makes previously computed results incomparable
/// (cost model, allocation policy, walk timing, RNG derivation).
/// Downstream caches — notably the lab's result journal — key on it, so
/// a bump deterministically invalidates stale results on `--resume`.
pub const MODEL_REVISION: u32 = 1;
