//! Host-speed benchmark of the ME-HPT simulator.
//!
//! End to end, it measures simulated accesses per host second, set-up time
//! and peak memory on three workloads, checking every cell's output
//! against stored digests. A separate traced run replays each cell through
//! the layers' public functions to time them one by one. See `README.md`
//! beside this package for the workloads and the metric map.

pub mod cells;
pub mod host;
pub mod replay;
pub mod report;
