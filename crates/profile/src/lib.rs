//! # incprof-profile
//!
//! A gprof-compatible profile data model.
//!
//! The IncProf paper (Aaziz et al., CLUSTER 2022) builds its incremental
//! profiling tool on top of GNU *gprof*: the application is compiled with
//! `-pg`, the glibc runtime accumulates a cumulative profile, and IncProf's
//! collector thread periodically forces that cumulative profile out to disk
//! in the `gmon.out` binary format, converting each dump to a *textual*
//! gprof report which the analysis pipeline then parses.
//!
//! This crate reproduces that entire data contract in safe Rust:
//!
//! * [`FunctionTable`] / [`FunctionId`] — the symbol table mapping function
//!   names (and optional source locations) to dense numeric ids.
//! * [`FlatProfile`] — the gprof *flat profile*: per-function self time and
//!   call counts. Supports the cumulative→interval **delta** operation that
//!   is the first step of the IncProf analysis (paper §V-A).
//! * [`CallGraphProfile`] — caller→callee arcs with call counts and child
//!   time, mirroring gprof's call-graph section (used by the paper's
//!   "future work" call-graph-aware site selection, which we implement in
//!   `incprof-core`).
//! * [`GmonData`] — one timestamped cumulative sample as produced by the
//!   IncProf collector once per interval, carrying the function table its
//!   ids refer to as each `gmon.out.N` does, and its binary format in the
//!   spirit of `gmon.out` (tagged records, little-endian), with a writer
//!   and reader. In a [`gmon::Stream`] of them the function table goes
//!   only when it changes, and the counters only as the rows that moved.
//! * [`report`] — a gprof-style **text report** writer and a parser for the
//!   flat-profile table, so the analysis pipeline can consume exactly the
//!   kind of artifact the paper's tooling consumed.
//!
//! All container iteration orders are deterministic (BTree-based), which the
//! downstream clustering pipeline relies on for reproducible experiments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod cycles;
pub mod error;
pub mod flat;
pub mod function;
pub mod gmon;
pub mod report;

pub use callgraph::{ArcStats, CallGraphProfile};
pub use cycles::{cycle_membership, find_cycles, Cycle};
pub use error::ProfileError;
pub use flat::{FlatProfile, FlatRow, FunctionStats};
pub use function::{FunctionId, FunctionInfo, FunctionTable};
pub use gmon::{GmonData, ProfileSnapshot};

/// Nanoseconds, the time unit used throughout the profile data model.
///
/// gprof's own unit is "samples" scaled by the profiling clock rate; we keep
/// everything in integer nanoseconds so both the wall clock and the virtual
/// clock used by deterministic experiments share one representation.
pub type Nanos = u64;

/// Convert nanoseconds to (floating) seconds for report rendering.
#[inline]
pub fn ns_to_secs(ns: Nanos) -> f64 {
    ns as f64 / 1e9
}

/// Convert nanoseconds to (floating) milliseconds for report rendering.
#[inline]
pub fn ns_to_millis(ns: Nanos) -> f64 {
    ns as f64 / 1e6
}
