//! # incprof-collect
//!
//! The IncProf incremental profile collector (paper §IV, Fig. 1).
//!
//! In the paper, IncProf is an `LD_PRELOAD`ed library running "its own
//! thread in a sleep/wakeup cycle, and at each wakeup it calls the gprof
//! write function, renames the file to a unique sample name, and goes back
//! to sleep". Each renamed file is one *cumulative* profile; the analysis
//! then converts every file to a gprof text report, parses the reports,
//! and subtracts consecutive samples to obtain per-interval profiles.
//!
//! This crate reproduces that collection-and-reduction stage:
//!
//! * [`IncProfCollector`] — the sleep/wakeup thread (wall-clock mode) or an
//!   explicitly ticked sampler (virtual-clock mode) that snapshots the
//!   [`incprof_runtime::ProfilerRuntime`] once per interval.
//! * [`SampleSeries`] — the ordered cumulative snapshots ("the renamed
//!   gmon.out files"), with the delta step producing interval profiles.
//! * [`series_io`] — a run on disk, the paper's directory of renamed
//!   `gmon.out.N` binaries: the one run format the `incprof` CLI writes
//!   and reads.
//! * [`report_path`] — the optional full-fidelity data path that encodes
//!   every snapshot to a gmon byte stream, renders it to a gprof text
//!   report, and parses it back, reproducing the paper's exact pipeline
//!   (including gprof's 10 ms report rounding).
//! * [`IntervalMatrix`] — the interval × function feature matrix handed to
//!   clustering, with self-time features and the parallel call-count and
//!   activity (rank) data Algorithm 1 needs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collector;
pub mod matrix;
pub mod report_path;
pub mod series;
pub mod series_io;

pub use collector::{CollectorConfig, IncProfCollector};
pub use matrix::IntervalMatrix;
pub use series::{OutOfOrder, SampleSeries};
