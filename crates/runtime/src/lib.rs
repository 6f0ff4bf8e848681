//! # incprof-runtime
//!
//! The instrumentation runtime under IncProf — the moral equivalent of
//! compiling with `-pg` and linking glibc's gprof support.
//!
//! Real gprof combines two mechanisms (paper §IV): *function entry
//! instrumentation* (`mcount`, giving call counts and call-graph arcs) and
//! *program-counter sampling* (giving self time that accrues continuously,
//! even in the middle of a single long call). Reproducing both faithfully
//! matters for the IncProf analysis: the body/loop instrumentation-type
//! decision of Algorithm 1 rests on a function showing self time in an
//! interval with **zero** calls, which only happens because PC sampling
//! keeps charging a long-running function between snapshots.
//!
//! This crate therefore implements:
//!
//! * [`Clock`] — a nanosecond clock with three modes: [`Clock::wall`]
//!   (real `Instant`-based time, read per call; AppEKG's heartbeats),
//!   [`Clock::ticked`] (real time published by a shared 1 ms ticker, so a
//!   read is one atomic load; the wall-mode profiler, and gprof's PC
//!   sampling period in clock form) and [`Clock::virtual_clock`]
//!   (deterministic simulated time advanced explicitly by the workload,
//!   used for reproducible experiments).
//! * [`ProfilerRuntime`] — per-thread shadow call stacks with self/child
//!   time attribution. Call counts are recorded at **entry** (like
//!   `mcount`); self time is charged to the currently-running frame and
//!   *flushed at snapshot time*, so cumulative snapshots see partial time
//!   of still-executing functions (like PC sampling).
//! * [`ScopeGuard`] — RAII guard produced by [`ProfilerRuntime::enter`];
//!   dropping it exits the function.
//!
//! ```
//! use incprof_runtime::{Clock, ProfilerRuntime};
//!
//! let rt = ProfilerRuntime::with_clock(Clock::virtual_clock());
//! let f = rt.register_function("cg_solve");
//! {
//!     let _g = rt.enter(f);
//!     rt.clock().advance(1_000_000); // simulate 1 ms of work
//! }
//! let snap = rt.snapshot(0);
//! assert_eq!(snap.flat.get(f).calls, 1);
//! assert_eq!(snap.flat.get(f).self_time, 1_000_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod profiler;

pub use clock::Clock;
pub use profiler::{ProfilerRuntime, ScopeGuard};
