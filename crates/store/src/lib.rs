//! # incprof-store — durable session storage
//!
//! A std-only storage layer giving `incprof-serve` sessions a life
//! beyond the daemon process: every ingested snapshot is appended to a
//! per-session on-disk log, analysis state is periodically compacted
//! into checkpoints, and a tiered retention policy bounds how much
//! history a session keeps. A restarted daemon rehydrates sessions from
//! disk transparently, and the determinism discipline carries over: a
//! rehydrated session's report is byte-identical to the never-restarted
//! session's, or the checkpoint is abandoned and the session replays
//! from the log (see `docs/PERSISTENCE.md`).
//!
//! ## Record types
//!
//! Both on-disk record types reuse the IPRF wire codec ([`frame`]), so
//! every record carries a magic, a version byte, and a CRC-32 without
//! any storage-specific framing:
//!
//! * **Snapshot records** ([`frame::FrameType::Snapshot`]) — one per
//!   ingested cumulative snapshot, payload a gmon payload: a delta
//!   against the record before it, or the whole snapshot where the
//!   stream needs one (rule R in [`log`]). They
//!   live in the append-only `log.iprf` and are the source of truth:
//!   replaying them rebuilds the session bit-for-bit.
//! * **Checkpoint records** ([`frame::FrameType::Checkpoint`]) — a
//!   single frame in `checkpoint.iprf` whose payload is an
//!   `incprof_core::AnalysisCache` state blob. Checkpoints are an
//!   optimization, never authority: rehydration validates one against
//!   the replayed log and discards it on any mismatch.
//!
//! ## Modules
//!
//! * [`frame`] — the shared wire/log codec (moved here from
//!   `incprof-serve`, which re-exports it).
//! * [`log`] — the append-only snapshot log and its torn-tail recovery
//!   rule.
//! * [`retention`] — the tiered retention policy (hot tail, strided
//!   history, byte budget).
//! * [`store`] — the store root: directory layout, recovery scan, and
//!   per-session handles.

#![deny(missing_docs)]

pub mod frame;
pub mod log;
pub mod retention;
pub mod store;

pub use log::{LogReplay, SnapshotLog};
pub use retention::{RecordMeta, RetentionPolicy};
pub use store::{AppendOutcome, SessionStore, Store};
