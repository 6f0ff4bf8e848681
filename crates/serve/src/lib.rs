//! incprof-serve: a streaming phase-detection daemon.
//!
//! The offline pipeline answers "what phases did this run have" after
//! the fact; this crate answers it *while the application runs*. A
//! profiled process (or a replayer) streams cumulative
//! [`incprof_profile::GmonData`] snapshots over TCP or a Unix socket;
//! the daemon keeps one [`session::Session`] per logical run, feeds
//! each interval delta through the incremental
//! [`incprof_core::online::OnlinePhaseDetector`], and answers report
//! queries with JSON that is byte-identical to the offline pipeline on
//! the same series (the *determinism bridge*).
//!
//! Layers, bottom to top:
//!
//! - [`frame`] — the pure, clock-free binary frame codec
//!   (`MAGIC | version | type | session_id | len | payload | crc32`)
//!   shared by client, server, and the on-disk snapshot log (it lives
//!   in `incprof-store` and is re-exported here).
//! - `incprof-store` — the durable session store behind
//!   `--store-dir`: append-only snapshot logs, advisory analysis
//!   checkpoints, tiered retention (format: `docs/PERSISTENCE.md`).
//! - [`session`] — per-run state and the concurrent session registry,
//!   with bounded ingest queues, fault isolation, and — when a store
//!   is attached — LRU eviction plus transparent rehydration.
//! - [`plane`] — the one connection plane every listening socket runs
//!   on: bind, accept loop, bounded hand-off to a fixed thread set,
//!   per-connection frame loop, backpressure, shutdown.
//! - [`server`] — the daemon: the data plane's request handler over the
//!   session registry, graceful drain-on-shutdown.
//! - [`mod@admin`] — the optional read-only admin plane's handler:
//!   Prometheus scrape, trace-tree lookup, flight-recorder dump, health.
//! - [`client`] — a blocking request/reply client (data and admin).
//! - [`signal`] — SIGINT-to-atomic-flag plumbing for the CLI.
//!
//! Frames may carry a version-2 trace extension
//! ([`frame::TraceWire`]): a traced push or query links the client's
//! root span and every server-side span it causes — enqueue, drain,
//! the online observation, the analysis cache and pipeline — into one
//! tree under a single trace id, resolvable via
//! [`FrameType::TraceGet`] on the admin socket.
//!
//! Everything is `std`-only: no async runtime, no external crates.

pub mod admin;
pub mod backoff;
pub mod client;
pub mod frame;
pub mod plane;
pub mod server;
pub mod session;
pub mod signal;

pub use backoff::{retry_backoff, BackoffPolicy, RETRY_POLICY};
pub use client::{Client, ClientError, Push};
pub use frame::{ErrorCode, ErrorInfo, Frame, FrameError, FrameType, SnapshotAck, TraceWire};
pub use incprof_store::{RetentionPolicy, Store};
pub use plane::{BindAddr, PlaneHandle};
pub use server::{ServeConfig, Server, ServerHandle};
pub use session::{Registry, ReportMode, SessionStats};
