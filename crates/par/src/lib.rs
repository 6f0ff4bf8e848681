//! # incprof-par
//!
//! The single parallelism surface of the IncProf stack: a dependency-free,
//! `std::thread::scope`-based worker pool with **deterministic** chunked
//! map / reduce primitives.
//!
//! The paper's analysis side — the k = 1..8 k-means sweep with elbow
//! selection (§V-A), Lloyd's assignment step, and the silhouette /
//! pairwise-distance work — is embarrassingly parallel, but a profiling
//! framework's analysis must stay *reproducible*: the phases reported for
//! a run cannot depend on how many cores happened to be available. Every
//! primitive here therefore guarantees **bit-identical results for any
//! worker count**, including one:
//!
//! * chunk boundaries are fixed by the input length alone (never by the
//!   worker count), so floating-point partials are formed over the same
//!   index ranges everywhere;
//! * partial results are merged **in chunk-index order** on the calling
//!   thread — there are no atomics-ordered float accumulations;
//! * nested calls from inside a pool worker run sequentially (same
//!   values, no thread explosion), so parallel stages compose freely.
//!
//! ## Sizing
//!
//! The worker count is resolved per call ([`threads`]): a process-wide
//! programmatic override ([`set_threads`], used by `incprof --threads N`)
//! wins, then the `INCPROF_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! ## Observability
//!
//! Each parallel call records into [`incprof_obs`]: `par.pool.calls`,
//! `par.pool.tasks` (chunks executed), `par.pool.steals` (chunks executed
//! by a worker other than their static owner — load imbalance absorbed by
//! self-scheduling), `par.pool.queue_waits` (workers that arrived after
//! the queue had drained), and the `par.pool.workers` gauge.
//!
//! ## Entry points
//!
//! ```
//! // Ordered map over indices (chunked automatically):
//! let squares = incprof_par::par_map_index(100, |i| i * i);
//! assert_eq!(squares[7], 49);
//!
//! // Chunked reduction with a deterministic (ordered) fold:
//! let total = incprof_par::par_reduce_chunks(1000, 64, |r| r.sum::<usize>(), |a, b| a + b);
//! assert_eq!(total, Some(999 * 1000 / 2));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod pool;

pub use pool::{default_chunk, par_map_index, par_reduce_chunks, set_threads, threads, Pool};
