//! The scoped worker pool and its deterministic chunked primitives.
//!
//! The core primitive is [`Pool::map_chunks`]: the index range `0..n` is
//! cut into fixed chunks (boundaries depend only on `n` and the chunk
//! size, never on the worker count), workers claim chunks through one
//! shared atomic cursor (self-scheduling, so a slow chunk — e.g. the
//! k = 8 entry of a k-means sweep — does not stall the others), and the
//! per-chunk results are assembled **in chunk order** on the calling
//! thread. Everything else ([`Pool::map_index`], [`Pool::reduce_chunks`])
//! is built on it, which is what makes the determinism guarantee a
//! single proof obligation rather than three.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while the current thread is a pool worker, so nested parallel
    /// calls degrade to sequential execution instead of spawning a second
    /// tier of threads.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Override the worker count for every subsequent parallel call in this
/// process (the `incprof --threads N` backing). `0` clears the override,
/// restoring `INCPROF_THREADS` / hardware sizing.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count a parallel call issued now would use: the
/// [`set_threads`] override if set, else a positive integer
/// `INCPROF_THREADS` (invalid values are ignored), else
/// [`std::thread::available_parallelism`], else 1.
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("INCPROF_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Default chunk size for an `n`-element map: large enough to amortize
/// scheduling, small enough to load-balance, and a function of `n` only
/// (so chunk boundaries — hence any per-chunk float partials — are the
/// same for every worker count).
pub fn default_chunk(n: usize) -> usize {
    (n / 32).clamp(1, 1024)
}

/// Whether the current thread is already inside a pool worker.
fn in_pool() -> bool {
    IN_POOL.with(|f| f.get())
}

/// Per-call scheduling statistics, merged from the workers after the
/// scope joins and recorded into `incprof-obs` off the hot path.
#[derive(Debug, Default, Clone, Copy)]
struct CallStats {
    tasks: u64,
    steals: u64,
    queue_waits: u64,
}

impl CallStats {
    fn merge(&mut self, other: CallStats) {
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.queue_waits += other.queue_waits;
    }
}

/// A handle on the worker pool: just a resolved worker count. Parallel
/// calls spawn scoped threads on demand (`std::thread::scope`), so there
/// is no persistent pool state to poison and borrowed data needs no
/// `'static` bound.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool sized by the current [`threads`] resolution.
    pub fn current() -> Pool {
        Pool::with_workers(threads())
    }

    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The worker count this pool would use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether a call over `n` items in `nchunks` chunks should run
    /// inline: single worker, nothing to split, or already on a worker.
    fn sequential(&self, nchunks: usize) -> bool {
        self.workers <= 1 || nchunks <= 1 || in_pool()
    }

    /// The core primitive: apply `f` to each fixed chunk of `0..n` and
    /// return the per-chunk results **in chunk order**. Chunk boundaries
    /// depend only on `n` and `chunk`, so the result — including any
    /// floating-point partials formed inside `f` — is identical for every
    /// worker count.
    pub fn map_chunks<A, F>(&self, n: usize, chunk: usize, f: F) -> Vec<A>
    where
        A: Send,
        F: Fn(Range<usize>) -> A + Sync,
    {
        let chunk = chunk.max(1);
        let nchunks = n.div_ceil(chunk);
        let bounds = |c: usize| c * chunk..n.min((c + 1) * chunk);
        if self.sequential(nchunks) {
            return (0..nchunks).map(|c| f(bounds(c))).collect();
        }

        let workers = self.workers.min(nchunks);
        let cursor = AtomicUsize::new(0);
        let parts: Mutex<Vec<(usize, A)>> = Mutex::new(Vec::with_capacity(nchunks));
        let stats: Mutex<CallStats> = Mutex::new(CallStats::default());
        std::thread::scope(|s| {
            for w in 0..workers {
                let (cursor, parts, stats, f, bounds) = (&cursor, &parts, &stats, &f, &bounds);
                s.spawn(move || {
                    let _worker = WorkerGuard::enter();
                    let mut local = CallStats::default();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        local.tasks += 1;
                        if static_owner(c, nchunks, workers) != w {
                            local.steals += 1;
                        }
                        let out = f(bounds(c));
                        // lint: allow(D05, push under an uncontended mutex, held for one Vec push per completed chunk)
                        unpoisoned(parts.lock()).push((c, out));
                    }
                    if local.tasks == 0 {
                        // Arrived after the queue drained: pure spawn
                        // overhead, worth surfacing as a sizing signal.
                        local.queue_waits = 1;
                    }
                    // lint: allow(D05, one stats merge per worker exit, never inside the chunk loop)
                    unpoisoned(stats.lock()).merge(local);
                });
            }
        });

        record_call(unpoisoned(stats.into_inner()), workers);
        let mut parts = unpoisoned(parts.into_inner());
        parts.sort_unstable_by_key(|&(c, _)| c);
        debug_assert_eq!(parts.len(), nchunks, "every chunk produced a result");
        parts.into_iter().map(|(_, a)| a).collect()
    }

    /// Ordered parallel map over indices `0..n`: `out[i] = f(i)`.
    pub fn map_index<U, F>(&self, n: usize, chunk: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let parts = self.map_chunks(n, chunk, |r| r.map(&f).collect::<Vec<U>>());
        let mut out = Vec::with_capacity(n);
        for p in parts {
            out.extend(p);
        }
        out
    }

    /// Chunked reduction: `map` turns each fixed chunk into a partial,
    /// and the partials are folded **in chunk order** on the calling
    /// thread. Because the sequential path forms the same per-chunk
    /// partials over the same boundaries, float reductions are
    /// bit-identical for every worker count. Returns `None` for `n == 0`.
    pub fn reduce_chunks<A, M, F>(&self, n: usize, chunk: usize, map: M, fold: F) -> Option<A>
    where
        A: Send,
        M: Fn(Range<usize>) -> A + Sync,
        F: Fn(A, A) -> A,
    {
        self.map_chunks(n, chunk, map).into_iter().reduce(fold)
    }
}

/// The worker that would own chunk `c` under a static block partition —
/// executing someone else's chunk counts as a steal.
fn static_owner(c: usize, nchunks: usize, workers: usize) -> usize {
    (c * workers / nchunks).min(workers - 1)
}

/// Unwrap a mutex `lock()`/`into_inner()` result. A poisoned pool mutex
/// means a sibling worker panicked mid-chunk; re-raising keeps that
/// original panic the loud failure instead of silently losing results.
fn unpoisoned<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    match r {
        Ok(v) => v,
        // lint: allow(P02, poison only follows a sibling worker's panic; re-panicking propagates that failure, it cannot fire on healthy runs)
        Err(_) => panic!("pool mutex poisoned: a sibling worker panicked"),
    }
}

/// RAII flag marking the current thread as a pool worker.
struct WorkerGuard;

impl WorkerGuard {
    fn enter() -> WorkerGuard {
        IN_POOL.with(|f| f.set(true));
        WorkerGuard
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_POOL.with(|f| f.set(false));
    }
}

/// Record one parallel call's scheduling stats into `incprof-obs`.
fn record_call(stats: CallStats, workers: usize) {
    incprof_obs::counter(incprof_obs::names::PAR_POOL_CALLS).inc();
    incprof_obs::counter(incprof_obs::names::PAR_POOL_TASKS).add(stats.tasks);
    incprof_obs::counter(incprof_obs::names::PAR_POOL_STEALS).add(stats.steals);
    incprof_obs::counter(incprof_obs::names::PAR_POOL_QUEUE_WAITS).add(stats.queue_waits);
    incprof_obs::gauge(incprof_obs::names::PAR_POOL_WORKERS).record_max(workers as u64);
}

/// Ordered map over `0..n` on the [`Pool::current`] pool with the
/// [`default_chunk`] granularity.
pub fn par_map_index<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    Pool::current().map_index(n, default_chunk(n), f)
}

/// Chunked, order-folded reduction over `0..n` on the [`Pool::current`]
/// pool (see [`Pool::reduce_chunks`]).
pub fn par_reduce_chunks<A, M, F>(n: usize, chunk: usize, map: M, fold: F) -> Option<A>
where
    A: Send,
    M: Fn(Range<usize>) -> A + Sync,
    F: Fn(A, A) -> A,
{
    Pool::current().reduce_chunks(n, chunk, map, fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_index_is_ordered_for_every_worker_count() {
        let expect: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        for workers in [1, 2, 3, 8, 17] {
            let pool = Pool::with_workers(workers);
            assert_eq!(pool.map_index(1000, 7, |i| i * 3), expect, "w={workers}");
        }
    }

    #[test]
    fn map_chunks_boundaries_are_fixed() {
        // Chunk boundaries must depend on (n, chunk) only: record them.
        let pool = Pool::with_workers(4);
        let ranges = pool.map_chunks(10, 4, |r| r);
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        let seq = Pool::with_workers(1).map_chunks(10, 4, |r| r);
        assert_eq!(ranges, seq);
    }

    #[test]
    fn float_reduction_is_bit_identical_across_worker_counts() {
        // Sums whose value depends on association order: 1/(i+1) partials.
        let reduce = |workers: usize| {
            Pool::with_workers(workers)
                .reduce_chunks(
                    10_000,
                    64,
                    |r| r.map(|i| 1.0f64 / (i + 1) as f64).sum::<f64>(),
                    |a, b| a + b,
                )
                .unwrap()
        };
        let one = reduce(1);
        for workers in [2, 3, 8] {
            assert_eq!(one.to_bits(), reduce(workers).to_bits(), "w={workers}");
        }
    }

    #[test]
    fn reduce_of_empty_range_is_none() {
        assert_eq!(
            Pool::with_workers(4).reduce_chunks(0, 8, |r| r.len(), |a, b| a + b),
            None
        );
    }

    #[test]
    fn nested_calls_run_sequentially_not_exponentially() {
        // A 4-worker outer map whose tasks each issue another parallel
        // call: the inner calls must degrade to inline execution (the
        // result is the same; this also must not deadlock or explode).
        let pool = Pool::with_workers(4);
        let out = pool.map_index(16, 1, |i| {
            let inner = Pool::with_workers(4).map_index(8, 2, move |j| i * 8 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..16).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn set_threads_overrides_and_clears() {
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(Pool::current().workers(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn static_owner_partitions_evenly() {
        let owners: Vec<usize> = (0..8).map(|c| static_owner(c, 8, 4)).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(static_owner(5, 6, 4), 3);
    }

    #[test]
    fn zero_and_tiny_inputs_work() {
        assert_eq!(Pool::with_workers(4).map_index(0, 8, |i| i), Vec::new());
        assert_eq!(par_map_index(1, |i| i + 1), vec![1]);
    }
}
