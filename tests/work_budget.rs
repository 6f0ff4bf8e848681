//! Exact work budgets: counted work, not timed work, so they hold on any
//! host and a change to them is a reviewable edit of an expected number.
//!
//! The guard pair's budget (see `incprof_runtime::profiler`): 2 clock
//! reads, 2 slot-lock acquisitions, at most 1 arc lookup and **0
//! allocations** once the thread's slot, the function's counters and the
//! arc exist. The query-miss budget under elbow selection: **no
//! pairwise-distance matrix**, so no block of O(n²) bytes.
//!
//! This file pins both with a counting global allocator, which is why it
//! is a test binary of its own. The allocator counts allocations and the
//! largest block per thread, so the tests, each on its own thread, cannot
//! move each other's numbers; the guard test reads a virtual clock and
//! the query test runs the analysis pool on the calling thread.

use incprof_suite::collect::SampleSeries;
use incprof_suite::core::{AnalysisCache, PhaseDetector};
use incprof_suite::profile::{FunctionId, FunctionStats, GmonData};
use incprof_suite::runtime::{Clock, ProfilerRuntime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations made by
/// the calling thread and recording the largest block it asked for.
struct Counting;

fn count_one(size: usize) {
    // `try_with`: allocations during thread teardown are not ours to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the counters are const-initialised thread-local `Cell`s, which neither
// allocate nor panic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Pairs measured per depth after the warm-up pair.
const PAIRS: u64 = 10_000;

/// Allocations made by `PAIRS` steady-state `enter`/drop pairs of `f`.
fn allocations_per_run(rt: &ProfilerRuntime, f: FunctionId) -> u64 {
    // Warm-up: registers the thread's slot, sizes the counters, makes
    // the arc from whatever frame is open.
    drop(rt.enter(f));
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..PAIRS {
        let _g = rt.enter(f);
        rt.clock().advance(1);
    }
    ALLOCATIONS.with(Cell::get) - before
}

/// Run `f` with every function of `open` entered, innermost last.
fn nested(rt: &ProfilerRuntime, open: &[FunctionId], f: &mut dyn FnMut() -> u64) -> u64 {
    match open.split_first() {
        None => f(),
        Some((&id, rest)) => {
            let _g = rt.enter(id);
            nested(rt, rest, f)
        }
    }
}

#[test]
fn a_steady_state_guard_pair_allocates_nothing_at_depth_1_and_8() {
    let rt = ProfilerRuntime::with_clock(Clock::virtual_clock());
    let ids: Vec<FunctionId> = (0..9)
        .map(|i| rt.register_function(format!("f{i}")))
        .collect();

    assert_eq!(allocations_per_run(&rt, ids[0]), 0, "depth 1");
    let d8 = nested(&rt, &ids[1..], &mut || allocations_per_run(&rt, ids[0]));
    assert_eq!(d8, 0, "under 8 open frames");

    // The pairs were really profiled, and the counter really counts.
    let snap = rt.snapshot(0);
    assert_eq!(snap.flat.get(ids[0]).calls, 2 * (PAIRS + 1));
    assert_eq!(snap.callgraph.get(ids[8], ids[0]).count, PAIRS + 1);
    let before = ALLOCATIONS.with(Cell::get);
    drop(std::hint::black_box(vec![0u8; 1]));
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 1);
}

/// Intervals in the streamed session: perfbench's long-session length.
const N: usize = 1024;

/// One MiB: more than any O(n·d) block of the n = 1024 analysis, an
/// eighth of the n × n f64 matrix.
const MIB: usize = 1 << 20;

/// A cumulative series of `n` snapshots over 12 functions in four
/// phases of 64 intervals each, three hot functions per phase.
fn phased_series(n: usize) -> SampleSeries {
    let mut series = SampleSeries::new();
    let mut totals = [FunctionStats::default(); 12];
    for i in 0..n as u64 {
        let phase = (i / 64 % 4) as usize;
        for (f, t) in totals.iter_mut().enumerate() {
            t.self_time += if f / 3 == phase {
                900_000 + (i * 7 + f as u64 * 13) % 97 * 1_000
            } else {
                (i + f as u64) % 5 * 100
            };
            t.calls += u64::from(f / 3 == phase);
        }
        let mut snap = GmonData {
            sample_index: i,
            timestamp_ns: i * 1_000_000,
            ..Default::default()
        };
        for (f, t) in totals.iter().enumerate() {
            snap.flat.set(FunctionId(f as u32), *t);
        }
        series.push(snap);
    }
    series
}

/// The largest single block the calling thread allocates while `f` runs.
fn largest_block<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// A query after one pushed snapshot, on a session of n = 1024, under
/// the default (elbow) detector, allocates no block of 1 MiB or more.
/// Before silhouettes were confined to silhouette selection, the cache
/// grew an n × n pairwise-distance matrix on this miss
/// (`PairwiseDistances::extend`, one 8·n² = 8 MiB block), and this test
/// failed there.
#[test]
fn an_elbow_query_miss_at_n_1024_allocates_no_pairwise_matrix() {
    incprof_suite::par::set_threads(1);
    let full = phased_series(N);
    let mut head = SampleSeries::new();
    for snap in &full.snapshots()[..N - 1] {
        head.push(snap.clone());
    }
    let detector = PhaseDetector::default();
    let mut cache = AnalysisCache::new();
    cache.analyze(&detector, &head).expect("warm the cache");

    let (_, misses) = cache.stats();
    let (analysis, largest) = largest_block(|| cache.analyze(&detector, &full));
    let analysis = analysis.expect("query after one push");
    assert_eq!(cache.stats().1, misses + 1, "the query was a memo miss");
    assert_eq!(analysis.assignments.len(), N);
    assert!(
        largest < MIB,
        "an elbow query miss at n = {N} allocated a {largest}-byte block"
    );

    // The allocator really sees blocks of that size.
    let (_, probe) = largest_block(|| drop(std::hint::black_box(vec![0u8; MIB])));
    assert_eq!(probe, MIB);
}
