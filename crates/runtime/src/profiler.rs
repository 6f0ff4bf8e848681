//! The profiler runtime: shadow stacks, guards, and snapshotting.
//!
//! Semantics, chosen to match gprof's observable behavior (paper §IV):
//!
//! * **Call counts at entry** — `mcount` runs in the function prologue, so
//!   a call that spans many collection intervals contributes its `calls`
//!   increment to the interval it *started* in. Algorithm 1's loop/body
//!   decision depends on this.
//! * **Self time accrues continuously** — gprof's PC sampling charges the
//!   running function between any two snapshots. Each thread tracks which
//!   frame is running, and [`ProfilerRuntime::snapshot`] flushes the
//!   partial self time of every thread's running frame before reading the
//!   counters.
//! * **Child time and arcs at exit** — a callee's total time is attributed
//!   to its caller's `child_time` and to the caller→callee arc when the
//!   callee returns, as gprof's arc records do.
//!
//! Time is whatever the runtime's [`Clock`] reads. [`ProfilerRuntime::new`]
//! uses [`Clock::ticked`], whose reading a shared thread advances every
//! millisecond: a span is charged exactly the ticks that land inside it,
//! which is gprof's PC sampling at 10× its 100 Hz. Under
//! [`Clock::virtual_clock`] the same arithmetic is exact and deterministic.
//!
//! **Work budget of one `enter`/drop pair**, in steady state (the thread
//! has a slot, the function and arc have been seen before): 2 clock reads
//! (one atomic load each on a ticked clock), 2 acquisitions of the
//! thread's own uncontended slot mutex, at most 1 arc lookup (a scan of
//! the callee's short caller list, at entry), and 0 allocations
//! (`tests/work_budget.rs` pins the last number). Counters live in dense
//! per-thread vectors indexed by [`FunctionId::index`]; an exit finds its
//! arc through the index its frame carries.

use crate::clock::Clock;
use incprof_profile::{
    ArcStats, CallGraphProfile, FlatProfile, FunctionId, FunctionStats, FunctionTable, GmonData,
};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Globally unique runtime ids, used to key the thread-local slot list.
static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's slot in each runtime it has entered a function of,
    /// keyed by runtime id. Nearly always one entry; searched from the
    /// back, so the newest runtime is found first.
    static THREAD_SLOTS: RefCell<Vec<(u64, Arc<ThreadSlot>)>> = const { RefCell::new(Vec::new()) };
}

/// One stack frame on a thread's shadow stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    id: FunctionId,
    /// Index of the caller→`id` arc in [`ThreadData::arcs`]; `None` for a
    /// frame entered on an empty stack.
    arc: Option<usize>,
    /// Clock reading when this frame last became the running frame.
    resume_ns: u64,
    /// Clock reading when the frame was entered (for total-time arcs).
    entry_ns: u64,
}

/// One function's counters on one thread.
#[derive(Debug, Default)]
struct FunctionCounters {
    stats: FunctionStats,
    /// Arcs into this function: `(caller, index into ThreadData::arcs)`.
    /// A callee has few distinct callers, so a scan beats any map.
    callers: Vec<(FunctionId, usize)>,
}

/// Per-thread profiling state.
#[derive(Debug, Default)]
struct ThreadData {
    stack: Vec<Frame>,
    /// Indexed by [`FunctionId::index`]; an entry has `calls > 0` once the
    /// function has been entered on this thread.
    functions: Vec<FunctionCounters>,
    arcs: Vec<ArcStats>,
    /// Deepest shadow stack this thread has seen. Kept thread-local (no
    /// shared atomic on the hot `enter` path) and aggregated into the
    /// `runtime.stack.depth_hwm` gauge at snapshot time.
    max_depth: usize,
}

impl ThreadData {
    fn enter(&mut self, id: FunctionId, now: u64) {
        if id.index() >= self.functions.len() {
            self.functions
                .resize_with(id.index() + 1, FunctionCounters::default);
        }
        self.functions[id.index()].stats.calls += 1; // counted at entry (mcount)
        let arc = self.stack.last().copied().map(|caller| {
            // Pause the caller: charge its running span.
            self.functions[caller.id.index()].stats.self_time +=
                now.saturating_sub(caller.resume_ns);
            let arc = self.arc_index(caller.id, id);
            self.arcs[arc].count += 1;
            arc
        });
        self.stack.push(Frame {
            id,
            arc,
            resume_ns: now,
            entry_ns: now,
        });
        self.max_depth = self.max_depth.max(self.stack.len());
    }

    /// The index of the `caller → callee` arc, created on first use.
    fn arc_index(&mut self, caller: FunctionId, callee: FunctionId) -> usize {
        let callers = &mut self.functions[callee.index()].callers;
        if let Some(&(_, arc)) = callers.iter().find(|&&(c, _)| c == caller) {
            return arc;
        }
        self.arcs.push(ArcStats::default());
        callers.push((caller, self.arcs.len() - 1));
        self.arcs.len() - 1
    }

    /// Pop the running frame, which should be `id`'s. Returns false for an
    /// unbalanced exit (empty stack) or a non-LIFO one (another frame on
    /// top, which is then the one popped).
    fn exit(&mut self, id: FunctionId, now: u64) -> bool {
        let Some(frame) = self.stack.pop() else {
            return false;
        };
        debug_assert_eq!(frame.id, id, "scope guards must drop in LIFO order");
        self.functions[frame.id.index()].stats.self_time += now.saturating_sub(frame.resume_ns);
        if let Some(parent) = self.stack.last_mut() {
            // Resume the caller's running span.
            parent.resume_ns = now;
            let total = now.saturating_sub(frame.entry_ns);
            self.functions[parent.id.index()].stats.child_time += total;
            if let Some(arc) = frame.arc {
                self.arcs[arc].child_time += total;
            }
        }
        frame.id == id
    }

    /// Charge the running frame's partial self time up to `now`.
    fn flush(&mut self, now: u64) {
        if let Some(top) = self.stack.last_mut() {
            self.functions[top.id.index()].stats.self_time += now.saturating_sub(top.resume_ns);
            top.resume_ns = now;
        }
    }
}

#[derive(Debug, Default)]
struct ThreadSlot {
    data: Mutex<ThreadData>,
}

#[derive(Debug)]
struct RuntimeInner {
    id: u64,
    clock: Clock,
    functions: RwLock<FunctionTable>,
    /// All thread slots ever registered; slots outlive their threads so a
    /// finished thread's counters stay in subsequent snapshots (as they do
    /// in a real cumulative gmon profile).
    threads: Mutex<Vec<Arc<ThreadSlot>>>,
    enabled: AtomicBool,
}

/// The profiling runtime. Cheap to clone; clones share all state.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ProfilerRuntime {
    inner: Arc<RuntimeInner>,
}

impl ProfilerRuntime {
    /// Create a runtime over a ticked wall clock ([`Clock::ticked`]).
    pub fn new() -> ProfilerRuntime {
        Self::with_clock(Clock::ticked())
    }

    /// Create a runtime over the given clock.
    pub fn with_clock(clock: Clock) -> ProfilerRuntime {
        ProfilerRuntime {
            inner: Arc::new(RuntimeInner {
                id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
                clock,
                functions: RwLock::new(FunctionTable::new()),
                threads: Mutex::new(Vec::new()),
                enabled: AtomicBool::new(true),
            }),
        }
    }

    /// The clock this runtime reads.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Disable profiling: [`ProfilerRuntime::enter`] becomes a near-free
    /// no-op (a single atomic load). This is the "uninstrumented" baseline
    /// used by the Table I overhead experiments.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Release);
    }

    /// Whether profiling is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    /// Register a function by name, returning its id. Idempotent.
    pub fn register_function(&self, name: impl Into<String>) -> FunctionId {
        self.inner.functions.write().register(name)
    }

    /// Look up a registered function id by name.
    pub fn function_id(&self, name: &str) -> Option<FunctionId> {
        self.inner.functions.read().id_of(name)
    }

    /// A clone of the current function table.
    pub fn function_table(&self) -> FunctionTable {
        self.inner.functions.read().clone()
    }

    /// Enter `id` on the calling thread, returning a guard that exits the
    /// function when dropped. Guards must drop in LIFO order on the thread
    /// that entered them (guaranteed by normal scoping); any other exit is
    /// counted in `runtime.guard.unbalanced_exits`.
    #[inline]
    pub fn enter(&self, id: FunctionId) -> ScopeGuard<'_> {
        let armed = self.is_enabled();
        if armed {
            let now = self.inner.clock.now_ns();
            self.with_thread_data(|data| data.enter(id, now));
        }
        ScopeGuard {
            rt: self,
            id,
            armed,
        }
    }

    /// Run `f` inside an entered scope for `id` (convenience wrapper).
    #[inline]
    pub fn scope<T>(&self, id: FunctionId, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(id);
        f()
    }

    fn exit(&self, id: FunctionId) {
        let now = self.inner.clock.now_ns();
        if !self.with_thread_data(|data| data.exit(id, now)) {
            incprof_obs::counter(incprof_obs::names::RUNTIME_GUARD_UNBALANCED_EXITS).inc();
        }
    }

    /// Take a cumulative snapshot across all threads.
    ///
    /// Flushes the partial self time of every thread's running frame first
    /// (the PC-sampling equivalence), then merges all per-thread profiles.
    /// A function appears iff it was entered (`calls > 0`) and an arc iff
    /// it was traversed (`count > 0`). `sample_index` is stamped into the
    /// snapshot by the caller (the collector assigns 0, 1, 2, ... per
    /// interval). The snapshot carries the function table as it stands
    /// after the counters are summed, so every id it counts resolves.
    pub fn snapshot(&self, sample_index: u64) -> GmonData {
        let now = self.inner.clock.now_ns();
        let mut stats: Vec<FunctionStats> = Vec::new();
        let mut arcs: Vec<((FunctionId, FunctionId), ArcStats)> = Vec::new();
        let mut max_depth = 0usize;
        // Sum the dense counters under each thread's lock, which its guards
        // wait on; the sorted maps are built afterwards, with no lock held.
        let threads = self.inner.threads.lock();
        for slot in threads.iter() {
            let mut data = slot.data.lock();
            data.flush(now);
            if stats.len() < data.functions.len() {
                stats.resize(data.functions.len(), FunctionStats::default());
            }
            for (callee, (sum, f)) in stats.iter_mut().zip(&data.functions).enumerate() {
                sum.calls += f.stats.calls;
                sum.self_time += f.stats.self_time;
                sum.child_time += f.stats.child_time;
                let callee = FunctionId(callee as u32);
                arcs.extend(
                    f.callers
                        .iter()
                        .map(|&(caller, arc)| ((caller, callee), data.arcs[arc])),
                );
            }
            max_depth = max_depth.max(data.max_depth);
        }
        drop(threads);
        incprof_obs::counter(incprof_obs::names::RUNTIME_SNAPSHOT_COUNT).inc();
        incprof_obs::gauge(incprof_obs::names::RUNTIME_STACK_DEPTH_HWM)
            .record_max(max_depth as u64);
        let mut flat = FlatProfile::new();
        for (i, s) in stats.into_iter().enumerate().filter(|(_, s)| s.calls > 0) {
            flat.set(FunctionId(i as u32), s);
        }
        let mut callgraph = CallGraphProfile::new();
        for ((caller, callee), arc) in arcs {
            callgraph.record_arcs(caller, callee, arc.count);
            callgraph.record_arc_time(caller, callee, arc.child_time);
        }
        GmonData {
            sample_index,
            timestamp_ns: now,
            functions: self.function_table(),
            flat,
            callgraph,
        }
    }

    /// Run `f` on this thread's data in this runtime, registering a slot
    /// on the thread's first call. The slot is borrowed from the
    /// thread-local list, never cloned.
    fn with_thread_data<T>(&self, f: impl FnOnce(&mut ThreadData) -> T) -> T {
        THREAD_SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            let i = match slots.iter().rposition(|(rt, _)| *rt == self.inner.id) {
                Some(i) => i,
                None => {
                    // Forget slots of runtimes that are gone (the list
                    // holds their last reference) so the list stays short.
                    slots.retain(|(_, slot)| Arc::strong_count(slot) > 1);
                    let slot = Arc::new(ThreadSlot::default());
                    self.inner.threads.lock().push(Arc::clone(&slot));
                    slots.push((self.inner.id, slot));
                    slots.len() - 1
                }
            };
            let mut data = slots[i].1.data.lock();
            f(&mut data)
        })
    }
}

impl Default for ProfilerRuntime {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard for an entered function scope; exits the function on drop.
#[must_use = "dropping the guard immediately exits the scope"]
#[derive(Debug)]
pub struct ScopeGuard<'rt> {
    rt: &'rt ProfilerRuntime,
    id: FunctionId,
    armed: bool,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.rt.exit(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrt() -> ProfilerRuntime {
        ProfilerRuntime::with_clock(Clock::virtual_clock())
    }

    #[test]
    fn single_call_attribution() {
        let rt = vrt();
        let f = rt.register_function("f");
        {
            let _g = rt.enter(f);
            rt.clock().advance(100);
        }
        let snap = rt.snapshot(0);
        assert_eq!(snap.flat.get(f).calls, 1);
        assert_eq!(snap.flat.get(f).self_time, 100);
        assert_eq!(snap.flat.get(f).child_time, 0);
    }

    #[test]
    fn nested_calls_split_self_and_child_time() {
        let rt = vrt();
        let a = rt.register_function("a");
        let b = rt.register_function("b");
        {
            let _ga = rt.enter(a);
            rt.clock().advance(10);
            {
                let _gb = rt.enter(b);
                rt.clock().advance(5);
            }
            rt.clock().advance(3);
        }
        let snap = rt.snapshot(0);
        assert_eq!(snap.flat.get(a).self_time, 13);
        assert_eq!(snap.flat.get(a).child_time, 5);
        assert_eq!(snap.flat.get(b).self_time, 5);
        assert_eq!(snap.callgraph.get(a, b).count, 1);
        assert_eq!(snap.callgraph.get(a, b).child_time, 5);
    }

    #[test]
    fn calls_are_counted_at_entry() {
        let rt = vrt();
        let f = rt.register_function("long_running");
        let _g = rt.enter(f);
        rt.clock().advance(50);
        // Snapshot taken while the function is still running must already
        // show the call (mcount semantics) and the partial self time
        // (PC-sampling semantics).
        let snap = rt.snapshot(0);
        assert_eq!(snap.flat.get(f).calls, 1);
        assert_eq!(snap.flat.get(f).self_time, 50);
    }

    #[test]
    fn self_time_accrues_across_snapshots_for_long_calls() {
        // This is the property Algorithm 1's "loop" designation rests on: a
        // long-running function shows nonzero self time in intervals where
        // its call count delta is zero.
        let rt = vrt();
        let f = rt.register_function("validate_bfs_result");
        let _g = rt.enter(f);
        rt.clock().advance(100);
        let s1 = rt.snapshot(1);
        rt.clock().advance(200);
        let s2 = rt.snapshot(2);
        let delta = s2.flat.delta(&s1.flat).unwrap();
        assert_eq!(delta.get(f).calls, 0, "no new call in second interval");
        assert_eq!(delta.get(f).self_time, 200, "yet self time accrued");
    }

    #[test]
    fn caller_clock_pauses_while_callee_runs() {
        let rt = vrt();
        let a = rt.register_function("a");
        let b = rt.register_function("b");
        let _ga = rt.enter(a);
        rt.clock().advance(7);
        let gb = rt.enter(b);
        rt.clock().advance(100);
        // Mid-callee snapshot: a has 7, b has 100 so far.
        let snap = rt.snapshot(0);
        assert_eq!(snap.flat.get(a).self_time, 7);
        assert_eq!(snap.flat.get(b).self_time, 100);
        drop(gb);
        rt.clock().advance(1);
        let snap2 = rt.snapshot(1);
        assert_eq!(snap2.flat.get(a).self_time, 8);
        assert_eq!(snap2.flat.get(b).self_time, 100);
    }

    #[test]
    fn recursion_is_supported() {
        let rt = vrt();
        let f = rt.register_function("fib");
        fn fib(rt: &ProfilerRuntime, f: FunctionId, n: u32) {
            let _g = rt.enter(f);
            rt.clock().advance(1);
            if n > 0 {
                fib(rt, f, n - 1);
            }
        }
        fib(&rt, f, 4);
        let snap = rt.snapshot(0);
        assert_eq!(snap.flat.get(f).calls, 5);
        assert_eq!(snap.flat.get(f).self_time, 5);
        assert_eq!(snap.callgraph.get(f, f).count, 4);
    }

    #[test]
    fn disabled_runtime_records_nothing() {
        let rt = vrt();
        let f = rt.register_function("f");
        rt.set_enabled(false);
        {
            let _g = rt.enter(f);
            rt.clock().advance(10);
        }
        let snap = rt.snapshot(0);
        assert!(snap.flat.is_empty());
        rt.set_enabled(true);
        {
            let _g = rt.enter(f);
            rt.clock().advance(10);
        }
        assert_eq!(rt.snapshot(1).flat.get(f).calls, 1);
    }

    #[test]
    fn multiple_threads_merge_into_one_snapshot() {
        let rt = vrt();
        let f = rt.register_function("worker");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rt = rt.clone();
                s.spawn(move || {
                    let f = rt.function_id("worker").unwrap();
                    for _ in 0..10 {
                        let _g = rt.enter(f);
                        rt.clock().advance(1);
                    }
                });
            }
        });
        let snap = rt.snapshot(0);
        assert_eq!(snap.flat.get(f).calls, 40);
        // Each of the 40 calls saw at least its own 1ns advance; interleaved
        // advances from other threads can only add observed time.
        assert!(snap.flat.get(f).self_time >= 40);
    }

    #[test]
    fn finished_threads_stay_in_cumulative_snapshots() {
        let rt = vrt();
        rt.register_function("ephemeral");
        {
            let rt2 = rt.clone();
            std::thread::spawn(move || {
                let f = rt2.function_id("ephemeral").unwrap();
                let _g = rt2.enter(f);
                rt2.clock().advance(5);
            })
            .join()
            .unwrap();
        }
        let f = rt.function_id("ephemeral").unwrap();
        let snap = rt.snapshot(0);
        assert_eq!(snap.flat.get(f).calls, 1);
        assert_eq!(snap.flat.get(f).self_time, 5);
    }

    #[test]
    fn two_runtimes_do_not_interfere() {
        let rt1 = vrt();
        let rt2 = vrt();
        let f1 = rt1.register_function("f");
        let f2 = rt2.register_function("f");
        {
            let _g = rt1.enter(f1);
            rt1.clock().advance(9);
        }
        assert_eq!(rt1.snapshot(0).flat.get(f1).self_time, 9);
        assert!(rt2.snapshot(0).flat.get(f2).is_zero());
    }

    #[test]
    fn scope_helper_runs_closure() {
        let rt = vrt();
        let f = rt.register_function("f");
        let val = rt.scope(f, || {
            rt.clock().advance(3);
            42
        });
        assert_eq!(val, 42);
        assert_eq!(rt.snapshot(0).flat.get(f).self_time, 3);
    }

    #[test]
    fn snapshot_is_cumulative_and_monotonic() {
        let rt = vrt();
        let f = rt.register_function("f");
        for _ in 0..3 {
            let _g = rt.enter(f);
            rt.clock().advance(10);
        }
        let s1 = rt.snapshot(0);
        for _ in 0..2 {
            let _g = rt.enter(f);
            rt.clock().advance(10);
        }
        let s2 = rt.snapshot(1);
        let d = s2.flat.delta(&s1.flat).unwrap();
        assert_eq!(d.get(f).calls, 2);
        assert_eq!(d.get(f).self_time, 20);
    }

    #[test]
    fn snapshot_publishes_stack_depth_high_water_mark() {
        let rt = vrt();
        let a = rt.register_function("a");
        let b = rt.register_function("b");
        let c = rt.register_function("c");
        {
            let _ga = rt.enter(a);
            let _gb = rt.enter(b);
            let _gc = rt.enter(c);
        }
        rt.snapshot(0);
        // The gauge is global and record_max; other tests may have pushed
        // it higher, but never lower than this runtime's depth of 3.
        assert!(incprof_obs::gauge(incprof_obs::names::RUNTIME_STACK_DEPTH_HWM).get() >= 3);
        assert!(incprof_obs::counter(incprof_obs::names::RUNTIME_SNAPSHOT_COUNT).get() >= 1);
    }

    #[test]
    fn snapshot_lists_entered_functions_and_traversed_arcs_only() {
        let rt = vrt();
        let a = rt.register_function("a");
        let b = rt.register_function("b");
        let c = rt.register_function("c");
        let never = rt.register_function("never_entered");
        {
            let _ga = rt.enter(a);
            let _gc = rt.enter(c);
            rt.clock().advance(2);
        }
        {
            let _gb = rt.enter(b);
            let _gc = rt.enter(c);
            rt.clock().advance(4);
        }
        let snap = rt.snapshot(0);
        assert_eq!(snap.flat.len(), 3);
        assert!(!snap.flat.contains(never));
        assert_eq!(snap.flat.get(c).calls, 2);
        assert_eq!(snap.flat.get(c).self_time, 6);
        assert_eq!(snap.callgraph.len(), 2);
        assert_eq!(snap.callgraph.get(a, c).child_time, 2);
        assert_eq!(snap.callgraph.get(b, c).child_time, 4);
        assert_eq!(snap.callgraph.get(b, c).count, 1);
    }

    #[test]
    fn every_snapshot_resolves_its_ids_in_its_own_table() {
        let rt = vrt();
        let main = rt.register_function("main");
        let f = rt.register_function("f");
        {
            let _gm = rt.enter(main);
            let _gf = rt.enter(f);
            rt.clock().advance(5);
        }
        let first = rt.snapshot(0);
        let late = rt.register_function("late");
        {
            let _gm = rt.enter(main);
            let _gl = rt.enter(late);
            rt.clock().advance(5);
        }
        let second = rt.snapshot(1);
        assert_eq!([first.functions.len(), second.functions.len()], [2, 3]);
        assert_eq!(second.callgraph.get(main, late).count, 1);
        for snap in [&first, &second] {
            let known = |id: FunctionId| id.index() < snap.functions.len();
            assert!(snap.flat.iter().all(|(id, _)| known(id)));
            assert!(snap
                .callgraph
                .iter()
                .all(|((a, b), _)| known(a) && known(b)));
            // A self-contained payload with an unknown id does not decode.
            assert_eq!(GmonData::decode(&snap.encode()).ok().as_ref(), Some(snap));
        }
    }

    #[test]
    fn a_guard_dropped_on_another_thread_is_a_counted_unbalanced_exit() {
        let rt = vrt();
        let f = rt.register_function("f");
        let g = rt.register_function("g");
        let unbalanced = incprof_obs::counter(incprof_obs::names::RUNTIME_GUARD_UNBALANCED_EXITS);
        let before = unbalanced.get();
        let guard = rt.enter(f);
        std::thread::scope(|s| {
            s.spawn(move || drop(guard));
        });
        assert!(unbalanced.get() > before);
        // The entering thread's frame is still open (a later call is its
        // callee) and its call counted.
        drop(rt.enter(g));
        let snap = rt.snapshot(0);
        assert_eq!(snap.callgraph.get(f, g).count, 1);
        assert_eq!(snap.flat.get(f).calls, 1);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn a_non_lifo_exit_is_counted_in_release_builds() {
        let rt = vrt();
        let a = rt.register_function("a");
        let b = rt.register_function("b");
        let unbalanced = incprof_obs::counter(incprof_obs::names::RUNTIME_GUARD_UNBALANCED_EXITS);
        let before = unbalanced.get();
        let ga = rt.enter(a);
        let gb = rt.enter(b);
        drop(ga);
        drop(gb);
        assert!(unbalanced.get() >= before + 2);
        assert_eq!(rt.snapshot(0).flat.get(a).calls, 1);
    }

    #[test]
    fn slots_of_dropped_runtimes_are_forgotten() {
        std::thread::spawn(|| {
            for _ in 0..100 {
                let rt = vrt();
                let f = rt.register_function("f");
                drop(rt.enter(f));
            }
            // Only the last runtime's slot is left on this thread.
            THREAD_SLOTS.with(|slots| assert_eq!(slots.borrow().len(), 1));
        })
        .join()
        .unwrap();
    }
}
