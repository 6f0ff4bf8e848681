//! The pool's scheduling counters, asserted as exact deltas.
//!
//! The counters are process-global and `cargo test` runs a binary's
//! tests concurrently, so this file holds exactly one `#[test]`.

use incprof_par::Pool;

#[test]
fn pool_records_scheduling_metrics() {
    let calls = incprof_obs::counter(incprof_obs::names::PAR_POOL_CALLS).get();
    let tasks = incprof_obs::counter(incprof_obs::names::PAR_POOL_TASKS).get();
    Pool::with_workers(4).map_index(64, 2, |i| i);
    assert_eq!(
        incprof_obs::counter(incprof_obs::names::PAR_POOL_CALLS).get(),
        calls + 1
    );
    assert_eq!(
        incprof_obs::counter(incprof_obs::names::PAR_POOL_TASKS).get(),
        tasks + 32
    );
    assert!(incprof_obs::gauge(incprof_obs::names::PAR_POOL_WORKERS).get() >= 1);
}
