//! Ablation: sampling-interval sensitivity.
//!
//! Gadget2's fast sub-second timestep functions defeat the paper's
//! 1-second interval analysis (§VI-E: "this points to a need for an
//! alternative analysis scheme for applications with fast phases").
//! This binary collects each app once at 0.25 s and reads every coarser
//! interval off that run with [`SampleSeries::coarsen`]: on the virtual
//! clock a coarse run's samples are the fine run's samples at the coarse
//! boundaries. It reports how the detected phase structure shifts.
//!
//! [`SampleSeries::coarsen`]: incprof_collect::SampleSeries::coarsen

use hpc_apps::plan::{discovered_site_names, HeartbeatPlan};
use incprof_bench::apps::Size;
use incprof_core::PhaseDetector;

/// The finest interval; every row's interval is a multiple of it.
const FINE_NS: u64 = 250_000_000;

fn main() {
    println!(
        "{:<9} {:>9} {:>10} {:>2}  sites",
        "app", "interval", "intervals", "k"
    );
    for app in incprof_bench::ALL_APPS {
        let fine = app
            .run_virtual_at(Size::Medium, FINE_NS, &HeartbeatPlan::none())
            .rank0;
        for (label, m) in [("0.25s", 1), ("0.5s", 2), ("1s", 4), ("2s", 8), ("4s", 16)] {
            let series = fine.series.coarsen(m);
            match PhaseDetector::new().detect_series(&series) {
                Ok(analysis) => {
                    let names = discovered_site_names(&analysis, &fine.table);
                    println!(
                        "{:<9} {:>9} {:>10} {:>2}  {}",
                        app.name(),
                        label,
                        series.len(),
                        analysis.k,
                        names.into_iter().collect::<Vec<_>>().join(", ")
                    );
                }
                Err(e) => println!("{:<9} {:>9} failed: {e}", app.name(), label),
            }
        }
    }
}
