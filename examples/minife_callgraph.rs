//! MiniFE phase discovery plus the paper's call-graph future-work
//! extension: the pipeline initially selects the assembly *leaf*
//! (`sum_in_symm_elem_matrix`); call-graph-aware lifting can move the
//! site up toward the human-chosen driver when the caller is
//! behaviorally equivalent (paper §VI-B).
//!
//! The source-context section at the end joins each discovered site to
//! the run's own measured call graph — its callers, call-path depth and
//! cycle membership, as the daemon's Full report does — the
//! source-oriented attribution the paper motivates.
//!
//! ```text
//! cargo run --release --example minife_callgraph
//! ```

use incprof_suite::collect::IntervalMatrix;
use incprof_suite::core::callgraph_select::lift_sites_to_callers;
use incprof_suite::core::merge::merge_phases_with_same_sites;
use incprof_suite::core::report::render_sites_table;
use incprof_suite::core::{source_context_json, PhaseDetector};
use incprof_suite::hpc_apps::minife::{self, MiniFeConfig};
use incprof_suite::hpc_apps::{HeartbeatPlan, RunMode};

fn main() {
    let cfg = MiniFeConfig {
        n: 14,
        cg_iters: 60,
        procs: 1,
    };
    println!(
        "running MiniFE (n = {}, {} CG iterations) under IncProf...",
        cfg.n, cfg.cg_iters
    );
    let out = minife::run(&cfg, RunMode::virtual_1s(), &HeartbeatPlan::none());
    println!("final CG residual: {:.3e}\n", out.result_check);

    let intervals = out.rank0.series.interval_profiles().unwrap();
    let matrix = IntervalMatrix::from_interval_profiles(&intervals);
    let mut analysis = PhaseDetector::new().detect(&matrix).unwrap();
    let table = &out.rank0.table;

    println!(
        "{}",
        render_sites_table(
            "MINIFE INSTRUMENTED FUNCTIONS (cf. paper Table III)",
            &analysis,
            |id| table.name(id),
            &minife::manual_sites(),
        )
    );

    // Extension 1: call-graph-aware site lifting.
    let callgraph = &out.rank0.series.last().unwrap().callgraph;
    let lifted = lift_sites_to_callers(&mut analysis, &matrix, callgraph);
    println!("call-graph lifting moved {lifted} site(s)\n");
    if lifted > 0 {
        println!(
            "{}",
            render_sites_table(
                "After call-graph lifting",
                &analysis,
                |id| table.name(id),
                &[]
            )
        );
    }

    // Extension 2: merge phases that share instrumentation sites.
    let merged = merge_phases_with_same_sites(&analysis);
    println!(
        "phase merging: {} phases -> {} phases",
        analysis.phases.len(),
        merged.phases.len()
    );

    // Extension 3: source-oriented attribution. Join the detected phases
    // against the same measured arcs: who calls each dominant function,
    // how deep it sits under the call roots, whether it is on a
    // recursion cycle.
    println!(
        "\nsource context (measured callers / depth / cycle per site):\n{}",
        source_context_json(&analysis, |id| table.name(id), callgraph)
    );
}
