//! The paper-facing call graph: the `source_context` join over a run's
//! measured arcs gives back function ids that round-trip against the
//! profile's function table.

use incprof_suite::collect::IntervalMatrix;
use incprof_suite::core::{source_context_json, PhaseDetector};
use incprof_suite::hpc_apps::minife::{self, MiniFeConfig};
use incprof_suite::hpc_apps::{HeartbeatPlan, RunMode};

#[test]
fn source_context_ids_round_trip_against_the_function_table() {
    // Run MiniFE, detect phases, join against the run's own arcs (the
    // last cumulative snapshot's call graph, as the daemon does), then
    // check every (id, name) pair in the emitted source_context resolves
    // back through the run's FunctionTable both ways.
    let cfg = MiniFeConfig {
        n: 10,
        cg_iters: 40,
        procs: 1,
    };
    let out = minife::run(&cfg, RunMode::virtual_1s(), &HeartbeatPlan::none());
    let intervals = out.rank0.series.interval_profiles().unwrap();
    let matrix = IntervalMatrix::from_interval_profiles(&intervals);
    let analysis = PhaseDetector::new().detect(&matrix).unwrap();
    let table = &out.rank0.table;

    let callgraph = &out.rank0.series.last().unwrap().callgraph;
    let json = source_context_json(&analysis, |id| table.name(id), callgraph);

    let mut checked = 0;
    for entry in json.split("{\"id\":").skip(1) {
        let (id, rest) = entry.split_once(",\"name\":\"").expect("id/name shape");
        let name = rest.split('"').next().unwrap();
        let id: u32 = id.parse().unwrap();
        assert_eq!(
            table.id_of(name).map(|f| f.0),
            Some(id),
            "source_context id {id} does not round-trip for {name}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no functions in source_context:\n{json}");
    // And the paper's §VI-B shape: the assembly leaf's measured caller
    // is the human-chosen driver, `perform_element_loop`.
    assert!(
        json.contains(
            "\"name\":\"sum_in_symm_elem_matrix\",\"callers\":[\"perform_element_loop\"]"
        ),
        "{json}"
    );
}
