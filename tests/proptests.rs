//! Property-based tests over the core data structures and invariants.

use incprof_suite::cluster::{
    dbscan, kmeans, mean_silhouette, ChainConfig, Dataset, DbscanParams, KMeansConfig,
    KSelectionMethod, SweepChains,
};
use incprof_suite::collect::{IntervalMatrix, SampleSeries};
use incprof_suite::core::PhaseDetector;
use incprof_suite::profile::report::{parse_flat_profile, write_flat_profile};
use incprof_suite::profile::{
    FlatProfile, FunctionId, FunctionInfo, FunctionStats, FunctionTable, GmonData,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_stats() -> impl Strategy<Value = FunctionStats> {
    (0u64..10_000_000_000, 0u64..10_000, 0u64..10_000_000_000).prop_map(
        |(self_time, calls, child_time)| FunctionStats {
            self_time,
            calls,
            child_time,
        },
    )
}

fn arb_flat(max_fns: u32) -> impl Strategy<Value = FlatProfile> {
    proptest::collection::btree_map(0u32..max_fns, arb_stats(), 0..16)
        .prop_map(|m| m.into_iter().map(|(id, s)| (FunctionId(id), s)).collect())
}

/// A monotone cumulative series: start from one profile and only add.
fn arb_cumulative_series() -> impl Strategy<Value = Vec<FlatProfile>> {
    (arb_flat(8), proptest::collection::vec(arb_flat(8), 1..6)).prop_map(|(first, increments)| {
        let mut out = vec![first];
        for inc in increments {
            let mut next = out.last().unwrap().clone();
            next.merge(&inc);
            out.push(next);
        }
        out
    })
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..5).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, d..=d), 2..24)
            .prop_map(Dataset::from_rows)
    })
}

// ---------------------------------------------------------------------
// Profile invariants
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn gmon_roundtrip_is_identity(flat in arb_flat(12)) {
        let mut table = FunctionTable::new();
        for (id, _) in flat.iter() {
            // Ensure every referenced function exists in the table.
            while table.len() <= id.index() {
                let n = table.len();
                table.register_info(FunctionInfo::named(format!("fn_{n}")));
            }
        }
        let gmon = GmonData {
            sample_index: 3,
            timestamp_ns: 99,
            functions: table,
            flat: flat.clone(),
            callgraph: Default::default(),
        };
        let decoded = GmonData::decode(&gmon.encode()).unwrap();
        prop_assert_eq!(decoded.flat, flat);
        prop_assert_eq!(decoded.sample_index, 3);
    }

    #[test]
    fn delta_then_merge_reconstructs(series in arb_cumulative_series()) {
        let deltas = SampleSeries::deltas_of(&series).unwrap();
        let mut sum = FlatProfile::new();
        for d in &deltas {
            sum.merge(d);
        }
        // Sum of all interval deltas equals the final cumulative profile
        // (modulo entries that are all-zero in the final profile).
        let last = series.last().unwrap();
        for (id, s) in last.iter() {
            prop_assert_eq!(sum.get(id), *s);
        }
    }

    #[test]
    fn delta_is_never_negative(series in arb_cumulative_series()) {
        for pair in series.windows(2) {
            let d = pair[1].delta(&pair[0]).unwrap();
            for (_, s) in d.iter() {
                prop_assert!(s.self_time <= pair[1].total_self_time());
            }
        }
    }

    #[test]
    fn report_roundtrip_preserves_calls_and_order(flat in arb_flat(10)) {
        let mut table = FunctionTable::new();
        for (id, _) in flat.iter() {
            while table.len() <= id.index() {
                let n = table.len();
                table.register(format!("func_{n}"));
            }
        }
        let text = write_flat_profile(&flat, &table);
        let rows = parse_flat_profile(&text).unwrap();
        prop_assert_eq!(rows.len(), flat.len());
        // Rows come back in self-time-descending order.
        for pair in rows.windows(2) {
            prop_assert!(pair[0].self_secs >= pair[1].self_secs - 1e-9);
        }
        // Call counts are exact; times within gprof's 10 ms rounding.
        for row in &rows {
            let id = table.id_of(&row.name).unwrap();
            let orig = flat.get(id);
            prop_assert_eq!(row.calls.unwrap_or(0), orig.calls);
            let diff = (row.self_secs - orig.self_time as f64 / 1e9).abs();
            prop_assert!(diff <= 0.005 + 1e-9, "diff {diff}");
        }
    }
}

// ---------------------------------------------------------------------
// Clustering invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kmeans_assigns_to_nearest_centroid(data in arb_dataset(), k in 1usize..5) {
        let k = k.min(data.nrows());
        let res = kmeans(&data, &KMeansConfig::new(k));
        prop_assert_eq!(res.assignments.len(), data.nrows());
        for i in 0..data.nrows() {
            let own = res.sq_dist_to_centroid(&data, i);
            for c in 0..res.k() {
                let d = incprof_suite::cluster::distance::sq_euclidean(
                    data.row(i),
                    res.centroids.row(c),
                );
                prop_assert!(own <= d + 1e-9);
            }
        }
    }

    #[test]
    fn kmeans_is_deterministic(data in arb_dataset()) {
        let cfg = KMeansConfig::new(2.min(data.nrows()));
        let a = kmeans(&data, &cfg);
        let b = kmeans(&data, &cfg);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn silhouette_is_bounded(data in arb_dataset(), k in 2usize..4) {
        let k = k.min(data.nrows());
        let res = kmeans(&data, &KMeansConfig::new(k));
        if let Some(s) = mean_silhouette(&data, &res.assignments) {
            prop_assert!((-1.0..=1.0).contains(&s), "mean silhouette {s}");
        }
    }

    #[test]
    fn select_k_stays_in_sweep_range(data in arb_dataset()) {
        let cfg = ChainConfig::new(KMeansConfig::new(0));
        for method in [KSelectionMethod::Elbow, KSelectionMethod::Silhouette] {
            let sel = SweepChains::new().evaluate(&data, 8, method, &cfg, None, false);
            prop_assert!(sel.k >= 1 && sel.k <= 8.min(data.nrows()));
            prop_assert_eq!(sel.result.assignments.len(), data.nrows());
        }
    }

    #[test]
    fn dbscan_labels_are_dense(data in arb_dataset(), eps in 0.1f64..50.0) {
        let labels = dbscan(&data, DbscanParams { eps, min_points: 2 });
        let k = labels.iter().filter_map(|l| l.cluster()).max().map(|m| m + 1).unwrap_or(0);
        // Every cluster id below k must be inhabited.
        for c in 0..k {
            prop_assert!(labels.iter().any(|l| l.cluster() == Some(c)), "cluster {c} empty");
        }
    }
}

// ---------------------------------------------------------------------
// Pipeline / Algorithm 1 invariants
// ---------------------------------------------------------------------

/// Interval profiles where every interval has at least one active
/// function (so full coverage is achievable).
fn arb_interval_profiles() -> impl Strategy<Value = Vec<FlatProfile>> {
    proptest::collection::vec(
        (
            0u32..6,
            1u64..5_000_000_000,
            0u64..50,
            proptest::collection::btree_map(0u32..6, arb_stats(), 0..4),
        ),
        2..30,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .map(|(anchor, self_time, calls, extra)| {
                let mut p = FlatProfile::new();
                p.set(
                    FunctionId(anchor),
                    FunctionStats {
                        self_time,
                        calls,
                        child_time: 0,
                    },
                );
                for (id, mut s) in extra {
                    // Keep extra entries nonzero-safe.
                    s.self_time = s.self_time.max(1);
                    if FunctionId(id) != FunctionId(anchor) {
                        p.set(FunctionId(id), s);
                    }
                }
                p
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn phase_detection_invariants(intervals in arb_interval_profiles()) {
        let matrix = IntervalMatrix::from_interval_profiles(&intervals);
        let analysis = PhaseDetector::new().detect(&matrix).unwrap();

        // Assignments cover every interval; phases partition them.
        prop_assert_eq!(analysis.assignments.len(), intervals.len());
        let mut all: Vec<usize> =
            analysis.phases.iter().flat_map(|p| p.intervals.iter().copied()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..intervals.len()).collect::<Vec<_>>());

        for phase in &analysis.phases {
            // Coverage meets the 95% threshold (every interval here has
            // an active function, so full coverage is always reachable).
            prop_assert!(
                phase.coverage() >= 0.95 - 1e-9,
                "phase {} coverage {}",
                phase.id,
                phase.coverage()
            );
            // No duplicate ⟨function, type⟩ sites within a phase.
            let mut seen = std::collections::BTreeSet::new();
            for site in &phase.sites {
                prop_assert!(seen.insert((site.function, site.inst_type)));
                prop_assert!(site.phase_pct >= 0.0 && site.phase_pct <= 100.0 + 1e-9);
                prop_assert!(site.app_pct <= site.phase_pct + 1e-9);
                // Attributed intervals belong to the phase and are active
                // for the site's function.
                let col = matrix.col_of(site.function).unwrap();
                for &iv in &site.covered_intervals {
                    prop_assert!(phase.intervals.contains(&iv));
                    prop_assert!(matrix.active(iv, col));
                }
            }
            // Attribution is disjoint across sites.
            let total_attributed: usize =
                phase.sites.iter().map(|s| s.covered_intervals.len()).sum();
            prop_assert!(total_attributed <= phase.intervals.len());
        }

        // WCSS sweep is recorded for k-means and selection is in range.
        prop_assert!(!analysis.wcss_sweep.is_empty());
        prop_assert!(analysis.k >= 1 && analysis.k <= 8);
    }

    #[test]
    fn detection_is_deterministic(intervals in arb_interval_profiles()) {
        let matrix = IntervalMatrix::from_interval_profiles(&intervals);
        let a = PhaseDetector::new().detect(&matrix).unwrap();
        let b = PhaseDetector::new().detect(&matrix).unwrap();
        prop_assert_eq!(a.assignments, b.assignments);
        prop_assert_eq!(a.phases, b.phases);
    }
}

// ---------------------------------------------------------------------
// Heartbeat invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heartbeat_counts_are_conserved(
        durations in proptest::collection::vec(1u64..5_000u64, 1..60),
        gaps in proptest::collection::vec(0u64..5_000u64, 1..60),
    ) {
        use incprof_suite::appekg::AppEkg;
        use incprof_suite::runtime::Clock;
        let clock = Clock::virtual_clock();
        let ekg = AppEkg::new(clock.clone(), 1_000);
        let hb = ekg.register_heartbeat("hb");
        let n = durations.len().min(gaps.len());
        let mut total_duration = 0u64;
        for i in 0..n {
            ekg.begin(hb);
            clock.advance(durations[i]);
            ekg.end(hb);
            total_duration += durations[i];
            clock.advance(gaps[i]);
        }
        let records = ekg.finish();
        let count: u64 = records.iter().map(|r| r.count(hb)).sum();
        let dur: u64 = records
            .iter()
            .filter_map(|r| r.stats(hb))
            .map(|s| s.total_duration_ns)
            .sum();
        prop_assert_eq!(count, n as u64);
        prop_assert_eq!(dur, total_duration);
        // Every record's interval index is consistent with its start.
        for r in &records {
            prop_assert_eq!(r.start_ns, r.interval * 1_000);
        }
        prop_assert_eq!(ekg.unmatched_ends(), 0);
    }
}

// ---------------------------------------------------------------------
// Online detector invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn online_detector_invariants(
        seq in proptest::collection::vec((0u32..4, 0.5f64..2.0), 1..60),
    ) {
        use incprof_suite::core::online::{OnlineConfig, OnlinePhaseDetector};
        let mut det = OnlinePhaseDetector::new(OnlineConfig::default());
        let mut prev_phase = None;
        for (i, &(f, secs)) in seq.iter().enumerate() {
            let mut p = FlatProfile::new();
            p.set(
                FunctionId(f),
                FunctionStats { self_time: (secs * 1e9) as u64, calls: 1, child_time: 0 },
            );
            let obs = det.observe(&p);
            prop_assert_eq!(obs.interval, i);
            prop_assert!(obs.phase < det.n_phases());
            // Transition flag is consistent with the assignment stream.
            prop_assert_eq!(obs.transition, prev_phase.is_some_and(|pp| pp != obs.phase));
            prev_phase = Some(obs.phase);
        }
        // Bounded by the cap and by the number of intervals.
        prop_assert!(det.n_phases() <= 8);
        prop_assert!(det.n_phases() <= seq.len());
        // Phase sizes partition the intervals.
        let total: usize = det.phase_sizes().iter().sum();
        prop_assert_eq!(total, seq.len());
        prop_assert_eq!(det.assignments().len(), seq.len());
    }
}

// ---------------------------------------------------------------------
// Cross-rank aggregate invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank_aggregate_invariants(profiles in proptest::collection::vec(arb_flat(6), 1..8)) {
        use incprof_suite::collect::{representative_rank, RankAggregate};
        let agg = RankAggregate::from_profiles(&profiles);
        prop_assert_eq!(agg.n_ranks(), profiles.len());
        let score = agg.symmetry_score();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&score), "score {score}");
        for (_, fa) in agg.iter() {
            prop_assert!(fa.min_self_secs <= fa.mean_self_secs + 1e-12);
            prop_assert!(fa.mean_self_secs <= fa.max_self_secs + 1e-12);
            prop_assert!(fa.present_on <= profiles.len());
            prop_assert!(fa.cv() >= 0.0);
        }
        prop_assert!(representative_rank(&profiles) < profiles.len());
        // Identical profiles on every rank -> perfect symmetry.
        let clones = vec![profiles[0].clone(); 3];
        let sym = RankAggregate::from_profiles(&clones).symmetry_score();
        prop_assert!((sym - 1.0).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------
// Call-graph report & cycle invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn call_graph_report_roundtrips_arcs(
        arcs in proptest::collection::btree_map((0u32..6, 0u32..6), 1u64..1000, 1..12),
    ) {
        use incprof_suite::profile::cgparse::{callgraph_from_entries, parse_call_graph};
        use incprof_suite::profile::report::write_call_graph;
        use incprof_suite::profile::GmonData;

        let mut gmon = GmonData::default();
        for f in 0..6u32 {
            gmon.functions.register(format!("fn_{f}"));
        }
        for (&(from, to), &count) in &arcs {
            gmon.callgraph.record_arcs(FunctionId(from), FunctionId(to), count);
            // Ensure endpoints appear in the flat profile so the writer
            // emits their primary lines.
            gmon.flat.record_self_time(FunctionId(from), 1_000_000);
            gmon.flat.record_self_time(FunctionId(to), 1_000_000);
            gmon.flat.record_calls(FunctionId(to), count);
        }
        let text = write_call_graph(&gmon);
        let entries = parse_call_graph(&text).unwrap();
        let mut table = FunctionTable::new();
        let rebuilt = callgraph_from_entries(&entries, &mut table);
        for (&(from, to), &count) in &arcs {
            let f = table.id_of(&format!("fn_{from}")).unwrap();
            let t = table.id_of(&format!("fn_{to}")).unwrap();
            prop_assert_eq!(rebuilt.get(f, t).count, count);
        }
        prop_assert_eq!(rebuilt.len(), arcs.len());
    }

    #[test]
    fn cycles_partition_and_detect_self_loops(
        arcs in proptest::collection::btree_set((0u32..8, 0u32..8), 1..20),
    ) {
        use incprof_suite::profile::{cycle_membership, find_cycles, CallGraphProfile};
        let mut cg = CallGraphProfile::new();
        for &(from, to) in &arcs {
            cg.record_arc(FunctionId(from), FunctionId(to));
        }
        let cycles = find_cycles(&cg);
        // Membership is a partition: no function in two cycles.
        let membership = cycle_membership(&cycles);
        let total: usize = cycles.iter().map(|c| c.members.len()).sum();
        prop_assert_eq!(membership.len(), total);
        // Every self arc lands in some cycle.
        for &(from, to) in &arcs {
            if from == to {
                prop_assert!(membership.contains_key(&FunctionId(from)));
            }
        }
        // Every two-node cycle (a->b and b->a) groups a and b together.
        for &(a, b) in &arcs {
            if a != b && arcs.contains(&(b, a)) {
                prop_assert_eq!(
                    membership.get(&FunctionId(a)),
                    membership.get(&FunctionId(b))
                );
            }
        }
    }
}
