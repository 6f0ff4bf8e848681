//! Additional property tests for the clustering crate.

use incprof_cluster::{
    adjusted_rand_index, kmeans, rand_index, ChainConfig, Dataset, KMeansConfig, KSelectionMethod,
    SweepChains,
};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..4).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(-50.0f64..50.0, d..=d), 2..20)
            .prop_map(Dataset::from_rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wcss_is_nonincreasing_in_k_with_restarts(data in arb_dataset()) {
        let mut prev = f64::INFINITY;
        let k_max = 4.min(data.nrows());
        for k in 1..=k_max {
            let cfg = KMeansConfig { restarts: 16, ..KMeansConfig::new(k) };
            let res = kmeans(&data, &cfg);
            prop_assert!(res.wcss <= prev + 1e-6, "wcss rose at k={k}");
            prev = res.wcss;
        }
    }

    #[test]
    fn selection_result_is_a_partition(data in arb_dataset()) {
        let cfg = ChainConfig::new(KMeansConfig::new(0));
        let sel = SweepChains::new().evaluate(&data, 6, KSelectionMethod::Elbow, &cfg, None, false);
        // Every cluster id below k is inhabited.
        for c in 0..sel.k {
            prop_assert!(sel.result.assignments.contains(&c), "cluster {c} empty");
        }
        prop_assert!(sel.result.assignments.iter().all(|&a| a < sel.k));
    }

    #[test]
    fn ari_invariants(labels in proptest::collection::vec(0usize..4, 2..30)) {
        // Identity and permutation invariance.
        prop_assert!((adjusted_rand_index(&labels, &labels) - 1.0).abs() < 1e-12);
        let permuted: Vec<usize> = labels.iter().map(|&l| (l + 1) % 4).collect();
        prop_assert!((adjusted_rand_index(&labels, &permuted) - 1.0).abs() < 1e-9);
        // Bounded above by 1; rand index in [0,1].
        let other: Vec<usize> = labels.iter().map(|&l| l / 2).collect();
        let ari = adjusted_rand_index(&labels, &other);
        prop_assert!(ari <= 1.0 + 1e-12, "ari {ari}");
        let ri = rand_index(&labels, &other);
        prop_assert!((0.0..=1.0).contains(&ri));
    }
}
