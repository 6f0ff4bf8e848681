//! Silhouette coefficients for cluster-quality evaluation.
//!
//! The paper evaluated both elbow and silhouette as "established
//! quantitative methods for selecting k" (§V-A). The silhouette value of a
//! point is `(b - a) / max(a, b)` where `a` is its mean distance to its own
//! cluster's other members and `b` is the smallest mean distance to any
//! other cluster; singletons are defined to have silhouette 0.

use crate::dataset::Dataset;
use crate::distance::PairwiseDistances;

/// Per-point silhouette values for the given assignment.
///
/// `k` is taken to be `max(assignments) + 1`. Returns an empty vector when
/// there are fewer than 2 clusters (silhouette is undefined for k = 1).
///
/// Computes the pairwise-distance matrix internally; callers scoring
/// several assignments of the *same* dataset (the k-sweep)
/// should build one [`PairwiseDistances`] and use
/// [`silhouette_values_pre`] instead.
pub fn silhouette_values(data: &Dataset, assignments: &[usize]) -> Vec<f64> {
    assert_eq!(data.nrows(), assignments.len(), "one assignment per row");
    silhouette_values_pre(&PairwiseDistances::euclidean_of(data), assignments)
}

/// Per-point silhouette values against a precomputed distance matrix
/// (see [`silhouette_values`]; one pool task per point block).
pub fn silhouette_values_pre(pair: &PairwiseDistances, assignments: &[usize]) -> Vec<f64> {
    assert_eq!(pair.n(), assignments.len(), "one assignment per row");
    let n = pair.n();
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    if k < 2 {
        return Vec::new();
    }
    let mut sizes = vec![0usize; k];
    for &a in assignments {
        sizes[a] += 1;
    }
    let sizes = &sizes;

    incprof_par::par_map_index(n, |i| {
        let own = assignments[i];
        if sizes[own] <= 1 {
            return 0.0; // singleton convention
        }
        // Mean distance to every cluster.
        let mut sums = vec![0.0f64; k];
        let row = pair.row(i);
        for j in 0..n {
            if i == j {
                continue;
            }
            sums[assignments[j]] += row[j];
        }
        let a = sums[own] / (sizes[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        let denom = a.max(b);
        if denom > 0.0 {
            (b - a) / denom
        } else {
            0.0
        }
    })
}

/// Mean silhouette over all points; `None` when silhouette is undefined
/// (fewer than 2 clusters or no points).
pub fn mean_silhouette(data: &Dataset, assignments: &[usize]) -> Option<f64> {
    mean_of(&silhouette_values(data, assignments))
}

/// Mean silhouette against a precomputed distance matrix.
pub fn mean_silhouette_pre(pair: &PairwiseDistances, assignments: &[usize]) -> Option<f64> {
    mean_of(&silhouette_values_pre(pair, assignments))
}

fn mean_of(vals: &[f64]) -> Option<f64> {
    if vals.is_empty() {
        None
    } else {
        // lint: allow(D04, sequential index-order mean on the caller thread; inputs are already chunk-deterministic)
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Dataset, Vec<usize>) {
        let data = Dataset::from_rows(vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
            vec![10.0, 10.1],
        ]);
        let assign = vec![0, 0, 0, 1, 1, 1];
        (data, assign)
    }

    #[test]
    fn well_separated_clusters_score_near_one() {
        let (data, assign) = blobs();
        let mean = mean_silhouette(&data, &assign).unwrap();
        assert!(mean > 0.95, "got {mean}");
    }

    #[test]
    fn bad_assignment_scores_negative() {
        let (data, _) = blobs();
        // Deliberately split each blob across both clusters.
        let bad = vec![0, 1, 0, 1, 0, 1];
        let mean = mean_silhouette(&data, &bad).unwrap();
        assert!(mean < 0.0, "got {mean}");
    }

    #[test]
    fn values_bounded_in_unit_interval() {
        let (data, assign) = blobs();
        for v in silhouette_values(&data, &assign) {
            assert!((-1.0..=1.0).contains(&v), "silhouette {v} out of range");
        }
    }

    #[test]
    fn single_cluster_is_undefined() {
        let data = Dataset::from_rows(vec![vec![1.0], vec![2.0]]);
        assert!(mean_silhouette(&data, &[0, 0]).is_none());
    }

    #[test]
    fn singletons_score_zero() {
        let data = Dataset::from_rows(vec![vec![0.0], vec![5.0], vec![5.1]]);
        let vals = silhouette_values(&data, &[0, 1, 1]);
        assert_eq!(vals[0], 0.0);
        assert!(vals[1] > 0.9);
    }

    #[test]
    fn hand_computed_two_points_per_cluster() {
        // Clusters {0,1} at x=0,1 and {2,3} at x=10,11.
        let data = Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]]);
        let vals = silhouette_values(&data, &[0, 0, 1, 1]);
        // Point 0: a = 1 (to point 1), b = (10+11)/2 = 10.5 -> s = 9.5/10.5
        assert!((vals[0] - 9.5 / 10.5).abs() < 1e-12);
        // Point 1: a = 1, b = (9+10)/2 = 9.5 -> s = 8.5/9.5
        assert!((vals[1] - 8.5 / 9.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one assignment per row")]
    fn mismatched_lengths_panic() {
        let data = Dataset::from_rows(vec![vec![0.0]]);
        let _ = silhouette_values(&data, &[0, 0]);
    }

    #[test]
    fn precomputed_matrix_gives_identical_values() {
        let (data, assign) = blobs();
        let pair = PairwiseDistances::euclidean_of(&data);
        let direct = silhouette_values(&data, &assign);
        let pre = silhouette_values_pre(&pair, &assign);
        assert_eq!(direct.len(), pre.len());
        for (a, b) in direct.iter().zip(&pre) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            mean_silhouette(&data, &assign),
            mean_silhouette_pre(&pair, &assign)
        );
    }
}
