//! Choosing the number of clusters k.
//!
//! The paper runs k-means for k = 1..8 and uses the *elbow* method to pick
//! the best k (§V-A), noting that no application needed more than five
//! phases. The elbow here is computed geometrically: plot WCSS against k,
//! draw the chord from the first to the last point, and pick the k whose
//! point lies farthest below the chord (the "kneedle" construction). The
//! silhouette criterion (maximize mean silhouette, k ≥ 2) is provided as
//! the alternative the paper also evaluated.
//!
//! This module holds the two criteria and the result types; the sweep
//! itself — the one place k-means runs for every k — is
//! [`SweepChains::evaluate`](crate::incremental::SweepChains::evaluate).

use crate::kmeans::KMeansResult;

/// Which criterion picks k.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KSelectionMethod {
    /// Maximum distance below the WCSS chord (the paper's choice).
    #[default]
    Elbow,
    /// Maximum mean silhouette over k ≥ 2.
    Silhouette,
}

/// The per-k measurements from a sweep.
#[derive(Debug, Clone)]
pub struct KSweep {
    /// The k values swept (1..=k_max, capped at n).
    pub ks: Vec<usize>,
    /// WCSS per k.
    pub wcss: Vec<f64>,
    /// Mean silhouette per k (`None` for k = 1) under
    /// [`KSelectionMethod::Silhouette`]; empty under the elbow, which
    /// never scores one.
    pub silhouettes: Vec<Option<f64>>,
}

/// The outcome of k selection.
#[derive(Debug, Clone)]
pub struct KSelection {
    /// The chosen k.
    pub k: usize,
    /// The winning clustering.
    pub result: KMeansResult,
    /// The method that chose it.
    pub method: KSelectionMethod,
    /// All per-k measurements, for reporting and ablations.
    pub sweep: KSweep,
}

/// Index (into the sweep arrays) of the elbow of a non-increasing WCSS
/// curve: the point with maximum perpendicular distance below the chord
/// from the first to the last point.
///
/// Degenerate cases: a flat curve (no structure) selects k = 1; a sweep of
/// length 1 selects its only entry.
pub fn elbow_index(wcss: &[f64]) -> usize {
    let n = wcss.len();
    assert!(n >= 1, "empty sweep");
    if n <= 2 {
        // With one or two candidate k's there is no interior elbow; prefer
        // the smallest k that already explains the data: if going from k=1
        // to k=2 barely improves WCSS, keep 1, else take 2.
        if n == 2 && wcss[0] > 0.0 && wcss[1] < 0.5 * wcss[0] {
            return 1;
        }
        return 0;
    }
    let x0 = 0.0;
    let y0 = wcss[0];
    let x1 = (n - 1) as f64;
    let y1 = wcss[n - 1];
    let dx = x1 - x0;
    let dy = y1 - y0;
    let norm = (dx * dx + dy * dy).sqrt();
    if norm == 0.0 || (y0 - y1).abs() <= f64::EPSILON * y0.abs().max(1.0) {
        return 0; // flat curve: one phase
    }
    let mut best_idx = 0;
    let mut best_dist = f64::NEG_INFINITY;
    for (i, &y) in wcss.iter().enumerate() {
        let x = i as f64;
        // Signed perpendicular distance; for a convex decreasing curve the
        // interior points lie below the chord.
        let dist = (dy * x - dx * y + x1 * y0 - y1 * x0) / norm;
        if dist > best_dist {
            best_dist = dist;
            best_idx = i;
        }
    }
    best_idx
}

/// Index of the maximum defined mean silhouette (falling back to the
/// first entry — k = 1 — when none is defined).
pub(crate) fn silhouette_index(silhouettes: &[Option<f64>]) -> usize {
    let mut best_idx = 0; // fall back to k = 1 when nothing is defined
    let mut best = f64::NEG_INFINITY;
    for (i, s) in silhouettes.iter().enumerate() {
        if let Some(v) = s {
            if *v > best {
                best = *v;
                best_idx = i;
            }
        }
    }
    best_idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elbow_index_hand_curve() {
        // Classic elbow at index 2 (k=3): steep drop then plateau.
        let wcss = [100.0, 40.0, 8.0, 7.0, 6.5, 6.0, 5.8, 5.6];
        assert_eq!(elbow_index(&wcss), 2);
    }

    #[test]
    fn elbow_index_flat_curve_is_zero() {
        let wcss = [5.0; 8];
        assert_eq!(elbow_index(&wcss), 0);
    }

    #[test]
    fn elbow_index_short_sweeps() {
        assert_eq!(elbow_index(&[3.0]), 0);
        assert_eq!(elbow_index(&[100.0, 1.0]), 1, "huge improvement takes k=2");
        assert_eq!(
            elbow_index(&[100.0, 90.0]),
            0,
            "marginal improvement keeps k=1"
        );
    }
}
