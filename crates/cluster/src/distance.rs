//! Distance functions over feature vectors.
//!
//! k-means in the paper is the ordinary Euclidean variant — "the simple
//! distance-based clustering of k-means is applicable" (§V-A) — so squared
//! Euclidean distance is the workhorse here.

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
/// Panics (debug) if the slices have different lengths.
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // lint: allow(D04, per-pair accumulation over feature dimensions in index order; no parallel split crosses this sum)
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length vectors.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Manhattan (L1) distance, provided for feature-ablation experiments.
#[inline]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // lint: allow(D04, per-pair accumulation over feature dimensions in index order; no parallel split crosses this sum)
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// A dense `n × n` matrix of Euclidean distances between dataset rows,
/// computed row-parallel on the [`incprof_par`] pool.
///
/// Silhouette scoring (and any other all-pairs consumer) is quadratic in
/// the interval count either way; materializing the matrix once lets the
/// k-sweep share it across every k ≥ 2 instead of recomputing
/// the same `n²` distances per candidate k. Entry `(i, j)` is exactly
/// `euclidean(data.row(i), data.row(j))` — same operands, same order —
/// so downstream sums are bit-identical to the on-the-fly formulation.
/// Being a pure function of the rows, the matrix is never serialized:
/// `incprof_core`'s analysis cache checkpoints the rows and rebuilds it.
#[derive(Debug, Clone)]
pub struct PairwiseDistances {
    n: usize,
    dist: Vec<f64>,
}

impl Default for PairwiseDistances {
    fn default() -> Self {
        PairwiseDistances::empty()
    }
}

impl PairwiseDistances {
    /// An empty `0 × 0` matrix — the starting point for incremental
    /// growth via [`PairwiseDistances::extend`].
    pub fn empty() -> PairwiseDistances {
        PairwiseDistances {
            n: 0,
            dist: Vec::new(),
        }
    }

    /// Compute all pairwise Euclidean distances of `data`'s rows, one
    /// pool task per row: [`PairwiseDistances::extend`] from
    /// [`PairwiseDistances::empty`].
    pub fn euclidean_of(data: &crate::dataset::Dataset) -> PairwiseDistances {
        let mut pair = PairwiseDistances::empty();
        pair.extend(data);
        pair
    }

    /// Grow the matrix in place to cover all of `data`'s rows, computing
    /// only the entries a previous `extend` has not already produced.
    ///
    /// Contract: the first `self.n()` rows of `data` must be bit-identical
    /// to the rows this matrix was computed from (callers such as
    /// `incprof_core`'s analysis cache verify this before extending).
    /// Existing entries are *copied*, not recomputed, and every new entry
    /// `(i, j)` is exactly `euclidean(data.row(i), data.row(j))` — the
    /// same operands in the same order as a cold rebuild — so the
    /// extended matrix is bit-identical to `euclidean_of(data)` while
    /// costing O((m² − n²)·d) instead of O(m²·d).
    ///
    /// # Panics
    /// Panics if `data` has fewer rows than the matrix covers: a matrix
    /// left larger than its dataset would only fail later, far from the
    /// cause. The same row count is a no-op.
    pub fn extend(&mut self, data: &crate::dataset::Dataset) {
        let n = self.n;
        let m = data.nrows();
        assert!(m >= n, "extend cannot shrink a matrix: {m} < {n}");
        if m == n {
            return;
        }
        let old = std::mem::take(&mut self.dist);
        let rows: Vec<Vec<f64>> = incprof_par::par_map_index(m, |i| {
            let mut row = Vec::with_capacity(m);
            let mut known = 0;
            if i < n {
                // An old row keeps its already-computed entries verbatim.
                row.extend_from_slice(&old[i * n..(i + 1) * n]);
                known = n;
            }
            row.extend((known..m).map(|j| euclidean(data.row(i), data.row(j))));
            row
        });
        let mut dist = Vec::with_capacity(m * m);
        for row in rows {
            dist.extend(row);
        }
        self.n = m;
        self.dist = dist;
    }

    /// Number of rows (and columns).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between rows `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.dist[i * self.n + j]
    }

    /// The distances from row `i` to every row, as a slice of length `n`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.dist[i * self.n..(i + 1) * self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_euclidean_hand_case() {
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn zero_distance_to_self() {
        let v = [1.5, -2.5, 3.25];
        assert_eq!(sq_euclidean(&v, &v), 0.0);
        assert_eq!(manhattan(&v, &v), 0.0);
    }

    #[test]
    fn manhattan_hand_case() {
        assert_eq!(manhattan(&[1.0, 2.0], &[4.0, -2.0]), 7.0);
    }

    #[test]
    fn symmetry() {
        let a = [1.0, 2.0, 3.0];
        let b = [-1.0, 0.5, 9.0];
        assert_eq!(euclidean(&a, &b), euclidean(&b, &a));
        assert_eq!(manhattan(&a, &b), manhattan(&b, &a));
    }

    #[test]
    fn empty_vectors_have_zero_distance() {
        assert_eq!(sq_euclidean(&[], &[]), 0.0);
    }

    #[test]
    fn pairwise_matches_direct_distances() {
        let data = crate::dataset::Dataset::from_rows(vec![
            vec![0.0, 0.0],
            vec![3.0, 4.0],
            vec![-1.0, 1.0],
        ]);
        let pair = PairwiseDistances::euclidean_of(&data);
        assert_eq!(pair.n(), 3);
        for i in 0..3 {
            for j in 0..3 {
                let direct = euclidean(data.row(i), data.row(j));
                assert_eq!(pair.get(i, j).to_bits(), direct.to_bits());
            }
        }
        assert_eq!(pair.get(0, 1), 5.0);
        assert_eq!(pair.row(1).len(), 3);
    }

    /// Deterministic pseudo-random rows (no RNG dependency needed).
    fn synth_rows(n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| ((i * 31 + j * 7 + 3) % 17) as f64 * 0.37 - 2.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn extend_is_bit_identical_to_cold_rebuild() {
        let rows = synth_rows(9, 4);
        let head = crate::dataset::Dataset::from_rows(rows[..5].to_vec());
        let full = crate::dataset::Dataset::from_rows(rows);
        let mut pair = PairwiseDistances::euclidean_of(&head);
        pair.extend(&full);
        let cold = PairwiseDistances::euclidean_of(&full);
        assert_eq!(pair.n(), cold.n());
        for i in 0..cold.n() {
            for j in 0..cold.n() {
                assert_eq!(pair.get(i, j).to_bits(), cold.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn extend_with_appended_zero_columns_preserves_old_entries() {
        // New feature columns appear as intervals arrive; old rows gain
        // zero-valued entries. Adding (0-0)² terms to a non-negative sum
        // is bit-preserving, so old-pair distances must not move.
        let old_rows = synth_rows(4, 3);
        let mut new_rows: Vec<Vec<f64>> = old_rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.insert(1, 0.0); // column inserted mid-row (id order)
                r.push(0.0); // and appended at the end
                r
            })
            .collect();
        new_rows.push(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut pair =
            PairwiseDistances::euclidean_of(&crate::dataset::Dataset::from_rows(old_rows));
        let full = crate::dataset::Dataset::from_rows(new_rows);
        pair.extend(&full);
        let cold = PairwiseDistances::euclidean_of(&full);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(pair.get(i, j).to_bits(), cold.get(i, j).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "extend cannot shrink a matrix: 3 < 5")]
    fn extend_onto_a_shorter_dataset_panics() {
        let rows = synth_rows(5, 2);
        let head = crate::dataset::Dataset::from_rows(rows[..3].to_vec());
        let mut pair = PairwiseDistances::euclidean_of(&crate::dataset::Dataset::from_rows(rows));
        pair.extend(&head);
    }

    #[test]
    fn extend_same_size_is_a_no_op() {
        let data = crate::dataset::Dataset::from_rows(synth_rows(5, 2));
        let mut pair = PairwiseDistances::euclidean_of(&data);
        let before = pair.clone();
        pair.extend(&data);
        assert_eq!(pair.n(), before.n());
        for i in 0..5 {
            assert_eq!(pair.row(i), before.row(i));
        }
    }
}
