//! Dense row-major dataset of feature vectors.

use std::fmt;

/// An `n × d` matrix: one row per interval, one column per feature
/// (in IncProf, one column per profiled function).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Dataset {
    /// Build from row vectors. All rows must share one length.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Dataset {
        let n = rows.len();
        let d = rows.first().map(Vec::len).unwrap_or(0);
        let mut data = Vec::with_capacity(n * d);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                d,
                "row {i} has length {} but expected {d}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Dataset {
            data,
            rows: n,
            cols: d,
        }
    }

    /// Build a zero-filled dataset with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Dataset {
        Dataset {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Number of rows (points).
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Copy of the first `rows` rows (the prefix an incremental fold has
    /// already consumed).
    ///
    /// # Panics
    /// Panics if `rows` exceeds the row count.
    pub fn prefix(&self, rows: usize) -> Dataset {
        assert!(
            rows <= self.rows,
            "prefix of {rows} rows requested from a {}-row dataset",
            self.rows
        );
        Dataset {
            data: self.data[..rows * self.cols].to_vec(),
            rows,
            cols: self.cols,
        }
    }

    /// Iterate rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Copy the rows out as `Vec<Vec<f64>>` (for tests / serialization).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter_rows().map(|r| r.to_vec()).collect()
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dataset {}x{}:", self.rows, self.cols)?;
        for r in self.iter_rows() {
            writeln!(f, "  {r:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_accessors() {
        let d = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(d.nrows(), 3);
        assert_eq!(d.ncols(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert_eq!(d.get(2, 1), 6.0);
    }

    #[test]
    fn set_and_row_mut() {
        let mut d = Dataset::zeros(2, 2);
        d.set(0, 1, 9.0);
        d.row_mut(1)[0] = 7.0;
        assert_eq!(d.to_rows(), vec![vec![0.0, 9.0], vec![7.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn ragged_rows_panic() {
        let _ = Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::from_rows(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.nrows(), 0);
        assert_eq!(d.iter_rows().count(), 0);
    }

    #[test]
    fn zero_column_rows_are_legal() {
        let d = Dataset::from_rows(vec![vec![], vec![]]);
        assert_eq!(d.nrows(), 2);
        assert_eq!(d.ncols(), 0);
    }

    #[test]
    fn prefix_copies_leading_rows() {
        let d = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let p = d.prefix(2);
        assert_eq!(p.to_rows(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(d.prefix(0).nrows(), 0);
        assert_eq!(d.prefix(3), d);
    }

    #[test]
    #[should_panic(expected = "prefix of")]
    fn prefix_beyond_rows_panics() {
        let d = Dataset::from_rows(vec![vec![1.0]]);
        let _ = d.prefix(2);
    }

    #[test]
    fn roundtrip_to_rows() {
        let rows = vec![vec![0.5, -1.0, 2.0], vec![3.5, 4.0, -6.0]];
        assert_eq!(Dataset::from_rows(rows.clone()).to_rows(), rows);
    }
}
