//! DBSCAN density-based clustering.
//!
//! The paper reports: "We have also experimented with other clustering
//! algorithms (e.g., DBSCAN) but also have not seen improvements" (§V-A).
//! We implement DBSCAN so the same comparison can be run as an ablation —
//! notably its tendency, on interval-profile data, to lump a continuum of
//! intervals into one irregular cluster, which is exactly the behavior the
//! paper argues makes plain k-means preferable for phases.

use crate::dataset::Dataset;
use crate::distance::euclidean;

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// Neighborhood radius.
    pub eps: f64,
    /// Minimum neighborhood size (including the point itself) for a core
    /// point.
    pub min_points: usize,
}

/// Per-point DBSCAN label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbscanLabel {
    /// Member of cluster `c` (0-based).
    Cluster(usize),
    /// Density noise: not reachable from any core point.
    Noise,
}

impl DbscanLabel {
    /// The cluster index, if any.
    pub fn cluster(self) -> Option<usize> {
        match self {
            DbscanLabel::Cluster(c) => Some(c),
            DbscanLabel::Noise => None,
        }
    }
}

/// Run DBSCAN over `data`. Deterministic: clusters are numbered in
/// first-discovery order scanning points 0..n.
pub fn dbscan(data: &Dataset, params: DbscanParams) -> Vec<DbscanLabel> {
    assert!(params.eps >= 0.0, "eps must be non-negative");
    assert!(params.min_points >= 1, "min_points must be at least 1");
    let n = data.nrows();

    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Unvisited,
        Noise,
        Cluster(usize),
    }

    let neighbors = |i: usize| -> Vec<usize> {
        (0..n)
            .filter(|&j| euclidean(data.row(i), data.row(j)) <= params.eps)
            .collect()
    };

    let mut state = vec![State::Unvisited; n];
    let mut next_cluster = 0usize;

    for i in 0..n {
        if state[i] != State::Unvisited {
            continue;
        }
        let nbrs = neighbors(i);
        if nbrs.len() < params.min_points {
            state[i] = State::Noise;
            continue;
        }
        let c = next_cluster;
        next_cluster += 1;
        state[i] = State::Cluster(c);
        // Expand the cluster (standard seed-set expansion).
        let mut seeds = nbrs;
        let mut idx = 0;
        while idx < seeds.len() {
            let p = seeds[idx];
            idx += 1;
            match state[p] {
                State::Noise => state[p] = State::Cluster(c), // border point
                State::Unvisited => {
                    state[p] = State::Cluster(c);
                    let pn = neighbors(p);
                    if pn.len() >= params.min_points {
                        for q in pn {
                            if !seeds.contains(&q) {
                                seeds.push(q);
                            }
                        }
                    }
                }
                State::Cluster(_) => {}
            }
        }
    }

    state
        .into_iter()
        .map(|s| match s {
            State::Cluster(c) => DbscanLabel::Cluster(c),
            State::Noise => DbscanLabel::Noise,
            // lint: allow(P02, the sweep above visits every point exactly once before this match runs)
            State::Unvisited => unreachable!("all points visited"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_count(labels: &[DbscanLabel]) -> usize {
        labels
            .iter()
            .filter_map(|l| l.cluster())
            .max()
            .map_or(0, |m| m + 1)
    }

    fn blob(cx: f64, cy: f64, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![cx + 0.01 * i as f64, cy]).collect()
    }

    #[test]
    fn finds_two_blobs_marks_outlier_noise() {
        let mut rows = blob(0.0, 0.0, 6);
        rows.extend(blob(10.0, 10.0, 6));
        rows.push(vec![100.0, -100.0]); // lone outlier
        let data = Dataset::from_rows(rows);
        let labels = dbscan(
            &data,
            DbscanParams {
                eps: 0.5,
                min_points: 3,
            },
        );
        assert_eq!(cluster_count(&labels), 2);
        assert_eq!(labels[12], DbscanLabel::Noise);
        assert!(labels[..6].iter().all(|&l| l == labels[0]));
        assert!(labels[6..12].iter().all(|&l| l == labels[6]));
        assert_ne!(labels[0], labels[6]);
    }

    #[test]
    fn chain_of_points_merges_into_one_cluster() {
        // A continuum of intervals: DBSCAN chains them together even though
        // the endpoints are far apart (the property the paper dislikes for
        // phase detection).
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.9, 0.0]).collect();
        let data = Dataset::from_rows(rows);
        let labels = dbscan(
            &data,
            DbscanParams {
                eps: 1.0,
                min_points: 2,
            },
        );
        assert_eq!(cluster_count(&labels), 1);
        assert!(labels.iter().all(|l| l.cluster() == Some(0)));
    }

    #[test]
    fn all_noise_when_eps_tiny() {
        let data = Dataset::from_rows(blob(0.0, 0.0, 5));
        let labels = dbscan(
            &data,
            DbscanParams {
                eps: 1e-9,
                min_points: 3,
            },
        );
        assert_eq!(cluster_count(&labels), 0);
        assert!(labels.iter().all(|&l| l == DbscanLabel::Noise));
    }

    #[test]
    fn min_points_one_makes_every_point_core() {
        let data = Dataset::from_rows(vec![vec![0.0], vec![100.0]]);
        let labels = dbscan(
            &data,
            DbscanParams {
                eps: 0.1,
                min_points: 1,
            },
        );
        assert_eq!(cluster_count(&labels), 2);
    }

    #[test]
    fn border_point_joins_first_discovering_cluster() {
        // Points: core cluster at 0..3 (eps=1, min_points=3), border at 3.5
        // reachable from the cluster but itself not core.
        let data = Dataset::from_rows(vec![vec![0.0], vec![0.5], vec![1.0], vec![1.9]]);
        let labels = dbscan(
            &data,
            DbscanParams {
                eps: 1.0,
                min_points: 3,
            },
        );
        assert_eq!(labels[3].cluster(), Some(0), "border point adopted");
    }

    #[test]
    fn deterministic_labeling() {
        let mut rows = blob(0.0, 0.0, 5);
        rows.extend(blob(5.0, 5.0, 5));
        let data = Dataset::from_rows(rows);
        let p = DbscanParams {
            eps: 0.5,
            min_points: 2,
        };
        assert_eq!(dbscan(&data, p), dbscan(&data, p));
    }

    #[test]
    #[should_panic(expected = "min_points")]
    fn zero_min_points_panics() {
        let data = Dataset::from_rows(vec![vec![0.0]]);
        let _ = dbscan(
            &data,
            DbscanParams {
                eps: 1.0,
                min_points: 0,
            },
        );
    }
}
