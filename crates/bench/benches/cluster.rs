//! Clustering scaling: k-means, the k = 1..8 sweep with elbow selection
//! (the paper's configuration), silhouette, and DBSCAN, over growing
//! interval counts and feature dimensions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use incprof_cluster::{
    dbscan, kmeans, mean_silhouette, ChainConfig, Dataset, DbscanParams, KMeansConfig,
    KSelectionMethod, SweepChains,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Synthetic interval matrix: `n` intervals over `d` functions, in 4
/// planted phases.
fn dataset(n: usize, d: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(7);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let phase = (i * 4) / n;
            (0..d)
                .map(|j| {
                    if j % 4 == phase {
                        1.0 + rng.gen::<f64>() * 0.05
                    } else {
                        rng.gen::<f64>() * 0.01
                    }
                })
                .collect()
        })
        .collect();
    Dataset::from_rows(rows)
}

fn bench_kmeans(c: &mut Criterion) {
    let mut g = c.benchmark_group("kmeans");
    for n in [60usize, 200, 600] {
        let data = dataset(n, 16);
        g.bench_with_input(BenchmarkId::new("k4_intervals", n), &data, |b, data| {
            b.iter(|| black_box(kmeans(data, &KMeansConfig::new(4))))
        });
    }
    for d in [8usize, 64, 256] {
        let data = dataset(200, d);
        g.bench_with_input(BenchmarkId::new("k4_dims", d), &data, |b, data| {
            b.iter(|| black_box(kmeans(data, &KMeansConfig::new(4))))
        });
    }
    g.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("k_selection");
    let data = dataset(200, 16);
    let cfg = ChainConfig::new(KMeansConfig::new(0));
    for (name, method) in [
        ("elbow_fold_k1_8", KSelectionMethod::Elbow),
        ("silhouette_fold_k1_8", KSelectionMethod::Silhouette),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(SweepChains::new().evaluate(&data, 8, method, &cfg, None, false)))
        });
    }
    let res = kmeans(&data, &KMeansConfig::new(4));
    g.bench_function("mean_silhouette_n200", |b| {
        b.iter(|| black_box(mean_silhouette(&data, &res.assignments)))
    });
    g.finish();
}

fn bench_dbscan(c: &mut Criterion) {
    let mut g = c.benchmark_group("dbscan");
    for n in [60usize, 200] {
        let data = dataset(n, 16);
        g.bench_with_input(BenchmarkId::new("intervals", n), &data, |b, data| {
            b.iter(|| {
                black_box(dbscan(
                    data,
                    DbscanParams {
                        eps: 0.3,
                        min_points: 3,
                    },
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kmeans, bench_selection, bench_dbscan);
criterion_main!(benches);
