//! Per-layer probes: the harness's own timed calls into a layer's public
//! functions, on the inputs of the workload that runs them.
//!
//! Each probe names the layer metric it fills. A workload runs only the
//! probes of the layers it exercises; every other layer metric reads 0
//! on that workload.

use crate::sys;
use crate::workloads::{mean_ns, LayerMetrics};
use incprof_cluster::select_k::KSelectionMethod;
use incprof_cluster::{ChainConfig, Dataset, KMeansConfig, PairwiseDistances, SweepChains};
use incprof_collect::{IntervalMatrix, SampleSeries};
use incprof_core::algorithm1::{identify_instrumentation, Algorithm1Config, ClusterIntervals};
use incprof_core::online::OnlineConfig;
use incprof_core::{AnalysisCache, ClusteringMethod, OnlinePhaseDetector, PhaseDetector};
use incprof_profile::GmonData;
use incprof_serve::session::Session;
use incprof_serve::ReportMode;
use incprof_store::frame::{Frame, FrameType, DEFAULT_MAX_PAYLOAD};
use incprof_store::{RetentionPolicy, Store};
use std::hint::black_box;
use std::time::Instant;

fn ms_of(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn add(layer: &mut LayerMetrics, name: &'static str, value: f64) {
    *layer.entry(name).or_insert(0.0) += value;
}

/// The k-sweep configuration `detector` clusters with.
fn sweep_config(detector: &PhaseDetector) -> (usize, KSelectionMethod, ChainConfig) {
    let (k_max, selection) = match &detector.clustering {
        ClusteringMethod::KMeans { k_max, selection } => (*k_max, *selection),
        ClusteringMethod::Dbscan(_) => (1, KSelectionMethod::Elbow),
    };
    let cfg = ChainConfig {
        base: KMeansConfig {
            restarts: detector.restarts,
            ..KMeansConfig::new(1).with_seed(detector.seed)
        },
        review_every: detector.review_every,
        review_candidates: detector.review_candidates,
    };
    (k_max, selection, cfg)
}

/// `cluster.pairwise_ms`, `cluster.sweep_cold_ms`, `core.algorithm1_ms`
/// over one series, added to what is already there (a corpus sums), and
/// `cluster.pairwise_extend_us`, `cluster.sweep_warm_us` for the last
/// row appended to the series' prefix.
pub fn cluster(detector: &PhaseDetector, series: &SampleSeries, layer: &mut LayerMetrics) {
    let intervals = series.interval_profiles().expect("generated series deltas");
    let matrix = IntervalMatrix::from_interval_profiles(&intervals);
    let data = Dataset::from_rows(matrix.feature_rows());
    let n = data.nrows();
    if n < 3 {
        return;
    }
    let (k_max, selection, cfg) = sweep_config(detector);

    let mut pair = PairwiseDistances::empty();
    add(
        layer,
        "cluster.pairwise_ms",
        ms_of(|| pair = PairwiseDistances::euclidean_of(&data)),
    );
    let mut cold = SweepChains::new();
    let mut selected = None;
    add(
        layer,
        "cluster.sweep_cold_ms",
        ms_of(|| {
            selected = Some(cold.evaluate(
                &data,
                k_max,
                selection,
                &cfg,
                Some(&pair),
                detector.sweep_early_exit,
            ))
        }),
    );

    // One appended row on warm state: what a query pays after a push.
    let prefix = data.prefix(n - 1);
    let mut warm_pair = PairwiseDistances::euclidean_of(&prefix);
    let mut warm = SweepChains::new();
    warm.evaluate(
        &prefix,
        k_max,
        selection,
        &cfg,
        Some(&warm_pair),
        detector.sweep_early_exit,
    );
    add(
        layer,
        "cluster.pairwise_extend_us",
        ms_of(|| warm_pair.extend(&data)) * 1e3,
    );
    add(
        layer,
        "cluster.sweep_warm_us",
        ms_of(|| {
            black_box(warm.evaluate(
                &data,
                k_max,
                selection,
                &cfg,
                Some(&warm_pair),
                detector.sweep_early_exit,
            ));
        }) * 1e3,
    );

    let result = selected.expect("cold sweep ran").result;
    let k = result.assignments.iter().copied().max().unwrap_or(0) + 1;
    let clusters: Vec<ClusterIntervals> = (0..k)
        .map(|c| {
            let members: Vec<usize> = (0..n).filter(|&i| result.assignments[i] == c).collect();
            let centroid_dist = members
                .iter()
                .map(|&i| {
                    incprof_cluster::distance::euclidean(data.row(i), result.centroids.row(c))
                })
                .collect();
            ClusterIntervals {
                intervals: members,
                centroid_dist,
            }
        })
        .collect();
    add(
        layer,
        "core.algorithm1_ms",
        ms_of(|| {
            black_box(identify_instrumentation(
                &matrix,
                &clusters,
                Algorithm1Config {
                    coverage_threshold: detector.coverage_threshold,
                },
            ));
        }),
    );
}

/// `core.cache_*`: the incremental analysis cache on `records`' series —
/// a memo hit, a miss after one new snapshot, and the checkpoint blob.
/// Returns the blob for the store probes.
pub fn cache(detector: &PhaseDetector, records: &[GmonData], layer: &mut LayerMetrics) -> Vec<u8> {
    let full = crate::gen::to_series(records);
    let shorter = crate::gen::to_series(&records[..records.len() - 1]);
    let mut cache = AnalysisCache::new();
    cache
        .analyze(detector, &shorter)
        .expect("analysis of the prefix");
    layer.insert(
        "core.cache_miss_ms",
        ms_of(|| {
            black_box(
                cache
                    .analyze(detector, &full)
                    .expect("analysis after one push"),
            );
        }),
    );
    layer.insert(
        "core.cache_hit_us",
        mean_ns(200, || {
            black_box(cache.analyze(detector, &full).expect("memo hit"));
        }) / 1e3,
    );
    let mut blob = Vec::new();
    layer.insert(
        "core.cache_encode_ms",
        ms_of(|| blob = cache.encode_state()),
    );
    layer.insert("core.cache_state_bytes", blob.len() as f64);
    layer.insert(
        "core.cache_decode_ms",
        ms_of(|| {
            black_box(AnalysisCache::decode_state(&blob).expect("own blob decodes"));
        }),
    );
    blob
}

/// `profile.gmon_*` and `store.frame_*`: the two codecs every pushed
/// snapshot crosses, on the payloads the workload pushes.
pub fn codecs(records: &[GmonData], layer: &mut LayerMetrics) {
    let n = records.len() as f64;
    let mut payloads = Vec::with_capacity(records.len());
    let encode_ms = ms_of(|| payloads.extend(records.iter().map(|g| g.encode().to_vec())));
    layer.insert("profile.gmon_encode_us", encode_ms * 1e3 / n);
    layer.insert(
        "profile.gmon_bytes",
        payloads.iter().map(|p| p.len() as f64).sum::<f64>() / n,
    );
    let decode_ms = ms_of(|| {
        for p in &payloads {
            black_box(GmonData::decode(p).expect("own payload decodes"));
        }
    });
    layer.insert("profile.gmon_decode_us", decode_ms * 1e3 / n);

    let frames: Vec<Frame> = payloads
        .into_iter()
        .map(|p| Frame::with_payload(FrameType::Snapshot, 1, p))
        .collect();
    let mut wire = Vec::with_capacity(frames.len());
    let frame_encode_ms = ms_of(|| wire.extend(frames.iter().map(Frame::encode)));
    layer.insert("store.frame_encode_us", frame_encode_ms * 1e3 / n);
    let frame_decode_ms = ms_of(|| {
        for bytes in &wire {
            black_box(Frame::decode(bytes, DEFAULT_MAX_PAYLOAD).expect("own frame decodes"));
        }
    });
    layer.insert("store.frame_decode_us", frame_decode_ms * 1e3 / n);
}

/// `store.append_us`, `store.checkpoint_ms`, `store.replay_ms`: a scratch
/// session store fed the workload's payloads and its checkpoint blob.
pub fn store(
    records: &[GmonData],
    checkpoint: &[u8],
    checkpoint_every: u64,
    layer: &mut LayerMetrics,
) {
    let root = sys::work_dir("probe-store");
    let store = Store::open(&root, RetentionPolicy::keep_all(), checkpoint_every)
        .expect("open scratch store");
    let mut session = store.create_session(1).expect("create scratch session");
    let payloads: Vec<Vec<u8>> = records.iter().map(|g| g.encode().to_vec()).collect();
    let append_ms = ms_of(|| {
        for (g, p) in records.iter().zip(&payloads) {
            session
                .append_snapshot(g.sample_index, p)
                .expect("append to scratch log");
        }
    });
    layer.insert("store.append_us", append_ms * 1e3 / records.len() as f64);
    if !checkpoint.is_empty() {
        let rounds = 5;
        let total_ms: f64 = (0..rounds)
            .map(|_| {
                let blob = checkpoint.to_vec();
                ms_of(|| {
                    session
                        .write_checkpoint(blob)
                        .expect("write scratch checkpoint")
                })
            })
            .sum();
        layer.insert("store.checkpoint_ms", total_ms / rounds as f64);
    }
    drop(session);
    layer.insert(
        "store.replay_ms",
        ms_of(|| {
            black_box(store.open_session(1).expect("replay scratch log"));
        }),
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// `core.observe_us`: the online detector's per-interval step.
pub fn online(records: &[GmonData], layer: &mut LayerMetrics) {
    let intervals = crate::gen::to_series(records)
        .interval_profiles()
        .expect("generated series deltas");
    let mut detector = OnlinePhaseDetector::new(OnlineConfig::default());
    let total_ms = ms_of(|| {
        for interval in &intervals {
            black_box(detector.observe(interval));
        }
    });
    layer.insert("core.observe_us", total_ms * 1e3 / intervals.len() as f64);
}

/// `serve.report_render_us`: a fed session's report rendered on a memo
/// hit, Full minus AnalysisOnly.
pub fn report_render_us(detector: &PhaseDetector, session: &mut Session) -> f64 {
    // The first queries are the miss and the warm-up; the timed ones are
    // memo hits.
    for mode in [ReportMode::AnalysisOnly, ReportMode::Full] {
        black_box(session.report_json(detector, mode));
    }
    let analysis_ns = mean_ns(500, || {
        black_box(session.report_json(detector, ReportMode::AnalysisOnly));
    });
    let full_ns = mean_ns(500, || {
        black_box(session.report_json(detector, ReportMode::Full));
    });
    (full_ns - analysis_ns) / 1e3
}
