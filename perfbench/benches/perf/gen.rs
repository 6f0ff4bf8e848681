//! Seeded input generation: `--seed` is the only source of randomness,
//! and the product code only ever sees what this module generates (plus
//! the five applications' fixed configurations).

use incprof_collect::SampleSeries;
use incprof_profile::{FlatProfile, FunctionStats, FunctionTable, GmonData, ProfileSnapshot};

/// SplitMix64: small, fast, and good enough for synthetic profiles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for sub-input `lane` of the same seed.
    pub fn fork(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Shape of one synthetic cumulative-profile series.
#[derive(Debug, Clone, Copy)]
pub struct SeriesSpec {
    /// Snapshots in the series.
    pub n: usize,
    /// Functions in the table.
    pub d: usize,
    /// Distinct recurring phases; function `j` is hot in phase `j % phases`.
    pub phases: usize,
    /// Consecutive intervals spent in one phase before moving to the next.
    pub block: usize,
    /// Relative jitter on a hot function's per-interval self time.
    pub noise: f64,
    /// Share of intervals that repeat their phase's canonical delta
    /// exactly (duplicate rows, the regime where k exceeds the number of
    /// distinct points).
    pub dup_share: f64,
}

/// Generate the series as the gmon records a profiled process would push.
pub fn synth_gmon(spec: SeriesSpec, rng: &mut Rng) -> Vec<GmonData> {
    let mut table = FunctionTable::new();
    let ids: Vec<_> = (0..spec.d)
        .map(|j| table.register(format!("fn_{j:03}")))
        .collect();
    // Per-function base cost, fixed for the series: phases differ in
    // *which* functions run, functions differ in how much they cost.
    let base_ns: Vec<u64> = (0..spec.d)
        .map(|_| 800_000 + rng.below(1_200_000))
        .collect();
    let mut self_ns = vec![0u64; spec.d];
    let mut calls = vec![0u64; spec.d];
    let mut out = Vec::with_capacity(spec.n);
    for s in 0..spec.n {
        let phase = (s / spec.block.max(1)) % spec.phases.max(1);
        let duplicate = rng.unit() < spec.dup_share;
        for j in 0..spec.d {
            if j % spec.phases.max(1) != phase {
                continue;
            }
            let jitter = if duplicate {
                0.0
            } else {
                (rng.unit() * 2.0 - 1.0) * spec.noise
            };
            self_ns[j] += (base_ns[j] as f64 * (1.0 + jitter)).max(1.0) as u64;
            calls[j] += if duplicate { 2 } else { 1 + rng.below(3) };
        }
        let mut flat = FlatProfile::new();
        for (j, id) in ids.iter().enumerate() {
            if self_ns[j] > 0 {
                flat.set(
                    *id,
                    FunctionStats {
                        self_time: self_ns[j],
                        calls: calls[j],
                        child_time: 0,
                    },
                );
            }
        }
        out.push(GmonData {
            sample_index: s as u64,
            timestamp_ns: 100_000_000 * (s as u64 + 1),
            functions: table.clone(),
            flat,
            callgraph: Default::default(),
        });
    }
    out
}

/// The offline view of pushed records: what `detect_series` consumes.
pub fn to_series(records: &[GmonData]) -> SampleSeries {
    let mut series = SampleSeries::new();
    for g in records {
        series.push(ProfileSnapshot::from_gmon(g));
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: SeriesSpec = SeriesSpec {
        n: 64,
        d: 8,
        phases: 4,
        block: 8,
        noise: 0.05,
        dup_share: 0.5,
    };

    #[test]
    fn same_seed_same_series_other_seed_other_series() {
        let a = synth_gmon(SPEC, &mut Rng::fork(7, 0));
        let b = synth_gmon(SPEC, &mut Rng::fork(7, 0));
        let c = synth_gmon(SPEC, &mut Rng::fork(8, 0));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn series_is_cumulative_and_deltas_cleanly() {
        let records = synth_gmon(SPEC, &mut Rng::fork(1, 0));
        let intervals = to_series(&records).interval_profiles().expect("monotone");
        assert_eq!(intervals.len(), SPEC.n);
        assert!(intervals.iter().all(|p| p.total_self_time() > 0));
    }
}
