//! Tiered retention policy for snapshot logs.
//!
//! A session's cumulative snapshot series grows without bound; the
//! retention policy decides which records a log keeps. Snapshots are
//! *cumulative* (each one contains the whole run so far), so dropping an
//! old record never loses totals — consecutive retained snapshots simply
//! delta into coarser merged intervals. The tiers:
//!
//! 1. **Hot tail** — the newest [`RetentionPolicy::hot`] records, and
//!    never fewer than one, are always kept at full resolution. The
//!    newest record is what a session's next push is ordered after, so
//!    no policy drops the record just appended.
//! 2. **Strided history** — older records are kept only when their
//!    `sample_index` is a multiple of [`RetentionPolicy::stride`].
//!    Keying on the original sample index (never on position) makes the
//!    retained set stable as the log grows and under re-evaluation
//!    after a restart.
//! 3. **Byte budget** — while the log still exceeds
//!    [`RetentionPolicy::max_bytes`], the oldest non-hot records are
//!    dropped even if the stride would keep them. The hot tail is never
//!    dropped, so the budget can be exceeded transiently when the hot
//!    tail alone is larger than it.
//!
//! The policy is a pure function of the record list, so a live session
//! and a session rehydrated from its log converge on the same retained
//! set — which is what keeps rehydrated reports byte-identical to the
//! never-restarted session's reports even while downsampling.

/// What the policy needs to know about one log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// The snapshot's original sample index (never re-indexed).
    pub sample_index: u64,
    /// Encoded size of the record on disk, in bytes.
    pub bytes: u64,
}

/// Tiered retention configuration. The default keeps everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Newest records always kept at full resolution; `0` keeps the
    /// newest one all the same.
    pub hot: usize,
    /// Beyond the hot tail, keep records whose `sample_index` is a
    /// multiple of this; `0` or `1` keeps every record.
    pub stride: u64,
    /// Total log byte budget; `0` means unbounded.
    pub max_bytes: u64,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy::keep_all()
    }
}

impl RetentionPolicy {
    /// A policy that never drops anything (the daemon default).
    pub fn keep_all() -> RetentionPolicy {
        RetentionPolicy {
            hot: usize::MAX,
            stride: 1,
            max_bytes: 0,
        }
    }

    /// Whether this policy can ever drop a record.
    pub fn is_keep_all(&self) -> bool {
        self.hot == usize::MAX || (self.stride <= 1 && self.max_bytes == 0)
    }

    /// Parse a `--retention` spec: comma-separated `key=value` pairs of
    /// `hot`, `stride`, and `max_bytes`, e.g. `hot=64,stride=8` or
    /// `hot=128,stride=16,max_bytes=1048576`. Omitted keys keep their
    /// keep-all defaults, except `hot`, which defaults to 0 once any key
    /// is given: `stride=8` alone strides the whole log but its newest
    /// record, which every policy keeps.
    pub fn parse(spec: &str) -> Result<RetentionPolicy, String> {
        let mut policy = RetentionPolicy {
            hot: 0,
            stride: 1,
            max_bytes: 0,
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("retention field {part:?} is not key=value"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("retention {key}={value:?} is not a number"))?;
            match key.trim() {
                "hot" => policy.hot = n as usize,
                "stride" => policy.stride = n,
                "max_bytes" => policy.max_bytes = n,
                other => return Err(format!("unknown retention field {other:?}")),
            }
        }
        Ok(policy)
    }

    /// Positions (ascending) of the records the policy drops from
    /// `records` (which is ordered oldest first). Pure and deterministic:
    /// the same record list always yields the same drop set.
    pub fn drops(&self, records: &[RecordMeta]) -> Vec<usize> {
        if self.is_keep_all() {
            return Vec::new();
        }
        let hot_start = records.len().saturating_sub(self.hot.max(1));
        let mut keep: Vec<bool> = records
            .iter()
            .enumerate()
            .map(|(i, r)| i >= hot_start || self.stride <= 1 || r.sample_index % self.stride == 0)
            .collect();
        if self.max_bytes > 0 {
            let mut total: u64 = records
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(r, _)| r.bytes)
                .sum();
            for i in 0..hot_start {
                if total <= self.max_bytes {
                    break;
                }
                if keep[i] {
                    keep[i] = false;
                    total -= records[i].bytes;
                }
            }
        }
        keep.iter()
            .enumerate()
            .filter(|(_, &k)| !k)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(indices: &[u64], bytes: u64) -> Vec<RecordMeta> {
        indices
            .iter()
            .map(|&sample_index| RecordMeta {
                sample_index,
                bytes,
            })
            .collect()
    }

    #[test]
    fn keep_all_drops_nothing() {
        let r = recs(&[0, 1, 2, 3, 4], 100);
        assert!(RetentionPolicy::default().drops(&r).is_empty());
        assert!(RetentionPolicy::keep_all().is_keep_all());
    }

    #[test]
    fn parse_full_spec() {
        let p = RetentionPolicy::parse("hot=64,stride=8,max_bytes=1048576").unwrap();
        assert_eq!(
            p,
            RetentionPolicy {
                hot: 64,
                stride: 8,
                max_bytes: 1_048_576
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RetentionPolicy::parse("hot").is_err());
        assert!(RetentionPolicy::parse("hot=x").is_err());
        assert!(RetentionPolicy::parse("warm=3").is_err());
    }

    #[test]
    fn hot_tail_is_always_kept() {
        let p = RetentionPolicy {
            hot: 3,
            stride: 1000,
            max_bytes: 0,
        };
        // Only indices 0 (stride multiple) and the hot tail 7,8,9 survive.
        let r = recs(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 10);
        assert_eq!(p.drops(&r), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn the_newest_record_is_kept_without_a_hot_tail() {
        let p = RetentionPolicy::parse("stride=4,max_bytes=1").unwrap();
        assert_eq!(p.hot, 0);
        // 5 is neither a stride multiple nor under the budget, but it is
        // the newest record: everything older goes, 5 stays.
        let r = recs(&[0, 4, 5], 10);
        assert_eq!(p.drops(&r), vec![0, 1]);
        let r = recs(&[0, 4, 5, 6], 10);
        assert_eq!(p.drops(&r), vec![0, 1, 2]);
    }

    #[test]
    fn stride_keys_on_sample_index_not_position() {
        let p = RetentionPolicy {
            hot: 1,
            stride: 4,
            max_bytes: 0,
        };
        // A previously-trimmed log: positions shift but indices do not,
        // so re-evaluating the policy is a no-op on already-kept records.
        let r = recs(&[0, 4, 8, 12, 13], 10);
        assert!(p.drops(&r).is_empty());
    }

    #[test]
    fn byte_budget_drops_oldest_cold_records() {
        let p = RetentionPolicy {
            hot: 2,
            stride: 1,
            max_bytes: 35,
        };
        let r = recs(&[0, 1, 2, 3, 4], 10);
        // 50 bytes kept by stride; budget 35 forces dropping oldest cold
        // records (0 then 1) until ≤ 35.
        assert_eq!(p.drops(&r), vec![0, 1]);
    }

    #[test]
    fn byte_budget_never_drops_hot_tail() {
        let p = RetentionPolicy {
            hot: 4,
            stride: 1,
            max_bytes: 10,
        };
        let r = recs(&[0, 1, 2, 3], 100);
        // Everything is hot; the budget is exceeded but nothing drops.
        assert!(p.drops(&r).is_empty());
    }

    #[test]
    fn drops_are_deterministic() {
        let p = RetentionPolicy {
            hot: 2,
            stride: 3,
            max_bytes: 100,
        };
        let r = recs(&[0, 1, 2, 3, 4, 5, 6, 7], 20);
        assert_eq!(p.drops(&r), p.drops(&r));
    }
}
