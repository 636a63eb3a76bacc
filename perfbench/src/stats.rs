//! Percentiles over the benchmark's own samples, and deltas of the
//! server's `metrics` snapshots.

use std::collections::BTreeMap;

use oov_obs::bucket_lo;
use oov_proto::Json;

/// A nearest-rank percentile together with the number of samples it
/// was taken from, so a reader can tell how far into the tail the
/// sample reaches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pct {
    /// The sample at the nearest rank (0 for an empty sample).
    pub value: f64,
    /// Samples the percentile was taken from.
    pub count: usize,
}

/// Nearest-rank percentile (`p` in 0–100) of `samples`: the smallest
/// sample with at least `p`% of the samples at or below it.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Pct {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let count = sorted.len();
    let rank = ((p / 100.0) * count as f64).ceil() as usize;
    Pct {
        value: sorted
            .get(rank.clamp(1, count.max(1)) - 1)
            .copied()
            .unwrap_or(0.0),
        count,
    }
}

/// The median by nearest rank.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).value
}

/// Peak resident set (`VmHWM`) of this process in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The histograms in `snap` whose name matches `pattern`, where a `*`
/// stands for a shard number.
fn matching<'a>(snap: &'a Json, pattern: &str) -> Vec<&'a Json> {
    let (pre, post) = pattern.split_once('*').unwrap_or((pattern, ""));
    let matches = |name: &str| {
        name == pattern
            || (pattern.contains('*')
                && name.len() > pre.len() + post.len()
                && name.starts_with(pre)
                && name.ends_with(post)
                && name[pre.len()..name.len() - post.len()]
                    .bytes()
                    .all(|b| b.is_ascii_digit()))
    };
    match snap.get("histograms") {
        Some(Json::Obj(hists)) => hists
            .iter()
            .filter(|(k, _)| matches(k))
            .map(|(_, h)| h)
            .collect(),
        _ => Vec::new(),
    }
}

/// Bucket counts of the histograms matching `pattern`, summed bucket by
/// bucket.
fn merged_buckets(snap: &Json, pattern: &str) -> BTreeMap<usize, u64> {
    let mut out = BTreeMap::new();
    for h in matching(snap, pattern) {
        for pair in h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
            let cells = pair.as_arr().unwrap_or(&[]);
            if let (Some(i), Some(n)) = (
                cells.first().and_then(Json::as_usize),
                cells.get(1).and_then(Json::as_u64),
            ) {
                *out.entry(i).or_insert(0) += n;
            }
        }
    }
    out
}

/// A counter's value in a registry snapshot (0 when absent).
#[must_use]
pub fn counter(snap: &Json, name: &str) -> u64 {
    snap.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The samples one histogram gained between two registry snapshots,
/// as bucket counts in the `oov-obs` layout.
#[derive(Debug, Clone, Default)]
pub struct HistDelta {
    buckets: BTreeMap<usize, u64>,
    count: u64,
}

impl HistDelta {
    /// `after − before` for the histogram `name`; a `*` in `name`
    /// stands for any shard number, and every histogram it matches is
    /// merged (`shard.*.service_ns`).
    #[must_use]
    pub fn between(before: &Json, after: &Json, name: &str) -> HistDelta {
        let old = merged_buckets(before, name);
        let buckets: BTreeMap<usize, u64> = merged_buckets(after, name)
            .into_iter()
            .map(|(i, n)| (i, n.saturating_sub(old.get(&i).copied().unwrap_or(0))))
            .filter(|&(_, n)| n > 0)
            .collect();
        let count = buckets.values().sum();
        HistDelta { buckets, count }
    }

    /// Samples in the delta.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile in the histogram's unit, reported as the
    /// containing bucket's lower bound (within 6.25% of the sample).
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0;
        for (&i, &n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return bucket_lo(i) as f64;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_obs::Registry;

    #[test]
    fn nearest_rank_picks_a_real_sample_and_reports_the_count() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(
            percentile(&v, 50.0),
            Pct {
                value: 5.0,
                count: 10
            }
        );
        assert_eq!(percentile(&v, 90.0).value, 9.0);
        assert_eq!(percentile(&v, 91.0).value, 10.0);
        assert_eq!(percentile(&v, 100.0).value, 10.0);
        assert_eq!(percentile(&v, 0.0).value, 1.0);
        assert_eq!(
            percentile(&[], 50.0),
            Pct {
                value: 0.0,
                count: 0
            }
        );
        assert_eq!(
            percentile(&[4.0], 99.0),
            Pct {
                value: 4.0,
                count: 1
            }
        );
    }

    #[test]
    fn histogram_delta_counts_only_new_samples_across_shards() {
        let reg = Registry::new();
        let (a, b) = (
            reg.histogram("shard.0.service_ns"),
            reg.histogram("shard.1.service_ns"),
        );
        let other = reg.histogram("shard.0.other_ns");
        for v in [1000, 1000, 1000] {
            a.record(v);
        }
        let before = reg.snapshot();
        for v in [50, 60, 70] {
            a.record(v);
        }
        b.record(80);
        other.record(5);
        let after = reg.snapshot();
        let d = HistDelta::between(&before, &after, "shard.*.service_ns");
        assert_eq!(d.count(), 4);
        assert_eq!(
            d.percentile(50.0),
            bucket_lo(oov_obs::bucket_index(60)) as f64
        );
        assert_eq!(
            d.percentile(100.0),
            bucket_lo(oov_obs::bucket_index(80)) as f64
        );
        let one = HistDelta::between(&before, &after, "shard.0.service_ns");
        assert_eq!(one.count(), 3);
    }
}
