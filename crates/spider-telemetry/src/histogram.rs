//! Fixed-bucket histograms with quantile estimation.
//!
//! Buckets are fixed at construction so recording is O(log buckets) with no
//! allocation, making the histogram safe for simulation hot paths. Quantiles
//! are estimated by linear interpolation inside the covering bucket and
//! clamped to the exact observed `[min, max]` range.

use serde::{Deserialize, Serialize};

/// A fixed-bucket histogram over non-negative samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Upper bounds of each bucket, strictly increasing. A final implicit
    /// overflow bucket catches samples above the last bound.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram with the given strictly-increasing bucket upper bounds.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// `n` exponentially spaced buckets: bounds `start * factor^i`.
    pub fn exponential(start: f64, factor: f64, n: usize) -> Self {
        assert!(start > 0.0 && factor > 1.0 && n >= 1);
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Histogram::new(bounds)
    }

    /// Default latency histogram: 60 buckets from 10 ms to ~3300 s,
    /// ~20% relative resolution per bucket.
    pub fn latency_default() -> Self {
        Histogram::exponential(0.01, 1.2, 60)
    }

    /// Records one sample (negatives are clamped to zero).
    pub fn observe(&mut self, value: f64) {
        let v = value.max(0.0);
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of samples above the top bucket bound (the overflow
    /// bucket). Percentiles whose rank lands here are saturated: they are
    /// interpolated only between the top bound and the observed maximum.
    pub fn overflow(&self) -> u64 {
        self.counts.last().copied().unwrap_or(0)
    }

    /// `true` when the `q`-quantile's rank falls into the overflow
    /// bucket, i.e. the reported percentile is a lower bound rather than
    /// a bucketed estimate.
    pub fn quantile_saturated(&self, q: f64) -> bool {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let overflow = self.overflow();
        if self.count == 0 || overflow == 0 {
            return false;
        }
        q * self.count as f64 > (self.count - overflow) as f64
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`), or zero when empty.
    ///
    /// Linear interpolation within the covering bucket, clamped to the
    /// exact observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cumulative + c;
            if (next as f64) >= rank && c > 0 {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                let within = ((rank - cumulative as f64) / c as f64).clamp(0.0, 1.0);
                let est = lo + (hi - lo) * within;
                return est.clamp(self.min, self.max);
            }
            cumulative = next;
        }
        self.max
    }

    /// The complete internal state, for checkpointing. Unlike
    /// [`snapshot`](Histogram::snapshot) this is lossless: empty buckets and
    /// the exact (possibly non-finite) `min`/`max` sentinels are preserved,
    /// so [`from_state`](Histogram::from_state) rebuilds a histogram
    /// indistinguishable from the original.
    pub fn state(&self) -> HistogramState {
        HistogramState {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }

    /// Rebuilds a histogram from [`state`](Histogram::state) output,
    /// rejecting structurally invalid input with a message.
    pub fn from_state(state: HistogramState) -> Result<Histogram, String> {
        if state.bounds.is_empty() {
            return Err("histogram state has no buckets".to_string());
        }
        if !state.bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err("histogram bounds not strictly increasing".to_string());
        }
        if state.counts.len() != state.bounds.len() + 1 {
            return Err(format!(
                "histogram has {} bounds but {} counts",
                state.bounds.len(),
                state.counts.len()
            ));
        }
        if state.counts.iter().sum::<u64>() != state.count {
            return Err("histogram bucket counts do not sum to total".to_string());
        }
        Ok(Histogram {
            bounds: state.bounds,
            counts: state.counts,
            count: state.count,
            sum: state.sum,
            min: state.min,
            max: state.max,
        })
    }

    /// Snapshot for serialization: non-empty buckets as
    /// `(upper_bound, count)` pairs (the overflow bucket reports `max` as
    /// its bound).
    pub fn snapshot(&self, name: &str, label: &str) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bound = if i < self.bounds.len() {
                self.bounds[i]
            } else {
                self.max
            };
            buckets.push((bound, c));
        }
        HistogramSnapshot {
            name: name.to_string(),
            label: label.to_string(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            overflow: self.overflow(),
            saturated: self.quantile_saturated(0.50)
                || self.quantile_saturated(0.95)
                || self.quantile_saturated(0.99),
            buckets,
        }
    }
}

/// Lossless internal state of a [`Histogram`], produced by
/// [`Histogram::state`] for engine checkpoints. `min`/`max` may be
/// `±INFINITY` (the empty-histogram sentinels), which is why this struct is
/// carried in binary snapshot sections rather than JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramState {
    /// Bucket upper bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (one per bound, plus the overflow bucket).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (`INFINITY` when empty).
    pub min: f64,
    /// Largest sample (`NEG_INFINITY` when empty).
    pub max: f64,
}

fn is_zero(v: &u64) -> bool {
    *v == 0
}

fn is_false(v: &bool) -> bool {
    !*v
}

/// Serializable state of one histogram at snapshot time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Metric label (empty when unlabelled).
    pub label: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (zero when empty).
    pub min: f64,
    /// Largest sample (zero when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Samples above the top bucket bound.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub overflow: u64,
    /// `true` when any reported percentile's rank fell into the overflow
    /// bucket (the estimate saturates toward the observed maximum).
    #[serde(default, skip_serializing_if = "is_false")]
    pub saturated: bool,
    /// Non-empty `(upper_bound, count)` buckets in bound order.
    pub buckets: Vec<(f64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.snapshot("x", "").sum - 16.6).abs() < 1e-12);
    }

    #[test]
    fn quantiles_bracket_samples() {
        let mut h = Histogram::exponential(0.01, 1.5, 40);
        for i in 1..=1000 {
            h.observe(i as f64 / 100.0); // 0.01 .. 10.0 uniform
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 > 2.0 && p50 < 8.0, "p50 = {p50}");
        assert!(p95 > p50 && p95 <= 10.0, "p95 = {p95}");
        assert!(p99 >= p95 && p99 <= 10.0, "p99 = {p99}");
    }

    #[test]
    fn exact_for_single_value() {
        let mut h = Histogram::latency_default();
        for _ in 0..100 {
            h.observe(0.5);
        }
        // All mass in one bucket; clamping to [min, max] makes it exact.
        assert_eq!(h.quantile(0.5), 0.5);
        assert_eq!(h.quantile(0.99), 0.5);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::latency_default();
        assert_eq!(h.quantile(0.5), 0.0);
        let s = h.snapshot("x", "");
        assert_eq!((s.count, s.sum), (0, 0.0));
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn overflow_bucket_catches_large_samples() {
        let mut h = Histogram::new(vec![1.0]);
        h.observe(1000.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.quantile(0.5), 1000.0);
        let s = h.snapshot("x", "");
        assert_eq!(s.buckets, vec![(1000.0, 1)]);
        assert_eq!(s.overflow, 1);
        assert!(s.saturated);
    }

    #[test]
    fn saturation_marks_only_overflowing_quantiles() {
        let mut h = Histogram::new(vec![1.0, 2.0, 4.0]);
        // 90 in-range samples, 10 above the top bound.
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..10 {
            h.observe(100.0);
        }
        assert_eq!(h.overflow(), 10);
        assert!(!h.quantile_saturated(0.50));
        assert!(h.quantile_saturated(0.95));
        assert!(h.quantile_saturated(0.99));
        let s = h.snapshot("x", "");
        assert!(s.saturated);
        // No overflow → no saturation, and the legacy JSON stays
        // byte-identical (both new fields are skipped).
        let mut clean = Histogram::new(vec![1.0, 2.0, 4.0]);
        clean.observe(0.5);
        let snap = clean.snapshot("x", "");
        assert!(!snap.saturated);
        assert_eq!(snap.overflow, 0);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(!json.contains("overflow") && !json.contains("saturated"));
    }

    #[test]
    fn snapshot_round_trips_json() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        let snap = h.snapshot("delay", "srpt");
        let json = serde_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
