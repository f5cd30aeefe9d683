//! The three metric primitives: counter, gauge, fixed-bucket histogram.
//!
//! All are const-constructible so the inventory in [`crate::metrics`] can
//! be plain `static`s, and all writes are relaxed atomics — the tap never
//! orders anything, it only tallies.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Hot loops count locally and publish once through this.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() && n > 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (test/profile isolation).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A value that can move both ways (queue depths, in-flight counts).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub const fn new() -> Self {
        Gauge { value: AtomicI64::new(0) }
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (test/profile isolation).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Most buckets a [`Histogram`] can have (bounds plus the overflow
/// bucket).
pub const MAX_BUCKETS: usize = 16;

/// A fixed-bucket histogram over `u64` observations (microseconds,
/// iteration counts, ...). Bucket bounds are upper-inclusive and a final
/// unbounded bucket catches everything above the last bound, matching
/// Prometheus `le` semantics.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: [AtomicU64; MAX_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram over `bounds` (strictly increasing, at
    /// most [`MAX_BUCKETS`]` - 1` entries).
    #[must_use]
    pub const fn new(bounds: &'static [u64]) -> Self {
        assert!(bounds.len() < MAX_BUCKETS, "too many histogram bounds");
        Histogram {
            bounds,
            buckets: [const { AtomicU64::new(0) }; MAX_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        let bucket =
            self.bounds.iter().position(|&bound| value <= bound).unwrap_or(self.bounds.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating, not wrapping: a wrapped sum reads below the max.
        let _ = self.sum.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |sum| {
            Some(sum.saturating_add(value))
        });
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds,
            buckets: (0..=self.bounds.len())
                .map(|i| self.buckets[i].load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Resets every bucket and tally to zero (test/profile isolation).
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper-inclusive bucket bounds.
    pub bounds: &'static [u64],
    /// Per-bucket counts; one more entry than `bounds` (the overflow
    /// bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, saturating at `u64::MAX`.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observation rounded to the nearest integer (half up); zero
    /// when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.saturating_add(self.count / 2).checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket holding the `p`-quantile; the exact
    /// maximum for observations in the unbounded bucket; zero when empty.
    ///
    /// `p` is the fraction of observations covered, in `(0, 1]`:
    /// `percentile(1.0)` covers everything. Out-of-range `p` is clamped —
    /// `p <= 0` (and NaN) behaves like the smallest positive quantile (rank
    /// 1, the bucket of the minimum observation; a true 0-quantile covers
    /// no observations and has no defined bucket), `p > 1` like `1.0`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // NaN-safe: a NaN product fails the `>=` test and falls through
        // to rank 1, matching the p <= 0 clamp.
        let product = p * self.count as f64;
        let rank = if product >= 1.0 { (product.ceil() as u64).min(self.count) } else { 1 };
        let mut seen = 0;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return self.bounds.get(bucket).copied().unwrap_or(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.add(0); // no-op, not a fetch_add of zero spam
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(-3);
        assert_eq!(g.get(), -3);
        g.reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_buckets_observations() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        static BOUNDS: [u64; 3] = [10, 100, 1_000];
        let h = Histogram::new(&BOUNDS);
        for v in [5, 10, 11, 5_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![2, 1, 0, 1]);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 5_026);
        assert_eq!(snap.max, 5_000);
        assert_eq!(snap.mean(), 1_257); // 5026/4 = 1256.5 rounds half up
        h.reset();
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn histogram_percentiles_come_from_bucket_bounds() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let h = Histogram::new(&crate::metrics::LATENCY_BOUNDS_US);
        assert_eq!(h.snapshot().percentile(0.5), 0, "empty reads zero");
        for micros in [10, 20, 30, 40, 60, 70, 80, 90, 2_000_000, 3_000_000] {
            h.record(micros);
        }
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.50), 100); // 5th obs sits in the ≤100µs bucket
        assert_eq!(snap.percentile(0.99), 3_000_000); // overflow bucket → max
    }

    #[test]
    fn percentile_edge_quantiles_are_defined() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let h = Histogram::new(&crate::metrics::LATENCY_BOUNDS_US);
        for micros in [10, 600, 2_000_000] {
            h.record(micros);
        }
        let snap = h.snapshot();
        // p <= 0 clamps to rank 1: the minimum observation's bucket.
        assert_eq!(snap.percentile(0.0), 50);
        assert_eq!(snap.percentile(-1.0), 50);
        assert_eq!(snap.percentile(f64::NAN), 50);
        // p >= 1 covers everything, including the unbounded bucket.
        assert_eq!(snap.percentile(1.0), 2_000_000);
        assert_eq!(snap.percentile(7.5), 2_000_000);
    }

    #[test]
    fn histogram_sum_and_mean_saturate_instead_of_wrapping() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        static BOUNDS: [u64; 1] = [10];
        let h = Histogram::new(&BOUNDS);
        for v in [u64::MAX - 1, u64::MAX - 1, 1] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.sum, u64::MAX);
        assert!(snap.sum >= snap.max);
        assert_eq!(snap.mean(), u64::MAX / 3);
    }

    #[test]
    fn disabled_tap_records_nothing() {
        let _serial = crate::test_lock();
        crate::set_enabled(false);
        let c = Counter::new();
        c.inc();
        static BOUNDS: [u64; 1] = [10];
        let h = Histogram::new(&BOUNDS);
        h.record(7);
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
    }
}
