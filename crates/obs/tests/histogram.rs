//! Property tests for the latency `Histogram`: every statistic its
//! snapshot reports must agree with a naive reference computed straight
//! from the raw sample set, across random samples and quantiles —
//! including the edge quantiles (`p = 0`, `p = 1`) and the
//! truncation-prone mean.

use dstage_obs::metrics::LATENCY_BOUNDS_US;
use dstage_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// The bucket bound the histogram can resolve one raw observation to:
/// the smallest configured bound at or above it, or — for observations
/// in the unbounded overflow bucket — the maximum recorded observation.
fn reference_bound(sample: u64, samples: &[u64]) -> u64 {
    LATENCY_BOUNDS_US
        .iter()
        .copied()
        .find(|&bound| sample <= bound)
        .unwrap_or_else(|| samples.iter().copied().max().expect("non-empty"))
}

/// Rank-based reference quantile over the raw samples, mirroring the
/// histogram's contract: rank `max(1, ceil(p·n))` clamped to `n`, then
/// mapped to the bucket bound that observation falls in.
fn reference_percentile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let product = p * n as f64;
    let rank = if product >= 1.0 { (product.ceil() as u64).min(n) } else { 1 };
    reference_bound(sorted[(rank - 1) as usize], samples)
}

/// Mean of the raw samples, rounded half-up to the nearest microsecond.
fn reference_mean(samples: &[u64]) -> u64 {
    let n = samples.len() as u64;
    (samples.iter().sum::<u64>() + n / 2) / n
}

/// The snapshot of a fresh latency histogram fed `samples`.
fn histogram_of(samples: &[u64]) -> HistogramSnapshot {
    // The tap is on unless `DSTAGE_OBS` turns it off; nothing here does.
    dstage_obs::set_enabled(true);
    let h = Histogram::new(&LATENCY_BOUNDS_US);
    for &s in samples {
        h.record(s);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn percentiles_match_naive_reference(
        samples in prop::collection::vec(0u64..3_000_000, 1..200),
        p_milli in 0u64..=1_000,
    ) {
        let h = histogram_of(&samples);
        let p = p_milli as f64 / 1_000.0;
        prop_assert_eq!(
            h.percentile(p),
            reference_percentile(&samples, p),
            "p = {} over {:?}", p, samples
        );
    }

    #[test]
    fn edge_quantiles_match_naive_reference(
        samples in prop::collection::vec(0u64..3_000_000, 1..100),
    ) {
        let h = histogram_of(&samples);
        // p = 0 clamps to rank 1 (the minimum observation's bucket).
        prop_assert_eq!(h.percentile(0.0), reference_percentile(&samples, 0.0));
        // p = 1 covers every observation.
        prop_assert_eq!(h.percentile(1.0), reference_percentile(&samples, 1.0));
        // The covering quantile of the overflow bucket is the exact max.
        let max = samples.iter().copied().max().expect("non-empty");
        if max > *LATENCY_BOUNDS_US.last().expect("non-empty bounds") {
            prop_assert_eq!(h.percentile(1.0), max);
        }
    }

    #[test]
    fn mean_matches_naive_rounded_reference(
        samples in prop::collection::vec(0u64..3_000_000, 1..200),
    ) {
        let h = histogram_of(&samples);
        prop_assert_eq!(h.mean(), reference_mean(&samples), "samples {:?}", samples);
    }

    /// Regression: `record` used an unchecked `sum += value`, so a
    /// handful of huge observations (e.g. the `u64::MAX` sentinel a
    /// failed `Instant` conversion produces) wrapped the sum — panicking
    /// in debug builds and corrupting the mean in release. The sum must
    /// saturate instead, pinning the mean at a sane upper bound.
    #[test]
    fn huge_observations_saturate_instead_of_wrapping(
        samples in prop::collection::vec(0u64..3_000_000, 0..50),
        huge in prop::collection::vec((u64::MAX - 1_000_000)..=u64::MAX, 1..5),
    ) {
        let all: Vec<u64> = samples.iter().chain(&huge).copied().collect();
        let h = histogram_of(&all); // must not overflow-panic
        let n = all.len() as u64;
        prop_assert_eq!(h.count, n);
        // The saturated sum still yields a mean within the observed range
        // and at least the naive saturating reference (which the true
        // mean would meet or exceed as well).
        let mean = h.mean();
        prop_assert!(mean <= u64::MAX / n + 1, "mean {} exceeds any real average", mean);
        let saturated_ref = samples
            .iter()
            .chain(&huge)
            .fold(0u64, |acc, &s| acc.saturating_add(s));
        prop_assert_eq!(mean, saturated_ref.saturating_add(n / 2) / n);
    }

    #[test]
    fn percentiles_are_monotone_in_p(
        samples in prop::collection::vec(0u64..3_000_000, 1..100),
        a_milli in 0u64..=1_000,
        b_milli in 0u64..=1_000,
    ) {
        let h = histogram_of(&samples);
        let (lo, hi) = if a_milli <= b_milli { (a_milli, b_milli) } else { (b_milli, a_milli) };
        prop_assert!(
            h.percentile(lo as f64 / 1_000.0) <= h.percentile(hi as f64 / 1_000.0)
        );
    }
}
