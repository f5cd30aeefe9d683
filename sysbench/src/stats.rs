//! Order statistics and the one regression the report needs.

use std::time::Duration;

/// Candidate tail percentiles, highest first; the median is the floor.
const TAIL_LADDER: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Samples a tail percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// A duration in the unit a metric is reported in.
pub fn nanos(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sorts ascending. Timings are never NaN; a NaN would sort last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Less));
    values
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(ascending: &[f64], p: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of no samples");
    let rank = (p * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let ascending = sorted(values.to_vec());
    let n = ascending.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        ascending[n / 2]
    } else {
        (ascending[n / 2 - 1] + ascending[n / 2]) / 2.0
    }
}

/// The highest percentile of the ladder that has at least ten of the
/// `samples` beyond it, falling back rung by rung to the median.
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| (samples as f64 * (1.0 - p) + 1e-9).floor() as usize >= MIN_BEYOND)
        .unwrap_or(0.50)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here equals
/// the one the acceptance procedure computes. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values.to_vec());
    let len = data.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 below two samples.
pub fn relative_spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Least-squares slope of `ys` on `xs`; 0 when `xs` does not vary.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.is_empty() {
        return 0.0;
    }
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(99), 0.75);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(39), 0.50);
        assert_eq!(tail_percentile(1), 0.50);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slope_recovers_a_line_and_is_flat_on_constants() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        assert!((slope(&xs, &[1.0, 3.0, 5.0, 7.0]) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&xs, &[4.0; 4]), 0.0);
        assert_eq!(slope(&[2.0; 4], &[1.0, 2.0, 3.0, 4.0]), 0.0);
    }
}
