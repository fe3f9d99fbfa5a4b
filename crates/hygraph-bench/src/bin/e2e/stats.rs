//! Order statistics for latency samples and for repeated runs.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it — a p99 computed
//! from 150 samples is the second-largest value and repeats badly, so
//! the tail a sample can support depends on its size. Every figure is
//! printed with its sample count.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles tried, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Sorts samples ascending (all benchmark samples are finite).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest rank (1-based) of percentile `p` in a sample of `n`; the
/// epsilon keeps `99.9 % of 10 000` at 9 990 despite binary fractions.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Median of an ascending sample (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of an unsorted sample.
pub fn median_of(values: &[f64]) -> Option<f64> {
    median(&sorted(values.to_vec()))
}

/// The highest of [`TAILS`] with at least [`MIN_BEYOND`] samples
/// strictly beyond its rank, as `(percentile, value)`; `None` when even
/// p75 is not supported (fewer than 40 samples).
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAILS.iter().find_map(|&p| {
        let rank = rank(n, p);
        (n >= rank + MIN_BEYOND).then(|| (p, sorted[rank - 1]))
    })
}

/// Quartiles by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns — so `--repeat` prints
/// the spread the acceptance check computes. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    Some([q(1), q(2), q(3)])
}

/// Interquartile distance as a share of the median — the repeatability
/// figure each end-to-end bound is held against.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_percentile_on_small_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(percentile(&ramp(100), 95.0), Some(95.0));
        assert_eq!(percentile(&ramp(3), 99.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 39 samples: p75 has rank 30, only 9 beyond
        assert_eq!(supported_tail(&ramp(39)), None);
        assert_eq!(supported_tail(&ramp(40)), Some((75.0, 30.0)));
        // p95 of 200 has rank 190 and exactly 10 beyond; 199 falls to p90
        assert_eq!(supported_tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(supported_tail(&ramp(199)).map(|t| t.0), Some(90.0));
        assert_eq!(supported_tail(&ramp(1_000)).map(|t| t.0), Some(99.0));
        assert_eq!(supported_tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ramp(10)), Some(1.0));
    }
}
