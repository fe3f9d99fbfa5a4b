//! Correlation measures (Table 2, row Q3 — time-series side).
//!
//! Pairs with graph reachability in the hybrid Q3 operator: "measure the
//! correlation between time-series data of vertices to enhance
//! reachability analysis".

use crate::ops::resample::{align, FillMethod};
use crate::ops::stats;
use crate::series::TimeSeries;
use hygraph_types::parallel::{should_parallelize, ExecMode};
use hygraph_types::Duration;
use rayon::prelude::*;

/// Pearson correlation of two equally-long slices; `None` when either is
/// constant, empty or lengths mismatch.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.is_empty() {
        return None;
    }
    let cov = stats::covariance(xs, ys)?;
    let sx = stats::stddev(xs)?;
    let sy = stats::stddev(ys)?;
    if sx <= f64::EPSILON || sy <= f64::EPSILON {
        return None;
    }
    Some((cov / (sx * sy)).clamp(-1.0, 1.0))
}

/// Spearman rank correlation (Pearson over average ranks).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.is_empty() {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Average ranks (ties share the mean of their rank positions), 1-based.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Pearson correlation of two series after aligning them to a common
/// `step` grid over their overlapping span.
pub fn series_correlation(a: &TimeSeries, b: &TimeSeries, step: Duration) -> Option<f64> {
    let (ra, rb) = align(a, b, step, FillMethod::Linear)?;
    pearson(ra.values(), rb.values())
}

/// Lagged cross-correlation: Pearson of `xs[..n-lag]` against `ys[lag..]`
/// for each lag in `0..=max_lag`. Returns `(lag, r)` pairs for lags with
/// defined correlation.
pub fn cross_correlation(xs: &[f64], ys: &[f64], max_lag: usize) -> Vec<(usize, f64)> {
    let n = xs.len().min(ys.len());
    let mut out = Vec::new();
    for lag in 0..=max_lag.min(n.saturating_sub(2)) {
        if let Some(r) = pearson(&xs[..n - lag], &ys[lag..n]) {
            out.push((lag, r));
        }
    }
    out
}

/// The lag in `0..=max_lag` maximising cross-correlation, with its value.
pub fn best_lag(xs: &[f64], ys: &[f64], max_lag: usize) -> Option<(usize, f64)> {
    cross_correlation(xs, ys, max_lag)
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Rolling Pearson correlation over windows of `window` points, producing
/// one value per complete window (timestamped at the window's last point).
/// Inputs must share a time axis (use [`align`] first if not).
pub fn rolling_correlation(a: &TimeSeries, b: &TimeSeries, window: usize) -> TimeSeries {
    assert!(window >= 2, "window must hold at least two points");
    let n = a.len().min(b.len());
    let mut out = TimeSeries::new();
    if n < window {
        return out;
    }
    for end in window..=n {
        let xs = &a.values()[end - window..end];
        let ys = &b.values()[end - window..end];
        if let Some(r) = pearson(xs, ys) {
            out.upsert(a.times()[end - 1], r);
        }
    }
    out
}

/// Pairwise correlation matrix of many aligned value slices.
/// Undefined entries (constant series) are 0; the diagonal is 1. The
/// `k·(k-1)/2` upper-triangle entries are independent pure computations,
/// so fanning them out over threads ([`ExecMode::Auto`] decides from the
/// pair count) produces the exact same matrix as the sequential double
/// loop.
pub fn correlation_matrix(columns: &[&[f64]], mode: ExecMode) -> Vec<Vec<f64>> {
    let k = columns.len();
    let pairs: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
        .collect();
    let cell = |&(i, j): &(usize, usize)| pearson(columns[i], columns[j]).unwrap_or(0.0);
    let values: Vec<f64> = if should_parallelize(mode, pairs.len()) {
        pairs.par_iter().map(cell).collect()
    } else {
        pairs.iter().map(cell).collect()
    };
    let mut m = vec![vec![0.0; k]; k];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for (&(i, j), r) in pairs.iter().zip(values) {
        m[i][j] = r;
        m[j][i] = r;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::Timestamp;

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn pearson_perfect() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate() {
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None, "constant input");
        assert_eq!(pearson(&[1.0], &[1.0, 2.0]), None, "length mismatch");
        assert_eq!(pearson(&[], &[]), None);
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 8.0, 27.0, 64.0, 125.0]; // cubic: nonlinear but monotone
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let p = pearson(&xs, &ys).unwrap();
        assert!(p < 1.0, "pearson is below 1 for nonlinear data");
    }

    #[test]
    fn ranks_handle_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn cross_correlation_finds_shift() {
        // ys is xs delayed by 3 samples
        let base: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.3).sin()).collect();
        let xs = &base[3..];
        let ys = &base[..base.len() - 3];
        // ys[t] = xs[t-3], so xs correlates with ys shifted forward
        let (lag, r) = best_lag(xs, ys, 10).unwrap();
        assert_eq!(lag, 3);
        assert!(r > 0.99);
    }

    #[test]
    fn series_correlation_aligns_axes() {
        let a = TimeSeries::generate(ts(0), Duration::from_millis(10), 50, |i| i as f64);
        // same trend, offset sampling grid
        let b = TimeSeries::generate(ts(5), Duration::from_millis(10), 50, |i| {
            2.0 * i as f64 + 1.0
        });
        let r = series_correlation(&a, &b, Duration::from_millis(10)).unwrap();
        assert!(r > 0.999, "linear trends correlate, got {r}");
    }

    #[test]
    fn rolling_correlation_regime_change() {
        // first half correlated, second half anti-correlated
        let n = 40;
        let a = TimeSeries::generate(ts(0), Duration::from_millis(1), n, |i| {
            (i as f64 * 0.9).sin()
        });
        let b = TimeSeries::generate(ts(0), Duration::from_millis(1), n, |i| {
            let v = (i as f64 * 0.9).sin();
            if i < n / 2 {
                v
            } else {
                -v
            }
        });
        let r = rolling_correlation(&a, &b, 8);
        let first = r.values()[0];
        let last = *r.values().last().unwrap();
        assert!(first > 0.9);
        assert!(last < -0.9);
    }

    #[test]
    fn rolling_correlation_short_input() {
        let a = TimeSeries::generate(ts(0), Duration::from_millis(1), 3, |i| i as f64);
        let r = rolling_correlation(&a, &a, 5);
        assert!(r.is_empty());
    }

    #[test]
    fn matrix_parallel_matches_sequential_bitwise() {
        // 24 pseudo-random columns -> 276 pairs, enough to span chunks
        let cols: Vec<Vec<f64>> = (0..24)
            .map(|c| {
                (0..64)
                    .map(|i| ((i * 7 + c * 13) as f64 * 0.37).sin() + c as f64 * 0.01)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let seq = correlation_matrix(&refs, ExecMode::Sequential);
        let par = correlation_matrix(&refs, ExecMode::Parallel);
        for (row_s, row_p) in seq.iter().zip(&par) {
            for (a, b) in row_s.iter().zip(row_p) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn matrix_symmetry() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        let c = [5.0, 5.0, 5.0]; // constant => undefined => 0
        let m = correlation_matrix(&[&a, &b, &c], ExecMode::Auto);
        assert_eq!(m[0][0], 1.0);
        assert!((m[0][1] + 1.0).abs() < 1e-12);
        assert_eq!(m[0][1], m[1][0]);
        assert_eq!(m[0][2], 0.0);
        assert_eq!(m[2][2], 1.0);
    }
}
