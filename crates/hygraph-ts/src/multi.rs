//! Multivariate time series.
//!
//! The paper defines a multivariate series as an ordered set of tuples
//! `ts = {(t₁,y₁), …, (tₙ,yₙ)}` where each `y = (val₁, …, val_k)` is a
//! tuple of `k` variable values. [`MultiSeries`] stores this column-wise:
//! one shared timestamp axis plus `k` named value columns — the layout
//! Xarray uses in the paper's Python prototype.

use crate::config::TsOptions;
use crate::rollup::Pyramid;
use crate::series::TimeSeries;
use crate::store::Summary;
use hygraph_types::{HyGraphError, Interval, Result, Timestamp};
use std::fmt;

/// Rows per precomputed summary block (see [`MultiSeries::summarize`]).
pub const SUMMARY_BLOCK: usize = 512;

/// A multivariate time series: one time axis, `k` named variables.
///
/// Alongside the raw columns the series maintains per-column summary
/// blocks — one incrementally-updated [`Summary`] per [`SUMMARY_BLOCK`]
/// rows — plus a rollup [`Pyramid`] over each column's *completed*
/// blocks, so interval aggregates via [`Self::summarize`] cost
/// O(F·log blocks) pyramid merges instead of O(blocks touched). The
/// blocks and pyramids are derived data: they never participate in
/// equality or serialization.
#[derive(Clone, Default)]
pub struct MultiSeries {
    times: Vec<Timestamp>,
    names: Vec<String>,
    columns: Vec<Vec<f64>>,
    block_sums: Vec<Vec<Summary>>,
    /// Per-column pyramid whose leaves are the completed (full) summary
    /// blocks; the trailing partial block stays outside so appends only
    /// touch it on block completion.
    block_pyrs: Vec<Pyramid>,
}

impl PartialEq for MultiSeries {
    fn eq(&self, other: &Self) -> bool {
        // block_sums is derived from the other fields, so it is excluded
        self.times == other.times && self.names == other.names && self.columns == other.columns
    }
}

impl MultiSeries {
    /// An empty multivariate series with the given variable names.
    pub fn new(names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let columns: Vec<Vec<f64>> = names.iter().map(|_| Vec::new()).collect();
        let block_sums = names.iter().map(|_| Vec::new()).collect();
        let fanout = TsOptions::from_env().rollup_fanout;
        let block_pyrs = names
            .iter()
            .map(|_| Pyramid::build(Vec::new(), fanout))
            .collect();
        Self {
            times: Vec::new(),
            names,
            columns,
            block_sums,
            block_pyrs,
        }
    }

    /// Number of *completed* summary blocks (the trailing partial block
    /// is excluded — it is still growing).
    fn completed_blocks(&self) -> usize {
        self.times.len() / SUMMARY_BLOCK
    }

    /// Rebuilds every summary block and block pyramid from the raw
    /// columns (bulk constructors; `push` maintains them incrementally).
    fn rebuild_blocks(&mut self) {
        self.block_sums = self
            .columns
            .iter()
            .map(|col| col.chunks(SUMMARY_BLOCK).map(Summary::of).collect())
            .collect();
        let fanout = TsOptions::from_env().rollup_fanout;
        let full = self.completed_blocks();
        self.block_pyrs = self
            .block_sums
            .iter()
            .map(|blocks| Pyramid::build(blocks[..full].to_vec(), fanout))
            .collect();
    }

    /// Wraps a single univariate series as a 1-column multivariate one.
    pub fn from_univariate(name: impl Into<String>, s: &TimeSeries) -> Self {
        let mut m = Self {
            times: s.times().to_vec(),
            names: vec![name.into()],
            columns: vec![s.values().to_vec()],
            block_sums: Vec::new(),
            block_pyrs: Vec::new(),
        };
        m.rebuild_blocks();
        m
    }

    /// Builds from already-aligned univariate series (all must share the
    /// exact same time axis).
    pub fn from_aligned(parts: impl IntoIterator<Item = (String, TimeSeries)>) -> Result<Self> {
        let mut names = Vec::new();
        let mut columns = Vec::new();
        let mut times: Option<Vec<Timestamp>> = None;
        for (name, s) in parts {
            match &times {
                None => times = Some(s.times().to_vec()),
                Some(t) => {
                    if t.as_slice() != s.times() {
                        return Err(HyGraphError::invalid(format!(
                            "variable '{name}' is not aligned with the shared time axis"
                        )));
                    }
                }
            }
            names.push(name);
            columns.push(s.values().to_vec());
        }
        let times = times.ok_or(HyGraphError::EmptyInput("MultiSeries::from_aligned"))?;
        let mut m = Self {
            times,
            names,
            columns,
            block_sums: Vec::new(),
            block_pyrs: Vec::new(),
        };
        m.rebuild_blocks();
        Ok(m)
    }

    /// Number of observations (length of the time axis).
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series has no observations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of variables `k`.
    #[inline]
    pub fn arity(&self) -> usize {
        self.names.len()
    }

    /// Variable names in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The shared time axis.
    pub fn times(&self) -> &[Timestamp] {
        &self.times
    }

    /// Index of the variable called `name`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The raw value column at position `idx`.
    pub fn column(&self, idx: usize) -> Option<&[f64]> {
        self.columns.get(idx).map(Vec::as_slice)
    }

    /// The raw value column for variable `name`.
    pub fn column_by_name(&self, name: &str) -> Option<&[f64]> {
        self.column(self.column_index(name)?)
    }

    /// Appends an observation tuple; errors on arity mismatch or
    /// out-of-order timestamp.
    pub fn push(&mut self, t: Timestamp, y: &[f64]) -> Result<()> {
        if y.len() != self.arity() {
            return Err(HyGraphError::ArityMismatch {
                expected: self.arity(),
                got: y.len(),
            });
        }
        if let Some(&last) = self.times.last() {
            if t <= last {
                return Err(HyGraphError::OutOfOrder { at: t, last });
            }
        }
        self.times.push(t);
        let block = (self.times.len() - 1) / SUMMARY_BLOCK;
        let completes_block = self.times.len().is_multiple_of(SUMMARY_BLOCK);
        for ((col, blocks), (pyr, &v)) in self
            .columns
            .iter_mut()
            .zip(&mut self.block_sums)
            .zip(self.block_pyrs.iter_mut().zip(y))
        {
            col.push(v);
            if blocks.len() <= block {
                blocks.push(Summary::new());
            }
            blocks[block].add(v);
            if completes_block {
                // the block just filled: it becomes a pyramid leaf
                pyr.push_leaf(blocks[block]);
            }
        }
        Ok(())
    }

    /// The observation tuple at position `i`.
    pub fn row(&self, i: usize) -> Option<(Timestamp, Vec<f64>)> {
        let t = *self.times.get(i)?;
        Some((t, self.columns.iter().map(|c| c[i]).collect()))
    }

    /// Extracts one variable as an owned univariate [`TimeSeries`] — the
    /// bridge from multivariate storage to the univariate operator library.
    pub fn to_univariate(&self, name: &str) -> Option<TimeSeries> {
        let idx = self.column_index(name)?;
        Some(TimeSeries::from_pairs(
            self.times
                .iter()
                .copied()
                .zip(self.columns[idx].iter().copied()),
        ))
    }

    /// Owned sub-series of the observations inside `interval`.
    pub fn slice(&self, interval: &Interval) -> MultiSeries {
        let lo = self.times.partition_point(|&t| t < interval.start);
        let hi = self.times.partition_point(|&t| t < interval.end);
        let mut m = MultiSeries {
            times: self.times[lo..hi].to_vec(),
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c[lo..hi].to_vec()).collect(),
            block_sums: Vec::new(),
            block_pyrs: Vec::new(),
        };
        m.rebuild_blocks();
        m
    }

    /// Summary of one column's values inside `interval`, served from the
    /// block pyramid: runs of fully-covered blocks merge O(F·log blocks)
    /// precomputed pyramid nodes, only the (at most two) boundary blocks
    /// are scanned. `None` when `col` is out of bounds; an empty range
    /// yields an empty summary (count 0).
    ///
    /// This is the one aggregate kernel every HyQL series aggregate
    /// calls, so cached and uncached evaluation are bit-identical by
    /// construction.
    pub fn summarize(&self, interval: &Interval, col: usize) -> Option<Summary> {
        let column = self.columns.get(col)?;
        let blocks = &self.block_sums[col];
        let pyr = &self.block_pyrs[col];
        let lo = self.times.partition_point(|&t| t < interval.start);
        let hi = self.times.partition_point(|&t| t < interval.end);
        let mut acc = Summary::new();
        let mut i = lo;
        while i < hi {
            let b = i / SUMMARY_BLOCK;
            let bstart = b * SUMMARY_BLOCK;
            let bend = (bstart + SUMMARY_BLOCK).min(column.len());
            if i == bstart && bend <= hi {
                if b < pyr.len() {
                    // run of covered complete blocks → pyramid nodes
                    let run_end = (hi / SUMMARY_BLOCK).min(pyr.len());
                    let (s, _) = pyr.range(b, run_end);
                    acc.merge(&s);
                    i = run_end * SUMMARY_BLOCK;
                    continue;
                }
                // covered trailing partial block (outside the pyramid)
                acc.merge(&blocks[b]);
            } else {
                for &v in &column[i..hi.min(bend)] {
                    acc.add(v);
                }
            }
            i = bend;
        }
        Some(acc)
    }

    /// Checks chronological integrity and column alignment.
    pub fn validate(&self) -> Result<()> {
        for col in &self.columns {
            if col.len() != self.times.len() {
                return Err(HyGraphError::invalid("column length mismatch"));
            }
        }
        for w in self.times.windows(2) {
            if w[0] >= w[1] {
                return Err(HyGraphError::DuplicateTimestamp(w[1]));
            }
        }
        Ok(())
    }
}

impl fmt::Debug for MultiSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MultiSeries(len={}, vars={:?})", self.len(), self.names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::Duration;

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn sample() -> MultiSeries {
        let mut m = MultiSeries::new(["price", "volume"]);
        m.push(ts(10), &[100.0, 5.0]).unwrap();
        m.push(ts(20), &[101.0, 7.0]).unwrap();
        m.push(ts(30), &[99.5, 2.0]).unwrap();
        m
    }

    #[test]
    fn push_and_access() {
        let m = sample();
        assert_eq!(m.len(), 3);
        assert_eq!(m.arity(), 2);
        assert_eq!(m.row(1), Some((ts(20), vec![101.0, 7.0])));
        assert_eq!(m.row(3), None);
        assert_eq!(m.column_by_name("volume"), Some(&[5.0, 7.0, 2.0][..]));
        assert_eq!(m.column_by_name("missing"), None);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut m = sample();
        let err = m.push(ts(40), &[1.0]).unwrap_err();
        assert_eq!(
            err,
            HyGraphError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn out_of_order_rejected() {
        let mut m = sample();
        assert!(matches!(
            m.push(ts(30), &[0.0, 0.0]).unwrap_err(),
            HyGraphError::OutOfOrder { .. }
        ));
    }

    #[test]
    fn univariate_roundtrip() {
        let m = sample();
        let price = m.to_univariate("price").unwrap();
        assert_eq!(price.values(), &[100.0, 101.0, 99.5]);
        let back = MultiSeries::from_univariate("price", &price);
        assert_eq!(back.column_by_name("price"), m.column_by_name("price"));
        assert_eq!(back.times(), m.times());
    }

    #[test]
    fn from_aligned_checks_axis() {
        let a = TimeSeries::generate(ts(0), Duration::from_millis(10), 3, |i| i as f64);
        let b = TimeSeries::generate(ts(0), Duration::from_millis(10), 3, |i| i as f64 * 2.0);
        let m =
            MultiSeries::from_aligned([("a".to_owned(), a.clone()), ("b".to_owned(), b)]).unwrap();
        assert_eq!(m.arity(), 2);
        let misaligned = TimeSeries::generate(ts(5), Duration::from_millis(10), 3, |_| 0.0);
        assert!(
            MultiSeries::from_aligned([("a".to_owned(), a), ("c".to_owned(), misaligned)]).is_err()
        );
        assert!(MultiSeries::from_aligned(std::iter::empty::<(String, TimeSeries)>()).is_err());
    }

    #[test]
    fn slice_multivariate() {
        let m = sample();
        let sub = m.slice(&Interval::new(ts(15), ts(35)));
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.column_by_name("price"), Some(&[101.0, 99.5][..]));
        assert_eq!(sub.arity(), 2);
    }

    #[test]
    fn summarize_small_series_matches_scan() {
        let m = sample();
        let s = m.summarize(&Interval::new(ts(15), ts(35)), 0).unwrap();
        let want = Summary::of(&[101.0, 99.5]);
        assert_eq!(s.count, want.count);
        assert_eq!(s.sum.to_bits(), want.sum.to_bits());
        assert_eq!(s.min, want.min);
        assert_eq!(s.max, want.max);
        // empty range: empty summary, not None
        let empty = m.summarize(&Interval::new(ts(100), ts(200)), 0).unwrap();
        assert_eq!(empty.count, 0);
        // out-of-bounds column
        assert!(m.summarize(&Interval::ALL, 9).is_none());
    }

    #[test]
    fn summarize_uses_blocks_across_many_rows() {
        // > 2 blocks so full-block merges, boundary scans, and the
        // incremental push path all get exercised; integer values keep
        // the merged sum exact
        let mut m = MultiSeries::new(["v"]);
        let n = 3 * SUMMARY_BLOCK + 77;
        for i in 0..n {
            m.push(ts(i as i64), &[(i % 13) as f64]).unwrap();
        }
        for (lo, hi) in [(0, n), (100, 600), (511, 513), (0, 512), (700, 701)] {
            let s = m
                .summarize(&Interval::new(ts(lo as i64), ts(hi as i64)), 0)
                .unwrap();
            let want = Summary::of(&m.column(0).unwrap()[lo..hi]);
            assert_eq!(s.count, want.count, "[{lo},{hi})");
            assert_eq!(s.sum, want.sum, "[{lo},{hi})");
            assert_eq!(s.min, want.min, "[{lo},{hi})");
            assert_eq!(s.max, want.max, "[{lo},{hi})");
        }
        // blocks follow every constructor, not just push
        let sliced = m.slice(&Interval::new(ts(10), ts(1500)));
        let s = sliced.summarize(&Interval::ALL, 0).unwrap();
        assert_eq!(s.count, 1490);
    }

    #[test]
    fn summarize_is_bitwise_construction_independent() {
        // the pyramid is a pure function of the blocks, and the blocks
        // a pure function of the column, so bulk and incremental
        // construction must answer every aggregate bit-identically even
        // for rounding-sensitive values
        let n = 4 * SUMMARY_BLOCK + 3;
        let series = TimeSeries::generate(ts(0), Duration::from_millis(1), n, |i| {
            (i as f64 * 0.7).sin() / 3.0
        });
        let bulk = MultiSeries::from_univariate("v", &series);
        let mut inc = MultiSeries::new(["v"]);
        for (t, v) in series.iter() {
            inc.push(t, &[v]).unwrap();
        }
        for (lo, hi) in [(0, n), (1, n - 1), (0, 512), (512, 2048), (100, 1900)] {
            let iv = Interval::new(ts(lo as i64), ts(hi as i64));
            let a = bulk.summarize(&iv, 0).unwrap();
            let b = inc.summarize(&iv, 0).unwrap();
            assert_eq!(a.count, b.count, "[{lo},{hi})");
            assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "[{lo},{hi})");
            assert_eq!(a.min.to_bits(), b.min.to_bits(), "[{lo},{hi})");
            assert_eq!(a.max.to_bits(), b.max.to_bits(), "[{lo},{hi})");
        }
    }

    #[test]
    fn equality_ignores_derived_blocks() {
        // same data built two ways (bulk vs incremental) compares equal
        let series = TimeSeries::generate(ts(0), Duration::from_millis(10), 50, |i| i as f64);
        let bulk = MultiSeries::from_univariate("v", &series);
        let mut inc = MultiSeries::new(["v"]);
        for (t, v) in series.iter() {
            inc.push(t, &[v]).unwrap();
        }
        assert_eq!(bulk, inc);
    }
}
