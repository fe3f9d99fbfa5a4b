//! Univariate time series.
//!
//! A [`TimeSeries`] is an ordered sequence of `(Timestamp, f64)`
//! observations stored column-wise (struct-of-arrays): one sorted `Vec`
//! of timestamps and one parallel `Vec` of values. Column layout makes
//! range scans, aggregation and vector-style math cache-friendly, which
//! matters for the scan-heavy Table-1 queries.
//!
//! Invariant (R2 *chronological integrity*): timestamps are strictly
//! increasing. Appends enforce it with an error; bulk constructors sort
//! and deduplicate (last write wins) so arbitrary input is normalised.

use hygraph_types::{Duration, HyGraphError, Interval, Result, Timestamp};
use std::fmt;

/// An ordered univariate time series.
#[derive(Clone, Default, PartialEq)]
pub struct TimeSeries {
    times: Vec<Timestamp>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty series with pre-reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            times: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Builds a series from arbitrary pairs: sorts by timestamp and
    /// deduplicates (the *last* value for a duplicated timestamp wins,
    /// matching "replace stale data" — R3).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Timestamp, f64)>) -> Self {
        let mut v: Vec<(Timestamp, f64)> = pairs.into_iter().collect();
        // stable sort keeps insertion order among equal timestamps, so
        // taking the last occurrence implements last-write-wins.
        v.sort_by_key(|(t, _)| *t);
        let mut out = Self::with_capacity(v.len());
        for (t, x) in v {
            if out.times.last() == Some(&t) {
                *out.values.last_mut().expect("values parallel to times") = x;
            } else {
                out.times.push(t);
                out.values.push(x);
            }
        }
        out
    }

    /// Builds a regular series: `n` observations starting at `start`,
    /// spaced `step` apart, with values produced by `f(i)`.
    pub fn generate(
        start: Timestamp,
        step: Duration,
        n: usize,
        mut f: impl FnMut(usize) -> f64,
    ) -> Self {
        assert!(step.is_positive(), "step must be positive");
        let mut s = Self::with_capacity(n);
        let mut t = start;
        for i in 0..n {
            s.times.push(t);
            s.values.push(f(i));
            t += step;
        }
        s
    }

    /// Number of observations.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series has no observations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The sorted timestamp column.
    #[inline]
    pub fn times(&self) -> &[Timestamp] {
        &self.times
    }

    /// The value column, parallel to [`Self::times`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the value column (timestamps stay fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The observation at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<(Timestamp, f64)> {
        Some((*self.times.get(i)?, self.values[i]))
    }

    /// First observation.
    pub fn first(&self) -> Option<(Timestamp, f64)> {
        self.get(0)
    }

    /// Last observation.
    pub fn last(&self) -> Option<(Timestamp, f64)> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// The interval `[first, last+1ms)` spanned by the series, or `None`
    /// when empty.
    pub fn span(&self) -> Option<Interval> {
        let (first, _) = self.first()?;
        let (last, _) = self.last()?;
        Some(Interval::new(first, last + Duration::from_millis(1)))
    }

    /// Appends an observation; must be strictly after the current last
    /// timestamp (amortised O(1) — the hot ingest path, R3).
    pub fn push(&mut self, t: Timestamp, value: f64) -> Result<()> {
        if let Some(&last) = self.times.last() {
            if t <= last {
                return Err(HyGraphError::OutOfOrder { at: t, last });
            }
        }
        self.times.push(t);
        self.values.push(value);
        Ok(())
    }

    /// Inserts an observation at an arbitrary position (O(n) shift for
    /// mid-series inserts, O(log n) locate). Overwrites on duplicate
    /// timestamp (last write wins).
    pub fn upsert(&mut self, t: Timestamp, value: f64) {
        match self.times.binary_search(&t) {
            Ok(i) => self.values[i] = value,
            Err(i) => {
                self.times.insert(i, t);
                self.values.insert(i, value);
            }
        }
    }

    /// The exact value at `t`, if observed.
    pub fn value_at(&self, t: Timestamp) -> Option<f64> {
        self.times.binary_search(&t).ok().map(|i| self.values[i])
    }

    /// The most recent value at or before `t` (last-observation-carried-
    /// forward), if any.
    pub fn value_at_or_before(&self, t: Timestamp) -> Option<f64> {
        match self.times.binary_search(&t) {
            Ok(i) => Some(self.values[i]),
            Err(0) => None,
            Err(i) => Some(self.values[i - 1]),
        }
    }

    /// Index range `[lo, hi)` of observations inside `interval`.
    #[inline]
    pub fn range_indices(&self, interval: &Interval) -> (usize, usize) {
        let lo = self.times.partition_point(|&t| t < interval.start);
        let hi = self.times.partition_point(|&t| t < interval.end);
        (lo, hi)
    }

    /// Borrowed view of the observations inside `interval`.
    pub fn range(&self, interval: &Interval) -> SeriesSlice<'_> {
        let (lo, hi) = self.range_indices(interval);
        SeriesSlice {
            times: &self.times[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Owned sub-series of the observations inside `interval`.
    pub fn slice(&self, interval: &Interval) -> TimeSeries {
        let (lo, hi) = self.range_indices(interval);
        TimeSeries {
            times: self.times[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
        }
    }

    /// Iterates `(Timestamp, f64)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Applies `f` to every value, producing a new series on the same
    /// time axis.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> TimeSeries {
        TimeSeries {
            times: self.times.clone(),
            values: self.values.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Keeps only the observations satisfying the predicate.
    pub fn filter(&self, mut pred: impl FnMut(Timestamp, f64) -> bool) -> TimeSeries {
        let mut out = TimeSeries::new();
        for (t, x) in self.iter() {
            if pred(t, x) {
                out.times.push(t);
                out.values.push(x);
            }
        }
        out
    }

    /// Element-wise difference series: `out[i] = self[i+1] - self[i]`,
    /// timestamped at the later point. Length `len-1`.
    pub fn diff(&self) -> TimeSeries {
        let mut out = TimeSeries::with_capacity(self.len().saturating_sub(1));
        for i in 1..self.len() {
            out.times.push(self.times[i]);
            out.values.push(self.values[i] - self.values[i - 1]);
        }
        out
    }

    /// Checks the chronological-integrity invariant explicitly (used by
    /// model validation, R2).
    pub fn validate(&self) -> Result<()> {
        if self.times.len() != self.values.len() {
            return Err(HyGraphError::invalid("times/values length mismatch"));
        }
        for w in self.times.windows(2) {
            if w[0] >= w[1] {
                return Err(HyGraphError::DuplicateTimestamp(w[1]));
            }
        }
        Ok(())
    }
}

impl FromIterator<(Timestamp, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (Timestamp, f64)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimeSeries(len={}", self.len())?;
        if let Some(span) = self.span() {
            write!(f, ", span={span}")?;
        }
        f.write_str(")")
    }
}

/// A borrowed, contiguous view into a [`TimeSeries`].
#[derive(Clone, Copy, Debug)]
pub struct SeriesSlice<'a> {
    /// Timestamps in the view.
    pub times: &'a [Timestamp],
    /// Values parallel to `times`.
    pub values: &'a [f64],
}

impl<'a> SeriesSlice<'a> {
    /// Number of observations in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates `(Timestamp, f64)` pairs in the view.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, f64)> + 'a {
        self.times.iter().copied().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn sample() -> TimeSeries {
        TimeSeries::from_pairs([(ts(10), 1.0), (ts(20), 2.0), (ts(30), 3.0), (ts(40), 4.0)])
    }

    #[test]
    fn from_pairs_sorts_and_dedups_last_wins() {
        let s =
            TimeSeries::from_pairs([(ts(30), 3.0), (ts(10), 1.0), (ts(30), 99.0), (ts(20), 2.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.value_at(ts(30)), Some(99.0));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn push_enforces_order() {
        let mut s = TimeSeries::new();
        s.push(ts(10), 1.0).unwrap();
        s.push(ts(20), 2.0).unwrap();
        let err = s.push(ts(20), 3.0).unwrap_err();
        assert_eq!(
            err,
            HyGraphError::OutOfOrder {
                at: ts(20),
                last: ts(20)
            }
        );
        let err = s.push(ts(5), 3.0).unwrap_err();
        assert!(matches!(err, HyGraphError::OutOfOrder { .. }));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn upsert_inserts_and_overwrites() {
        let mut s = sample();
        s.upsert(ts(25), 2.5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.value_at(ts(25)), Some(2.5));
        s.upsert(ts(25), 9.0);
        assert_eq!(s.len(), 5);
        assert_eq!(s.value_at(ts(25)), Some(9.0));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn value_lookups() {
        let s = sample();
        assert_eq!(s.value_at(ts(20)), Some(2.0));
        assert_eq!(s.value_at(ts(21)), None);
        assert_eq!(s.value_at_or_before(ts(21)), Some(2.0));
        assert_eq!(s.value_at_or_before(ts(20)), Some(2.0));
        assert_eq!(s.value_at_or_before(ts(9)), None);
        assert_eq!(s.value_at_or_before(ts(1000)), Some(4.0));
    }

    #[test]
    fn range_half_open() {
        let s = sample();
        let r = s.range(&Interval::new(ts(20), ts(40)));
        assert_eq!(r.len(), 2);
        assert_eq!(r.values, &[2.0, 3.0]);
        // full cover
        let r = s.range(&Interval::new(ts(0), ts(1000)));
        assert_eq!(r.len(), 4);
        // empty
        let r = s.range(&Interval::new(ts(41), ts(1000)));
        assert!(r.is_empty());
    }

    #[test]
    fn slice_is_owned_copy() {
        let s = sample();
        let sub = s.slice(&Interval::new(ts(15), ts(35)));
        assert_eq!(sub.times(), &[ts(20), ts(30)]);
        assert_eq!(sub.values(), &[2.0, 3.0]);
    }

    #[test]
    fn span_and_ends() {
        let s = sample();
        assert_eq!(s.first(), Some((ts(10), 1.0)));
        assert_eq!(s.last(), Some((ts(40), 4.0)));
        let span = s.span().unwrap();
        assert!(span.contains(ts(40)));
        assert!(!span.contains(ts(41)));
        assert_eq!(TimeSeries::new().span(), None);
    }

    #[test]
    fn generate_regular() {
        let s = TimeSeries::generate(ts(0), Duration::from_millis(5), 4, |i| i as f64 * 10.0);
        assert_eq!(s.times(), &[ts(0), ts(5), ts(10), ts(15)]);
        assert_eq!(s.values(), &[0.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn map_filter_diff() {
        let s = sample();
        let doubled = s.map(|x| x * 2.0);
        assert_eq!(doubled.values(), &[2.0, 4.0, 6.0, 8.0]);
        let only_big = s.filter(|_, x| x >= 3.0);
        assert_eq!(only_big.values(), &[3.0, 4.0]);
        let d = s.diff();
        assert_eq!(d.times(), &[ts(20), ts(30), ts(40)]);
        assert_eq!(d.values(), &[1.0, 1.0, 1.0]);
        assert!(TimeSeries::new().diff().is_empty());
    }

    #[test]
    fn validate_catches_corruption() {
        let mut s = sample();
        // corrupt through direct field access within the module
        s.times[1] = ts(10);
        assert!(s.validate().is_err());
    }

    #[test]
    fn slice_view_roundtrip() {
        let s = sample();
        let view = s.range(&Interval::ALL);
        let pairs: Vec<_> = view.iter().collect();
        assert_eq!(
            pairs,
            [(ts(10), 1.0), (ts(20), 2.0), (ts(30), 3.0), (ts(40), 4.0)]
        );
    }

    #[test]
    fn empty_series_behaviour() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        assert_eq!(s.last(), None);
        assert_eq!(s.value_at_or_before(ts(0)), None);
        assert!(s.range(&Interval::ALL).is_empty());
        assert!(s.validate().is_ok());
    }
}
