//! Half-open validity intervals `[start, end)`.
//!
//! The paper's function ρ assigns each property-graph vertex, edge and
//! subgraph the pair ⟨t_start, t_end⟩ between which the element is valid,
//! with `t_end` initialised to `max(T)` for still-open elements. We use
//! half-open semantics (`start` inclusive, `end` exclusive), the standard
//! convention in temporal databases: adjacent intervals tile time with no
//! overlap and no gap.

use crate::time::{Duration, Timestamp};
use std::fmt;

/// A half-open time interval `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub start: Timestamp,
    /// Exclusive upper bound.
    pub end: Timestamp,
}

impl Interval {
    /// The interval covering all of time.
    pub const ALL: Interval = Interval {
        start: Timestamp::MIN,
        end: Timestamp::MAX,
    };

    /// Creates `[start, end)`. `start` must not exceed `end`.
    #[inline]
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(start <= end, "interval start {start:?} after end {end:?}");
        Self { start, end }
    }

    /// Creates `[start, end)` if well-formed, `None` otherwise.
    #[inline]
    pub fn try_new(start: Timestamp, end: Timestamp) -> Option<Self> {
        (start <= end).then_some(Self { start, end })
    }

    /// An interval open to the right: `[start, max(T))` — the paper's
    /// initialisation for currently-valid elements.
    #[inline]
    pub fn from(start: Timestamp) -> Self {
        Self {
            start,
            end: Timestamp::MAX,
        }
    }

    /// The degenerate instant `[t, t+1ms)` containing exactly `t`.
    #[inline]
    pub fn at(t: Timestamp) -> Self {
        Self {
            start: t,
            end: t + Duration::from_millis(1),
        }
    }

    /// Whether the interval contains no instants.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Length of the interval. Saturates at `i64::MAX` for [`Interval::ALL`].
    #[inline]
    pub fn len(&self) -> Duration {
        Duration(self.end.0.saturating_sub(self.start.0))
    }

    /// Whether instant `t` falls inside `[start, end)`.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether `other` is fully contained in `self`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (self.start <= other.start && other.end <= self.end)
    }

    /// Whether the two intervals share at least one instant.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether the two intervals are adjacent (touch without overlapping).
    #[inline]
    pub fn is_adjacent(&self, other: &Interval) -> bool {
        self.end == other.start || other.end == self.start
    }

    /// The intersection, or `None` if the intervals are disjoint.
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(Interval { start, end })
    }

    /// The smallest interval covering both inputs (convex hull).
    #[inline]
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// The union if the inputs overlap or are adjacent, `None` otherwise.
    #[inline]
    pub fn union(&self, other: &Interval) -> Option<Interval> {
        (self.overlaps(other) || self.is_adjacent(other)).then(|| self.hull(other))
    }

    /// Closes a right-open interval at `end` (used when an element is
    /// deleted or superseded at a known instant).
    #[inline]
    pub fn closed_at(&self, end: Timestamp) -> Interval {
        Interval::new(self.start, end.max(self.start))
    }

    /// Splits the interval into consecutive tumbling windows of width
    /// `bucket`, aligned to multiples of `bucket`. Returns an iterator of
    /// (bucket_start, clamped_window) pairs.
    pub fn tumbling(&self, bucket: Duration) -> impl Iterator<Item = (Timestamp, Interval)> + '_ {
        assert!(bucket.is_positive(), "bucket width must be positive");
        let first = self.start.truncate(bucket);
        let me = *self;
        let mut cur = first;
        std::iter::from_fn(move || {
            if cur >= me.end {
                return None;
            }
            let win = Interval::new(cur, cur + bucket);
            cur += bucket;
            win.intersect(&me).map(|w| (win.start, w))
        })
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}, {:?})", self.start, self.end)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(Timestamp::from_millis(a), Timestamp::from_millis(b))
    }

    #[test]
    fn contains_half_open_semantics() {
        let i = iv(10, 20);
        assert!(!i.contains(Timestamp::from_millis(9)));
        assert!(i.contains(Timestamp::from_millis(10)));
        assert!(i.contains(Timestamp::from_millis(19)));
        assert!(!i.contains(Timestamp::from_millis(20)));
    }

    #[test]
    fn empty_interval() {
        let e = iv(5, 5);
        assert!(e.is_empty());
        assert!(!e.contains(Timestamp::from_millis(5)));
        assert_eq!(e.len(), Duration::ZERO);
        assert!(iv(0, 10).contains_interval(&e));
    }

    #[test]
    #[should_panic(expected = "interval start")]
    fn reversed_interval_panics() {
        let _ = iv(10, 5);
    }

    #[test]
    fn try_new_rejects_reversed() {
        assert!(Interval::try_new(Timestamp::from_millis(10), Timestamp::from_millis(5)).is_none());
        assert!(Interval::try_new(Timestamp::from_millis(5), Timestamp::from_millis(5)).is_some());
    }

    #[test]
    fn overlap_cases() {
        assert!(iv(0, 10).overlaps(&iv(5, 15)));
        assert!(iv(5, 15).overlaps(&iv(0, 10)));
        assert!(
            !iv(0, 10).overlaps(&iv(10, 20)),
            "adjacent half-open intervals do not overlap"
        );
        assert!(iv(0, 10).is_adjacent(&iv(10, 20)));
        assert!(!iv(0, 10).overlaps(&iv(11, 20)));
        assert!(iv(0, 100).overlaps(&iv(40, 50)));
    }

    #[test]
    fn intersect_union_hull() {
        assert_eq!(iv(0, 10).intersect(&iv(5, 15)), Some(iv(5, 10)));
        assert_eq!(iv(0, 10).intersect(&iv(10, 20)), None);
        assert_eq!(iv(0, 10).union(&iv(10, 20)), Some(iv(0, 20)));
        assert_eq!(iv(0, 10).union(&iv(11, 20)), None);
        assert_eq!(iv(0, 10).hull(&iv(50, 60)), iv(0, 60));
    }

    #[test]
    fn all_interval_contains_everything() {
        assert!(Interval::ALL.contains(Timestamp::MIN));
        assert!(Interval::ALL.contains(Timestamp::from_millis(0)));
        assert!(!Interval::ALL.contains(Timestamp::MAX), "end is exclusive");
        assert!(Interval::ALL.contains_interval(&iv(-100, 100)));
    }

    #[test]
    fn from_and_at() {
        let open = Interval::from(Timestamp::from_millis(7));
        assert!(open.contains(Timestamp::from_millis(1_000_000)));
        assert!(!open.contains(Timestamp::from_millis(6)));
        let inst = Interval::at(Timestamp::from_millis(3));
        assert!(inst.contains(Timestamp::from_millis(3)));
        assert!(!inst.contains(Timestamp::from_millis(4)));
    }

    #[test]
    fn closed_at_clamps_to_start() {
        let open = Interval::from(Timestamp::from_millis(10));
        assert_eq!(open.closed_at(Timestamp::from_millis(20)), iv(10, 20));
        // Closing before start yields an empty interval, not a panic.
        assert_eq!(open.closed_at(Timestamp::from_millis(5)), iv(10, 10));
    }

    #[test]
    fn tumbling_windows_cover_and_clamp() {
        let i = iv(15, 45);
        let wins: Vec<_> = i.tumbling(Duration::from_millis(10)).collect();
        assert_eq!(
            wins,
            vec![
                (Timestamp::from_millis(10), iv(15, 20)),
                (Timestamp::from_millis(20), iv(20, 30)),
                (Timestamp::from_millis(30), iv(30, 40)),
                (Timestamp::from_millis(40), iv(40, 45)),
            ]
        );
        // windows tile the input exactly
        let total: i64 = wins.iter().map(|(_, w)| w.len().millis()).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn tumbling_empty_interval_yields_nothing() {
        let wins: Vec<_> = iv(5, 5).tumbling(Duration::from_millis(10)).collect();
        assert!(wins.is_empty());
    }
}
