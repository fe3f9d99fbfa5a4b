//! The time domain: timestamps and durations.
//!
//! HyGraph models time as discrete, totally ordered instants with
//! millisecond resolution (an `i64` count of milliseconds since the Unix
//! epoch). That matches both the paper's ordered timestamp set T and the
//! practical resolution of the bike-sharing / financial datasets it
//! targets.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in time: milliseconds since the Unix epoch.
///
/// `Timestamp` is the carrier of the paper's ordered set T. It is `Copy`,
/// totally ordered and supports arithmetic with [`Duration`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The smallest representable timestamp.
    pub const MIN: Timestamp = Timestamp(i64::MIN);
    /// The largest representable timestamp — used as the paper's `max(T)`
    /// initialisation for still-open validity intervals.
    pub const MAX: Timestamp = Timestamp(i64::MAX);
    /// The epoch origin.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from raw epoch-milliseconds.
    #[inline]
    pub const fn from_millis(ms: i64) -> Self {
        Self(ms)
    }

    /// Creates a timestamp from whole epoch-seconds.
    #[inline]
    pub const fn from_secs(s: i64) -> Self {
        Self(s * 1_000)
    }

    /// Raw epoch-milliseconds.
    #[inline]
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Self {
        Self(self.0.saturating_add(d.0))
    }

    /// Saturating subtraction of a duration.
    #[inline]
    pub fn saturating_sub(self, d: Duration) -> Self {
        Self(self.0.saturating_sub(d.0))
    }

    /// Truncates the timestamp down to a multiple of `bucket` (tumbling
    /// window assignment). `bucket` must be positive.
    ///
    /// Works correctly for negative timestamps (floors toward -∞).
    #[inline]
    pub fn truncate(self, bucket: Duration) -> Timestamp {
        debug_assert!(bucket.0 > 0, "bucket duration must be positive");
        let b = bucket.0 as i128;
        // i128 arithmetic: flooring MIN/MAX would otherwise overflow i64
        let floored = (self.0 as i128).div_euclid(b) * b;
        Timestamp(floored.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0 - d.0)
    }
}

impl SubAssign<Duration> for Timestamp {
    #[inline]
    fn sub_assign(&mut self, d: Duration) {
        self.0 -= d.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    #[inline]
    fn sub(self, other: Timestamp) -> Duration {
        Duration(self.0 - other.0)
    }
}

impl From<i64> for Timestamp {
    #[inline]
    fn from(ms: i64) -> Self {
        Self(ms)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Timestamp::MAX {
            write!(f, "t∞")
        } else if *self == Timestamp::MIN {
            write!(f, "t-∞")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A signed span of time in milliseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub i64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: i64) -> Self {
        Self(ms)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: i64) -> Self {
        Self(s * 1_000)
    }

    /// Creates a duration from whole minutes.
    #[inline]
    pub const fn from_mins(m: i64) -> Self {
        Self(m * 60_000)
    }

    /// Creates a duration from whole hours.
    #[inline]
    pub const fn from_hours(h: i64) -> Self {
        Self(h * 3_600_000)
    }

    /// Creates a duration from whole days.
    #[inline]
    pub const fn from_days(d: i64) -> Self {
        Self(d * 86_400_000)
    }

    /// Raw milliseconds.
    #[inline]
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Absolute value.
    #[inline]
    pub const fn abs(self) -> Duration {
        Duration(self.0.abs())
    }

    /// Whether the duration is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Scales the duration by an integer factor.
    #[inline]
    pub const fn scale(self, k: i64) -> Duration {
        Duration(self.0 * k)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, other: Duration) -> Duration {
        Duration(self.0 - other.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms % 86_400_000 == 0 && ms != 0 {
            write!(f, "{}d", ms / 86_400_000)
        } else if ms % 3_600_000 == 0 && ms != 0 {
            write!(f, "{}h", ms / 3_600_000)
        } else if ms % 60_000 == 0 && ms != 0 {
            write!(f, "{}m", ms / 60_000)
        } else if ms % 1_000 == 0 && ms != 0 {
            write!(f, "{}s", ms / 1_000)
        } else {
            write!(f, "{ms}ms")
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_scales() {
        assert_eq!(Duration::from_secs(2).millis(), 2_000);
        assert_eq!(Duration::from_mins(2).millis(), 120_000);
        assert_eq!(Duration::from_hours(1).millis(), 3_600_000);
        assert_eq!(Duration::from_days(1).millis(), 86_400_000);
        assert_eq!(Timestamp::from_secs(3).millis(), 3_000);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_millis(1_000);
        assert_eq!(
            t + Duration::from_millis(500),
            Timestamp::from_millis(1_500)
        );
        assert_eq!(t - Duration::from_millis(500), Timestamp::from_millis(500));
        assert_eq!(
            Timestamp::from_millis(1_500) - Timestamp::from_millis(1_000),
            Duration::from_millis(500)
        );
        let mut t2 = t;
        t2 += Duration::from_millis(1);
        t2 -= Duration::from_millis(2);
        assert_eq!(t2, Timestamp::from_millis(999));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            Timestamp::MAX.saturating_add(Duration::from_millis(1)),
            Timestamp::MAX
        );
        assert_eq!(
            Timestamp::MIN.saturating_sub(Duration::from_millis(1)),
            Timestamp::MIN
        );
    }

    #[test]
    fn truncate_floors_toward_negative_infinity() {
        let b = Duration::from_millis(100);
        assert_eq!(
            Timestamp::from_millis(250).truncate(b),
            Timestamp::from_millis(200)
        );
        assert_eq!(
            Timestamp::from_millis(200).truncate(b),
            Timestamp::from_millis(200)
        );
        assert_eq!(
            Timestamp::from_millis(-1).truncate(b),
            Timestamp::from_millis(-100)
        );
        assert_eq!(
            Timestamp::from_millis(-100).truncate(b),
            Timestamp::from_millis(-100)
        );
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(format!("{}", Duration::from_days(2)), "2d");
        assert_eq!(format!("{}", Duration::from_hours(3)), "3h");
        assert_eq!(format!("{}", Duration::from_mins(5)), "5m");
        assert_eq!(format!("{}", Duration::from_secs(7)), "7s");
        assert_eq!(format!("{}", Duration::from_millis(13)), "13ms");
        assert_eq!(format!("{}", Duration::ZERO), "0ms");
    }

    #[test]
    fn timestamp_display_infinities() {
        assert_eq!(format!("{}", Timestamp::MAX), "t∞");
        assert_eq!(format!("{}", Timestamp::MIN), "t-∞");
        assert_eq!(format!("{}", Timestamp::from_millis(5)), "t5");
    }

    #[test]
    fn duration_helpers() {
        assert_eq!(Duration::from_millis(-5).abs(), Duration::from_millis(5));
        assert!(Duration::from_millis(1).is_positive());
        assert!(!Duration::ZERO.is_positive());
        assert_eq!(Duration::from_mins(1).scale(3), Duration::from_mins(3));
    }
}
