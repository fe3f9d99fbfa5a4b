//! The slow-query log: a bounded ring buffer of the most recent
//! queries that crossed the configured latency threshold.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// One slow query, as captured at completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// The HyQL text as submitted.
    pub query: String,
    /// End-to-end execution time in microseconds.
    pub duration_us: u64,
    /// Rows the query returned.
    pub rows: u64,
    /// Canonical fingerprint of the query's logical plan (0 when the
    /// text never reached the planner, e.g. parse failures).
    pub plan_fp: u64,
}

struct Inner {
    entries: VecDeque<SlowQueryEntry>,
    dropped: u64,
}

/// A fixed-capacity ring buffer of [`SlowQueryEntry`] values. When
/// full, the oldest entry is evicted (and counted) — the log always
/// holds the *most recent* slow queries.
///
/// The mutex is only taken for queries that actually crossed the
/// threshold, so the fast path (a sub-threshold query) costs one
/// comparison.
pub struct SlowQueryLog {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl SlowQueryLog {
    /// An empty log holding at most `capacity` entries (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                entries: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a completed query if it crossed `threshold`; evicts the
    /// oldest entry when full. A zero `threshold` disables capture.
    /// `plan_fp` is the logical-plan fingerprint (0 = not planned).
    pub fn record(
        &self,
        query: &str,
        duration: Duration,
        rows: u64,
        plan_fp: u64,
        threshold: Duration,
    ) {
        if threshold.is_zero() || duration < threshold {
            return;
        }
        let entry = SlowQueryEntry {
            query: query.to_owned(),
            duration_us: u64::try_from(duration.as_micros()).unwrap_or(u64::MAX),
            rows,
            plan_fp,
        };
        let mut inner = self.lock();
        if inner.entries.len() >= self.capacity {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(entry);
    }

    /// The captured entries, oldest first, plus how many older entries
    /// the ring has evicted.
    pub fn snapshot(&self) -> (Vec<SlowQueryEntry>, u64) {
        let inner = self.lock();
        (inner.entries.iter().cloned().collect(), inner.dropped)
    }

    /// Clears the log (tests and operator resets).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.dropped = 0;
    }
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("SlowQueryLog")
            .field("capacity", &self.capacity)
            .field("len", &inner.entries.len())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn below_threshold_is_not_captured() {
        let log = SlowQueryLog::new(4);
        log.record("fast", Duration::from_micros(10), 1, 0, MS);
        assert_eq!(log.snapshot().0.len(), 0);
        // zero threshold disables capture outright
        log.record("any", Duration::from_secs(10), 1, 0, Duration::ZERO);
        assert_eq!(log.snapshot().0.len(), 0);
    }

    #[test]
    fn ring_keeps_the_most_recent() {
        let log = SlowQueryLog::new(2);
        for i in 0..5 {
            log.record(
                &format!("q{i}"),
                MS * (i + 1),
                i as u64,
                0xfeed + i as u64,
                MS,
            );
        }
        let (entries, dropped) = log.snapshot();
        assert_eq!(dropped, 3);
        assert_eq!(
            entries.iter().map(|e| e.query.as_str()).collect::<Vec<_>>(),
            vec!["q3", "q4"]
        );
        assert_eq!(entries[1].duration_us, 5_000);
        assert_eq!(entries[1].rows, 4);
        assert_eq!(entries[1].plan_fp, 0xfeed + 4);
    }

    #[test]
    fn clear_resets_everything() {
        let log = SlowQueryLog::new(1);
        log.record("a", MS, 0, 1, MS);
        log.record("b", MS, 0, 2, MS);
        log.clear();
        assert_eq!(log.snapshot(), (vec![], 0));
    }
}
