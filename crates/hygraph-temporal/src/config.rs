//! History knobs: `HYGRAPH_HISTORY`, `HYGRAPH_HISTORY_RETAIN_SECS`.

/// Wall-clock milliseconds since the Unix epoch — the transaction-time
/// source for [`crate::HistoryStore::allocate_ts`].
pub fn now_ms() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(i64::MAX as u128) as i64)
        .unwrap_or(0)
}

/// Configuration of the transaction-time history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryConfig {
    /// Whether history is kept at all (`HYGRAPH_HISTORY`, default on).
    /// When off, the serving layer records nothing and `AS OF` /
    /// `BETWEEN` queries are rejected — the write path carries no
    /// history cost beyond a branch.
    pub enabled: bool,
    /// Retention window in milliseconds
    /// (`HYGRAPH_HISTORY_RETAIN_SECS`, default 0 = unbounded). Commits
    /// older than `now - retain_ms` are folded into the base snapshot,
    /// moving the queryable horizon forward and releasing their memory.
    pub retain_ms: i64,
    /// Reconstructed snapshots kept in the LRU cache (not
    /// env-configurable; sized for the common "a few hot epochs"
    /// access pattern).
    pub snapshot_cache: usize,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            retain_ms: 0,
            snapshot_cache: 8,
        }
    }
}

impl HistoryConfig {
    /// Reads `HYGRAPH_HISTORY` (default on; `0`/`false`/`off`/`no`
    /// disable) and `HYGRAPH_HISTORY_RETAIN_SECS` (seconds; `<= 0` or
    /// unset = unbounded).
    pub fn from_env() -> Self {
        let enabled = match std::env::var("HYGRAPH_HISTORY") {
            Ok(v) => !matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "0" | "false" | "off" | "no"
            ),
            Err(_) => true,
        };
        let retain_ms = std::env::var("HYGRAPH_HISTORY_RETAIN_SECS")
            .ok()
            .and_then(|v| v.trim().parse::<i64>().ok())
            .filter(|&s| s > 0)
            .map(|s| s.saturating_mul(1_000))
            .unwrap_or(0);
        Self {
            enabled,
            retain_ms,
            ..Self::default()
        }
    }

    /// A config with history off — what the serving layer uses for
    /// `HYGRAPH_HISTORY=0`.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_enabled_and_unbounded() {
        let cfg = HistoryConfig::default();
        assert!(cfg.enabled);
        assert_eq!(cfg.retain_ms, 0);
        assert!(cfg.snapshot_cache > 0);
    }

    #[test]
    fn helpers_set_the_right_fields() {
        assert!(!HistoryConfig::disabled().enabled);
    }

    #[test]
    fn now_ms_is_positive_and_monotonic_enough() {
        let a = now_ms();
        let b = now_ms();
        assert!(a > 1_600_000_000_000, "clock is after 2020");
        assert!(b >= a);
    }
}
