//! Subscription-layer configuration, following the workspace's layered
//! knob convention: defaults, then `HYGRAPH_SUB_*` environment
//! variables (read once per process), then explicit builder overrides.

use std::sync::OnceLock;

/// Default cap on concurrently registered subscriptions.
pub const DEFAULT_MAX_SUBSCRIPTIONS: usize = 1024;

/// Default per-connection push-buffer depth (frames queued but not yet
/// written); beyond it the subscriber is a slow consumer and is
/// disconnected with a typed close.
pub const DEFAULT_PUSH_BUFFER: usize = 256;

/// Effective subscription-layer settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubConfig {
    /// Maximum registered subscriptions (`HYGRAPH_SUB_MAX`); further
    /// `SUBSCRIBE` requests are refused with a typed error.
    pub max_subscriptions: usize,
    /// Per-connection push-buffer depth (`HYGRAPH_SUB_BUFFER`).
    pub push_buffer: usize,
    /// Shard count the registry's append-routing index partitions by.
    /// It defaults to the workspace shard knob
    /// ([`hygraph_types::shard`], so `HYGRAPH_SHARDS`), not a
    /// `HYGRAPH_SUB_*` one, but an engine overrides it with its store's
    /// recorded shard count (`1` in memory), which can differ from the
    /// knob after a reopen. At `1` every series reader holds the one
    /// shard bit, so any append reaches them all.
    pub shards: usize,
}

impl Default for SubConfig {
    fn default() -> Self {
        Self {
            max_subscriptions: DEFAULT_MAX_SUBSCRIPTIONS,
            push_buffer: DEFAULT_PUSH_BUFFER,
            shards: hygraph_types::shard::configured_shards(),
        }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

impl SubConfig {
    /// Defaults overlaid with the `HYGRAPH_SUB_*` environment knobs,
    /// read once per process.
    pub fn from_env() -> Self {
        static CACHED: OnceLock<SubConfig> = OnceLock::new();
        *CACHED.get_or_init(|| Self {
            max_subscriptions: env_usize("HYGRAPH_SUB_MAX", DEFAULT_MAX_SUBSCRIPTIONS),
            push_buffer: env_usize("HYGRAPH_SUB_BUFFER", DEFAULT_PUSH_BUFFER),
            shards: hygraph_types::shard::configured_shards(),
        })
    }

    /// Overrides the subscription cap.
    pub fn max_subscriptions(mut self, n: usize) -> Self {
        self.max_subscriptions = n;
        self
    }

    /// Overrides the push-buffer depth.
    pub fn push_buffer(mut self, n: usize) -> Self {
        self.push_buffer = n;
        self
    }

    /// Overrides the append-routing shard count (clamped to the
    /// workspace shard ceiling when the router is built).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }
}
