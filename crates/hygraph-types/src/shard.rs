//! Workspace-wide sharding configuration and deterministic routing.
//!
//! The engine splits its commit/storage plane into `N` hash-sharded
//! partitions: each shard co-locates a slice of the vertex space with
//! the time series attached to it and owns its own WAL stream (see
//! `hygraph-persist`'s sharded store). This module is the single source
//! of truth for *how many* shards exist and *which* shard an element
//! routes to, so the persist layer, the subscription router, and the
//! metrics registry all agree without depending on each other. Queries
//! do not route: every read executes one pass over the whole published
//! instance, whatever the shard count.
//!
//! Configuration surface, in increasing precedence (the same layered
//! pattern as [`crate::parallel`] and [`crate::net::ServerConfig`]):
//!
//! 1. Default: one shard per core ([`crate::parallel::configured_threads`]).
//! 2. Environment: `HYGRAPH_SHARDS`, read once per process. `1` keeps
//!    one WAL stream and one subscription-index partition; reads are
//!    served from published snapshots at every count.
//! 3. Programmatic: [`ShardConfig::install`] overrides the environment;
//!    an explicit [`ShardConfig::shards`] field wins over everything
//!    (tests use this to pin a shard count regardless of machine size).
//!
//! # Routing contract
//!
//! [`ShardRouter`] routing is a pure function of (element id, shard
//! count): `id % N`. It must stay deterministic across processes and
//! versions because the WAL frame placement on disk *is* the routing
//! record — recovery re-merges per-shard streams by global commit
//! sequence number and never recomputes routes, so a changed hash would
//! only affect new writes, but a non-deterministic one would scatter a
//! batch's frames unpredictably between runs and break layout tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::ids::{SeriesId, VertexId};

/// Upper bound on the shard count. Keeps per-shard metric slots and the
/// checkpoint's per-shard LSN vector small and fixed-size; far above any
/// realistic core count for a single process.
pub const MAX_SHARDS: usize = 64;

// 0 = unset (fall through to env / defaults)
static SHARDS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn env_shards() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("HYGRAPH_SHARDS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(0)
    })
}

/// Builder for the process-wide shard count.
///
/// ```
/// use hygraph_types::shard::{ShardConfig, ShardRouter};
///
/// let router = ShardConfig::new().shards(4).router();
/// assert_eq!(router.shards(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardConfig {
    shards: Option<usize>,
}

impl ShardConfig {
    /// A config that changes nothing until its setters are called.
    pub fn new() -> Self {
        Self::default()
    }

    /// Explicit shard count. `0` restores "one per core"; values above
    /// [`MAX_SHARDS`] are clamped down to it.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n.min(MAX_SHARDS));
        self
    }

    /// Applies the explicit shard count process-wide; unset fields are
    /// untouched. Safe to call repeatedly — the last call wins.
    pub fn install(self) {
        if let Some(n) = self.shards {
            SHARDS_OVERRIDE.store(n, Ordering::Relaxed);
        }
    }

    /// Resolves the effective shard count: explicit field, else
    /// installed override, else `HYGRAPH_SHARDS`, else one per core.
    /// Always in `1..=MAX_SHARDS`.
    pub fn resolve(&self) -> usize {
        self.shards
            .filter(|&n| n > 0)
            .or_else(|| {
                let o = SHARDS_OVERRIDE.load(Ordering::Relaxed);
                (o > 0).then_some(o)
            })
            .or_else(|| {
                let e = env_shards();
                (e > 0).then_some(e)
            })
            .unwrap_or_else(crate::parallel::configured_threads)
            .clamp(1, MAX_SHARDS)
    }

    /// Shorthand: resolves and builds the matching [`ShardRouter`].
    pub fn router(&self) -> ShardRouter {
        ShardRouter::new(self.resolve())
    }
}

/// The effective shard count with a default [`ShardConfig`]: installed
/// override, else `HYGRAPH_SHARDS`, else one per core.
pub fn configured_shards() -> usize {
    ShardConfig::new().resolve()
}

/// Deterministic element → shard routing for a fixed shard count.
///
/// Copy-sized and cheap to pass around; every layer that needs routing
/// builds one from the shard count it was handed at construction time
/// (never from the environment mid-flight, so a process can't change its
/// own routing under a live store).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` partitions (clamped to `1..=MAX_SHARDS`).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.clamp(1, MAX_SHARDS),
        }
    }

    /// The shard count this router was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning a series — and, by co-location, the ts-elements
    /// whose δ points at it.
    pub fn of_series(&self, id: SeriesId) -> usize {
        (id.raw() % self.shards as u64) as usize
    }

    /// The shard owning a vertex — the WAL stream a vertex-keyed
    /// mutation's frame is placed on.
    pub fn of_vertex(&self, id: VertexId) -> usize {
        (id.raw() % self.shards as u64) as usize
    }

    /// The home shard for a commit-sequence-numbered frame that has no
    /// series or vertex affinity (subgraph ops, property writes, …):
    /// spreading by CSN keeps the WAL streams balanced.
    pub fn of_csn(&self, csn: u64) -> usize {
        (csn % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_modular_and_total() {
        let r = ShardRouter::new(4);
        assert_eq!(r.shards(), 4);
        for raw in 0..100u64 {
            assert_eq!(r.of_series(SeriesId::new(raw)), (raw % 4) as usize);
            assert_eq!(r.of_vertex(VertexId::new(raw)), (raw % 4) as usize);
            assert_eq!(r.of_csn(raw), (raw % 4) as usize);
            assert!(r.of_csn(raw) < r.shards());
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        assert_eq!(r.shards(), 1);
        for raw in [0u64, 1, 17, u64::MAX] {
            assert_eq!(r.of_series(SeriesId::new(raw)), 0);
            assert_eq!(r.of_csn(raw), 0);
        }
    }

    #[test]
    fn counts_are_clamped() {
        assert_eq!(ShardRouter::new(0).shards(), 1);
        assert_eq!(ShardRouter::new(1_000_000).shards(), MAX_SHARDS);
        assert_eq!(ShardConfig::new().shards(1_000_000).resolve(), MAX_SHARDS);
        assert!(ShardConfig::new().shards(0).resolve() >= 1);
    }

    #[test]
    fn explicit_config_wins_and_resolve_is_positive() {
        assert_eq!(ShardConfig::new().shards(3).resolve(), 3);
        let n = configured_shards();
        assert!((1..=MAX_SHARDS).contains(&n));
    }
}
