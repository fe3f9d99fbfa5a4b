//! Durability configuration knobs.
//!
//! Mirrors the layered pattern of `hygraph_types::parallel`:
//!
//! 1. Defaults: 4 MiB segments, checkpoint every 10 000 committed
//!    records. The store directory is always passed explicitly.
//! 2. Environment, read once per process: `HYGRAPH_WAL_SEGMENT_BYTES`
//!    (segment rotation threshold) and `HYGRAPH_CHECKPOINT_EVERY`
//!    (records between automatic checkpoints; `0` disables automatic
//!    checkpointing).
//! 3. Programmatic: [`PersistConfig`] applied via
//!    [`PersistConfig::install`], overriding the environment for the
//!    rest of the process (tests use this for small segments so
//!    rotation is exercised on tiny workloads).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default segment-rotation threshold: 4 MiB.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Default number of committed records between automatic checkpoints.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 10_000;

// u64::MAX = unset (fall through to env / defaults)
static SEGMENT_BYTES_OVERRIDE: AtomicU64 = AtomicU64::new(u64::MAX);
static CHECKPOINT_EVERY_OVERRIDE: AtomicU64 = AtomicU64::new(u64::MAX);

fn env_u64(var: &str) -> Option<u64> {
    std::env::var(var).ok()?.trim().parse::<u64>().ok()
}

fn env_segment_bytes() -> u64 {
    static CACHE: OnceLock<u64> = OnceLock::new();
    *CACHE.get_or_init(|| {
        env_u64("HYGRAPH_WAL_SEGMENT_BYTES")
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_SEGMENT_BYTES)
    })
}

fn env_checkpoint_every() -> u64 {
    static CACHE: OnceLock<u64> = OnceLock::new();
    *CACHE.get_or_init(|| env_u64("HYGRAPH_CHECKPOINT_EVERY").unwrap_or(DEFAULT_CHECKPOINT_EVERY))
}

/// Builder for process-wide durability settings.
///
/// ```
/// use hygraph_persist::config::PersistConfig;
///
/// PersistConfig::new().segment_bytes(64 * 1024).install();
/// assert_eq!(hygraph_persist::config::configured_segment_bytes(), 64 * 1024);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct PersistConfig {
    segment_bytes: Option<u64>,
    checkpoint_every: Option<u64>,
}

impl PersistConfig {
    /// A config that changes nothing until its setters are called.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes after which the active WAL segment is rotated. Clamped to
    /// at least 1.
    pub fn segment_bytes(mut self, n: u64) -> Self {
        self.segment_bytes = Some(n.max(1));
        self
    }

    /// Committed records between automatic checkpoints; `0` disables
    /// automatic checkpointing (manual [`crate::ShardedStore::checkpoint`]
    /// only).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = Some(n);
        self
    }

    /// Applies the settings process-wide; unset fields are untouched.
    /// Safe to call repeatedly — the last call wins.
    pub fn install(self) {
        if let Some(n) = self.segment_bytes {
            SEGMENT_BYTES_OVERRIDE.store(n, Ordering::Relaxed);
        }
        if let Some(n) = self.checkpoint_every {
            CHECKPOINT_EVERY_OVERRIDE.store(n, Ordering::Relaxed);
        }
    }
}

/// The effective segment-rotation threshold: installed override, else
/// `HYGRAPH_WAL_SEGMENT_BYTES`, else [`DEFAULT_SEGMENT_BYTES`].
pub fn configured_segment_bytes() -> u64 {
    let o = SEGMENT_BYTES_OVERRIDE.load(Ordering::Relaxed);
    if o != u64::MAX {
        return o;
    }
    env_segment_bytes()
}

/// The effective auto-checkpoint interval: installed override, else
/// `HYGRAPH_CHECKPOINT_EVERY`, else [`DEFAULT_CHECKPOINT_EVERY`].
pub fn configured_checkpoint_every() -> u64 {
    let o = CHECKPOINT_EVERY_OVERRIDE.load(Ordering::Relaxed);
    if o != u64::MAX {
        return o;
    }
    env_checkpoint_every()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // install() mutates process-global state; serialise dependent tests.
    static LOCK: Mutex<()> = Mutex::new(());

    fn scoped<T>(cfg: PersistConfig, f: impl FnOnce() -> T) -> T {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev_seg = SEGMENT_BYTES_OVERRIDE.load(Ordering::Relaxed);
        let prev_ck = CHECKPOINT_EVERY_OVERRIDE.load(Ordering::Relaxed);
        cfg.install();
        let out = f();
        SEGMENT_BYTES_OVERRIDE.store(prev_seg, Ordering::Relaxed);
        CHECKPOINT_EVERY_OVERRIDE.store(prev_ck, Ordering::Relaxed);
        out
    }

    #[test]
    fn install_overrides_and_is_partial() {
        scoped(PersistConfig::new().segment_bytes(1234), || {
            assert_eq!(configured_segment_bytes(), 1234);
            // updating only the checkpoint interval leaves segments alone
            PersistConfig::new().checkpoint_every(7).install();
            assert_eq!(configured_segment_bytes(), 1234);
            assert_eq!(configured_checkpoint_every(), 7);
        });
    }

    #[test]
    fn segment_bytes_clamped_to_one() {
        scoped(PersistConfig::new().segment_bytes(0), || {
            assert_eq!(configured_segment_bytes(), 1);
        });
    }
}
