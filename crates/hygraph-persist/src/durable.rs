//! The [`Durable`] trait — the codec-and-apply contract a state meets
//! to be made durable by [`crate::ShardedStore`] — and the
//! [`RecoveryObserver`] hook that watches a recovery replay.
//!
//! # Protocol
//!
//! * **WAL before apply.** [`crate::ShardedStore::stage`] encodes the
//!   mutation and appends it to its shard's group-commit batch *before*
//!   touching the in-memory state; if the state rejects the mutation,
//!   the frame is retracted (it was never synced), so the log only ever
//!   holds mutations that applied cleanly.
//! * **Committed = synced prefix.** Staged mutations become durable at
//!   the next [`crate::ShardedStore::sync`] /
//!   [`crate::ShardedStore::commit`] — one `write` + `fdatasync` per
//!   touched shard for the whole batch (group commit).
//! * **Checkpoint, then purge.** [`crate::ShardedStore::checkpoint`]
//!   syncs the log, snapshots the full state at the current commit
//!   sequence number, and only after the snapshot is fsynced rotates
//!   and purges segments the snapshot covers. A crash at any point
//!   leaves either the new checkpoint or the old checkpoint + the
//!   segments it needs.
//! * **Recovery.** [`crate::ShardedStore::open`] loads the newest
//!   *intact* checkpoint (torn ones are skipped and deleted), replays
//!   intact WAL frames above it, and truncates the log at the first
//!   torn or corrupt frame instead of failing — the recovered state is
//!   bit-identical to the committed state at the crash. A checkpoint
//!   or segment of another format version is not torn: the open fails
//!   with [`hygraph_types::HyGraphError::UnsupportedFormat`] before any
//!   file is removed, truncated or purged.
//!
//! One directory holds one store's log: segment and checkpoint files
//! carry the store's [`Durable::STORE_TAG`] as a guard against mixups,
//! but recovery treats unrecognised files as corruption, so never point
//! two stores at the same directory.

use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::Result;

/// A store whose state and mutations have exact binary codecs — the
/// contract the WAL engine needs to make it durable.
pub trait Durable: Sized {
    /// The store's logged operation vocabulary.
    type Mutation;

    /// Four-byte tag stamped into segment and checkpoint headers.
    const STORE_TAG: [u8; 4];

    /// An empty store (the state before LSN 0).
    fn fresh() -> Self;

    /// Encodes the complete physical state. Must be deterministic and
    /// exact: `decode_state(encode_state(s))` re-encodes to the same
    /// bytes, bit for bit.
    fn encode_state(&self, w: &mut ByteWriter);

    /// Decodes a state written by [`Durable::encode_state`]. Input is
    /// untrusted: errors, never panics, on malformed bytes.
    fn decode_state(r: &mut ByteReader<'_>) -> Result<Self>;

    /// Encodes one mutation as a WAL record.
    fn encode_mutation(m: &Self::Mutation, w: &mut ByteWriter);

    /// Decodes a WAL record. Input is untrusted.
    fn decode_mutation(r: &mut ByteReader<'_>) -> Result<Self::Mutation>;

    /// Applies one mutation. Must be deterministic — replaying the same
    /// mutations against the same state reproduces every allocated id
    /// and every bit of the result.
    fn apply(&mut self, m: &Self::Mutation) -> Result<()>;
}

/// Observes a [`crate::ShardedStore::open_observed`] recovery: first
/// the recovered base state, then every replayed WAL record in commit
/// order — enough for a history layer to rebuild its commit timeline
/// from the log without a second read pass.
pub trait RecoveryObserver<S: Durable> {
    /// The recovered base: the checkpoint's history watermark (commit
    /// timestamp of the newest covered transaction; 0 when untracked)
    /// and the decoded state at that point — the fresh state when the
    /// directory had no checkpoint. Recovery goes on applying WAL
    /// records to this state after the call; an observer that keeps it
    /// clones it.
    fn base(&mut self, watermark: i64, state: &S);

    /// One replayed WAL record above the checkpoint, with its commit
    /// timestamp (0 when the writer tracked no transaction time).
    fn replay(&mut self, lsn: u64, ts: i64, m: &S::Mutation);
}
