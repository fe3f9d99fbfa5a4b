//! # hygraph-persist — durable storage engine
//!
//! Write-ahead logging, binary checkpoints, and crash recovery for the
//! HyGraph stores. The engine wraps any [`Durable`] state — the
//! chunked time-series store and the full hybrid model implement it
//! here, the paper's two Table-1 stores in `hygraph-storage` — behind a
//! [`ShardedStore`] that enforces the WAL protocol over one WAL stream
//! per shard (one shard is one stream):
//!
//! 1. every mutation is appended to the log before it is applied;
//! 2. a commit is one group-committed `write` + `fdatasync` per touched
//!    shard;
//! 3. checkpoints snapshot the full state and let the log be purged;
//! 4. recovery loads the newest intact checkpoint and replays the
//!    intact WAL suffix, truncating at the first torn frame — the
//!    recovered state is bit-identical to the committed state.
//!
//! Every file operation goes through a [`Vfs`]: [`OsVfs`] for a
//! directory, [`MemVfs`] for a store kept in memory that runs the same
//! protocol ([`ShardedStore::open_in`]).
//!
//! ```
//! use hygraph_persist::{ShardedStore, TsMutation};
//! use hygraph_ts::TsStore;
//! use hygraph_types::{SeriesId, Timestamp};
//!
//! let dir = hygraph_persist::fault::scratch_dir("doc");
//! let sid = SeriesId::new(0);
//! {
//!     let mut store: ShardedStore<TsStore> = ShardedStore::open(&dir, 1)?;
//!     store.commit(TsMutation::CreateSeries(sid))?;
//!     store.commit(TsMutation::Insert(sid, Timestamp::from_millis(0), 1.5))?;
//! } // "crash": the store is dropped without a clean close
//! let store: ShardedStore<TsStore> = ShardedStore::open(&dir, 1)?;
//! assert_eq!(store.get().value_at(sid, Timestamp::from_millis(0)), Some(1.5));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), hygraph_types::HyGraphError>(())
//! ```
//!
//! Knobs (see [`config`]): `HYGRAPH_WAL_SEGMENT_BYTES`,
//! `HYGRAPH_CHECKPOINT_EVERY`, or programmatically via
//! [`PersistConfig`].

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod durable;
pub mod fault;
pub mod frame;
pub mod sharded;
pub mod stores;
pub mod vfs;
pub mod wal;

pub use config::PersistConfig;
pub use durable::{Durable, RecoveryObserver};
pub use sharded::{ShardRouted, ShardedStore};
pub use stores::{HgMutation, TsMutation};
pub use vfs::{MemVfs, OsVfs, Vfs};
