//! One fault-injecting [`Vfs`] for the storage engine's tests.
//!
//! `MemVfs` is a faithful disk: a store over it, copied after any
//! acknowledged commit, reopens to exactly the acknowledged prefix —
//! the same contract a directory gives — while checkpoints and segment
//! purges keep its files bounded. The copy that matters is the crash
//! image, which keeps only what the store made durable: a skipped
//! `fdatasync` of a segment, or a skipped directory fsync after a
//! segment is created, loses an acknowledged commit there. Over the OS
//! filesystem, the same wrapper cuts a segment write short, and the WAL
//! must wind the torn batch back.

use hygraph_core::HyGraph;
use hygraph_persist::fault::scratch_dir;
use hygraph_persist::vfs::AppendFile;
use hygraph_persist::wal::Wal;
use hygraph_persist::{
    checkpoint, wal, Durable, HgMutation, MemVfs, OsVfs, PersistConfig, ShardedStore, Vfs,
};
use hygraph_types::bytes::ByteWriter;
use hygraph_types::{HyGraphError, Interval, Label, PropertyMap, SeriesId, Timestamp};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A [`Vfs`] over `V` (the OS filesystem or a [`MemVfs`]) that can cut
/// one segment write short and records what is durable.
#[derive(Default)]
struct FaultVfs<V> {
    inner: V,
    state: Arc<Mutex<Faults>>,
}

#[derive(Default)]
struct Faults {
    /// Once armed, the next segment write persists at most this many
    /// bytes and then errors — a disk filling up mid-`write`.
    quota: Option<usize>,
    /// Each append file's (WAL segment's) length at its last
    /// `sync_data`. Every other file is written by `write_renamed`,
    /// durable when it returns.
    synced: BTreeMap<PathBuf, u64>,
    /// Append files created since their directory's last `sync_dir`.
    /// Not modelled: a directory made by `create_dir_all`, a `rename`
    /// and a removal count as durable at once.
    unlinked: BTreeSet<PathBuf>,
}

impl<V: Vfs> FaultVfs<V> {
    /// Arms the short write for the next segment write.
    fn fail_next_write_after(&self, quota: usize) {
        self.state.lock().unwrap().quota = Some(quota);
    }

    fn wrap(&self, path: &Path, inner: Box<dyn AppendFile>) -> io::Result<Box<dyn AppendFile>> {
        Ok(Box::new(FaultFile {
            inner,
            path: path.to_path_buf(),
            len: self.inner.read(path)?.len() as u64,
            state: Arc::clone(&self.state),
        }))
    }
}

impl FaultVfs<MemVfs> {
    /// What a power cut would leave: every append file cut back to its
    /// durable length (a file never synced is empty), and gone if its
    /// directory entry was never synced.
    fn crash_image(&self) -> MemVfs {
        let image = self.inner.clone();
        let state = self.state.lock().unwrap();
        for (path, &synced) in &state.synced {
            let len = image.read(path).expect("tracked files exist").len() as u64;
            image.truncate(path, synced.min(len)).unwrap();
        }
        for path in &state.unlinked {
            image.remove_file(path).unwrap();
        }
        image
    }
}

struct FaultFile {
    inner: Box<dyn AppendFile>,
    path: PathBuf,
    len: u64,
    state: Arc<Mutex<Faults>>,
}

impl AppendFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let quota = self.state.lock().unwrap().quota.take();
        let kept = &buf[..quota.unwrap_or(buf.len()).min(buf.len())];
        self.inner.write_all(kept)?;
        self.len += kept.len() as u64;
        match quota {
            Some(_) => Err(io::Error::other("injected write fault")),
            None => Ok(()),
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.sync_data()?;
        let mut state = self.state.lock().unwrap();
        state.synced.insert(self.path.clone(), self.len);
        Ok(())
    }

    fn rewind(&mut self, len: u64) -> io::Result<()> {
        // the WAL rewinds only to its last synced length: `synced` stands
        self.inner.rewind(len)?;
        self.len = len;
        Ok(())
    }
}

impl<V: Vfs> Vfs for FaultVfs<V> {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn read_head(&self, path: &Path, n: usize) -> io::Result<Vec<u8>> {
        self.inner.read_head(path, n)
    }
    fn write_renamed(&self, tmp: &Path, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        self.inner.write_renamed(tmp, path, parts)
    }
    fn create_append(&self, path: &Path, header: &[&[u8]]) -> io::Result<Box<dyn AppendFile>> {
        let file = self.inner.create_append(path, header)?;
        let mut state = self.state.lock().unwrap();
        state.synced.insert(path.to_path_buf(), 0);
        state.unlinked.insert(path.to_path_buf());
        drop(state);
        self.wrap(path, file)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        let file = self.inner.open_append(path)?;
        self.wrap(path, file)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)?;
        let mut state = self.state.lock().unwrap();
        state.unlinked.remove(from);
        if let Some(len) = state.synced.remove(from) {
            state.synced.insert(to.to_path_buf(), len);
        }
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)?;
        let mut state = self.state.lock().unwrap();
        state.synced.remove(path);
        state.unlinked.remove(path);
        Ok(())
    }
    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(dir)?;
        let mut state = self.state.lock().unwrap();
        state.synced.retain(|p, _| !p.starts_with(dir));
        state.unlinked.retain(|p| !p.starts_with(dir));
        Ok(())
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)?;
        let mut state = self.state.lock().unwrap();
        state.unlinked.retain(|p| p.parent() != Some(dir));
        Ok(())
    }
}

fn state_bytes(hg: &HyGraph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    hg.encode_state(&mut w);
    w.into_bytes()
}

/// Batch `i` of a workload mixing series-affine appends with structural
/// mutations; every fifth batch ends in a mutation the state rejects.
fn batch(i: u64) -> Vec<HgMutation> {
    let mut ms = vec![
        HgMutation::AddSeries {
            names: vec![format!("s{i}")],
            rows: vec![],
        },
        HgMutation::AddTsVertex {
            labels: vec![Label::new("Sensor")],
            series: SeriesId::new(i),
        },
        HgMutation::AddPgVertex {
            labels: vec![Label::new("Room")],
            props: PropertyMap::new(),
            validity: Interval::ALL,
        },
    ];
    for s in i.saturating_sub(2)..=i {
        ms.push(HgMutation::Append {
            series: SeriesId::new(s),
            t: Timestamp::from_millis(i as i64),
            row: vec![(s * 100 + i) as f64],
        });
    }
    if i % 5 == 4 {
        ms.push(HgMutation::Append {
            series: SeriesId::new(1_000), // no such series: rejected
            t: Timestamp::from_millis(0),
            row: vec![0.0],
        });
    }
    ms
}

/// The one store configuration of this binary: it is process-global,
/// and the tests run in parallel.
fn install_config() {
    PersistConfig::new()
        .segment_bytes(256)
        .checkpoint_every(8)
        .install();
}

/// Both the full copy and the crash image of the store's files reopen
/// to the acknowledged prefix after every commit.
#[test]
fn a_copy_taken_after_any_acknowledged_commit_reopens_to_that_prefix() {
    install_config();
    let dir = Path::new("store");
    for shards in [1usize, 2] {
        let vfs = Arc::new(FaultVfs::<MemVfs>::default());
        let mut store: ShardedStore<HyGraph> =
            ShardedStore::open_in(vfs.clone(), dir, shards, None).expect("open");
        let mut reference = HyGraph::new();
        let mut acked = 0u64;
        for i in 0..40 {
            let ms = batch(i);
            let outcome = store.commit_batch(ms.clone());
            // the store keeps (and syncs) the prefix before a rejection
            let kept = ms.iter().take_while(|m| reference.apply(m).is_ok()).count();
            assert_eq!(
                outcome.is_err(),
                kept < ms.len(),
                "{shards} shards, batch {i}"
            );
            acked += kept as u64;

            for (image, copy) in [
                ("copy", vfs.inner.clone()),
                ("crash image", vfs.crash_image()),
            ] {
                let reopened: ShardedStore<HyGraph> =
                    ShardedStore::open_in(Arc::new(copy), dir, shards, None).expect("reopen");
                let at = format!("{image}, {shards} shards, batch {i}");
                assert_eq!(reopened.next_csn(), acked, "{at}");
                assert_eq!(reopened.state_bytes(), state_bytes(&reference), "{at}");
            }

            // checkpoints replace each other and purge what they cover
            assert_eq!(checkpoint::list_checkpoints(&*vfs, dir).unwrap().len(), 1);
            for shard in 0..shards {
                let sdir = dir.join(format!("shards-0001/shard-{shard:02}"));
                let segments = wal::list_segments(&*vfs, &sdir).unwrap().len();
                assert!(
                    segments <= 8,
                    "{segments} segments kept in {}",
                    sdir.display()
                );
            }
        }
        assert_eq!(store.next_csn(), acked);
    }
}

#[test]
fn failed_sync_is_safe_to_retry() {
    const TAG: [u8; 4] = *b"TEST";
    let dir = scratch_dir("retry");
    let vfs = Arc::new(FaultVfs::<OsVfs>::default());
    let mut wal = Wal::create(vfs.clone(), &dir, TAG, 4096).unwrap();
    wal.append(0, b"first");
    wal.sync().unwrap();
    wal.append(0, b"second");
    wal.append(0, b"third");
    // the write persists 7 bytes of the batch, then errors (ENOSPC)
    vfs.fail_next_write_after(7);
    assert!(wal.sync().is_err());
    assert_eq!(wal.durable_lsn(), 1, "failed batch not reported durable");
    // the retry must not append the batch after the torn fragment:
    // all three records recover, in order, with nothing in between
    wal.sync().unwrap();
    assert_eq!(wal.durable_lsn(), 3);
    let mut seen = Vec::new();
    Wal::recover(OsVfs::shared(), &dir, TAG, 64, 0, |lsn, _ts, rec| {
        seen.push((lsn, rec.to_vec()));
        Ok(())
    })
    .unwrap();
    assert_eq!(
        seen,
        vec![
            (0, b"first".to_vec()),
            (1, b"second".to_vec()),
            (2, b"third".to_vec()),
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A rejected mutation in a batch must surface as the semantic
/// rejection even when the trailing sync of the staged prefix also
/// fails — callers distinguish "mutation refused at position k"
/// from "I/O error of unknown extent".
#[test]
fn batch_rejection_outranks_sync_failure() {
    install_config();
    let dir = scratch_dir("sharded-reject-vs-sync");
    let vfs = Arc::new(FaultVfs::<OsVfs>::default());
    let mut store: ShardedStore<HyGraph> =
        ShardedStore::open_in(vfs.clone(), &dir, 2, None).unwrap();
    store
        .commit(HgMutation::AddSeries {
            names: vec!["v".into()],
            rows: vec![],
        })
        .unwrap();
    // the append to series 0 is the batch's only staged frame: make
    // its shard's write fail
    vfs.fail_next_write_after(0);
    let err = store
        .commit_batch([
            HgMutation::Append {
                series: SeriesId::new(0),
                t: Timestamp::from_millis(1),
                row: vec![1.0],
            },
            HgMutation::Append {
                series: SeriesId::new(99), // rejected: no such series
                t: Timestamp::from_millis(2),
                row: vec![2.0],
            },
        ])
        .unwrap_err();
    assert!(
        matches!(err, HyGraphError::SeriesNotFound(_)),
        "expected the semantic rejection, got {err:?}"
    );
    // the I/O failure was transient (the WAL wound the torn batch
    // back): a retry syncs the accepted prefix and nothing is lost
    store.sync().unwrap();
    drop(store);
    let store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 2).unwrap();
    assert_eq!(store.next_csn(), 2, "the accepted prefix survived");
    std::fs::remove_dir_all(&dir).ok();
}
