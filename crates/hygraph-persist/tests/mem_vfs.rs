//! One fault-injecting [`Vfs`] for the storage engine's tests.
//!
//! `MemVfs` is a faithful disk: a store over it, copied after any
//! acknowledged commit, reopens to exactly the acknowledged prefix —
//! the same contract a directory gives — while checkpoints and segment
//! purges keep its files bounded. The copy that matters is the crash
//! image, which keeps only what the store made durable: a file's bytes
//! as of its last `sync_data`, under the names its directory held at
//! that directory's last `sync_dir`. A skipped `fdatasync` of a segment
//! or of a staged checkpoint, or a skipped directory fsync after a
//! segment is created or a checkpoint renamed into place, loses an
//! acknowledged commit there. Over the OS filesystem, the same wrapper
//! cuts a write short, and the WAL must wind the torn batch back.

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
/// one write short and records what is durable.
#[derive(Default)]
struct FaultVfs<V> {
    inner: V,
    state: Arc<Mutex<Faults>>,
}

/// What a power cut would keep, modelled per file (an inode, so a
/// rename moves a name, not the data) and per directory listing. Not
/// modelled: directories themselves — one made by `create_dir_all`, or
/// removed with everything under it by `remove_dir_all`, is durable at
/// once.
#[derive(Default)]
struct Faults {
    /// Once armed, the next append-file write persists at most this many
    /// bytes and then errors — a disk filling up mid-`write`.
    quota: Option<usize>,
    /// The inode under each file path now.
    inodes: BTreeMap<PathBuf, u64>,
    next_inode: u64,
    /// Each inode's bytes at its last `sync_data`; none before the first.
    synced: BTreeMap<u64, Vec<u8>>,
    /// Each directory's `(path, inode)` file entries at its last
    /// `sync_dir`; none before the first.
    listed: BTreeMap<PathBuf, BTreeMap<PathBuf, u64>>,
    /// Every directory made through this `Vfs` (and its ancestors).
    dirs: BTreeSet<PathBuf>,
}

impl Faults {
    /// The inode at `path`, a new one if nothing was recorded there (a
    /// file made before the wrapper counts as never synced).
    fn inode(&mut self, path: &Path) -> u64 {
        if let Some(&inode) = self.inodes.get(path) {
            return inode;
        }
        self.next_inode += 1;
        self.inodes.insert(path.to_path_buf(), self.next_inode);
        self.next_inode
    }
}

impl<V: Vfs> FaultVfs<V> {
    /// Arms the short write for the next append-file write.
    fn fail_next_write_after(&self, quota: usize) {
        self.state.lock().unwrap().quota = Some(quota);
    }

    fn wrap(&self, path: &Path, inner: Box<dyn AppendFile>) -> io::Result<Box<dyn AppendFile>> {
        let bytes = self.inner.read(path)?;
        let inode = self.state.lock().unwrap().inode(path);
        Ok(Box::new(FaultFile {
            inner,
            inode,
            bytes,
            state: Arc::clone(&self.state),
        }))
    }
}

impl FaultVfs<MemVfs> {
    /// What a power cut would leave: every directory, holding the files
    /// it listed at its last `sync_dir`, each with the bytes it had at
    /// its last `sync_data` (empty if never synced).
    fn crash_image(&self) -> MemVfs {
        let image = MemVfs::new();
        let state = self.state.lock().unwrap();
        for dir in &state.dirs {
            image.create_dir_all(dir).unwrap();
        }
        for (path, inode) in state.listed.values().flatten() {
            let bytes = state.synced.get(inode).map_or(&[][..], Vec::as_slice);
            image.create_append(path, &[bytes]).unwrap();
        }
        image
    }
}

struct FaultFile {
    inner: Box<dyn AppendFile>,
    inode: u64,
    /// The file's bytes as written so far: what `sync_data` makes durable.
    bytes: Vec<u8>,
    state: Arc<Mutex<Faults>>,
}

impl AppendFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let quota = self.state.lock().unwrap().quota.take();
        let kept = &buf[..quota.unwrap_or(buf.len()).min(buf.len())];
        self.inner.write_all(kept)?;
        self.bytes.extend_from_slice(kept);
        match quota {
            Some(_) => Err(io::Error::other("injected write fault")),
            None => Ok(()),
        }
    }

    fn patch(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.inner.patch(offset, bytes)?;
        let at = offset as usize;
        self.bytes[at..at + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.sync_data()?;
        let mut state = self.state.lock().unwrap();
        state.synced.insert(self.inode, self.bytes.clone());
        Ok(())
    }

    fn rewind(&mut self, len: u64) -> io::Result<()> {
        self.inner.rewind(len)?;
        self.bytes.truncate(len as usize);
        Ok(())
    }
}

impl<V: Vfs> Vfs for FaultVfs<V> {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)?;
        let mut state = self.state.lock().unwrap();
        let made = dir.ancestors().filter(|d| !d.as_os_str().is_empty());
        state.dirs.extend(made.map(Path::to_path_buf));
        Ok(())
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
    fn create_append(&self, path: &Path, header: &[&[u8]]) -> io::Result<Box<dyn AppendFile>> {
        let file = self.inner.create_append(path, header)?;
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
        if let Some(inode) = state.inodes.remove(from) {
            state.inodes.insert(to.to_path_buf(), inode);
        }
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)?;
        self.state.lock().unwrap().inodes.remove(path);
        Ok(())
    }
    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(dir)?;
        let mut state = self.state.lock().unwrap();
        state.inodes.retain(|p, _| !p.starts_with(dir));
        state.listed.retain(|d, _| !d.starts_with(dir));
        state.dirs.retain(|d| !d.starts_with(dir));
        Ok(())
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)?;
        let mut state = self.state.lock().unwrap();
        let entries = state
            .inodes
            .iter()
            .filter(|(p, _)| p.parent() == Some(dir))
            .map(|(p, &inode)| (p.clone(), inode))
            .collect();
        state.listed.insert(dir.to_path_buf(), entries);
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
