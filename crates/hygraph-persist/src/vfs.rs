//! The filesystem a store writes through.
//!
//! Every byte the WAL and the checkpoints put on disk, and every file
//! they list, read, rename or remove, goes through one [`Vfs`]. Two
//! implementations exist:
//!
//! * [`OsVfs`] — the real filesystem, one `std::fs` call per operation.
//! * [`MemVfs`] — a map of paths to bytes. A store over it runs the
//!   same protocol (checkpoints, segment rotation and purge), so it stays
//!   bounded the same way a directory does; it just never reaches a
//!   disk. Cloning it copies every file, which is the image a crash at
//!   that instant would leave behind.
//!
//! The trait has no compound operations: the durability protocol is a
//! sequence of single calls made by its callers, so a test `Vfs` sees
//! (and can drop) each step. A segment is created with
//! [`Vfs::create_append`], appended to and `fdatasync`ed
//! ([`AppendFile::sync_data`]), and its directory `fsync`ed
//! ([`Vfs::sync_dir`]) once after creation. A checkpoint is created as
//! a `.tmp` sibling, appended to in chunks, its header patched
//! ([`AppendFile::patch`]), `fdatasync`ed, renamed over its final name
//! ([`Vfs::rename`]), and the directory `fsync`ed
//! (`crate::checkpoint::CheckpointWriter`).
//!
//! Where data lives is therefore one choice, made when a store is
//! opened, and not a second execution path.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// An open file written at its end: the active WAL segment, or a
/// checkpoint being staged.
pub trait AppendFile: Send {
    /// Appends all of `buf` (on error, a prefix may have landed).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Overwrites bytes already written, from `offset` on, leaving the
    /// append position at the end: fills in a header reserved before
    /// what it describes was written.
    fn patch(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()>;

    /// Makes every appended byte durable (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;

    /// Cuts the file back to `len` bytes and moves the write position
    /// there, discarding a partially written batch.
    fn rewind(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem operations a durable store makes (see module docs).
pub trait Vfs: Send + Sync {
    /// Creates `dir` and every missing ancestor.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Whether a file or directory exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// The UTF-8 names of `dir`'s entries, files and directories, in no
    /// particular order.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// The whole contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// At most the first `n` bytes of `path`.
    fn read_head(&self, path: &Path, n: usize) -> io::Result<Vec<u8>>;

    /// Creates (or truncates) `path`, writes `header` and returns it open
    /// for appends.
    fn create_append(&self, path: &Path, header: &[&[u8]]) -> io::Result<Box<dyn AppendFile>>;

    /// Opens the existing file `path` for appends at its end.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>>;

    /// Truncates `path` to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Renames `from` to `to`, replacing any file at `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Removes the directory `dir` and everything under it.
    fn remove_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Makes the creation, removal and renaming of `dir`'s entries
    /// durable (directory `fsync`).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct OsVfs;

impl OsVfs {
    /// The process-wide shared handle.
    pub fn shared() -> Arc<dyn Vfs> {
        static OS: OnceLock<Arc<OsVfs>> = OnceLock::new();
        OS.get_or_init(|| Arc::new(OsVfs)).clone()
    }
}

impl AppendFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn patch(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        use std::io::{Seek as _, SeekFrom};
        self.seek(SeekFrom::Start(offset))?;
        io::Write::write_all(self, bytes)?;
        self.seek(SeekFrom::End(0)).map(|_| ())
    }

    fn rewind(&mut self, len: u64) -> io::Result<()> {
        use std::io::{Seek as _, SeekFrom};
        self.set_len(len)?;
        self.seek(SeekFrom::Start(len)).map(|_| ())
    }
}

impl Vfs for OsVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Ok(name) = entry?.file_name().into_string() {
                out.push(name);
            }
        }
        Ok(out)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_head(&self, path: &Path, n: usize) -> io::Result<Vec<u8>> {
        use std::io::Read as _;
        let mut head = Vec::with_capacity(n);
        File::open(path)?.take(n as u64).read_to_end(&mut head)?;
        Ok(head)
    }

    fn create_append(&self, path: &Path, header: &[&[u8]]) -> io::Result<Box<dyn AppendFile>> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        for part in header {
            io::Write::write_all(&mut file, part)?;
        }
        Ok(Box::new(file))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        use std::io::{Seek as _, SeekFrom};
        // not `O_APPEND`, under which `patch` would append too
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Box::new(file))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // on platforms where directories cannot be opened this is a no-op
        match File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

/// One entry of a [`MemVfs`].
#[derive(Clone, Debug)]
enum Node {
    Dir,
    File(Vec<u8>),
}

type Tree = BTreeMap<PathBuf, Node>;

/// An in-memory filesystem (see module docs). `Clone` copies every
/// file: the clone and the original evolve independently from then on.
#[derive(Debug, Default)]
pub struct MemVfs {
    tree: Arc<Mutex<Tree>>,
}

impl Clone for MemVfs {
    fn clone(&self) -> Self {
        Self {
            tree: Arc::new(Mutex::new(lock(&self.tree).clone())),
        }
    }
}

fn lock(tree: &Mutex<Tree>) -> std::sync::MutexGuard<'_, Tree> {
    tree.lock().unwrap_or_else(|e| e.into_inner())
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

/// The file at `path`, or the error the OS would give.
fn file_mut<'a>(tree: &'a mut Tree, path: &Path) -> io::Result<&'a mut Vec<u8>> {
    match tree.get_mut(path) {
        Some(Node::File(bytes)) => Ok(bytes),
        Some(Node::Dir) => Err(io::Error::other(format!(
            "{} is a directory",
            path.display()
        ))),
        None => Err(not_found(path)),
    }
}

/// Like the OS, refuses a new entry at `path` when its directory does
/// not exist.
fn check_parent(tree: &Tree, path: &Path) -> io::Result<()> {
    let parent = path.parent().unwrap_or(Path::new(""));
    if !parent.as_os_str().is_empty() && !matches!(tree.get(parent), Some(Node::Dir)) {
        return Err(not_found(parent));
    }
    Ok(())
}

impl MemVfs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    fn handle(&self, path: &Path) -> Box<dyn AppendFile> {
        Box::new(MemFile {
            tree: Arc::clone(&self.tree),
            path: path.to_path_buf(),
        })
    }
}

/// An open [`MemVfs`] file.
struct MemFile {
    tree: Arc<Mutex<Tree>>,
    path: PathBuf,
}

impl AppendFile for MemFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        file_mut(&mut lock(&self.tree), &self.path)?.extend_from_slice(buf);
        Ok(())
    }

    fn patch(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let mut tree = lock(&self.tree);
        let file = file_mut(&mut tree, &self.path)?;
        let at = usize::try_from(offset)
            .ok()
            .filter(|&at| at + bytes.len() <= file.len())
            .ok_or_else(|| io::Error::other("patch beyond the end of the file"))?;
        file[at..at + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn rewind(&mut self, len: u64) -> io::Result<()> {
        file_mut(&mut lock(&self.tree), &self.path)?.resize(len as usize, 0);
        Ok(())
    }
}

impl Vfs for MemVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut tree = lock(&self.tree);
        for d in dir.ancestors().filter(|d| !d.as_os_str().is_empty()) {
            match tree.get(d) {
                Some(Node::Dir) => break,
                Some(Node::File(_)) => {
                    return Err(io::Error::other(format!("{} is a file", d.display())))
                }
                None => {
                    tree.insert(d.to_path_buf(), Node::Dir);
                }
            }
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        lock(&self.tree).contains_key(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let tree = lock(&self.tree);
        if !matches!(tree.get(dir), Some(Node::Dir)) {
            return Err(not_found(dir));
        }
        Ok(tree
            .range(dir.to_path_buf()..)
            .skip(1)
            .take_while(|(p, _)| p.starts_with(dir))
            .filter(|(p, _)| p.parent() == Some(dir))
            .filter_map(|(p, _)| p.file_name()?.to_str().map(str::to_owned))
            .collect())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        file_mut(&mut lock(&self.tree), path).map(|bytes| bytes.clone())
    }

    fn read_head(&self, path: &Path, n: usize) -> io::Result<Vec<u8>> {
        file_mut(&mut lock(&self.tree), path).map(|bytes| bytes[..n.min(bytes.len())].to_vec())
    }

    fn create_append(&self, path: &Path, header: &[&[u8]]) -> io::Result<Box<dyn AppendFile>> {
        let mut tree = lock(&self.tree);
        check_parent(&tree, path)?;
        tree.insert(path.to_path_buf(), Node::File(header.concat()));
        drop(tree);
        Ok(self.handle(path))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        file_mut(&mut lock(&self.tree), path)?;
        Ok(self.handle(path))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        file_mut(&mut lock(&self.tree), path)?.resize(len as usize, 0);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut tree = lock(&self.tree);
        file_mut(&mut tree, from)?;
        check_parent(&tree, to)?;
        // the bytes move, uncopied
        let node = tree.remove(from).expect("checked above");
        tree.insert(to.to_path_buf(), node);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut tree = lock(&self.tree);
        file_mut(&mut tree, path)?;
        tree.remove(path);
        Ok(())
    }

    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut tree = lock(&self.tree);
        if !matches!(tree.get(dir), Some(Node::Dir)) {
            return Err(not_found(dir));
        }
        tree.retain(|p, _| !p.starts_with(dir));
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_behaves_like_a_directory_tree() {
        let fs = MemVfs::new();
        let root = Path::new("store");
        assert!(
            fs.list(root).is_err(),
            "a missing directory cannot be listed"
        );
        assert!(
            fs.create_append(&root.join("a"), &[b"x"]).is_err(),
            "a file needs its directory"
        );
        fs.create_dir_all(&root.join("sub/deeper")).unwrap();
        let mut f = fs.create_append(&root.join("a"), &[b"he", b"ad"]).unwrap();
        f.write_all(b"-body").unwrap();
        f.rewind(6).unwrap();
        assert_eq!(fs.read(&root.join("a")).unwrap(), b"head-b");
        assert_eq!(fs.read_head(&root.join("a"), 2).unwrap(), b"he");
        let mut b = fs.create_append(&root.join("b.tmp"), &[b"1"]).unwrap();
        b.write_all(b"?").unwrap();
        b.patch(1, b"2").unwrap();
        assert!(b.patch(1, b"23").is_err(), "a patch stays inside the file");
        fs.rename(&root.join("b.tmp"), &root.join("b")).unwrap();
        let mut names = fs.list(root).unwrap();
        names.sort();
        assert_eq!(names, ["a", "b", "sub"], "entries of the directory only");

        // a clone is a copy: the two evolve independently
        let copy = fs.clone();
        fs.rename(&root.join("b"), &root.join("sub/b")).unwrap();
        fs.truncate(&root.join("a"), 1).unwrap();
        assert_eq!(copy.read(&root.join("b")).unwrap(), b"12");
        assert_eq!(copy.read(&root.join("a")).unwrap(), b"head-b");
        assert!(!fs.exists(&root.join("b")) && fs.exists(&root.join("sub/b")));

        fs.remove_dir_all(&root.join("sub")).unwrap();
        assert_eq!(fs.list(root).unwrap(), ["a"]);
        fs.remove_file(&root.join("a")).unwrap();
        assert!(fs.remove_file(&root.join("a")).is_err());
        assert!(fs.list(root).unwrap().is_empty());
        assert_eq!(
            copy.list(root).unwrap().len(),
            3,
            "the copy keeps its files"
        );
    }
}
