//! The filesystem a store writes through.
//!
//! Every byte the WAL and the checkpoints put on disk, and every file
//! they list, read, rename or remove, goes through one [`Vfs`]. Two
//! implementations exist:
//!
//! * [`OsVfs`] — the real filesystem, making the `std::fs` calls the
//!   durability protocol depends on: a checkpoint is written to a
//!   `.tmp` sibling, `fsync`ed, renamed into place and the directory
//!   `fsync`ed; a segment is appended to and `fdatasync`ed.
//! * [`MemVfs`] — a map of paths to bytes. A store over it runs the
//!   same protocol (checkpoints, segment rotation and purge), so it stays
//!   bounded the same way a directory does; it just never reaches a
//!   disk. Cloning it copies every file, which is the image a crash at
//!   that instant would leave behind.
//!
//! Where data lives is therefore one choice, made when a store is
//! opened, and not a second execution path.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// An open, append-only file: the active WAL segment.
pub trait AppendFile: Send {
    /// Appends all of `buf` (on error, a prefix may have landed).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

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

    /// Writes `parts` back to back into `tmp`, makes it durable
    /// (`fsync`), renames it over `path` and makes the rename durable
    /// (`fsync` of the parent directory): a crash leaves either the old
    /// `path` or the complete new one, never a torn file under the name.
    fn write_renamed(&self, tmp: &Path, path: &Path, parts: &[&[u8]]) -> io::Result<()>;

    /// Creates (or truncates) `path`, writes `header` and returns it open
    /// for appends.
    fn create_append(&self, path: &Path, header: &[&[u8]]) -> io::Result<Box<dyn AppendFile>>;

    /// Opens the existing file `path` for appends at its end.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>>;

    /// Truncates `path` to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Renames `from` to `to`.
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

    fn write_renamed(&self, tmp: &Path, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        {
            let mut file = File::create(tmp)?;
            for part in parts {
                io::Write::write_all(&mut file, part)?;
            }
            file.sync_all()?;
        }
        std::fs::rename(tmp, path)?;
        match path.parent() {
            Some(dir) => self.sync_dir(dir),
            None => Ok(()),
        }
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
        Ok(Box::new(OpenOptions::new().append(true).open(path)?))
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

/// Puts `bytes` at `path`, replacing any file there; like the OS, it
/// refuses when `path`'s directory does not exist.
fn put(tree: &mut Tree, path: &Path, bytes: Vec<u8>) -> io::Result<()> {
    let parent = path.parent().unwrap_or(Path::new(""));
    if !parent.as_os_str().is_empty() && !matches!(tree.get(parent), Some(Node::Dir)) {
        return Err(not_found(parent));
    }
    tree.insert(path.to_path_buf(), Node::File(bytes));
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

    fn write_renamed(&self, _tmp: &Path, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        // one lock hold: the staging file is never visible
        put(&mut lock(&self.tree), path, parts.concat())
    }

    fn create_append(&self, path: &Path, header: &[&[u8]]) -> io::Result<Box<dyn AppendFile>> {
        put(&mut lock(&self.tree), path, header.concat())?;
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
        let bytes = file_mut(&mut tree, from)?.clone();
        put(&mut tree, to, bytes)?;
        tree.remove(from);
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
        fs.write_renamed(&root.join("b.tmp"), &root.join("b"), &[b"1", b"2"])
            .unwrap();
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
