//! The storage seam: every durability-relevant file operation of the log
//! and the checkpointer goes through one [`Storage`]. Production uses
//! [`OsStorage`]; tests substitute an in-memory store that models what a
//! crash keeps and can fail any call, so a crash anywhere in a protocol
//! is an input to a test, not a hook compiled into it.
//! [`Storage::sync_dir`] is the only directory sync and [`atomic_write`]
//! the only write-temp-then-rename.

use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// How [`Storage::open`] opens a file.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Open {
    /// An existing file, read-only.
    Read,
    /// An existing file, read-write.
    Write,
    /// Read-write, created empty if missing; contents kept.
    Create,
    /// Read-write, created if missing and truncated to zero.
    Truncate,
    /// Read-write; fails if the file exists.
    CreateNew,
}

/// An open file. Handles keep naming their file across renames and
/// unlinks of its path, as POSIX descriptors do.
pub trait StorageFile: Send + Sync {
    /// Fill `buf` from `offset`; fails if the file ends first.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Write all of `buf` at `offset`, extending the file if needed.
    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<()>;
    /// Current length in bytes.
    fn size(&self) -> io::Result<u64>;
    /// Truncate or zero-extend to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Make the file's data and length durable (not its name: that is
    /// [`Storage::sync_dir`]'s).
    fn fsync(&self) -> io::Result<()>;
}

/// A file system, as far as the log and the checkpointer use one.
pub trait Storage: Send + Sync {
    /// Open `path` as `how` says.
    fn open(&self, path: &Path, how: Open) -> io::Result<Box<dyn StorageFile>>;
    /// Append the whole file at `path` to `into`.
    fn read(&self, path: &Path, into: &mut Vec<u8>) -> io::Result<()>;
    /// Rename `from` to `to`, replacing `to` if it exists.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlink `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// The files in `dir` with their lengths, in no particular order. A
    /// file unlinked while the directory is being listed may be missing.
    fn list(&self, dir: &Path) -> io::Result<Vec<(String, u64)>>;
    /// Create `dir` and its missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Make the entries of `dir` — creates, renames and unlinks in it —
    /// durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The shared handle engines and logs hold.
pub type Store = Arc<dyn Storage>;

/// The operating system's file system.
#[derive(Copy, Clone, Debug, Default)]
pub struct OsStorage;

impl OsStorage {
    /// A [`Store`] on the OS file system.
    pub fn store() -> Store {
        Arc::new(OsStorage)
    }
}

impl StorageFile for File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.read_exact_at(buf, offset)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.write_all_at(buf, offset)
    }

    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn fsync(&self) -> io::Result<()> {
        File::sync_data(self)
    }
}

impl Storage for OsStorage {
    fn open(&self, path: &Path, how: Open) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(how != Open::Read)
            .create(matches!(how, Open::Create | Open::Truncate))
            .truncate(how == Open::Truncate)
            .create_new(how == Open::CreateNew)
            .open(path)?;
        Ok(Box::new(file))
    }

    fn read(&self, path: &Path, into: &mut Vec<u8>) -> io::Result<()> {
        File::open(path)?.read_to_end(into).map(drop)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<(String, u64)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            match entry.metadata() {
                Ok(meta) => out.push((name, meta.len())),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

/// Durably replace the contents of `path` with `bytes`: write a
/// temporary sibling, fsync it, rename it over `path`, fsync the
/// directory. A crash leaves the old bytes or the new, never a mix; the
/// directory sync bounds *when* only the new ones can come back.
pub fn atomic_write(store: &dyn Storage, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let f = store.open(&tmp, Open::Truncate)?;
    f.write_at(bytes, 0)?;
    f.fsync()?;
    store.rename(&tmp, path)?;
    sync_parent(store, path)
}

/// Unlink `path` durably. A missing file is already gone — though
/// perhaps not durably, if an earlier unlink's directory sync failed, so
/// the directory is synced either way.
pub fn remove_durably(store: &dyn Storage, path: &Path) -> io::Result<()> {
    match store.remove(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => sync_parent(store, path),
    }
}

fn sync_parent(store: &dyn Storage, path: &Path) -> io::Result<()> {
    store.sync_dir(path.parent().unwrap_or(Path::new(".")))
}
