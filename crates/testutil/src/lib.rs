//! Shared test support.
//!
//! Tests used to key scratch directories on `std::process::id()` alone,
//! which collides when successive `cargo test` invocations recycle PIDs
//! and leaks a directory per test run. [`TempDir`] fixes both: the name
//! is unique per instance (pid + process-wide counter + creation time)
//! and the directory is removed when the value drops.
//! [`FailImageRead`] is the OS store with one injected failure.

use dali_common::storage::{Open, OsStorage, Storage, StorageFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A scratch directory unique to one test, removed on drop.
///
/// Keep the value alive as long as the directory is needed — binding it
/// to `_` drops it immediately and deletes the directory under whatever
/// was about to use it.
#[must_use = "dropping a TempDir deletes its directory"]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `$TMPDIR/dali-test-<name>-<pid>-<seq>-<nanos>`.
    pub fn new(name: &str) -> TempDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path = std::env::temp_dir().join(format!(
            "dali-test-{name}-{}-{}-{nanos}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&path).expect("create test tempdir");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Release ownership without deleting — the directory survives for
    /// post-mortem inspection.
    pub fn into_path(self) -> PathBuf {
        let p = self.path.clone();
        std::mem::forget(self);
        p
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Copy directory `src` and everything under it to `dst` (a crashed
/// database directory snapshotted for several recoveries).
pub fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy target");
    for entry in std::fs::read_dir(src).expect("read copy source") {
        let entry = entry.expect("read copy source entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("copy source file type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy file");
        }
    }
}

/// The OS store, except that the first read-only open of a checkpoint
/// image (`*.img`) after [`arm`](Self::arm) fails. That open is online
/// repair's read of the anchored image, so a test reaches the poisoned
/// engine and the restart that follow a failed repair.
#[derive(Default)]
pub struct FailImageRead {
    armed: AtomicBool,
}

impl FailImageRead {
    /// Fail the next read-only open of a checkpoint image.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }
}

impl Storage for FailImageRead {
    fn open(&self, path: &Path, how: Open) -> io::Result<Box<dyn StorageFile>> {
        let image = path.extension().is_some_and(|e| e == "img");
        if how == Open::Read && image && self.armed.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other("checkpoint image unreadable"));
        }
        OsStorage.open(path, how)
    }
    fn read(&self, path: &Path, into: &mut Vec<u8>) -> io::Result<()> {
        OsStorage.read(path, into)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        OsStorage.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        OsStorage.remove(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<(String, u64)>> {
        OsStorage.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        OsStorage.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        OsStorage.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_and_cleaned_up() {
        let a = TempDir::new("x");
        let b = TempDir::new("x");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        let kept = a.path().to_path_buf();
        std::fs::write(kept.join("f"), b"data").unwrap();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }

    #[test]
    fn into_path_keeps_the_directory() {
        let d = TempDir::new("keep");
        let p = d.into_path();
        assert!(p.is_dir());
        std::fs::remove_dir_all(p).unwrap();
    }
}
