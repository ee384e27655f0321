//! Shared test support.
//!
//! Tests used to key scratch directories on `std::process::id()` alone,
//! which collides when successive `cargo test` invocations recycle PIDs
//! and leaks a directory per test run. [`TempDir`] fixes both: the name
//! is unique per instance (pid + process-wide counter + creation time)
//! and the directory is removed when the value drops.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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
