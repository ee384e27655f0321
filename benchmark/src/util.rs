//! Clocks, scratch directories and host facts.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `benchmark/` directory of the checkout this binary was built in.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// CPU time consumed by every thread of this process, in seconds.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime with a valid clock id and out-pointer.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process-CPU stopwatch for one timed region.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_seconds(),
        }
    }

    /// `(wall seconds, cpu seconds)` since `start`.
    pub fn stop(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_seconds() - self.cpu,
        )
    }
}

/// A unique directory under `benchmark/scratch/`, removed on drop: a
/// Table-2-sized run leaves ~150 MB queued for writeback that would tax
/// whatever runs next.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let path = bench_dir()
            .join("scratch")
            .join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create scratch directory");
        Scratch { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Copy the regular files and directories under `from` into `to`
/// (created if missing).
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &dst)?;
        } else {
            std::fs::copy(entry.path(), &dst)?;
        }
    }
    Ok(())
}

/// Total size in bytes of the regular files under `dir`.
pub fn tree_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        total += if entry.file_type()?.is_dir() {
            tree_bytes(&entry.path())?
        } else {
            entry.metadata()?.len()
        };
    }
    Ok(total)
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git rev-parse HEAD` of the checkout, or `"unknown"` outside a git
/// work tree (the benchmark driver's checkout is not one).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(bench_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
