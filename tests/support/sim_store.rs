//! An in-memory [`Storage`] with a crash model, for the crash simulator
//! (included with `#[path]`; not a test target of its own).
//!
//! The model, which is what POSIX promises and no more:
//!
//! * data written but not fsynced survives a power loss per 512-byte
//!   sector, each sector independently old or new, and the file's length
//!   is its old or its new one;
//! * `fsync` makes a file's data and length durable, but not its
//!   name;
//! * the entries of a directory changed since its last `sync_dir` —
//!   creates, renames, unlinks — survive a power loss as *any subset*,
//!   name by name (so a rename can leave both names, or neither);
//! * `sync_dir` makes that directory's entries durable;
//! * directories themselves are durable once created.
//!
//! A *process death* loses nothing the calls before it did: the kernel
//! still has it, and it is still not durable. Either kind of crash, or
//! an `EIO`, can be scheduled at the N-th call ([`SimStore::arm`]). A
//! crash makes that call and every later one fail without effect, so
//! the threads of the dead engine cannot touch the disk that
//! [`SimStore::restart`] hands to recovery.
//!
//! The store runs no background threads
//! ([`Storage::background_threads`]): the log's segment syncs and
//! unlinks wait for `settle()`, and a checkpoint's fsync runs before its
//! certification, so the calls arrive in an order the workload alone
//! fixes. [`SimStore::trace`] hashes them, arguments and written bytes
//! included, across restarts.

use dali_common::storage::{Open, Storage, StorageFile};
use dali_common::Store;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

const SECTOR: usize = 512;

/// What an armed call does instead of its work.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Fail with `EIO`; later calls work again.
    Eio,
    /// The process (or the machine) stops here.
    Crash,
}

#[derive(Clone, Default)]
struct Inode {
    data: Vec<u8>,
    synced: Vec<u8>,
}

#[derive(Clone, Default)]
struct Dir {
    live: BTreeMap<String, usize>,
    synced: BTreeMap<String, usize>,
}

#[derive(Clone, Default)]
struct State {
    /// Never freed: an unlinked inode may still be what a durable entry
    /// names.
    inodes: Vec<Inode>,
    dirs: BTreeMap<PathBuf, Dir>,
    calls: u64,
    armed: Option<(u64, Fault)>,
    dead: bool,
    /// Every call so far, hashed in order.
    trace: DefaultHasher,
}

fn dead() -> io::Error {
    io::Error::other("simulated crash: the store is gone")
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
}

fn split(path: &Path) -> (&Path, String) {
    let name = path.file_name().expect("a file path").to_string_lossy();
    (path.parent().expect("a parent"), name.into_owned())
}

impl State {
    /// Trace a call, count it and apply what is armed for it.
    fn enter(&mut self, call: impl Hash) -> io::Result<()> {
        call.hash(&mut self.trace);
        if self.dead {
            return Err(dead());
        }
        self.calls += 1;
        if let Some((at, fault)) = self.armed {
            if at == self.calls {
                self.armed = None;
                return Err(match fault {
                    Fault::Eio => io::Error::from_raw_os_error(5),
                    Fault::Crash => {
                        self.dead = true;
                        dead()
                    }
                });
            }
        }
        Ok(())
    }

    fn dir(&mut self, dir: &Path) -> io::Result<&mut Dir> {
        self.dirs.get_mut(dir).ok_or_else(|| not_found(dir))
    }

    fn lookup(&mut self, path: &Path) -> io::Result<usize> {
        let (dir, name) = split(path);
        self.dir(dir)?
            .live
            .get(&name)
            .copied()
            .ok_or_else(|| not_found(path))
    }

    fn link(&mut self, path: &Path, ino: usize) -> io::Result<()> {
        let (dir, name) = split(path);
        self.dir(dir)?.live.insert(name, ino);
        Ok(())
    }
}

/// The simulated disk. Clones share it; [`store`](Self::store) hands an
/// engine the same disk as a [`Store`].
#[derive(Clone, Default)]
pub struct SimStore {
    state: Arc<Mutex<State>>,
}

struct SimFile {
    state: Arc<Mutex<State>>,
    ino: usize,
}

impl SimStore {
    pub fn new() -> SimStore {
        SimStore::default()
    }

    pub fn store(&self) -> Store {
        Arc::new(self.clone())
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Have the `n`-th call from now do `fault` instead of its work.
    pub fn arm(&self, n: u64, fault: Fault) {
        let mut s = self.lock();
        s.armed = Some((s.calls + n, fault));
    }

    pub fn disarm(&self) {
        self.lock().armed = None;
    }

    /// Disarm, returning what was armed with its distance from now, for
    /// [`resume`](Self::resume): the calls in between do not count.
    pub fn hold(&self) -> Option<(u64, Fault)> {
        let mut s = self.lock();
        let calls = s.calls;
        s.armed.take().map(|(at, fault)| (at - calls, fault))
    }

    pub fn resume(&self, held: Option<(u64, Fault)>) {
        if let Some((n, fault)) = held {
            self.arm(n, fault);
        }
    }

    /// A hash of every call made so far, on this disk and the ones it
    /// was restarted from.
    pub fn trace(&self) -> u64 {
        self.lock().trace.finish()
    }

    /// Crash now: every later call fails without effect.
    pub fn kill(&self) {
        self.lock().dead = true;
    }

    pub fn is_dead(&self) -> bool {
        self.lock().dead
    }

    /// The disk a restart finds: after a process death (`power_loss`
    /// `None`) exactly what the calls made, durable or not; after a power
    /// loss what the crash model lets survive, chosen by the generator.
    pub fn restart(&self, power_loss: Option<&mut StdRng>) -> SimStore {
        let s = self.lock();
        let mut next = match power_loss {
            None => State {
                inodes: s.inodes.clone(),
                dirs: s.dirs.clone(),
                ..State::default()
            },
            Some(rng) => power_loss_image(&s, rng),
        };
        next.trace = s.trace.clone();
        SimStore {
            state: Arc::new(Mutex::new(next)),
        }
    }

    /// Write every file of the disk under `root` to the real directory
    /// `to`, so a failing case's recovery can be replayed with the OS
    /// store.
    pub fn dump(&self, root: &Path, to: &Path) -> io::Result<()> {
        let s = self.lock();
        for (dir, d) in &s.dirs {
            let Ok(rel) = dir.strip_prefix(root) else {
                continue;
            };
            std::fs::create_dir_all(to.join(rel))?;
            for (name, &ino) in &d.live {
                std::fs::write(to.join(rel).join(name), &s.inodes[ino].data)?;
            }
        }
        Ok(())
    }
}

/// Resolve what a power loss leaves of `s`: each name whose entry
/// changed since the last directory sync keeps its old or its new
/// binding; each surviving file's content is torn per sector between its
/// synced and written bytes. Every name gets its own copy, so a rename
/// that survives under both names leaves two files, not a hard link.
fn power_loss_image(s: &State, rng: &mut StdRng) -> State {
    let mut next = State::default();
    for (path, d) in &s.dirs {
        let mut dir = Dir::default();
        let names: BTreeSet<&String> = d.live.keys().chain(d.synced.keys()).collect();
        for name in names {
            let (old, new) = (d.synced.get(name), d.live.get(name));
            let kept = if old == new || rng.gen_bool(0.5) {
                new
            } else {
                old
            };
            if let Some(&ino) = kept {
                let data = torn(&s.inodes[ino], rng);
                next.inodes.push(Inode {
                    data: data.clone(),
                    synced: data,
                });
                dir.live.insert(name.clone(), next.inodes.len() - 1);
            }
        }
        dir.synced = dir.live.clone();
        next.dirs.insert(path.clone(), dir);
    }
    next
}

fn torn(inode: &Inode, rng: &mut StdRng) -> Vec<u8> {
    let (old, new) = (&inode.synced, &inode.data);
    if old == new {
        return new.clone();
    }
    let len = if rng.gen_bool(0.5) {
        old.len()
    } else {
        new.len()
    };
    let mut out = vec![0u8; len];
    for (i, sector) in out.chunks_mut(SECTOR).enumerate() {
        let src = if rng.gen_bool(0.5) { old } else { new };
        let from = (i * SECTOR).min(src.len());
        let bytes = &src[from..(from + sector.len()).min(src.len())];
        sector[..bytes.len()].copy_from_slice(bytes);
    }
    out
}

impl Storage for SimStore {
    fn open(&self, path: &Path, how: Open) -> io::Result<Box<dyn StorageFile>> {
        let mut s = self.lock();
        s.enter(("open", path, how as u8))?;
        let ino = match (s.lookup(path), how) {
            (Ok(_), Open::CreateNew) => {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "exists"))
            }
            (Ok(ino), Open::Truncate) => {
                s.inodes[ino].data.clear();
                ino
            }
            (Ok(ino), _) => ino,
            (Err(e), Open::Read | Open::Write) => return Err(e),
            (Err(_), _) => {
                s.inodes.push(Inode::default());
                let ino = s.inodes.len() - 1;
                s.link(path, ino)?;
                ino
            }
        };
        Ok(Box::new(SimFile {
            state: Arc::clone(&self.state),
            ino,
        }))
    }

    fn read(&self, path: &Path, into: &mut Vec<u8>) -> io::Result<()> {
        let mut s = self.lock();
        s.enter(("read", path))?;
        let ino = s.lookup(path)?;
        into.extend_from_slice(&s.inodes[ino].data);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.enter(("rename", from, to))?;
        let ino = s.lookup(from)?;
        let (dir, name) = split(from);
        s.dir(dir)?.live.remove(&name);
        s.link(to, ino)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.enter(("remove", path))?;
        s.lookup(path)?;
        let (dir, name) = split(path);
        s.dir(dir)?.live.remove(&name);
        Ok(())
    }

    fn background_threads(&self) -> bool {
        false
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<(String, u64)>> {
        let mut s = self.lock();
        s.enter(("list", dir))?;
        let entries = s.dir(dir)?.live.clone();
        Ok(entries
            .into_iter()
            .map(|(name, ino)| (name, s.inodes[ino].data.len() as u64))
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.enter(("create_dir_all", dir))?;
        for d in dir.ancestors() {
            s.dirs.entry(d.to_path_buf()).or_default();
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.enter(("sync_dir", dir))?;
        let d = s.dir(dir)?;
        d.synced = d.live.clone();
        Ok(())
    }
}

impl SimFile {
    fn with<T>(
        &self,
        call: impl Hash,
        f: impl FnOnce(&mut Inode) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.enter((self.ino, call))?;
        f(&mut s.inodes[self.ino])
    }
}

impl StorageFile for SimFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.with(("read_at", buf.len(), offset), |i| {
            let at = offset as usize;
            let bytes = i
                .data
                .get(at..at + buf.len())
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read past the end"))?;
            buf.copy_from_slice(bytes);
            Ok(())
        })
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.with(("write_at", buf, offset), |i| {
            let end = offset as usize + buf.len();
            if i.data.len() < end {
                i.data.resize(end, 0);
            }
            i.data[offset as usize..end].copy_from_slice(buf);
            Ok(())
        })
    }

    fn size(&self) -> io::Result<u64> {
        self.with("size", |i| Ok(i.data.len() as u64))
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.with(("set_len", len), |i| {
            i.data.resize(len as usize, 0);
            Ok(())
        })
    }

    fn fsync(&self) -> io::Result<()> {
        self.with("fsync", |i| {
            i.synced = i.data.clone();
            Ok(())
        })
    }
}
