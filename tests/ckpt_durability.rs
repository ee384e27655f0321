//! A checkpoint that fails part-way must leave both images usable for
//! what they still claim to be, and one taken beside a committing
//! transaction must not roll its commit back at the next restart.
//!
//! Each failure is made with plain file-system means: a directory where
//! the checkpointer expects a file makes its `open` fail with `EISDIR`.
//! Crashes anywhere in the checkpoint protocol are the crash simulator's
//! (`tests/crash_sim.rs`); these two are the sequences it first found,
//! pinned.

use dali_common::storage::{Open, Storage, StorageFile};
use dali_common::{DaliConfig, Lsn, OsStorage, ProtectionScheme, RecId, Store};
use dali_engine::{CheckpointOutcome, DaliEngine};
use dali_testutil::TempDir;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};

fn config(dir: &Path) -> DaliConfig {
    let mut c = DaliConfig::small(dir).with_scheme(ProtectionScheme::DataCodeword);
    c.db_pages = 16;
    c
}

fn write(db: &DaliEngine, rec: RecId, byte: u8) {
    let txn = db.begin().unwrap();
    txn.update(rec, &[byte; 32]).unwrap();
    txn.commit().unwrap();
}

fn read(db: &DaliEngine, rec: RecId) -> u8 {
    let txn = db.begin().unwrap();
    let value = txn.read_vec(rec).unwrap()[0];
    txn.commit().unwrap();
    value
}

fn certified(db: &DaliEngine) -> (Lsn, usize) {
    match db.checkpoint().unwrap() {
        CheckpointOutcome::Certified {
            ck_end,
            pages_written,
        } => (ck_end, pages_written),
        other => panic!("checkpoint not certified: {other:?}"),
    }
}

/// Run `f` with a directory standing where each of `names` is expected
/// (existing files are moved aside and put back afterwards).
fn with_directories_at<T>(dir: &Path, names: &[&str], f: impl FnOnce() -> T) -> T {
    for name in names {
        let path = dir.join(name);
        if path.exists() {
            std::fs::rename(&path, dir.join(format!("{name}.aside"))).unwrap();
        }
        std::fs::create_dir(&path).unwrap();
    }
    let out = f();
    for name in names {
        let path = dir.join(name);
        std::fs::remove_dir(&path).unwrap();
        let aside = dir.join(format!("{name}.aside"));
        if aside.exists() {
            std::fs::rename(aside, path).unwrap();
        }
    }
    out
}

/// A checkpoint that fails after draining the dirty-page set must hand
/// the pages back: otherwise the next checkpoint to the same image skips
/// them and certifies an image that still holds an older value.
#[test]
fn a_failed_checkpoint_keeps_its_dirty_pages_for_the_next() {
    let scratch = TempDir::new("ckpt-refail");
    let dir = scratch.path();
    let (db, _) = DaliEngine::create(config(dir)).unwrap();
    let t = db.create_table("t", 32, 8).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &[b'A'; 32]).unwrap();
    txn.commit().unwrap();
    certified(&db);
    write(&db, rec, b'B');
    certified(&db);
    write(&db, rec, b'C');

    let images = ["ckpt_a.img", "ckpt_b.img"];
    let failed = with_directories_at(dir, &images, || db.checkpoint());
    assert!(failed.is_err(), "{failed:?}");
    let (_, pages_written) = certified(&db);
    assert!(pages_written > 0, "the drained pages were dropped");

    db.crash();
    let (db, _) = DaliEngine::open(config(dir)).unwrap();
    assert_eq!(read(&db, rec), b'C');
    assert!(db.audit().unwrap().clean());
}

/// A checkpoint that dies between its page writes and its meta write
/// leaves an image whose old meta no longer describes it. Prior-state
/// recovery must refuse that image, not replay onto it.
#[test]
fn prior_state_refuses_an_image_a_later_checkpoint_began_to_overwrite() {
    let scratch = TempDir::new("ckpt-stale-meta");
    let dir = scratch.path();
    let (db, _) = DaliEngine::create(config(dir)).unwrap();
    let t = db.create_table("t", 32, 8).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &[b'A'; 32]).unwrap();
    txn.commit().unwrap();
    let (e1, _) = certified(&db);
    write(&db, rec, b'B');
    certified(&db);
    write(&db, rec, b'C');

    let temps = ["ckpt_a.tmp", "ckpt_b.tmp"];
    let failed = with_directories_at(dir, &temps, || db.checkpoint());
    assert!(failed.is_err(), "{failed:?}");
    db.crash();

    match DaliEngine::open_prior_state(config(dir), e1) {
        Ok((db, _)) => panic!(
            "recovered {:?} from a half-written image",
            read(&db, rec) as char
        ),
        Err(e) => assert!(e.to_string().contains("old enough"), "{e}"),
    }
    // The database itself is intact: the anchored checkpoint was never
    // touched.
    let (db, _) = DaliEngine::open(config(dir)).unwrap();
    assert_eq!(read(&db, rec), b'C');
}

/// The OS store, except that once `armed` the next fsync of a log segment
/// waits until a checkpoint image is fsynced.
#[derive(Default)]
struct Gate {
    armed: AtomicBool,
    /// (a segment fsync is parked, an image fsync released it)
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn set(&self, f: impl FnOnce(&mut (bool, bool))) {
        f(&mut self.state.lock().unwrap());
        self.cv.notify_all();
    }

    fn wait(&self, until: impl Fn(&(bool, bool)) -> bool) {
        let state = self.state.lock().unwrap();
        drop(self.cv.wait_while(state, |s| !until(s)).unwrap());
    }
}

struct GatedFile {
    file: Box<dyn StorageFile>,
    gate: Arc<Gate>,
    segment: bool,
    image: bool,
}

impl StorageFile for GatedFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.file.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.file.write_at(buf, offset)
    }
    fn size(&self) -> io::Result<u64> {
        self.file.size()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
    fn fsync(&self) -> io::Result<()> {
        if self.segment && self.gate.armed.swap(false, SeqCst) {
            self.gate.set(|s| s.0 = true);
            self.gate.wait(|s| s.1);
        }
        if self.image {
            self.gate.set(|s| s.1 = true);
        }
        self.file.fsync()
    }
}

struct GatedStore(Arc<Gate>);

impl Storage for GatedStore {
    fn open(&self, path: &Path, how: Open) -> io::Result<Box<dyn StorageFile>> {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        Ok(Box::new(GatedFile {
            file: OsStorage.open(path, how)?,
            gate: Arc::clone(&self.0),
            segment: name.contains(".seg"),
            image: name.ends_with(".img"),
        }))
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

/// A checkpoint taken while a durable commit waits for its log fsync:
/// the commit record is below the checkpoint's `CK_end`, so its ATT must
/// not hold the transaction, or the next restart rolls the commit back.
/// The commit's fsync is held until the checkpoint fsyncs its image,
/// which it writes after the ATT snapshot.
#[test]
fn a_checkpoint_during_a_durable_commit_keeps_the_commit() {
    let scratch = TempDir::new("ckpt-att-commit");
    let dir = scratch.path();
    let gate = Arc::new(Gate::default());
    let store: Store = Arc::new(GatedStore(Arc::clone(&gate)));
    let mut cfg = config(dir);
    cfg.sync_commit = true;
    let (db, _) = DaliEngine::create_on(cfg.clone(), Arc::clone(&store)).unwrap();
    let t = db.create_table("t", 32, 8).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &[b'A'; 32]).unwrap();
    txn.commit().unwrap();
    certified(&db);

    let txn = db.begin().unwrap();
    txn.update(rec, &[b'B'; 32]).unwrap();
    std::thread::scope(|s| {
        gate.armed.store(true, SeqCst);
        let committer = s.spawn(move || txn.commit());
        gate.wait(|s| s.0);
        certified(&db);
        committer.join().unwrap().unwrap();
    });
    db.crash();

    let (db, outcome) = DaliEngine::open_on(cfg, store).unwrap();
    assert!(
        outcome.rolled_back_txns.is_empty(),
        "committed update lost at restart; rolled back {:?}",
        outcome.rolled_back_txns
    );
    assert_eq!(read(&db, rec), b'B');
}
