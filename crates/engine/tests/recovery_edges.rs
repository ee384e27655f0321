//! Recovery edge cases around the checkpoint boundary — the paths that
//! make Dali-style local logging subtle (paper §2.1).

use dali_common::storage::{Open, Storage, StorageFile};
use dali_common::{DaliConfig, DaliError, OsStorage, ProtectionScheme};
use dali_engine::{DaliEngine, RecoveryMode};
use dali_testutil::TempDir;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn tmpdir(name: &str) -> TempDir {
    TempDir::new(&format!("edge-{name}"))
}

fn val(tag: u8) -> Vec<u8> {
    vec![tag; 64]
}

/// The OS file system, noting every path it opens for writing, renames
/// onto or removes, in order.
#[derive(Default)]
struct Recording(Mutex<Vec<PathBuf>>);

impl Recording {
    fn note(&self, path: &Path) {
        self.0.lock().unwrap().push(path.to_path_buf());
    }

    /// What was noted, relative to `dir`.
    fn names(&self, dir: &Path) -> Vec<String> {
        let noted = self.0.lock().unwrap();
        let rel = |p: &PathBuf| p.strip_prefix(dir).unwrap().display().to_string();
        noted.iter().map(rel).collect()
    }
}

impl Storage for Recording {
    fn open(&self, path: &Path, how: Open) -> io::Result<Box<dyn StorageFile>> {
        if how != Open::Read {
            self.note(path);
        }
        OsStorage.open(path, how)
    }
    fn read(&self, path: &Path, into: &mut Vec<u8>) -> io::Result<()> {
        OsStorage.read(path, into)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.note(to);
        OsStorage.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.note(path);
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

/// A transaction that spans a checkpoint and never commits: its
/// pre-checkpoint operation's logical undo lives only in the checkpointed
/// ATT, its post-checkpoint operation's undo only in the log. Recovery
/// must roll back both.
#[test]
fn incomplete_txn_spanning_checkpoint_fully_rolled_back() {
    let dir = tmpdir("span");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let setup = db.begin().unwrap();
    let a = setup.insert(t, &val(1)).unwrap();
    let b = setup.insert(t, &val(2)).unwrap();
    setup.commit().unwrap();

    let txn = db.begin().unwrap();
    txn.update(a, &val(11)).unwrap(); // op committed before the ckpt
    db.checkpoint().unwrap(); // txn is active: its undo log is checkpointed
    txn.update(b, &val(22)).unwrap(); // op committed after the ckpt
    std::mem::forget(txn); // crash with the transaction open
    db.crash();

    let (db, outcome) = DaliEngine::open(config).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::Normal);
    assert_eq!(outcome.rolled_back_txns.len(), 1);
    let check = db.begin().unwrap();
    assert_eq!(
        check.read_vec(a).unwrap(),
        val(1),
        "pre-ckpt op undone via checkpointed ATT"
    );
    assert_eq!(
        check.read_vec(b).unwrap(),
        val(2),
        "post-ckpt op undone via log"
    );
    check.commit().unwrap();
    assert!(db.audit().unwrap().clean());
}

/// A transaction that aborts *after* a checkpoint captured its updates:
/// the checkpoint image contains the aborted updates; the logged
/// compensations must remove them during recovery.
#[test]
fn abort_after_checkpoint_replays_compensations() {
    let dir = tmpdir("abortckpt");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let setup = db.begin().unwrap();
    let a = setup.insert(t, &val(1)).unwrap();
    setup.commit().unwrap();

    let txn = db.begin().unwrap();
    txn.update(a, &val(99)).unwrap();
    let extra = txn.insert(t, &val(50)).unwrap();
    db.checkpoint().unwrap(); // image now contains the doomed updates
    txn.abort().unwrap(); // compensations logged after the checkpoint
    db.crash();

    let (db, _) = DaliEngine::open(config).unwrap();
    let check = db.begin().unwrap();
    assert_eq!(check.read_vec(a).unwrap(), val(1), "update compensated");
    assert!(check.read_vec(extra).is_err(), "insert compensated");
    check.commit().unwrap();
    assert!(db.audit().unwrap().clean());
}

/// Operation committed before the checkpoint, transaction committed after:
/// recovery sees only the TxnCommit in the log and must keep everything.
#[test]
fn op_before_ckpt_commit_after_ckpt_is_kept() {
    let dir = tmpdir("opckpt");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let setup = db.begin().unwrap();
    let a = setup.insert(t, &val(1)).unwrap();
    setup.commit().unwrap();

    let txn = db.begin().unwrap();
    txn.update(a, &val(42)).unwrap();
    db.checkpoint().unwrap();
    txn.commit().unwrap();
    db.crash();

    let (db, outcome) = DaliEngine::open(config).unwrap();
    assert!(outcome.rolled_back_txns.is_empty());
    let check = db.begin().unwrap();
    assert_eq!(check.read_vec(a).unwrap(), val(42));
    check.commit().unwrap();
}

/// Deletes across the checkpoint boundary: a record deleted before the
/// checkpoint and a rollback re-insert after it.
#[test]
fn delete_rollback_across_checkpoint() {
    let dir = tmpdir("delckpt");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let setup = db.begin().unwrap();
    let a = setup.insert(t, &val(7)).unwrap();
    setup.commit().unwrap();

    let txn = db.begin().unwrap();
    txn.delete(a).unwrap();
    db.checkpoint().unwrap(); // image has the delete; ATT has HeapDelete undo
    std::mem::forget(txn);
    db.crash();

    let (db, _) = DaliEngine::open(config).unwrap();
    let check = db.begin().unwrap();
    assert_eq!(
        check.read_vec(a).unwrap(),
        val(7),
        "delete rolled back, image restored"
    );
    check.commit().unwrap();
    let t = db.table("t").unwrap();
    assert_eq!(db.record_count(t).unwrap(), 1);
    assert!(db.audit().unwrap().clean());
}

/// Several checkpoints with no intervening log records: recovery from the
/// latest must be a no-op redo.
#[test]
fn empty_redo_interval() {
    let dir = tmpdir("empty");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let txn = db.begin().unwrap();
    let a = txn.insert(t, &val(3)).unwrap();
    txn.commit().unwrap();
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    db.crash();
    let (db, outcome) = DaliEngine::open(config).unwrap();
    assert!(outcome.rolled_back_txns.is_empty());
    let check = db.begin().unwrap();
    assert_eq!(check.read_vec(a).unwrap(), val(3));
    check.commit().unwrap();
}

/// What a recovery leaves must be recoverable: crash immediately after
/// reopening, twice in a row, with no checkpoint in between.
#[test]
fn double_crash_immediately_after_recovery() {
    let dir = tmpdir("double");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::ReadLogging);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let txn = db.begin().unwrap();
    let a = txn.insert(t, &val(9)).unwrap();
    txn.commit().unwrap();
    db.crash();
    for _ in 0..2 {
        let (db, _) = DaliEngine::open(config.clone()).unwrap();
        let check = db.begin().unwrap();
        assert_eq!(check.read_vec(a).unwrap(), val(9));
        check.commit().unwrap();
        db.crash();
    }
}

/// A read log record counts its codewords in a `u16`. Under CW
/// ReadLogging a table whose records could span more regions than that
/// is refused; the largest record accepted is read-logged whole, and a
/// commit after its read survives a crash (a wrapped count once made
/// restart take the read's frame for the torn end of the log).
#[test]
fn read_codeword_count_bounds_the_record_size() {
    let dir = tmpdir("cw-count");
    let config = DaliConfig::small(dir.path())
        .with_scheme(ProtectionScheme::CwReadLogging)
        .with_region_size(4);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    // 65 536 regions when aligned: one more than the count holds.
    assert!(matches!(
        db.create_table("huge", 256 << 10, 1),
        Err(DaliError::InvalidArg(_))
    ));
    // 65 535 regions wherever a read of it starts.
    let size = 4 * (u16::MAX as usize - 1);
    let big = db.create_table("big", size, 1).unwrap();
    let small = db.create_table("small", 16, 4).unwrap();
    let setup = db.begin().unwrap();
    let rec = setup.insert(big, &vec![7; size]).unwrap();
    setup.commit().unwrap();
    let reader = db.begin().unwrap();
    assert_eq!(reader.read_vec(rec).unwrap(), vec![7; size]);
    reader.commit().unwrap();
    let writer = db.begin().unwrap();
    let after = writer.insert(small, &[9; 16]).unwrap();
    writer.commit().unwrap();
    db.settle().unwrap();
    db.crash();

    let (db, outcome) = DaliEngine::open(config).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::DeleteTxn);
    assert!(outcome.deleted_txns.is_empty() && outcome.rolled_back_txns.is_empty());
    let check = db.begin().unwrap();
    assert_eq!(check.read_vec(rec).unwrap(), vec![7; size]);
    assert_eq!(check.read_vec(after).unwrap(), vec![9; 16]);
    check.commit().unwrap();
}

/// A normal restart logs its rollback instead of checkpointing: it
/// writes, renames and removes nothing outside the log — no image, meta
/// or anchor file — and reports no exit checkpoint.
#[test]
fn a_normal_open_writes_only_the_log() {
    let dir = tmpdir("log-only");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let setup = db.begin().unwrap();
    let a = setup.insert(t, &val(1)).unwrap();
    setup.commit().unwrap();
    let loser = db.begin().unwrap();
    loser.update(a, &val(2)).unwrap();
    loser.insert(t, &val(3)).unwrap();
    db.current_lsn().unwrap(); // its operations reach the log
    std::mem::forget(loser);
    db.crash();

    let store = Arc::new(Recording::default());
    let (db, outcome) = DaliEngine::open_on(config, store.clone()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::Normal);
    assert_eq!(outcome.rolled_back_txns.len(), 1);
    assert!(outcome.phases.exit_checkpoint.is_none(), "{outcome:?}");
    assert!(outcome.scanned.start < outcome.scanned.end, "{outcome:?}");
    let written = store.names(dir.path());
    assert!(
        written.iter().all(|w| w.starts_with("system.log/")),
        "{written:?}"
    );
    let check = db.begin().unwrap();
    assert_eq!(check.read_vec(a).unwrap(), val(1));
    check.commit().unwrap();
    assert!(db.audit().unwrap().clean());
}

/// A loser rolled back by one restart stays rolled back across a second
/// crash, with a commit to one of its records in between: the second
/// restart finds its abort in the log and rolls nothing back.
#[test]
fn a_logged_rollback_survives_a_second_crash() {
    let dir = tmpdir("rollback-twice");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let setup = db.begin().unwrap();
    let a = setup.insert(t, &val(1)).unwrap();
    let b = setup.insert(t, &val(2)).unwrap();
    setup.commit().unwrap();
    let loser = db.begin().unwrap();
    loser.update(a, &val(11)).unwrap();
    db.checkpoint().unwrap(); // its first update's undo is in the ATT
    loser.update(b, &val(22)).unwrap();
    let c = loser.insert(t, &val(33)).unwrap();
    db.current_lsn().unwrap(); // its operations reach the log
    std::mem::forget(loser);
    db.crash();

    let (db, outcome) = DaliEngine::open(config.clone()).unwrap();
    assert_eq!(outcome.rolled_back_txns.len(), 1);
    let txn = db.begin().unwrap();
    txn.update(a, &val(5)).unwrap();
    txn.commit().unwrap();
    db.crash();

    let (db, outcome) = DaliEngine::open(config).unwrap();
    assert!(outcome.rolled_back_txns.is_empty(), "{outcome:?}");
    let check = db.begin().unwrap();
    assert_eq!(check.read_vec(a).unwrap(), val(5));
    assert_eq!(check.read_vec(b).unwrap(), val(2));
    assert!(
        check.read_vec(c).is_err(),
        "the loser's insert stays undone"
    );
    check.commit().unwrap();
    assert_eq!(db.record_count(t).unwrap(), 2);
    assert!(db.audit().unwrap().clean());
}

/// Delete-transaction recovery still ends with a certified checkpoint,
/// and clears the corruption marker only once the anchor names it.
#[test]
fn a_delete_txn_open_checkpoints_before_it_clears_the_marker() {
    let dir = tmpdir("delete-txn-ckpt");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::ReadLogging);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let setup = db.begin().unwrap();
    let a = setup.insert(t, &val(1)).unwrap();
    setup.commit().unwrap();
    // One fold word: equal changes to two words would cancel.
    db.raw_image()
        .write(db.record_addr(a).unwrap(), &[0xEE; 4])
        .unwrap();
    assert!(
        !db.audit().unwrap().clean(),
        "the audit reports and poisons"
    );
    db.crash();
    assert!(dir.path().join("corrupt.marker").exists());

    let store = Arc::new(Recording::default());
    let (_db, outcome) = DaliEngine::open_on(config, store.clone()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::DeleteTxn);
    assert!(outcome.phases.exit_checkpoint.is_some(), "{outcome:?}");
    let written = store.names(dir.path());
    let at = |name: &str| written.iter().position(|w| w == name);
    let (anchor, marker) = (at("cur_ckpt"), at("corrupt.marker"));
    assert!(anchor.is_some() && anchor < marker, "{written:?}");
    assert!(!dir.path().join("corrupt.marker").exists());
}
