//! Recovery edge cases around the checkpoint boundary — the paths that
//! make Dali-style local logging subtle (paper §2.1).

use dali_common::{DaliConfig, DaliError, ProtectionScheme};
use dali_engine::{DaliEngine, RecoveryMode};
use dali_testutil::TempDir;

fn tmpdir(name: &str) -> TempDir {
    TempDir::new(&format!("edge-{name}"))
}

fn val(tag: u8) -> Vec<u8> {
    vec![tag; 64]
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

/// The recovery checkpoint itself must be recoverable: crash immediately
/// after reopening, twice in a row.
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

/// The parity stripe is rebuilt from the recovered image on every open
/// and never persisted, so restart takes whatever layout is configured
/// now: a database checkpointed with groups of 8 reopens with the
/// stripe off, with groups of 4 (and repairs in place under them), and
/// under `Baseline`, which resolves the stripe off.
#[test]
fn parity_layout_may_change_across_restart() {
    let dir = tmpdir("parity-layout");
    let config = DaliConfig::small(dir.path())
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_parity_group_size(8);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let txn = db.begin().unwrap();
    let recs: Vec<_> = (0..8u8).map(|i| txn.insert(t, &val(i)).unwrap()).collect();
    txn.commit().unwrap();
    db.checkpoint().unwrap();
    db.crash();

    for (label, config) in [
        ("stripe off", config.clone().with_parity_group_size(0)),
        ("groups of 4", config.clone().with_parity_group_size(4)),
        (
            "Baseline",
            config.clone().with_scheme(ProtectionScheme::Baseline),
        ),
    ] {
        let (db, _) =
            DaliEngine::open(config).unwrap_or_else(|e| panic!("{label}: open refused: {e}"));
        assert!(db.audit().unwrap().clean(), "{label}");
        let expect_size = if label == "groups of 4" { 4 } else { 0 };
        assert_eq!(db.parity_stats().group_size, expect_size, "{label}");
        if expect_size != 0 {
            // A wild write under the new layout is rebuilt in place.
            let addr = db.record_addr(recs[3]).unwrap();
            db.db().image.write(addr, &[0xEE; 8]).unwrap();
            let region = db.db().prot.geometry().region_of(addr);
            assert!(db.repair(region).unwrap().in_place(), "{label}");
            assert!(db.audit().unwrap().clean(), "{label}: healed");
        }
        let check = db.begin().unwrap();
        for (i, &rec) in recs.iter().enumerate() {
            assert_eq!(check.read_vec(rec).unwrap(), val(i as u8), "{label}");
        }
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
