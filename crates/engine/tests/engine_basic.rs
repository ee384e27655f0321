//! End-to-end engine tests: transactions, durability, crash recovery.

use dali_common::{DaliConfig, DaliError, ProtectionScheme, RecId, SlotId};
use dali_engine::{DaliEngine, RecoveryMode};
use dali_testutil::TempDir;

fn tmpdir(name: &str) -> TempDir {
    TempDir::new(&format!("e2e-{name}"))
}

/// A config rooted in a fresh scratch directory, and the guard that
/// deletes the directory when the test ends.
fn cfg(name: &str, scheme: ProtectionScheme) -> (DaliConfig, TempDir) {
    let dir = tmpdir(name);
    (DaliConfig::small(dir.path()).with_scheme(scheme), dir)
}

fn rec100(tag: u8) -> Vec<u8> {
    let mut v = vec![0u8; 100];
    v[0] = tag;
    v[99] = tag.wrapping_add(1);
    v
}

#[test]
fn create_insert_read_commit() {
    for scheme in ProtectionScheme::ALL {
        let (config, _dir) = cfg("circ", scheme);
        let (db, outcome) = DaliEngine::create(config).unwrap();
        assert_eq!(outcome.mode, RecoveryMode::Fresh);
        let t = db.create_table("t", 100, 128).unwrap();
        let txn = db.begin().unwrap();
        let rec = txn.insert(t, &rec100(7)).unwrap();
        assert_eq!(txn.read_vec(rec).unwrap(), rec100(7));
        txn.commit().unwrap();

        let txn = db.begin().unwrap();
        assert_eq!(txn.read_vec(rec).unwrap(), rec100(7), "{scheme:?}");
        txn.commit().unwrap();
        assert_eq!(db.record_count(t).unwrap(), 1);
    }
}

#[test]
fn update_and_delete() {
    let (config, _dir) = cfg("ud", ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 100, 128).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &rec100(1)).unwrap();
    txn.update(rec, &rec100(2)).unwrap();
    assert_eq!(txn.read_vec(rec).unwrap(), rec100(2));
    txn.commit().unwrap();

    let txn = db.begin().unwrap();
    txn.delete(rec).unwrap();
    assert!(matches!(txn.read_vec(rec), Err(DaliError::NotFound(_))));
    txn.commit().unwrap();
    assert_eq!(db.record_count(t).unwrap(), 0);

    // Audit still clean after the full lifecycle.
    assert!(db.audit().unwrap().clean());
}

#[test]
fn abort_rolls_back_everything() {
    let (config, _dir) = cfg("abort", ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 100, 128).unwrap();

    // Committed baseline record.
    let txn = db.begin().unwrap();
    let keep = txn.insert(t, &rec100(1)).unwrap();
    txn.commit().unwrap();

    let txn = db.begin().unwrap();
    let gone = txn.insert(t, &rec100(2)).unwrap();
    txn.update(keep, &rec100(3)).unwrap();
    txn.delete(keep).unwrap();
    txn.abort().unwrap();

    let txn = db.begin().unwrap();
    assert_eq!(
        txn.read_vec(keep).unwrap(),
        rec100(1),
        "update+delete undone"
    );
    assert!(txn.read_vec(gone).is_err(), "insert undone");
    txn.commit().unwrap();
    assert_eq!(db.record_count(t).unwrap(), 1);
    assert!(db.audit().unwrap().clean(), "codewords survive rollback");
}

#[test]
fn drop_without_commit_aborts() {
    let (config, _dir) = cfg("drop", ProtectionScheme::Baseline);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 8, 16).unwrap();
    let rec;
    {
        let txn = db.begin().unwrap();
        rec = txn.insert(t, &[9u8; 8]).unwrap();
        // dropped here
    }
    let txn = db.begin().unwrap();
    assert!(txn.read_vec(rec).is_err());
    txn.commit().unwrap();
}

#[test]
fn crash_recovers_committed_loses_uncommitted() {
    for scheme in ProtectionScheme::ALL {
        let scratch = tmpdir("crash");
        let dir = scratch.path().to_path_buf();
        let config = DaliConfig::small(&dir).with_scheme(scheme);
        let committed;
        {
            let (db, _) = DaliEngine::create(config.clone()).unwrap();
            let t = db.create_table("t", 100, 128).unwrap();
            let txn = db.begin().unwrap();
            committed = txn.insert(t, &rec100(5)).unwrap();
            txn.commit().unwrap();

            // Uncommitted work at crash time.
            let txn = db.begin().unwrap();
            let _ = txn.insert(t, &rec100(6)).unwrap();
            txn.update(committed, &rec100(7)).unwrap();
            std::mem::forget(txn); // crash with the txn open
            db.crash();
        }
        let (db, outcome) = DaliEngine::open(config).unwrap();
        assert_eq!(
            outcome.mode,
            if scheme.logs_read_codewords() {
                RecoveryMode::DeleteTxn
            } else {
                RecoveryMode::Normal
            },
            "{scheme:?}"
        );
        let t = db.table("t").unwrap();
        let txn = db.begin().unwrap();
        assert_eq!(txn.read_vec(committed).unwrap(), rec100(5), "{scheme:?}");
        txn.commit().unwrap();
        assert_eq!(db.record_count(t).unwrap(), 1, "{scheme:?}");
    }
}

#[test]
fn crash_after_checkpoint_and_more_commits() {
    let scratch = tmpdir("ckpt-more");
    let dir = scratch.path().to_path_buf();
    let config = DaliConfig::small(&dir).with_scheme(ProtectionScheme::ReadLogging);
    let (r1, r2);
    {
        let (db, _) = DaliEngine::create(config.clone()).unwrap();
        let t = db.create_table("t", 100, 128).unwrap();
        let txn = db.begin().unwrap();
        r1 = txn.insert(t, &rec100(1)).unwrap();
        txn.commit().unwrap();
        db.checkpoint().unwrap();

        let txn = db.begin().unwrap();
        r2 = txn.insert(t, &rec100(2)).unwrap();
        txn.update(r1, &rec100(3)).unwrap();
        txn.commit().unwrap();
        db.crash();
    }
    let (db, _) = DaliEngine::open(config).unwrap();
    let txn = db.begin().unwrap();
    assert_eq!(txn.read_vec(r1).unwrap(), rec100(3));
    assert_eq!(txn.read_vec(r2).unwrap(), rec100(2));
    txn.commit().unwrap();
}

#[test]
fn repeated_crash_restart_cycles() {
    let scratch = tmpdir("cycles");
    let dir = scratch.path().to_path_buf();
    let config = DaliConfig::small(&dir).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 8, 256).unwrap();
    db.crash();
    let mut expected = Vec::new();
    for round in 0u8..5 {
        let (db, outcome) = DaliEngine::open(config.clone()).unwrap();
        assert_eq!(outcome.mode, RecoveryMode::Normal);
        // Verify all previous rounds' data.
        let txn = db.begin().unwrap();
        for (rec, val) in &expected {
            assert_eq!(txn.read_vec(*rec).unwrap(), *val, "round {round}");
        }
        let val = vec![round; 8];
        let rec = txn.insert(t, &val).unwrap();
        txn.commit().unwrap();
        expected.push((rec, val));
        db.crash();
    }
}

#[test]
fn slot_reuse_after_delete_commit() {
    let (config, _dir) = cfg("reuse", ProtectionScheme::Baseline);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 8, 2).unwrap();
    let txn = db.begin().unwrap();
    let a = txn.insert(t, &[1; 8]).unwrap();
    let _b = txn.insert(t, &[2; 8]).unwrap();
    txn.commit().unwrap();

    // Heap is full.
    let txn = db.begin().unwrap();
    assert!(matches!(
        txn.insert(t, &[3; 8]),
        Err(DaliError::OutOfSpace(_))
    ));
    txn.delete(a).unwrap();
    // Deleted by *this* txn, but the slot is not reusable until commit.
    assert!(txn.insert(t, &[4; 8]).is_err());
    txn.commit().unwrap();

    let txn = db.begin().unwrap();
    let c = txn.insert(t, &[5; 8]).unwrap();
    assert_eq!(c, a, "slot reused after deleter committed");
    txn.commit().unwrap();
}

#[test]
fn lock_conflicts_between_transactions() {
    let (config, _dir) = cfg("locks", ProtectionScheme::Baseline);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 8, 16).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &[1; 8]).unwrap();
    txn.commit().unwrap();

    let t1 = db.begin().unwrap();
    t1.update(rec, &[2; 8]).unwrap();
    let t2 = db.begin().unwrap();
    assert!(matches!(
        t2.read_vec(rec),
        Err(DaliError::LockDenied { .. })
    ));
    t1.commit().unwrap();
    assert_eq!(t2.read_vec(rec).unwrap(), vec![2; 8]);
    t2.commit().unwrap();
}

#[test]
fn reading_unallocated_slot_fails() {
    let (config, _dir) = cfg("unalloc", ProtectionScheme::Baseline);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 8, 16).unwrap();
    let txn = db.begin().unwrap();
    let rec = RecId::new(t, SlotId(3));
    assert!(matches!(txn.read_vec(rec), Err(DaliError::NotFound(_))));
    txn.commit().unwrap();
}

#[test]
fn wrong_record_size_rejected() {
    let (config, _dir) = cfg("size", ProtectionScheme::Baseline);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 8, 16).unwrap();
    let txn = db.begin().unwrap();
    assert!(txn.insert(t, &[1; 7]).is_err());
    let rec = txn.insert(t, &[1; 8]).unwrap();
    assert!(txn.update(rec, &[1; 9]).is_err());
    let mut small = [0u8; 4];
    assert!(txn.read(rec, &mut small).is_err());
    txn.commit().unwrap();
}

#[test]
fn checkpoints_alternate_images() {
    let scratch = tmpdir("pingpong");
    let dir = scratch.path().to_path_buf();
    let config = DaliConfig::small(&dir).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 8, 64).unwrap();
    for i in 0..4u8 {
        let txn = db.begin().unwrap();
        txn.insert(t, &[i; 8]).unwrap();
        txn.commit().unwrap();
        db.checkpoint().unwrap();
    }
    // Both image files must exist and be full-size.
    let a = std::fs::metadata(dir.join("ckpt_a.img")).unwrap();
    let b = std::fs::metadata(dir.join("ckpt_b.img")).unwrap();
    assert_eq!(a.len(), config.db_bytes() as u64);
    assert_eq!(b.len(), config.db_bytes() as u64);
    // And recovery from the latest works.
    db.crash();
    let (db, _) = DaliEngine::open(config).unwrap();
    assert_eq!(db.record_count(db.table("t").unwrap()).unwrap(), 4);
}

#[test]
fn many_tables_and_cross_table_txn() {
    let (config, _dir) = cfg("multi", ProtectionScheme::ReadLogging);
    let (db, _) = DaliEngine::create(config).unwrap();
    let a = db.create_table("a", 8, 32).unwrap();
    let b = db.create_table("b", 12, 32).unwrap();
    let c = db.create_table("c", 100, 32).unwrap();
    let txn = db.begin().unwrap();
    let ra = txn.insert(a, &[1; 8]).unwrap();
    let rb = txn.insert(b, &[2; 12]).unwrap();
    let rc = txn.insert(c, &rec100(3)).unwrap();
    txn.commit().unwrap();
    let txn = db.begin().unwrap();
    assert_eq!(txn.read_vec(ra).unwrap(), vec![1; 8]);
    assert_eq!(txn.read_vec(rb).unwrap(), vec![2; 12]);
    assert_eq!(txn.read_vec(rc).unwrap(), rec100(3));
    txn.commit().unwrap();
}

#[test]
fn ddl_survives_crash_without_checkpoint() {
    let scratch = tmpdir("ddl");
    let dir = scratch.path().to_path_buf();
    let config = DaliConfig::small(&dir).with_scheme(ProtectionScheme::Baseline);
    {
        let (db, _) = DaliEngine::create(config.clone()).unwrap();
        db.create_table("early", 8, 16).unwrap();
        db.checkpoint().unwrap();
        db.create_table("late", 8, 16).unwrap(); // only in the log
        let txn = db.begin().unwrap();
        let r = txn.insert(db.table("late").unwrap(), &[7; 8]).unwrap();
        txn.commit().unwrap();
        db.crash();
        let _ = r;
    }
    let (db, _) = DaliEngine::open(config).unwrap();
    assert!(db.table("early").is_ok());
    let late = db.table("late").unwrap();
    assert_eq!(db.record_count(late).unwrap(), 1);
}

#[test]
fn concurrent_transactions_disjoint_records() {
    let (config, _dir) = cfg("conc", ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 8, 1024).unwrap();
    let mut handles = vec![];
    for k in 0..4u8 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                let txn = db.begin().unwrap();
                let rec = txn.insert(t, &[k, i, 0, 0, 0, 0, 0, 0]).unwrap();
                let got = txn.read_vec(rec).unwrap();
                assert_eq!(got[0], k);
                txn.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.record_count(t).unwrap(), 200);
    assert!(db.audit().unwrap().clean());
}

#[test]
fn concurrent_updates_same_region_data_codeword() {
    // Shared-mode protection latches + atomic codeword deltas must stay
    // consistent under concurrent updates to neighbouring records (which
    // share 64-byte protection regions with 8-byte records).
    let (config, _dir) = cfg("concreg", ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 8, 64).unwrap();
    let mut recs = vec![];
    let txn = db.begin().unwrap();
    for i in 0..16u8 {
        recs.push(txn.insert(t, &[i; 8]).unwrap());
    }
    txn.commit().unwrap();

    let mut handles = vec![];
    for (k, rec) in recs.into_iter().enumerate() {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..30u8 {
                let txn = db.begin().unwrap();
                txn.update(rec, &[k as u8 ^ i; 8]).unwrap();
                txn.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(db.audit().unwrap().clean());
}

#[test]
fn operations_after_crash_fail() {
    let (config, _dir) = cfg("dead", ProtectionScheme::Baseline);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 8, 16).unwrap();
    let db2 = db.clone();
    db2.crash();
    assert!(matches!(db.begin(), Err(DaliError::Crashed)));
    assert!(matches!(db.checkpoint(), Err(DaliError::Crashed)));
    let _ = t;
}
