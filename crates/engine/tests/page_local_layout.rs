//! End-to-end coverage of the page-local heap layout (`colocate_control`,
//! the §5.3 page-based-system ablation): the whole engine lifecycle must
//! behave identically, just with different page-touch counts.

use dali_common::{DaliConfig, DaliError, ProtectionScheme};
use dali_engine::{DaliEngine, RecoveryMode};
use dali_testutil::TempDir;

fn tmpdir(name: &str) -> TempDir {
    TempDir::new(&format!("pl-{name}"))
}

/// A page-local-layout config rooted in a fresh scratch directory, and
/// the guard that deletes the directory when the test ends.
fn cfg(name: &str, scheme: ProtectionScheme) -> (DaliConfig, TempDir) {
    let dir = tmpdir(name);
    let mut c = DaliConfig::small(dir.path()).with_scheme(scheme);
    c.colocate_control = true;
    (c, dir)
}

fn val(tag: u8) -> Vec<u8> {
    (0..100).map(|i| tag.wrapping_add(i as u8)).collect()
}

#[test]
fn full_lifecycle_under_page_local_layout() {
    for scheme in ProtectionScheme::ALL {
        let (config, _dir) = cfg(&format!("life-{scheme:?}"), scheme);
        let (db, _) = DaliEngine::create(config).unwrap();
        let t = db.create_table("t", 100, 200).unwrap();
        let txn = db.begin().unwrap();
        let a = txn.insert(t, &val(1)).unwrap();
        let b = txn.insert(t, &val(2)).unwrap();
        txn.update(a, &val(3)).unwrap();
        txn.delete(b).unwrap();
        txn.commit().unwrap();
        let txn = db.begin().unwrap();
        assert_eq!(txn.read_vec(a).unwrap(), val(3), "{scheme:?}");
        assert!(matches!(txn.read_vec(b), Err(DaliError::NotFound(_))));
        txn.commit().unwrap();
        if scheme.maintains_codewords() {
            assert!(db.audit().unwrap().clean(), "{scheme:?}");
        }
    }
}

#[test]
fn crash_recovery_with_page_local_layout() {
    let (config, _dir) = cfg("crash", ProtectionScheme::DataCodeword);
    let rec;
    {
        let (db, _) = DaliEngine::create(config.clone()).unwrap();
        let t = db.create_table("t", 100, 200).unwrap();
        let txn = db.begin().unwrap();
        rec = txn.insert(t, &val(7)).unwrap();
        txn.commit().unwrap();
        db.checkpoint().unwrap();
        let txn = db.begin().unwrap();
        txn.update(rec, &val(8)).unwrap();
        txn.commit().unwrap();
        db.crash();
    }
    let (db, outcome) = DaliEngine::open(config).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::Normal);
    let txn = db.begin().unwrap();
    assert_eq!(txn.read_vec(rec).unwrap(), val(8));
    txn.commit().unwrap();
    assert!(db.audit().unwrap().clean());
}

#[test]
fn ddl_replay_reconstructs_page_local_layout() {
    // A table created after the checkpoint is rebuilt from its CreateTable
    // log record; the layout must be re-inferred correctly.
    let (config, _dir) = cfg("ddl", ProtectionScheme::DataCodeword);
    let rec;
    {
        let (db, _) = DaliEngine::create(config.clone()).unwrap();
        db.create_table("early", 100, 100).unwrap();
        db.checkpoint().unwrap();
        let late = db.create_table("late", 100, 100).unwrap(); // log only
        let txn = db.begin().unwrap();
        rec = txn.insert(late, &val(5)).unwrap();
        txn.commit().unwrap();
        db.crash();
    }
    let (db, _) = DaliEngine::open(config).unwrap();
    let txn = db.begin().unwrap();
    assert_eq!(txn.read_vec(rec).unwrap(), val(5));
    txn.commit().unwrap();
    assert!(db.audit().unwrap().clean());
}

#[test]
fn corruption_recovery_with_page_local_layout() {
    // Online repair refuses under ReadLogging: the audit poisons, and
    // restart runs delete-transaction recovery.
    let (config, _dir) = cfg("corr", ProtectionScheme::ReadLogging);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 100, 200).unwrap();
    let txn = db.begin().unwrap();
    let x = txn.insert(t, &val(1)).unwrap();
    let y = txn.insert(t, &val(2)).unwrap();
    txn.commit().unwrap();
    db.checkpoint().unwrap();
    assert!(db.audit().unwrap().clean());

    // A single-word wild write can never cancel in the XOR fold (the
    // record filler here is an arithmetic byte sequence, against which a
    // multi-word arithmetic pattern's deltas WOULD cancel — see
    // tests/parity_blind_spot.rs for the general phenomenon).
    db.raw_image()
        .write(db.record_addr(x).unwrap(), &[0xDE, 0xAD, 0xBE, 0xEF])
        .unwrap();
    let carrier = db.begin().unwrap();
    let cid = carrier.id();
    let d = carrier.read_vec(x).unwrap();
    carrier.update(y, &d).unwrap();
    carrier.commit().unwrap();
    assert!(!db.audit().unwrap().clean());

    let (db, outcome) = DaliEngine::open(config).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::DeleteTxn);
    assert_eq!(outcome.deleted_txns, vec![cid]);
    let txn = db.begin().unwrap();
    assert_eq!(txn.read_vec(x).unwrap(), val(1));
    assert_eq!(txn.read_vec(y).unwrap(), val(2));
    txn.commit().unwrap();
}

#[test]
fn page_local_uses_fewer_pages_per_insert() {
    // The observable §5.3 effect: with mprotect on, inserts expose fewer
    // pages under the page-local layout.
    let count_pages = |colocate: bool, name: &str| -> f64 {
        let dir = tmpdir(name);
        let mut c = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::MemoryProtection);
        c.colocate_control = colocate;
        let (db, _) = DaliEngine::create(c).unwrap();
        let t = db.create_table("t", 100, 512).unwrap();
        db.protect_stats().reset();
        let txn = db.begin().unwrap();
        for i in 0..100u8 {
            txn.insert(t, &val(i)).unwrap();
        }
        txn.commit().unwrap();
        let (unprotect, _, _) = db.protect_stats().snapshot();
        unprotect as f64 / 100.0
    };
    let separate = count_pages(false, "sep");
    let colocated = count_pages(true, "col");
    assert!(
        colocated < separate,
        "page-local must need fewer mprotect pairs: {colocated} vs {separate}"
    );
    // An insert under page-local unprotects ~1 page (header + record on
    // the same page, one syscall pair per operation), vs ~2 under the
    // Dali layout (bitmap page + data page).
    assert!(colocated < 1.6, "{colocated}");
    assert!(separate > 1.6, "{separate}");
}
