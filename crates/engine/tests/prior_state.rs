//! Prior-state recovery (paper §4.1's second model): return to a
//! transaction-consistent state at a chosen log position, discarding all
//! later work.

use dali_common::{DaliConfig, ProtectionScheme};
use dali_engine::{DaliEngine, RecoveryMode};
use dali_testutil::TempDir;

fn tmpdir(name: &str) -> TempDir {
    TempDir::new(&format!("prior-{name}"))
}

fn val(tag: u8) -> Vec<u8> {
    vec![tag; 64]
}

#[test]
fn discards_everything_after_the_chosen_point() {
    let dir = tmpdir("basic");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::ReadLogging);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();

    let txn = db.begin().unwrap();
    let keep = txn.insert(t, &val(1)).unwrap();
    txn.commit().unwrap();
    let point = db.current_lsn().unwrap();

    // Work after the point: must vanish.
    let txn = db.begin().unwrap();
    let gone = txn.insert(t, &val(2)).unwrap();
    txn.update(keep, &val(3)).unwrap();
    txn.commit().unwrap();
    db.crash();

    let (db, outcome) = DaliEngine::open_prior_state(config, point).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::PriorState);
    let txn = db.begin().unwrap();
    assert_eq!(
        txn.read_vec(keep).unwrap(),
        val(1),
        "post-point update gone"
    );
    assert!(txn.read_vec(gone).is_err(), "post-point insert gone");
    txn.commit().unwrap();
}

#[test]
fn discarded_future_cannot_resurface() {
    let dir = tmpdir("trunc");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::Baseline);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let txn = db.begin().unwrap();
    let keep = txn.insert(t, &val(1)).unwrap();
    txn.commit().unwrap();
    let point = db.current_lsn().unwrap();
    let txn = db.begin().unwrap();
    let gone = txn.insert(t, &val(2)).unwrap();
    txn.commit().unwrap();
    db.crash();

    // Recover to the point, then do NEW work, crash, and recover normally:
    // the old future must not come back.
    let (db, _) = DaliEngine::open_prior_state(config.clone(), point).unwrap();
    let txn = db.begin().unwrap();
    let fresh = txn.insert(t, &val(9)).unwrap();
    txn.commit().unwrap();
    db.crash();

    let (db, outcome) = DaliEngine::open(config).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::Normal);
    let txn = db.begin().unwrap();
    assert_eq!(txn.read_vec(keep).unwrap(), val(1));
    assert_eq!(txn.read_vec(fresh).unwrap(), val(9));
    // `gone` may have been re-allocated to `fresh`'s slot; the old value
    // must not exist anywhere.
    if fresh != gone {
        assert!(txn.read_vec(gone).is_err());
    } else {
        assert_eq!(txn.read_vec(gone).unwrap(), val(9));
    }
    txn.commit().unwrap();
}

#[test]
fn point_in_flight_transactions_are_rolled_back() {
    let dir = tmpdir("inflight");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::Baseline);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &val(1)).unwrap();
    txn.commit().unwrap();

    // A transaction commits one operation, then the point is captured
    // mid-transaction, then it commits. Prior-state recovery to the point
    // must roll the whole transaction back (transaction consistency).
    let txn = db.begin().unwrap();
    let txn_id = txn.id();
    txn.update(rec, &val(5)).unwrap();
    let point = db.current_lsn().unwrap();
    txn.update(rec, &val(6)).unwrap();
    txn.commit().unwrap();
    db.crash();

    let (db, outcome) = DaliEngine::open_prior_state(config, point).unwrap();
    assert!(outcome.rolled_back_txns.contains(&txn_id));
    let check = db.begin().unwrap();
    assert_eq!(
        check.read_vec(rec).unwrap(),
        val(1),
        "mid-txn point rolls back all of it"
    );
    check.commit().unwrap();
}

#[test]
fn too_old_point_is_rejected() {
    let dir = tmpdir("old");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::Baseline);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    // Advance both checkpoint images past a very early LSN.
    for i in 0..3u8 {
        let txn = db.begin().unwrap();
        txn.insert(t, &val(i)).unwrap();
        txn.commit().unwrap();
        db.checkpoint().unwrap();
    }
    db.crash();
    match DaliEngine::open_prior_state(config, dali_common::Lsn(1)) {
        Err(dali_common::DaliError::RecoveryFailed(msg)) => {
            assert!(msg.contains("old enough"), "{msg}");
        }
        Err(e) => panic!("unexpected error: {e}"),
        Ok(_) => panic!("recovery to a pre-checkpoint LSN must fail"),
    }
}

#[test]
fn prior_state_works_after_corruption_too() {
    // The prior-state model is the blunt instrument for corruption the
    // paper contrasts with delete-transaction recovery: wind back to
    // before the (known) corruption time, losing ALL later transactions.
    let dir = tmpdir("corr");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 32).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &val(1)).unwrap();
    txn.commit().unwrap();
    let point = db.current_lsn().unwrap();

    // Corruption strikes; a later transaction also commits.
    db.raw_image()
        .write(db.record_addr(rec).unwrap(), &[0xE1, 0xE2, 0xE3])
        .unwrap();
    let txn = db.begin().unwrap();
    txn.insert(t, &val(2)).unwrap();
    txn.commit().unwrap();
    assert!(!db.audit().unwrap().clean());

    let (db, outcome) = DaliEngine::open_prior_state(config, point).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::PriorState);
    let txn = db.begin().unwrap();
    assert_eq!(
        txn.read_vec(rec).unwrap(),
        val(1),
        "image from before corruption"
    );
    txn.commit().unwrap();
    assert!(db.audit().unwrap().clean());
}
