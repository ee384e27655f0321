//! End-to-end corruption detection and recovery — the paper's §4.
//!
//! Records are 128 bytes (a whole number of 64-byte protection regions)
//! so that corruption of one record never taints a neighbour's region and
//! the expected deletion sets are exact.

use dali_common::{
    DaliConfig, DaliError, DbAddr, OpSeq, OsStorage, ProtectionScheme, RecId, Store, TxnId,
};
use dali_engine::{CheckpointOutcome, DaliEngine, RecoveryMode};
use dali_testutil::{FailImageRead, TempDir};
use dali_wal::LogRecord;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const REC: usize = 128;

fn tmpdir(name: &str) -> TempDir {
    TempDir::new(&format!("corr-{name}"))
}

fn val(tag: u8) -> Vec<u8> {
    (0..REC).map(|i| tag.wrapping_add(i as u8)).collect()
}

/// Wild write bypassing the prescribed interface (what the fault injector
/// does, inlined here to keep this crate's dev-deps minimal).
fn wild_write(db: &DaliEngine, addr: DbAddr, bytes: &[u8]) {
    db.raw_image().write(addr, bytes).unwrap();
}

struct Setup {
    /// Deletes the scratch directory when the test ends.
    _dir: TempDir,
    config: DaliConfig,
    db: DaliEngine,
    x: RecId,
    y: RecId,
    z: RecId,
    w: RecId,
}

/// Common stage: table with four committed records, clean audit taken.
fn setup(name: &str, scheme: ProtectionScheme) -> Setup {
    setup_on(name, scheme, OsStorage::store())
}

/// [`setup`] with the database's files on `store`.
fn setup_on(name: &str, scheme: ProtectionScheme, store: Store) -> Setup {
    let dir = tmpdir(name);
    let config = DaliConfig::small(dir.path()).with_scheme(scheme);
    let (db, _) = DaliEngine::create_on(config.clone(), store).unwrap();
    let t = db.create_table("t", REC, 64).unwrap();
    let txn = db.begin().unwrap();
    let x = txn.insert(t, &val(1)).unwrap();
    let y = txn.insert(t, &val(2)).unwrap();
    let z = txn.insert(t, &val(3)).unwrap();
    let w = txn.insert(t, &val(4)).unwrap();
    txn.commit().unwrap();
    db.checkpoint().unwrap();
    if scheme.maintains_codewords() {
        assert!(db.audit().unwrap().clean());
    }
    Setup {
        _dir: dir,
        config,
        db,
        x,
        y,
        z,
        w,
    }
}

fn read_one(db: &DaliEngine, rec: RecId) -> Vec<u8> {
    let txn = db.begin().unwrap();
    let v = txn.read_vec(rec).unwrap();
    txn.commit().unwrap();
    v
}

#[test]
fn direct_corruption_no_reader_is_repaired_without_deletions() {
    let s = setup("direct", ProtectionScheme::ReadLogging);
    wild_write(&s.db, s.db.record_addr(s.x).unwrap(), &[0xEE; 16]);
    let report = s.db.audit().unwrap();
    assert!(!report.clean());
    // Engine poisoned pending restart.
    assert!(matches!(s.db.begin(), Err(DaliError::Crashed)));

    let (db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::DeleteTxn);
    assert!(outcome.deleted_txns.is_empty(), "{outcome:?}");
    assert_eq!(read_one(&db, s.x), val(1), "direct corruption repaired");
    assert!(db.audit().unwrap().clean());
}

#[test]
fn carried_corruption_deletes_the_carrier() {
    let s = setup("carried", ProtectionScheme::ReadLogging);
    wild_write(&s.db, s.db.record_addr(s.x).unwrap(), &[0xEE; 16]);

    // T2 reads corrupt X and writes a derived value into Y.
    let t2 = s.db.begin().unwrap();
    let t2_id = t2.id();
    let dirty = t2.read_vec(s.x).unwrap(); // carries the corruption
    t2.update(s.y, &dirty).unwrap();
    t2.commit().unwrap();

    // A clean transaction on unrelated data.
    let t4 = s.db.begin().unwrap();
    let t4_id = t4.id();
    t4.update(s.w, &val(44)).unwrap();
    t4.commit().unwrap();

    assert!(!s.db.audit().unwrap().clean());
    let (db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::DeleteTxn);
    assert_eq!(outcome.deleted_txns, vec![t2_id], "only the carrier dies");
    assert!(!outcome.deleted_txns.contains(&t4_id));

    assert_eq!(read_one(&db, s.x), val(1), "X repaired");
    assert_eq!(read_one(&db, s.y), val(2), "Y's indirect corruption undone");
    assert_eq!(read_one(&db, s.w), val(44), "clean txn survives");
}

#[test]
fn corruption_chain_deletes_every_carrier() {
    let s = setup("chain", ProtectionScheme::ReadLogging);
    wild_write(&s.db, s.db.record_addr(s.x).unwrap(), &[0xEE; 16]);

    let t2 = s.db.begin().unwrap();
    let t2_id = t2.id();
    let d = t2.read_vec(s.x).unwrap();
    t2.update(s.y, &d).unwrap();
    t2.commit().unwrap();

    // T3 never touches X, but reads Y (indirectly corrupted) and writes Z.
    let t3 = s.db.begin().unwrap();
    let t3_id = t3.id();
    let d = t3.read_vec(s.y).unwrap();
    t3.update(s.z, &d).unwrap();
    t3.commit().unwrap();

    assert!(!s.db.audit().unwrap().clean());
    let (db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    let mut deleted = outcome.deleted_txns.clone();
    deleted.sort_unstable();
    assert_eq!(deleted, vec![t2_id, t3_id]);
    assert_eq!(read_one(&db, s.x), val(1));
    assert_eq!(read_one(&db, s.y), val(2));
    assert_eq!(read_one(&db, s.z), val(3));
}

#[test]
fn conflicting_operation_is_quarantined() {
    let s = setup("quarantine", ProtectionScheme::ReadLogging);

    // T2: clean prefix updates W, then reads corrupt X. Its undo log at
    // recovery holds the W operation.
    wild_write(&s.db, s.db.record_addr(s.x).unwrap(), &[0xEE; 16]);
    let t2 = s.db.begin().unwrap();
    let t2_id = t2.id();
    t2.update(s.w, &val(40)).unwrap(); // pre-corruption op
    let _ = t2.read_vec(s.x).unwrap(); // now corrupt
    t2.commit().unwrap();

    // T5 then updates W: its begin-operation record conflicts with the
    // operation in T2's undo log, so T5 must be quarantined for T2's
    // rollback to be possible (§4.3).
    let t5 = s.db.begin().unwrap();
    let t5_id = t5.id();
    t5.update(s.w, &val(50)).unwrap();
    t5.commit().unwrap();

    assert!(!s.db.audit().unwrap().clean());
    let (db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    let mut deleted = outcome.deleted_txns.clone();
    deleted.sort_unstable();
    assert_eq!(deleted, vec![t2_id, t5_id]);
    // W rolled all the way back to its pre-T2 value.
    assert_eq!(read_one(&db, s.w), val(4));
}

#[test]
fn cw_readlog_detects_carrier_after_plain_crash_without_audit() {
    // §4.3 extension: with codewords in read records, corruption recovery
    // runs on every restart and catches corruption that occurred after
    // the last audit — no failed audit needed.
    let s = setup("cwcrash", ProtectionScheme::CwReadLogging);
    wild_write(&s.db, s.db.record_addr(s.x).unwrap(), &[0xEE; 16]);

    let t2 = s.db.begin().unwrap();
    let t2_id = t2.id();
    let d = t2.read_vec(s.x).unwrap();
    t2.update(s.y, &d).unwrap();
    t2.commit().unwrap();

    // Plain crash: no audit ever saw the corruption.
    s.db.crash();

    let (db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::DeleteTxn);
    assert_eq!(outcome.deleted_txns, vec![t2_id]);
    assert_eq!(read_one(&db, s.x), val(1));
    assert_eq!(read_one(&db, s.y), val(2));
}

#[test]
fn cw_readlog_view_consistency_spares_equal_write() {
    // View-consistency (§4.3): if the data a transaction read is
    // bit-identical in the recovering image, the transaction survives
    // even though a suppressed write touched its region — it read the
    // same value it would have read in the delete history.
    let s = setup("view", ProtectionScheme::CwReadLogging);

    // T2 reads X (clean!) and writes Y. Then corruption hits Z only.
    let t2 = s.db.begin().unwrap();
    let t2_id = t2.id();
    let d = t2.read_vec(s.x).unwrap();
    assert_eq!(d, val(1));
    t2.update(s.y, &val(22)).unwrap();
    t2.commit().unwrap();

    wild_write(&s.db, s.db.record_addr(s.z).unwrap(), &[0xEE; 16]);
    s.db.crash();

    let (db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::DeleteTxn);
    assert!(outcome.deleted_txns.is_empty(), "{outcome:?}");
    assert_eq!(read_one(&db, s.y), val(22), "clean write survives");
    assert_eq!(read_one(&db, s.z), val(3), "direct corruption gone");
    assert!(!outcome.deleted_txns.contains(&t2_id));
}

#[test]
fn precheck_failure_triggers_cache_recovery_on_reopen() {
    let s = setup("precheck", ProtectionScheme::ReadPrecheck);
    wild_write(&s.db, s.db.record_addr(s.x).unwrap(), &[0xEE; 16]);

    let txn = s.db.begin().unwrap();
    let err = txn.read_vec(s.x).unwrap_err();
    assert!(matches!(err, DaliError::CorruptionDetected { .. }));
    drop(txn);

    let (db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::CacheRecovery);
    assert_eq!(read_one(&db, s.x), val(1));
    assert!(db.audit().unwrap().clean());
}

#[test]
fn data_codeword_audit_failure_cache_recovers() {
    // The online repair the audit runs cannot read the anchored image,
    // so the damage stays and the engine poisons.
    let store = Arc::new(FailImageRead::default());
    let s = setup_on("dcw", ProtectionScheme::DataCodeword, store.clone());
    wild_write(&s.db, s.db.record_addr(s.y).unwrap(), &[0xAA; 8]);
    store.arm();
    assert!(!s.db.audit().unwrap().clean());

    let (db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::CacheRecovery);
    assert_eq!(read_one(&db, s.y), val(2));
}

#[test]
fn checkpoint_certification_blocks_corrupt_checkpoint() {
    // As above, the online repair fails, so certification poisons.
    let store = Arc::new(FailImageRead::default());
    let s = setup_on("cert", ProtectionScheme::DataCodeword, store.clone());
    // New committed value, then corruption, then a checkpoint attempt.
    let txn = s.db.begin().unwrap();
    txn.update(s.x, &val(11)).unwrap();
    txn.commit().unwrap();
    wild_write(&s.db, s.db.record_addr(s.y).unwrap(), &[0xAA; 8]);
    store.arm();

    match s.db.checkpoint().unwrap() {
        CheckpointOutcome::CorruptionDetected(report) => assert!(!report.clean()),
        other => panic!("expected corruption, got {other:?}"),
    }
    // Recovery starts from the last *certified* checkpoint and replays
    // the committed update.
    let (db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::CacheRecovery);
    assert_eq!(read_one(&db, s.x), val(11), "post-ckpt commit survives");
    assert_eq!(read_one(&db, s.y), val(2), "corruption cleaned");
    assert!(db.audit().unwrap().clean());
}

#[test]
fn online_cache_repair_fixes_region_in_place() {
    let s = setup("online", ProtectionScheme::DataCodeword);
    let txn = s.db.begin().unwrap();
    txn.update(s.x, &val(9)).unwrap();
    txn.commit().unwrap();

    let addr = s.db.record_addr(s.x).unwrap();
    wild_write(&s.db, addr, &[0xEE; 32]);
    // Repair online, no restart.
    let replayed = s.db.cache_repair(&[(addr, 32)]).unwrap();
    assert!(replayed > 0);
    assert_eq!(read_one(&s.db, s.x), val(9));
    assert!(s.db.audit().unwrap().clean());
}

/// A transaction open across an online repair of its page keeps the
/// update it made before the repair: the log holds it, so the rebuild
/// does too. The transaction goes on and commits.
#[test]
fn online_cache_repair_keeps_active_transactions() {
    let s = setup("online2", ProtectionScheme::DataCodeword);
    let txn = s.db.begin().unwrap();
    txn.update(s.y, &val(77)).unwrap();

    let addr = s.db.record_addr(s.x).unwrap();
    let image = s.db.raw_image();
    let page = image.pages_overlapping(s.db.record_addr(s.y).unwrap(), REC);
    assert_eq!(
        image.pages_overlapping(addr, 8),
        page,
        "x and y share a page"
    );
    wild_write(&s.db, addr, &[0xEE; 8]);
    s.db.cache_repair(&[(addr, 8)]).unwrap();

    assert_eq!(txn.read_vec(s.y).unwrap(), val(77), "the update survived");
    assert_eq!(read_one(&s.db, s.x), val(1), "the damage is gone");
    txn.update(s.y, &val(88)).unwrap();
    txn.commit().unwrap();
    assert_eq!(read_one(&s.db, s.y), val(88));
    assert!(s.db.audit().unwrap().clean());
    assert_eq!(s.db.stats().aborts.load(Ordering::Relaxed), 0);

    drop(s.db);
    let (db, _) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(read_one(&db, s.x), val(1));
    assert_eq!(read_one(&db, s.y), val(88));
    assert!(db.audit().unwrap().clean());
}

/// A transaction open across an online repair can still abort: its
/// update, kept by the rebuild, is rolled back as any other.
#[test]
fn a_transaction_open_across_online_cache_repair_can_abort() {
    let s = setup("online3", ProtectionScheme::DataCodeword);
    let txn = s.db.begin().unwrap();
    txn.update(s.y, &val(77)).unwrap();

    let addr = s.db.record_addr(s.x).unwrap();
    wild_write(&s.db, addr, &[0xEE; 8]);
    s.db.cache_repair(&[(addr, 8)]).unwrap();
    txn.abort().unwrap();

    assert_eq!(read_one(&s.db, s.y), val(2));
    assert_eq!(read_one(&s.db, s.x), val(1));
    assert!(s.db.audit().unwrap().clean());
    assert_eq!(s.db.stats().aborts.load(Ordering::Relaxed), 1);

    drop(s.db);
    let (db, _) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(read_one(&db, s.y), val(2));
    assert!(db.audit().unwrap().clean());
}

/// Online repair replays only the repaired pages' share of each logged
/// write. The rest of a record that spans into a healthy page is live:
/// a later write of just that span (what a changed-span redo record
/// carries) must survive the repair.
#[test]
fn online_cache_repair_leaves_the_healthy_half_of_a_spanning_record_alone() {
    let dir = tmpdir("online-span");
    let config = DaliConfig::small(dir.path());
    let page = config.page_size;
    let (db, _) = DaliEngine::create(config).unwrap();
    // 100-byte records: some cross a page boundary.
    let t = db.create_table("t", 100, 128).unwrap();
    let txn = db.begin().unwrap();
    let recs: Vec<RecId> = (0..128u8)
        .map(|i| txn.insert(t, &[i; 100]).unwrap())
        .collect();
    txn.commit().unwrap();
    db.checkpoint().unwrap();
    let (rec, addr) = recs
        .iter()
        .map(|&r| (r, db.record_addr(r).unwrap()))
        .find(|(_, a)| a.0 / page != (a.0 + 99) / page)
        .unwrap();
    let boundary = (addr.0 / page + 1) * page;

    let txn = db.begin().unwrap();
    txn.update(rec, &[0xAA; 100]).unwrap();
    txn.commit().unwrap();
    // A later write of only the half past the boundary, logged and
    // applied.
    let tail = vec![0xBB; addr.0 + 100 - boundary];
    db.db().syslog.append(&LogRecord::PhysicalRedo {
        txn: TxnId(u64::MAX),
        op: OpSeq(0),
        addr: DbAddr(boundary),
        data: tail.clone(),
    });
    db.db().syslog.flush(false).unwrap();
    wild_write(&db, DbAddr(boundary), &tail);

    // Damage the half before the boundary and repair its page online.
    wild_write(&db, addr, &[0xEE; 8]);
    db.cache_repair(&[(addr, 8)]).unwrap();
    let mut expect = vec![0xAA; 100];
    expect[boundary - addr.0..].fill(0xBB);
    assert_eq!(read_one(&db, rec), expect);
}

#[test]
fn reads_before_last_clean_audit_are_not_tainted() {
    let s = setup("audit-window", ProtectionScheme::ReadLogging);

    // T2 reads X while it is still clean, writes Y, commits.
    let t2 = s.db.begin().unwrap();
    let t2_id = t2.id();
    let d = t2.read_vec(s.x).unwrap();
    t2.update(s.y, &d).unwrap();
    t2.commit().unwrap();

    // Clean audit *after* T2: Audit_SN moves past T2's records.
    assert!(s.db.audit().unwrap().clean());

    // Corruption arrives afterwards and is caught by the next audit.
    wild_write(&s.db, s.db.record_addr(s.x).unwrap(), &[0xEE; 16]);
    assert!(!s.db.audit().unwrap().clean());

    let (db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    assert!(
        !outcome.deleted_txns.contains(&t2_id),
        "read predates Audit_SN: {outcome:?}"
    );
    assert_eq!(read_one(&db, s.y), val(1), "T2's write survives");
}

#[test]
fn recovery_is_idempotent_across_crash_during_recovery() {
    // A crash between corruption detection and the completed recovery
    // checkpoint must simply rerun recovery (the marker is cleared only
    // after the mandatory checkpoint).
    let s = setup("idem", ProtectionScheme::ReadLogging);
    wild_write(&s.db, s.db.record_addr(s.x).unwrap(), &[0xEE; 16]);
    let t2 = s.db.begin().unwrap();
    let t2_id = t2.id();
    let d = t2.read_vec(s.x).unwrap();
    t2.update(s.y, &d).unwrap();
    t2.commit().unwrap();
    assert!(!s.db.audit().unwrap().clean());

    // First recovery completes; results must be stable if we recover
    // again after another crash.
    let (db, o1) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(o1.deleted_txns, vec![t2_id]);
    db.crash();
    let (db, o2) = DaliEngine::open(s.config.clone()).unwrap();
    assert_eq!(
        o2.mode,
        RecoveryMode::Normal,
        "marker cleared, normal restart"
    );
    assert!(o2.deleted_txns.is_empty());
    assert_eq!(read_one(&db, s.x), val(1));
    assert_eq!(read_one(&db, s.y), val(2));
}

#[test]
fn deleted_txn_ids_are_reported_for_manual_compensation() {
    // §4.1: "the identity of deleted transactions is then returned to the
    // user to allow manual compensation".
    let s = setup("report", ProtectionScheme::ReadLogging);
    wild_write(&s.db, s.db.record_addr(s.x).unwrap(), &[0xEE; 16]);
    let mut expect: Vec<TxnId> = Vec::new();
    for _ in 0..3 {
        let t = s.db.begin().unwrap();
        expect.push(t.id());
        let d = t.read_vec(s.x).unwrap();
        t.update(s.y, &d).unwrap();
        t.commit().unwrap();
    }
    assert!(!s.db.audit().unwrap().clean());
    let (_db, outcome) = DaliEngine::open(s.config.clone()).unwrap();
    let mut deleted = outcome.deleted_txns.clone();
    deleted.sort_unstable();
    expect.sort_unstable();
    assert_eq!(deleted, expect);
}
