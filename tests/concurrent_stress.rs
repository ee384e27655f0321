//! Concurrency stress: TPC-B updaters, ad-hoc readers and a background
//! audit loop all running against one engine.
//!
//! The schemes' concurrency contracts (§3: shared latches for plain
//! codeword maintenance, exclusive for prechecked reads) must hold up
//! under real contention: no deadlock, no spurious corruption report
//! from an audit racing an update bracket, and the TPC-B invariant
//! intact at the end.

use dali::{
    DaliConfig, DaliEngine, DaliError, EngineSession, ProtectionScheme, RecId, SlotId, TpcbConfig,
    TpcbDriver,
};
use std::sync::atomic::{AtomicBool, Ordering};

const THREADS: usize = 4;

/// One in-process session per updater thread.
fn sessions(db: &DaliEngine) -> Vec<EngineSession> {
    (0..THREADS).map(|_| EngineSession::new(db)).collect()
}
const OPS: usize = 4_000;

fn stress(scheme: ProtectionScheme, audit_threads: usize) {
    let cfg = TpcbConfig::small();
    let dir = dali_testutil::TempDir::new(&format!("stress-{scheme:?}-{audit_threads}"));
    let mut config = DaliConfig::small(dir.path())
        .with_scheme(scheme)
        .with_audit_threads(audit_threads);
    config.db_pages = cfg.required_pages(config.page_size);
    let (db, _) = DaliEngine::create(config).unwrap();
    let mut driver = TpcbDriver::setup(&db, cfg.clone()).unwrap();

    let stop = AtomicBool::new(false);
    let (accounts, _, _, _) = driver.tables();
    let audits_done = std::thread::scope(|s| {
        // Background audit loop: a full-database codeword sweep racing
        // the updaters. Any unclean report here is a false positive —
        // nothing in this test corrupts memory.
        let auditor = s.spawn(|| {
            let mut audits = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let report = db.audit().unwrap();
                assert!(
                    report.clean(),
                    "{scheme:?}: audit #{audits} reported corruption in an uncorrupted \
                     database: {report:?}"
                );
                audits += 1;
            }
            audits
        });

        // Ad-hoc reader: scans random accounts outside the workers'
        // partition discipline, so it genuinely conflicts with updater
        // locks (and, under ReadPrecheck, their exclusive latches).
        s.spawn(|| {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin().unwrap();
                let mut res = Ok(Vec::new());
                for k in 0..8 {
                    let rec =
                        RecId::new(accounts, SlotId(((i * 37 + k * 131) % cfg.accounts) as u32));
                    res = txn.read_vec(rec);
                    if res.is_err() {
                        break;
                    }
                }
                match res {
                    Ok(_) => txn.commit().unwrap(),
                    // Lock conflicts with updaters are expected; anything
                    // else (CorruptionDetected!) is a real failure.
                    Err(DaliError::LockDenied { .. }) => txn.abort().unwrap(),
                    Err(e) => panic!("{scheme:?}: reader failed: {e}"),
                }
                i += 1;
            }
        });

        let stats = driver.run_sessions(sessions(&db), false, OPS).unwrap();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(stats.ops, OPS);
        auditor.join().unwrap()
    });

    assert!(audits_done >= 1, "audit loop never completed a sweep");
    driver.verify_invariant().unwrap();
    assert!(db.audit().unwrap().clean());
}

#[test]
fn stress_data_codeword() {
    stress(ProtectionScheme::DataCodeword, 1);
}

#[test]
fn stress_read_precheck() {
    stress(ProtectionScheme::ReadPrecheck, 1);
}

/// The audit loop runs *striped across 4 worker threads* while the TPC-B
/// updaters and the ad-hoc reader hammer the same regions. Each stripe
/// worker still takes every region's latch individually, so the
/// no-false-positive guarantee must be unchanged — a corruption report
/// here means the parallel scan broke the latch-then-check protocol.
#[test]
fn stress_data_codeword_parallel_audit() {
    stress(ProtectionScheme::DataCodeword, 4);
}

#[test]
fn stress_read_precheck_parallel_audit() {
    stress(ProtectionScheme::ReadPrecheck, 4);
}

/// Contended variant: workers draw from *overlapping* row ranges, so
/// they conflict — and deadlock — with each other constantly, on top of
/// the audit loop and an ad-hoc reader. Deadlock victims abort and
/// retry; the run must still end with the TPC-B invariant intact, a
/// clean audit, and an empty lock table (no lost unlocks across the
/// sharded release sweep).
fn stress_contended(scheme: ProtectionScheme, shards: usize) {
    const OPS: usize = 2_000;
    let mut cfg = TpcbConfig::small();
    cfg.ops_per_txn = 5;
    let dir = dali_testutil::TempDir::new(&format!("stress-contended-{scheme:?}-{shards}"));
    let mut config = DaliConfig::small(dir.path())
        .with_scheme(scheme)
        .with_lock_shards(shards);
    config.deadlock_detect_interval = Some(std::time::Duration::from_millis(1));
    config.db_pages = cfg.required_pages(config.page_size);
    let (db, _) = DaliEngine::create(config).unwrap();
    let mut driver = TpcbDriver::setup(&db, cfg.clone()).unwrap();

    let stop = AtomicBool::new(false);
    let (accounts, _, _, _) = driver.tables();
    let audits_done = std::thread::scope(|s| {
        let auditor = s.spawn(|| {
            let mut audits = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let report = db.audit().unwrap();
                assert!(
                    report.clean(),
                    "{scheme:?}: audit #{audits} reported corruption in an uncorrupted \
                     database: {report:?}"
                );
                audits += 1;
            }
            audits
        });

        s.spawn(|| {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin().unwrap();
                let mut res = Ok(Vec::new());
                for k in 0..8 {
                    let rec =
                        RecId::new(accounts, SlotId(((i * 37 + k * 131) % cfg.accounts) as u32));
                    res = txn.read_vec(rec);
                    if res.is_err() {
                        break;
                    }
                }
                match res {
                    Ok(_) => txn.commit().unwrap(),
                    Err(DaliError::LockDenied { .. }) => txn.abort().unwrap(),
                    Err(e) => panic!("{scheme:?}: reader failed: {e}"),
                }
                i += 1;
            }
        });

        let stats = driver.run_sessions(sessions(&db), true, OPS).unwrap();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(stats.ops, OPS);
        auditor.join().unwrap()
    });

    assert!(audits_done >= 1, "audit loop never completed a sweep");
    driver.verify_invariant().unwrap();
    assert!(db.audit().unwrap().clean());
    // Quiesced: every transaction committed or aborted, so a lock left
    // behind would be a lost unlock in the sharded release sweep.
    assert_eq!(
        db.db().locks.locked_records(),
        0,
        "locks leaked after quiesce"
    );
}

#[test]
fn stress_contended_data_codeword_sharded() {
    stress_contended(ProtectionScheme::DataCodeword, 8);
}

#[test]
fn stress_contended_read_precheck_sharded() {
    stress_contended(ProtectionScheme::ReadPrecheck, 8);
}

/// Single-shard contended run: the pre-sharding configuration must stay
/// correct under the same deadlock-heavy load (only slower).
#[test]
fn stress_contended_data_codeword_single_shard() {
    stress_contended(ProtectionScheme::DataCodeword, 1);
}

/// Updaters commit and abort while a checkpoint loop runs, then the
/// process dies and the database reopens. A checkpoint's ATT holds only
/// transactions the log has not ended, so every acknowledged commit
/// survives the restart and no aborted value comes back; the audit is
/// clean.
#[test]
fn stress_checkpoints_beside_commits_and_aborts_then_restart() {
    const TXNS: usize = 150;
    const REC: usize = 32;
    let dir = dali_testutil::TempDir::new("stress-ckpt-restart");
    let mut config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    config.sync_commit = true;
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", REC, THREADS).unwrap();
    let setup = db.begin().unwrap();
    let recs: Vec<RecId> = (0..THREADS)
        .map(|_| setup.insert(t, &[0; REC]).unwrap())
        .collect();
    setup.commit().unwrap();

    // A value names its thread, its transaction and whether it commits.
    let value = |thread: usize, i: usize, commits: bool| {
        let mut v = [u8::from(commits); REC];
        v[..8].copy_from_slice(&((thread * TXNS + i) as u64).to_le_bytes());
        v
    };
    let stop = AtomicBool::new(false);
    let acked = std::thread::scope(|s| {
        let checkpointer = s.spawn(|| {
            let mut checkpoints = 0usize;
            while !stop.load(Ordering::Relaxed) {
                db.checkpoint().unwrap();
                checkpoints += 1;
            }
            checkpoints
        });
        let updaters: Vec<_> = (recs.iter().enumerate())
            .map(|(thread, &rec)| {
                let db = &db;
                s.spawn(move || {
                    let mut acked = [0; REC];
                    for i in 0..TXNS {
                        let commits = (i * 7 + thread) % 3 != 0;
                        let txn = db.begin().unwrap();
                        txn.update(rec, &value(thread, i, commits)).unwrap();
                        if commits {
                            txn.commit().unwrap();
                            acked = value(thread, i, true);
                        } else {
                            txn.abort().unwrap();
                        }
                    }
                    acked
                })
            })
            .collect();
        let acked: Vec<_> = updaters.into_iter().map(|u| u.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        assert!(checkpointer.join().unwrap() >= 1);
        acked
    });
    db.crash();

    let (db, outcome) = DaliEngine::open(config).unwrap();
    assert!(
        outcome.rolled_back_txns.is_empty(),
        "rolled back {:?}",
        outcome.rolled_back_txns
    );
    let check = db.begin().unwrap();
    for (thread, (rec, acked)) in recs.iter().zip(&acked).enumerate() {
        assert_eq!(check.read_vec(*rec).unwrap(), acked, "thread {thread}");
    }
    check.commit().unwrap();
    assert!(db.audit().unwrap().clean());
}
