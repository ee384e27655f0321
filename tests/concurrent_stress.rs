//! Concurrency stress: TPC-B updaters, ad-hoc readers and a background
//! audit loop all running against one engine.
//!
//! The schemes' concurrency contracts (§3: shared latches for plain
//! codeword maintenance, exclusive for prechecked reads) must hold up
//! under real contention: no deadlock, no spurious corruption report
//! from an audit racing an update bracket, and the TPC-B invariant
//! intact at the end. After every scenario, with the engine quiesced,
//! each parity group equals the XOR of its members and verifies — the
//! stripe is maintained eagerly inside every update bracket, including
//! the rollbacks of deadlock victims.

use dali::{
    DaliConfig, DaliEngine, DaliError, ProtectionScheme, RecId, SlotId, TpcbConfig, TpcbDriver,
};
use std::sync::atomic::{AtomicBool, Ordering};

#[path = "support/parity.rs"]
mod parity;

/// Every parity group of the quiesced engine's stripe is exact.
fn assert_parity_exact(db: &DaliEngine, ctx: &str) {
    let db = db.db();
    if let Err(e) = parity::stripe_exact(&db.image, &db.prot) {
        panic!("{ctx}: {e}");
    }
}

const THREADS: usize = 4;
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

        let stats = driver.run_concurrent(THREADS, OPS).unwrap();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(stats.ops, OPS);
        auditor.join().unwrap()
    });

    assert!(audits_done >= 1, "audit loop never completed a sweep");
    driver.verify_invariant().unwrap();
    assert!(db.audit().unwrap().clean());
    assert_parity_exact(&db, &format!("{scheme:?}"));
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

        let stats = driver.run_concurrent_contended(THREADS, OPS).unwrap();
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
    assert_parity_exact(&db, &format!("contended {scheme:?}"));
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

/// Deferred-maintenance under the full mixed workload: TPC-B writers
/// queueing coalesced deltas, the background drainer applying them every
/// millisecond, an ad-hoc reader, and an audit loop racing all of it.
/// Every audit must come back clean — the incremental latch-then-drain
/// catch-up replaced the global quiesce, so a false corruption report
/// here means a delta was visible in the image but missed by the audit's
/// shard drain. After quiesce the dirty set must be empty and the
/// drainer must actually have run.
fn stress_deferred(
    shards: usize,
    drain_interval: Option<std::time::Duration>,
    watermark: usize,
    audit_threads: usize,
) {
    let cfg = TpcbConfig::small();
    let dir = dali_testutil::TempDir::new(&format!("stress-deferred-{shards}-{audit_threads}"));
    let mut config = DaliConfig::small(dir.path())
        .with_scheme(ProtectionScheme::DeferredMaintenance)
        .with_deferred_shards(shards)
        .with_deferred_drain_interval(drain_interval)
        .with_deferred_watermark(watermark)
        .with_audit_threads(audit_threads);
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
                    "deferred ({shards} shards): audit #{audits} reported corruption in an \
                     uncorrupted database: {report:?}"
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
                    Err(e) => panic!("deferred: reader failed: {e}"),
                }
                i += 1;
            }
        });

        let stats = driver.run_concurrent(THREADS, OPS).unwrap();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(stats.ops, OPS);
        auditor.join().unwrap()
    });

    assert!(audits_done >= 1, "audit loop never completed a sweep");
    driver.verify_invariant().unwrap();
    assert!(db.audit().unwrap().clean());
    // Quiesced and fully audited: every queued delta has been applied.
    let deferred = db.deferred_stats();
    assert_eq!(
        deferred.pending_deltas, 0,
        "deltas left queued: {deferred:?}"
    );
    assert_eq!(
        deferred.dirty_regions, 0,
        "regions left dirty: {deferred:?}"
    );
    assert!(deferred.drains > 0, "no drain ever ran: {deferred:?}");
    assert_eq!(deferred.shards, shards as u64);
    assert_parity_exact(&db, &format!("deferred ({shards} shards)"));
}

#[test]
fn stress_deferred_sharded_with_background_drainer() {
    stress_deferred(8, Some(std::time::Duration::from_millis(1)), 4096, 1);
}

/// No background drainer and a tiny watermark: catch-up rides entirely
/// on audit drains and inline backpressure drains.
#[test]
fn stress_deferred_watermark_only() {
    stress_deferred(4, None, 16, 1);
}

/// The hardest combination: concurrent TPC-B updaters queueing deferred
/// deltas, the background drainer applying them, an ad-hoc reader, and a
/// *4-way-striped* audit loop doing the latch-then-drain-shard catch-up
/// from four threads at once. Every audit must stay clean and the dirty
/// set must still be empty at quiesce — stripe workers draining shards
/// concurrently with each other, the drainer, and watermark pushers must
/// never lose or double-apply a delta.
#[test]
fn stress_deferred_parallel_audit() {
    stress_deferred(8, Some(std::time::Duration::from_millis(1)), 4096, 4);
}
