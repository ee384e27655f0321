//! TPC-B under fire: inject corruption into a live workload, recover,
//! and check global consistency.
//!
//! The TPC-B invariant (sum of account balances == sum of teller balances
//! == sum of branch balances) must hold after delete-transaction
//! recovery: every deleted transaction had its updates to *all four*
//! tables removed atomically, so the sums stay aligned no matter which
//! transactions were deleted.

use dali::{
    DaliConfig, DaliEngine, FaultInjector, ProtectionScheme, RecoveryMode, TpcbConfig, TpcbDriver,
};

fn tmpdir(name: &str) -> dali_testutil::TempDir {
    dali_testutil::TempDir::new(&format!("tpcbcorr-{name}"))
}

fn build(
    name: &str,
    scheme: ProtectionScheme,
) -> (DaliConfig, DaliEngine, TpcbDriver, dali_testutil::TempDir) {
    let wl = TpcbConfig::small();
    let dir = tmpdir(name);
    let mut config = DaliConfig::small(dir.path()).with_scheme(scheme);
    config.db_pages = wl.required_pages(config.page_size);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let driver = TpcbDriver::setup(&db, wl).unwrap();
    (config, db, driver, dir)
}

#[test]
fn invariant_holds_after_delete_txn_recovery() {
    let (config, db, mut driver, _dir) = build("inv", ProtectionScheme::ReadLogging);
    driver.run_ops(300).unwrap();
    db.checkpoint().unwrap();
    driver.run_ops(100).unwrap();

    // Corrupt a random account, let the workload carry it around.
    let victim = driver.random_account();
    let inj = FaultInjector::new(&db);
    inj.wild_write_noise(db.record_addr(victim).unwrap().add(8), 8)
        .unwrap();
    driver.run_ops(100).unwrap();

    assert!(!db.audit().unwrap().clean());
    let (db, outcome) = DaliEngine::open(config.clone()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::DeleteTxn);
    // The workload touched the victim with high probability; whether or
    // not transactions were deleted, the invariant must hold.
    let driver = TpcbDriver::attach(&db, TpcbConfig::small()).unwrap();
    driver.verify_invariant().unwrap();
    assert!(db.audit().unwrap().clean());
}

#[test]
fn invariant_holds_after_cw_recovery_from_plain_crash() {
    let (config, db, mut driver, _dir) = build("cw", ProtectionScheme::CwReadLogging);
    driver.run_ops(200).unwrap();
    db.checkpoint().unwrap();

    let victim = driver.random_account();
    let inj = FaultInjector::new(&db);
    inj.wild_write_noise(db.record_addr(victim).unwrap().add(8), 8)
        .unwrap();
    driver.run_ops(100).unwrap();
    db.crash(); // no audit ever saw it

    let (db, outcome) = DaliEngine::open(config).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::DeleteTxn);
    let driver = TpcbDriver::attach(&db, TpcbConfig::small()).unwrap();
    driver.verify_invariant().unwrap();
    assert!(db.audit().unwrap().clean());
}

#[test]
fn repeated_corruption_recovery_cycles() {
    let wl = TpcbConfig::small();
    let dir = tmpdir("cycles");
    let mut config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::ReadLogging);
    config.db_pages = wl.required_pages(config.page_size);
    let (mut db, _) = DaliEngine::create(config.clone()).unwrap();
    let mut driver = TpcbDriver::setup(&db, wl.clone()).unwrap();
    driver.run_ops(100).unwrap();
    db.checkpoint().unwrap();

    for round in 0..3 {
        let mut d = TpcbDriver::attach(&db, wl.clone()).unwrap();
        d.run_ops(60).unwrap();
        let victim = d.random_account();
        FaultInjector::new(&db)
            .wild_write(db.record_addr(victim).unwrap().add(16), 0xA0 + round, 4)
            .unwrap();
        d.run_ops(30).unwrap();
        assert!(!db.audit().unwrap().clean(), "round {round}");
        let (ndb, outcome) = DaliEngine::open(config.clone()).unwrap();
        assert_eq!(outcome.mode, RecoveryMode::DeleteTxn, "round {round}");
        db = ndb;
        let d = TpcbDriver::attach(&db, wl.clone()).unwrap();
        d.verify_invariant()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}

/// Checkpoint certification striped across 4 audit workers must still
/// find a wild write — and report exactly what a serial certification
/// pass reports. The detection resolves into an online repair
/// (`CorruptionRepaired`), which carries the certification report; the
/// serial reference report comes from a second engine running the
/// identical scenario.
#[test]
fn parallel_certification_detects_corruption() {
    let run = |name: &str, audit_threads: usize| {
        let wl = TpcbConfig::small();
        let dir = tmpdir(name);
        let mut config = DaliConfig::small(dir.path())
            .with_scheme(ProtectionScheme::DataCodeword)
            .with_audit_threads(audit_threads);
        config.db_pages = wl.required_pages(config.page_size);
        let (db, _) = DaliEngine::create(config).unwrap();
        let mut driver = TpcbDriver::setup(&db, wl).unwrap();
        driver.run_ops(100).unwrap();
        // Deterministic victim so both engines corrupt the same record.
        let victim = driver.account(7);
        FaultInjector::new(&db)
            .wild_write(db.record_addr(victim).unwrap().add(8), 0xEE, 4)
            .unwrap();
        match db.checkpoint().unwrap() {
            dali::CheckpointOutcome::CorruptionRepaired { report, outcome } => {
                assert_eq!(outcome.regions, 1, "one region repaired");
                report
            }
            other => panic!("certification must detect the fault: {other:?}"),
        }
    };
    let parallel = run("parcert-4", 4);
    let serial = run("parcert-1", 1);
    assert!(!parallel.clean());
    assert_eq!(parallel.regions_checked, serial.regions_checked);
    assert_eq!(
        parallel.corrupt.len(),
        serial.corrupt.len(),
        "audit workers must find the same corrupt regions"
    );
    for (p, s) in parallel.corrupt.iter().zip(&serial.corrupt) {
        assert_eq!(p.region, s.region);
        assert_eq!(p.addr, s.addr);
        assert_eq!(p.len, s.len);
    }
}

#[test]
fn mprotect_scheme_blocks_campaign_and_workload_continues() {
    let (_config, db, mut driver, _dir) = build("mp", ProtectionScheme::MemoryProtection);
    driver.run_ops(100).unwrap();

    let inj = FaultInjector::new(&db);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let report = dali::faultinject::random_campaign(&inj, &mut rng, 100, 16).unwrap();
    assert_eq!(
        report.trapped, 100,
        "all writes trapped outside update windows"
    );

    driver.run_ops(100).unwrap();
    driver.verify_invariant().unwrap();
}

#[test]
fn baseline_campaign_corrupts_silently_then_readlog_would_have_caught_it() {
    // Contrast experiment: identical campaign against Baseline (lands,
    // goes unnoticed) and against ReadLogging (detected at checkpoint).
    let (_c1, db1, mut d1, _dir1) = build("contrast-base", ProtectionScheme::Baseline);
    d1.run_ops(50).unwrap();
    let v = d1.random_account();
    FaultInjector::new(&db1)
        .wild_write(db1.record_addr(v).unwrap().add(8), 0xEE, 4)
        .unwrap();
    // Baseline checkpoint certifies blindly — corruption persists.
    db1.checkpoint().unwrap();
    assert!(db1.audit().unwrap().clean(), "baseline audit sees nothing");
    // The invariant is now silently broken (the corrupted balance).
    let err = d1.verify_invariant();
    assert!(
        err.is_err(),
        "corruption went undetected and broke the books"
    );

    let (c2, db2, mut d2, _dir2) = build("contrast-rl", ProtectionScheme::ReadLogging);
    d2.run_ops(50).unwrap();
    // A periodic audit runs clean here; without it, recovery's Audit_SN
    // would predate population and conservatively delete the population
    // transactions themselves (corruption could have happened any time
    // after the last clean audit).
    assert!(db2.audit().unwrap().clean());
    let v = d2.random_account();
    FaultInjector::new(&db2)
        .wild_write(db2.record_addr(v).unwrap().add(8), 0xEE, 4)
        .unwrap();
    match db2.checkpoint().unwrap() {
        dali::CheckpointOutcome::CorruptionDetected(_) => {}
        other => panic!("certification must fail: {other:?}"),
    }
    let (db2, _) = DaliEngine::open(c2).unwrap();
    let d2 = TpcbDriver::attach(&db2, TpcbConfig::small()).unwrap();
    d2.verify_invariant().unwrap();
}
