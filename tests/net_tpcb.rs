//! Networked TPC-B integration: N concurrent client *connections*
//! hammering one server over loopback TCP must leave the database in
//! exactly the state the in-process contended driver leaves it in —
//! invariant intact, audit clean, every lock released — including under
//! forced mid-transaction disconnects.

use dali::net::{DaliClient, DaliServer, NetTpcbDriver};
use dali::{DaliConfig, DaliEngine, DaliError, ProtectionScheme, TpcbConfig, TpcbDriver};
use std::time::{Duration, Instant};

/// Engine sized for `cfg`, with sharded locks so the cross-shard unlock
/// sweep is exercised even on a single-CPU host.
fn server_engine(
    name: &str,
    cfg: &TpcbConfig,
    window: Option<Duration>,
) -> (DaliServer, dali_testutil::TempDir) {
    let dir = dali_testutil::TempDir::new(&format!("net-tpcb-{name}"));
    let mut c = DaliConfig::small(dir.path())
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_lock_shards(8);
    if let Some(w) = window {
        c = c.with_commit_window(w);
    }
    c.db_pages = cfg.required_pages(c.page_size);
    let (db, _) = DaliEngine::create(c).unwrap();
    let server = DaliServer::start(db, "127.0.0.1:0").unwrap();
    (server, dir)
}

/// Poll the server until `pred(stats)` holds or the deadline passes.
fn wait_for(addr: std::net::SocketAddr, pred: impl Fn(&dali::ServerStats) -> bool) {
    let mut client = DaliClient::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        if pred(&stats) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "server never reached expected state: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn networked_contended_tpcb_preserves_invariants() {
    let mut cfg = TpcbConfig::small();
    cfg.ops_per_txn = 5;
    let (server, _dir) = server_engine("contended", &cfg, None);
    let mut driver = NetTpcbDriver::setup(server.addr(), cfg.clone()).unwrap();

    let stats = driver.run_clients(4, 400).unwrap();
    assert_eq!(stats.ops, 400);
    assert_eq!(stats.clients, 4);
    driver.verify_invariant().unwrap();

    // Same checks the in-process contended test makes, through the wire.
    let mut client = DaliClient::connect(server.addr()).unwrap();
    let history = client.table("history").unwrap();
    assert_eq!(client.record_count(history).unwrap(), 400);
    let (clean, regions) = client.audit().unwrap();
    assert!(clean, "audit found corruption after a networked run");
    assert!(regions > 0);
    // Quiesced: every lock was released.
    assert_eq!(server.engine().db().locks.locked_records(), 0);
}

#[test]
fn networked_run_matches_in_process_run() {
    // The networked driver shares the in-process driver's per-worker RNG
    // streams, so the same (seed, workers, n_ops) triple must land on the
    // same balance sums whether the operations arrive by function call or
    // by TCP frame.
    let mut cfg = TpcbConfig::small();
    cfg.ops_per_txn = 5;

    let (server, _dir) = server_engine("match-net", &cfg, None);
    let mut net = NetTpcbDriver::setup(server.addr(), cfg.clone()).unwrap();
    net.run_clients(3, 300).unwrap();
    let net_sum = net.verify_invariant().unwrap();

    let dir = dali_testutil::TempDir::new("net-tpcb-match-local");
    let mut c = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    c.db_pages = cfg.required_pages(c.page_size);
    let (db, _) = DaliEngine::create(c).unwrap();
    let mut local = TpcbDriver::setup(&db, cfg).unwrap();
    local.run_concurrent_contended(3, 300).unwrap();
    assert_eq!(net_sum, local.verify_invariant().unwrap());
}

#[test]
fn disconnect_mid_transaction_rolls_back_and_releases_locks() {
    let cfg = TpcbConfig::small();
    let (server, _dir) = server_engine("orphan", &cfg, None);
    let driver = NetTpcbDriver::setup(server.addr(), cfg.clone()).unwrap();
    let before = driver.verify_invariant().unwrap();

    // A client locks and dirties an account, then vanishes pre-commit.
    let mut victim = DaliClient::connect(server.addr()).unwrap();
    let accounts = victim.table("account").unwrap();
    let rec = dali::RecId::new(accounts, dali::SlotId(7));
    victim.begin().unwrap();
    victim.lock_exclusive(rec).unwrap();
    let original = victim.read(rec).unwrap();
    let mut dirty = original.clone();
    dirty[..8].copy_from_slice(&u64::MAX.to_le_bytes());
    victim.update(rec, &dirty).unwrap();
    victim.drop_connection();

    wait_for(server.addr(), |s| s.orphans_rolled_back >= 1);

    // The orphan's level-by-level rollback restored the record and
    // released its exclusive lock — a fresh transaction can take it
    // immediately and sees the pre-disconnect image.
    let mut check = DaliClient::connect(server.addr()).unwrap();
    check.begin().unwrap();
    check.lock_exclusive(rec).unwrap();
    assert_eq!(check.read(rec).unwrap(), original);
    check.commit().unwrap();
    assert_eq!(server.engine().db().locks.locked_records(), 0);
    assert_eq!(driver.verify_invariant().unwrap(), before);
}

#[test]
fn forced_disconnects_during_contended_run_leave_invariants_intact() {
    let mut cfg = TpcbConfig::small();
    cfg.ops_per_txn = 5;
    let (server, _dir) = server_engine("crashy", &cfg, None);
    let mut driver = NetTpcbDriver::setup(server.addr(), cfg.clone()).unwrap();
    let addr = server.addr();

    const CRASHES: u64 = 8;
    std::thread::scope(|s| {
        // A saboteur repeatedly opens a transaction, dirties rows, and
        // drops the connection mid-flight while the real run proceeds.
        s.spawn(|| {
            for i in 0..CRASHES {
                let mut c = DaliClient::connect(addr).unwrap();
                let accounts = c.table("account").unwrap();
                let rec = dali::RecId::new(accounts, dali::SlotId((i * 13 % 100) as u32));
                c.begin().unwrap();
                // Lock conflicts with the workers are expected; only a
                // clean lock grant leads to a dirty orphan.
                match c.lock_exclusive(rec) {
                    Ok(()) => {
                        let mut data = c.read(rec).unwrap();
                        data[..8].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
                        c.update(rec, &data).unwrap();
                    }
                    Err(DaliError::LockDenied { .. }) => {}
                    Err(e) => panic!("saboteur: {e}"),
                }
                c.drop_connection();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        driver.run_clients(3, 300).unwrap();
    });

    // Every saboteur connection left an open transaction behind.
    wait_for(addr, |s| s.orphans_rolled_back >= CRASHES);
    driver.verify_invariant().unwrap();
    let mut client = DaliClient::connect(addr).unwrap();
    let (clean, _) = client.audit().unwrap();
    assert!(clean, "audit found corruption after forced disconnects");
    let history = client.table("history").unwrap();
    assert_eq!(client.record_count(history).unwrap(), 300);
    assert_eq!(server.engine().db().locks.locked_records(), 0);
}

#[test]
fn group_commit_shares_fsyncs_across_connections() {
    let mut cfg = TpcbConfig::small();
    cfg.ops_per_txn = 2; // commit-heavy: the group-commit regime
    let (server, _dir) = server_engine("group", &cfg, Some(Duration::from_millis(2)));
    let mut driver = NetTpcbDriver::setup(server.addr(), cfg.clone()).unwrap();

    let mut client = DaliClient::connect(server.addr()).unwrap();
    let base = client.stats().unwrap();
    driver.run_clients(4, 160).unwrap();
    let stats = client.stats().unwrap();

    let durable = stats.durable_commits - base.durable_commits;
    let fsyncs = stats.fsyncs - base.fsyncs;
    assert!(
        durable >= 80,
        "expected >= 80 durable commits, got {durable}"
    );
    // What holds on every schedule: a windowed commit never costs more
    // than one fsync of its own. *How many* commits one fsync serves
    // depends on which connections the scheduler runs together, so that
    // is asserted where the interleaving can be forced: dali-wal's
    // `one_fsync_serves_every_commit_appended_before_it`.
    assert!(
        fsyncs <= durable,
        "more fsyncs than commits: {fsyncs} fsyncs for {durable} commits"
    );
    driver.verify_invariant().unwrap();
    let (clean, _) = client.audit().unwrap();
    assert!(clean, "audit found corruption after a group-commit run");
}

#[test]
fn session_protocol_misuse_is_rejected_structurally() {
    let cfg = TpcbConfig::small();
    let (server, _dir) = server_engine("misuse", &cfg, None);
    let mut c = DaliClient::connect(server.addr()).unwrap();
    c.create_table("t", 8, 64).unwrap();
    let t = c.table("t").unwrap();

    // Data verb without a transaction.
    assert!(matches!(
        c.insert(t, &[0u8; 8]),
        Err(DaliError::InvalidArg(ref s)) if s.contains("no transaction")
    ));
    // Commit without a transaction.
    assert!(matches!(
        c.commit(),
        Err(DaliError::InvalidArg(ref s)) if s.contains("no transaction")
    ));
    // Double begin.
    c.begin().unwrap();
    assert!(matches!(
        c.begin(),
        Err(DaliError::InvalidArg(ref s)) if s.contains("already open")
    ));
    // The session survives all of that and keeps working.
    let rec = c.insert(t, &[7u8; 8]).unwrap();
    c.commit().unwrap();
    c.begin().unwrap();
    assert_eq!(c.read(rec).unwrap(), vec![7u8; 8]);
    c.commit().unwrap();

    // Unknown table is a structured NotFound, not a dropped connection.
    assert!(matches!(c.table("absent"), Err(DaliError::NotFound(_))));
    c.ping().unwrap();
}
