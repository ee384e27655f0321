//! The `Repair` admin verb over the wire: a loopback client corrupts a
//! region (through the in-process fault injector — the network cannot
//! write wild bytes, only ask for repairs) and heals it remotely.
//!
//! The repair rebuilds the region's page from the certified checkpoint
//! plus the log, so a write committed after the checkpoint survives it.
//! The server stays up, the record reads back through the same
//! connection, the post-repair audit is clean, and the repair counters
//! of the `Stats` verb move.

use dali::net::{DaliClient, DaliServer};
use dali::{CheckpointOutcome, DaliConfig, DaliEngine, FaultInjector, ProtectionScheme};

const REC: usize = 64;
const PAYLOAD: [u8; REC] = {
    let mut p = [0u8; REC];
    let mut i = 0;
    while i < REC {
        p[i] = (i as u8).wrapping_mul(7).wrapping_add(3);
        i += 1;
    }
    p
};

fn start_server(name: &str) -> (DaliServer, dali_testutil::TempDir) {
    let dir = dali_testutil::TempDir::new(name);
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (engine, _) = DaliEngine::create(config).unwrap();
    let server = DaliServer::start(engine, "127.0.0.1:0").unwrap();
    (server, dir)
}

#[test]
fn single_region_corruption_repairs_in_place_over_the_wire() {
    let (server, _dir) = start_server("net-repair-single");
    let mut client = DaliClient::connect(server.addr()).unwrap();

    let table = client.create_table("t", REC, 32).unwrap();
    client.begin().unwrap();
    let rec = client.insert(table, &[0x11; REC]).unwrap();
    client.commit().unwrap();
    match server.engine().checkpoint().unwrap() {
        CheckpointOutcome::Certified { .. } => {}
        other => panic!("clean database must certify, got {other:?}"),
    }
    // Committed after the checkpoint: only the log holds it.
    client.begin().unwrap();
    client.update(rec, &PAYLOAD).unwrap();
    client.commit().unwrap();

    // Wild write through the in-process injector: flip a bit in the
    // record's region, behind the codeword's back.
    let addr = server.engine().record_addr(rec).unwrap();
    let region = server.engine().db().prot.geometry().region_of(addr);
    let inj = FaultInjector::new(server.engine());
    let mut window = vec![0u8; REC];
    server.engine().db().image.read(addr, &mut window).unwrap();
    let mut corrupt = window.clone();
    corrupt[0] ^= 0x08;
    assert!(inj.wild_write_bytes(addr, &corrupt).unwrap().landed());

    // Heal it remotely.
    let summary = client.repair(region as u64).unwrap();
    assert_eq!(summary.regions, 1);
    assert_eq!(
        summary.bytes_written,
        server.engine().config().page_size as u64
    );
    assert!(summary.records_replayed >= 1, "{summary:?}");

    // The same connection sees the healed record and a clean audit.
    client.begin().unwrap();
    assert_eq!(client.read(rec).unwrap(), PAYLOAD);
    client.commit().unwrap();
    let (clean, regions) = client.audit().unwrap();
    assert!(clean, "post-repair audit must be clean");
    assert!(regions > 0);

    let stats = client.stats().unwrap();
    assert_eq!(stats.repair_attempted, 1);
    assert_eq!(stats.repair_succeeded, 1);
    assert_eq!(stats.repair_bytes_rebuilt, summary.bytes_written);
}
