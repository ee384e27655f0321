//! Event-server behaviors beyond the wire protocol: admission control
//! at the connection cap, and the `Health`/`Metrics`/`Stats` admin verbs.

use dali::net::{DaliClient, DaliServer, Request, Response};
use dali::{DaliConfig, DaliEngine, DaliError, ProtectionScheme};
use std::time::{Duration, Instant};

fn server_with(
    name: &str,
    tweak: impl FnOnce(DaliConfig) -> DaliConfig,
) -> (DaliServer, dali_testutil::TempDir) {
    let dir = dali_testutil::TempDir::new(name);
    let config = tweak(DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword));
    let (engine, _) = DaliEngine::create(config).unwrap();
    let server = DaliServer::start(engine, "127.0.0.1:0").unwrap();
    (server, dir)
}

/// At `net_max_conns` the listener pauses; connections beyond the cap
/// wait in the kernel backlog. When a slot frees, the backlog drains:
/// the first waiter is admitted, and — with the cap full again — the
/// next is rejected with a structured error and counted.
#[test]
fn connection_cap_pauses_accepts_then_rejects_overflow() {
    let (server, _dir) = server_with("net-admission", |c| c.with_net_max_conns(1));

    // c1 takes the only slot (ping proves it is served, not queued).
    let mut c1 = DaliClient::connect(server.addr()).unwrap();
    c1.ping().unwrap();

    // c2 and c3 connect at the TCP level (kernel backlog) but are not
    // admitted: the listener is parked at the cap.
    let mut c2 = DaliClient::connect(server.addr()).unwrap();
    let mut c3 = DaliClient::connect(server.addr()).unwrap();

    // Free the slot: the backlog drains in order — c2 admitted (cap
    // full again), c3 rejected with OutOfSpace and counted.
    c1.drop_connection();
    c2.ping().unwrap();
    match c3.ping() {
        Ok(()) => panic!("third connection served past a cap of 1"),
        Err(DaliError::OutOfSpace(msg)) => {
            assert!(
                msg.contains("connection limit"),
                "unexpected message: {msg}"
            )
        }
        // The rejection frame is best-effort; the close may win the race.
        Err(DaliError::ConnectionClosed) => {}
        Err(other) => panic!("expected OutOfSpace or ConnectionClosed, got {other:?}"),
    }

    let stats = c2.stats().unwrap();
    assert_eq!(stats.conns_rejected, 1, "exactly one rejection counted");
    assert_eq!(stats.sessions, 1, "one admitted session at the cap");
    server.shutdown();
}

#[test]
fn health_probe_reports_liveness_and_load() {
    let (server, _dir) = server_with("net-health", |c| c);
    let mut client = DaliClient::connect(server.addr()).unwrap();
    let h = client.health().unwrap();
    assert!(h.healthy, "fresh server must report healthy");
    assert!(h.conns_open >= 1, "the probing connection is open");
    assert!(h.uptime_ns > 0);
    server.shutdown();
}

#[test]
fn metrics_report_per_verb_latency_histograms() {
    let (server, _dir) = server_with("net-metrics", |c| c);
    let mut client = DaliClient::connect(server.addr()).unwrap();
    let table = client.create_table("t", 16, 64).unwrap();
    for _ in 0..10 {
        client.ping().unwrap();
    }
    client.begin().unwrap();
    let rec = client.insert(table, &[3u8; 16]).unwrap();
    client.read(rec).unwrap();
    client.commit().unwrap();

    let m = client.metrics().unwrap();
    assert!(m.uptime_ns > 0);
    let ping = m
        .verb(Request::Ping.tag())
        .expect("ping row present after 10 pings");
    assert_eq!(ping.count, 10);
    assert_eq!(ping.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 10);
    // Quantiles are monotone and positive; the mean sits inside the
    // recorded range (log₂ buckets bound each sample within 2×).
    let p50 = ping.quantile(0.50);
    let p99 = ping.quantile(0.99);
    assert!(p50 > 0 && p50 <= p99, "p50={p50} p99={p99}");
    assert!(ping.mean_ns() > 0);
    for verb in [Request::Begin, Request::Commit] {
        let row = m.verb(verb.tag()).expect("txn verb row");
        assert_eq!(row.count, 1);
    }
    // A verb never exercised has no row.
    assert!(m.verb(Request::Repair { region: 0 }.tag()).is_none());
    server.shutdown();
}

/// Pipelined verbs land in the histograms too, and latency includes
/// queue wait (decode → response), so a burst's p99 reflects what the
/// client actually experienced.
#[test]
fn metrics_count_pipelined_bursts() {
    let (server, _dir) = server_with("net-metrics-pipe", |c| c);
    let mut client = DaliClient::connect(server.addr()).unwrap();
    let reqs: Vec<Request> = std::iter::repeat_with(|| Request::Ping).take(50).collect();
    let resps = client.pipeline(&reqs).unwrap();
    assert!(resps.iter().all(|r| matches!(r, Response::Ok)));
    let m = client.metrics().unwrap();
    assert_eq!(m.verb(Request::Ping.tag()).unwrap().count, 50);
    let stats = client.stats().unwrap();
    assert!(stats.frames_pipelined > 0);
    assert!(stats.loop_iterations > 0);
    server.shutdown();
}

/// Orphan rollback still holds under the event server when a client
/// vanishes mid-transaction with work in flight (the event loop hands
/// the abort to the exec pool; no event loop ever blocks on it).
#[test]
fn orphan_rollback_with_pipelined_work_in_flight() {
    let (server, _dir) = server_with("net-orphan-pipe", |c| c);
    let engine = server.engine().clone();
    let mut setup = DaliClient::connect(server.addr()).unwrap();
    let table = setup.create_table("t", 32, 64).unwrap();

    let mut client = DaliClient::connect(server.addr()).unwrap();
    client.begin().unwrap();
    client.insert(table, &[9u8; 32]).unwrap();
    client.drop_connection();

    // The orphan's insert must be rolled back (poll: cleanup is async).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = setup.stats().unwrap();
        if stats.orphans_rolled_back == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "orphan was never rolled back");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(engine.record_count(table).unwrap(), 0);
    assert_eq!(engine.db().locks.locked_records(), 0);
    server.shutdown();
}

/// One readiness loop holds hundreds of open connections at once:
/// every one of 256 connections has a 100-frame pipelined burst
/// outstanding before the first response is read, and every burst is
/// answered in full, in order, with nobody rejected.
#[test]
fn hundreds_of_open_connections_each_pipelining_all_complete() {
    use dali::net::protocol::{encode_request, frame, read_frame};
    use std::io::Write;
    const CONNS: usize = 256;
    const FRAMES: usize = 100;

    let (server, _dir) = server_with("net-many-conns", |c| c);
    let burst: Vec<u8> = frame(&encode_request(&Request::Ping)).repeat(FRAMES);
    let mut streams: Vec<std::net::TcpStream> = (0..CONNS)
        .map(|_| {
            let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
            s.write_all(&burst).unwrap();
            s
        })
        .collect();
    for s in &mut streams {
        for _ in 0..FRAMES {
            let payload = read_frame(s).unwrap().expect("response frame");
            assert!(matches!(Response::decode(&payload).unwrap(), Response::Ok));
        }
    }

    let mut admin = DaliClient::connect(server.addr()).unwrap();
    let stats = admin.stats().unwrap();
    assert_eq!(stats.sessions, CONNS as u64 + 1);
    assert_eq!(stats.conns_rejected, 0);
    assert!(admin.health().unwrap().conns_open > CONNS as u64);
    drop(streams);
    server.shutdown();
}

/// The `Stats` reply's three log slots describe the log directory as it
/// is when the verb is answered: after checkpoints have retired
/// segments, they equal `segment_stats()` and a listing of the directory.
#[test]
fn stats_log_slots_match_the_log_directory() {
    let (server, dir) = server_with("net-log-slots", |c| {
        let mut c = c.with_log_segment_bytes(1024);
        c.db_pages = 64;
        c
    });
    let mut client = DaliClient::connect(server.addr()).unwrap();
    let table = client.create_table("t", 64, 16).unwrap();
    client.begin().unwrap();
    let recs: Vec<_> = (0..8u8)
        .map(|i| client.insert(table, &[i; 64]).unwrap())
        .collect();
    client.commit().unwrap();
    for cycle in 0..4u8 {
        client.begin().unwrap();
        for &rec in &recs {
            client.update(rec, &[cycle; 64]).unwrap();
        }
        client.commit().unwrap();
        server.engine().checkpoint().unwrap();
    }
    server.engine().settle().unwrap();

    let stats = client.stats().unwrap();
    let segments = server.engine().db().syslog.segment_stats().unwrap();
    assert!(segments.retired > 0, "nothing was retired");
    assert_eq!(stats.log_segments_active, segments.segments);
    assert_eq!(stats.log_segments_retired, segments.retired);
    assert_eq!(stats.log_bytes_on_disk, segments.bytes_on_disk);
    let listed = dali::wal::segment::list(&dir.path().join("system.log")).unwrap();
    assert_eq!(stats.log_segments_active, listed.len() as u64);
    assert_eq!(
        stats.log_bytes_on_disk,
        listed.iter().map(|s| s.len).sum::<u64>()
    );
    server.shutdown();
}
