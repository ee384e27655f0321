//! Server shutdown must not hang on idle clients.
//!
//! Shutdown raises the stop flag, wakes every event loop and joins it;
//! each loop closes its connections, whose orphaned open transactions
//! must still be rolled back through the usual path. A loop that misses
//! the stop wake parks in `epoll_wait` forever, so every test runs the
//! shutdown on a watchdog thread and fails if it misses a generous
//! deadline.

use dali::net::{DaliClient, DaliServer};
use dali::{DaliConfig, DaliEngine, ProtectionScheme};
use std::time::{Duration, Instant};

fn server(name: &str) -> (DaliServer, dali_testutil::TempDir) {
    let dir = dali_testutil::TempDir::new(&format!("net-shutdown-{name}"));
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config).unwrap();
    let server = DaliServer::start(db, "127.0.0.1:0").unwrap();
    (server, dir)
}

fn assert_shutdown_within(server: DaliServer, deadline: Duration) {
    let start = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    assert!(
        rx.recv_timeout(deadline).is_ok(),
        "shutdown hung past {deadline:?} (an event loop or session never unblocked)"
    );
    assert!(start.elapsed() < deadline);
}

#[test]
fn shutdown_with_idle_connected_client_returns_promptly() {
    let (server, _dir) = server("idle");
    let engine = server.engine().clone();
    // An idle client: connected, proven live, then silent forever.
    let mut client = DaliClient::connect(server.addr()).unwrap();
    client.ping().unwrap();
    assert_shutdown_within(server, Duration::from_secs(10));
    // The engine survives its server.
    assert!(engine.audit().unwrap().clean());
}

#[test]
fn shutdown_rolls_back_idle_client_open_transaction() {
    let (server, _dir) = server("orphan");
    let engine = server.engine().clone();
    let mut client = DaliClient::connect(server.addr()).unwrap();
    let table = client.create_table("t", 32, 16).unwrap();
    client.begin().unwrap();
    client.insert(table, &[7u8; 32]).unwrap();
    // Client goes quiet mid-transaction; shutdown must both return and
    // roll the orphan back, releasing its locks and its insert.
    assert_shutdown_within(server, Duration::from_secs(10));
    assert_eq!(engine.record_count(table).unwrap(), 0);
    assert_eq!(
        engine
            .stats()
            .aborts
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}

#[test]
fn shutdown_with_many_idle_clients() {
    let (server, _dir) = server("many");
    let mut clients = Vec::new();
    for _ in 0..8 {
        let mut c = DaliClient::connect(server.addr()).unwrap();
        c.ping().unwrap();
        clients.push(c);
    }
    assert_shutdown_within(server, Duration::from_secs(10));
}

/// A request issued after the server closed the connection surfaces as
/// the structured [`DaliError::ConnectionClosed`], not a raw I/O error:
/// retry loops and connection pools need to tell "the server went away"
/// apart from a torn frame or a local fault.
#[test]
fn request_against_closed_server_is_connection_closed() {
    use dali::DaliError;
    let (server, _dir) = server("closed");
    let mut client = DaliClient::connect(server.addr()).unwrap();
    client.begin().unwrap();
    server.shutdown();
    // The connection is gone mid-transaction. Depending on timing the
    // client sees the close on the write (broken pipe) or on the read
    // (EOF / reset); either way the structured error comes back.
    match client.ping() {
        Err(DaliError::ConnectionClosed) => {}
        Err(other) => panic!("expected ConnectionClosed, got {other:?}"),
        Ok(()) => panic!("ping succeeded against a shut-down server"),
    }
}

/// Shutdown right behind a wave of client disconnects. Every closed
/// connection wakes event worker 0 (a freed slot may resume accepting),
/// so the shutdown's own wake can land while a loop is between its stop
/// check and the drain of an earlier wake. Draining must not swallow
/// it: the loop would park in `epoll_wait` with nothing left to wake it,
/// and `shutdown()` would never return.
#[test]
fn shutdown_right_after_clients_disconnect() {
    for round in 0..20 {
        let (server, _dir) = server(&format!("wave-{round}"));
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let mut c = DaliClient::connect(server.addr()).unwrap();
                c.ping().unwrap();
                c
            })
            .collect();
        drop(clients);
        assert_shutdown_within(server, Duration::from_secs(10));
    }
}
