//! Event-server behaviors beyond the wire protocol: admission control
//! at the connection cap, the `Health`/`Metrics`/`Stats` admin verbs, the
//! hand-off of a verb that must wait from the readiness loop to the exec
//! pool, and the durable commits the loop holds until the log worker's
//! fsync covers them.

use dali::common::storage::{Open, Storage, StorageFile};
use dali::common::{OsStorage, Store};
use dali::net::protocol::{encode_request, frame, read_frame};
use dali::net::{DaliClient, DaliServer, Request, Response};
use dali::{DaliConfig, DaliEngine, DaliError, ProtectionScheme, RecId};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Condvar, Mutex};
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

/// How long a hand-off test waits for anything before it fails.
const DEADLINE: Duration = Duration::from_secs(30);

/// Run `f` on its own thread and return its result, failing the test if
/// it takes longer than [`DEADLINE`].
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{what}: nothing within {DEADLINE:?}"))
}

/// Probe `client`'s server until one request is handed off to the exec
/// pool, and return that health report.
fn await_hand_off(client: &mut DaliClient) -> dali::net::HealthReport {
    loop {
        let health = client.health().unwrap();
        if health.exec_queue_depth == 1 {
            return health;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A table of two 16-byte records, `[1; 16]` and `[2; 16]`, made over
/// the wire.
fn seed_two(server: &DaliServer) -> [RecId; 2] {
    let mut setup = DaliClient::connect(server.addr()).unwrap();
    let table = setup.create_table("t", 16, 8).unwrap();
    setup.begin().unwrap();
    let recs = [1u8, 2].map(|v| setup.insert(table, &[v; 16]).unwrap());
    setup.commit().unwrap();
    recs
}

/// A server with [`seed_two`]'s records whose lock waits outlast every
/// deadline here.
fn two_records(name: &str) -> (DaliServer, dali_testutil::TempDir, [RecId; 2]) {
    let (server, dir) = server_with(name, |mut c| {
        c.lock_timeout = Duration::from_secs(120);
        c
    });
    let recs = seed_two(&server);
    (server, dir, recs)
}

/// A record lock another session holds sends the update that needs it
/// to the exec pool, where it waits; meanwhile a third session's `Ping`
/// and its read of another record are answered. When the holder
/// commits, the waiting update is answered `Ok` and its transaction
/// commits.
#[test]
fn an_update_waiting_for_a_held_lock_leaves_other_sessions_answered() {
    let (server, _dir, [r, s]) = two_records("net-handoff-lock");
    let addr = server.addr();
    let mut a = DaliClient::connect(addr).unwrap();
    a.begin().unwrap();
    a.lock_exclusive(r).unwrap();

    let (tx, updated) = mpsc::channel();
    std::thread::spawn(move || {
        let mut b = DaliClient::connect(addr).unwrap();
        b.begin().unwrap();
        let res = b.update(r, &[7; 16]);
        let _ = tx.send((res, b));
    });
    let read = within("a third session beside the wait", move || {
        let mut c = DaliClient::connect(addr).unwrap();
        await_hand_off(&mut c);
        c.ping().unwrap();
        c.begin().unwrap();
        let read = c.read(s).unwrap();
        c.commit().unwrap();
        read
    });
    assert_eq!(read, [2; 16]);
    assert!(updated.try_recv().is_err(), "the update did not wait");

    a.commit().unwrap();
    let (res, mut b) = updated
        .recv_timeout(DEADLINE)
        .expect("the update was not answered after the holder committed");
    res.unwrap();
    b.commit().unwrap();
    a.begin().unwrap();
    assert_eq!(a.read(r).unwrap(), [7; 16]);
    a.commit().unwrap();
    server.shutdown();
}

/// The OS store, except that once `armed` the next write to a log
/// segment waits until it is released, once `fsync_armed` the next
/// segment fsync does, and once `fail` every segment fsync fails.
#[derive(Default)]
struct Gate {
    armed: AtomicBool,
    fsync_armed: AtomicBool,
    fail: AtomicBool,
    /// (a segment write or fsync is parked, it may go on)
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn set(&self, f: impl FnOnce(&mut (bool, bool))) {
        f(&mut self.state.lock().unwrap());
        self.cv.notify_all();
    }

    fn wait(&self, until: impl Fn(&(bool, bool)) -> bool) {
        let state = self.state.lock().unwrap();
        drop(self.cv.wait_while(state, |s| !until(s)).unwrap());
    }
}

struct GatedFile {
    file: Box<dyn StorageFile>,
    gate: Option<Arc<Gate>>,
}

impl StorageFile for GatedFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.file.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        if let Some(gate) = self.gate.as_ref().filter(|g| g.armed.swap(false, SeqCst)) {
            gate.set(|s| s.0 = true);
            gate.wait(|s| s.1);
        }
        self.file.write_at(buf, offset)
    }
    fn size(&self) -> std::io::Result<u64> {
        self.file.size()
    }
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)
    }
    fn fsync(&self) -> std::io::Result<()> {
        if let Some(gate) = self.gate.as_ref() {
            if gate.fsync_armed.swap(false, SeqCst) {
                gate.set(|s| s.0 = true);
                gate.wait(|s| s.1);
            }
            if gate.fail.load(SeqCst) {
                return Err(std::io::Error::other("segment fsync fails"));
            }
        }
        self.file.fsync()
    }
}

struct GatedStore(Arc<Gate>);

impl Storage for GatedStore {
    fn open(&self, path: &Path, how: Open) -> std::io::Result<Box<dyn StorageFile>> {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        Ok(Box::new(GatedFile {
            file: OsStorage.open(path, how)?,
            gate: name.contains(".seg").then(|| Arc::clone(&self.0)),
        }))
    }
    fn read(&self, path: &Path, into: &mut Vec<u8>) -> std::io::Result<()> {
        OsStorage.read(path, into)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        OsStorage.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        OsStorage.remove(path)
    }
    fn list(&self, dir: &Path) -> std::io::Result<Vec<(String, u64)>> {
        OsStorage.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        OsStorage.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        OsStorage.sync_dir(dir)
    }
}

/// A checkpoint parked in the log write it makes inside its exclusive
/// `quiesce` span: a pipelined `Begin, Read` is handed off at the read
/// and waits, while `Health` on another connection is answered. Once the
/// checkpoint goes on, the read completes.
#[test]
fn a_read_waiting_for_a_checkpoint_leaves_health_answered() {
    let dir = dali_testutil::TempDir::new("net-handoff-quiesce");
    let gate = Arc::new(Gate::default());
    let store: Store = Arc::new(GatedStore(Arc::clone(&gate)));
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (engine, _) = DaliEngine::create_on(config, store).unwrap();
    let server = DaliServer::start(engine, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let [r, s] = seed_two(&server);

    // An operation left in the log's tail, for the checkpoint's flush to
    // write.
    let engine = server.engine().clone();
    let open = engine.begin().unwrap();
    open.update(s, &[3; 16]).unwrap();
    gate.armed.store(true, SeqCst);
    let checkpoint = std::thread::spawn(move || engine.checkpoint().map(drop));
    let parked = Arc::clone(&gate);
    within("the checkpoint's log write", move || parked.wait(|s| s.0));

    let (tx, read) = mpsc::channel();
    std::thread::spawn(move || {
        let mut b = DaliClient::connect(addr).unwrap();
        let res = b.pipeline(&[Request::Begin, Request::Read { rec: r }]);
        let _ = tx.send((res, b));
    });
    let health = within("health beside the checkpoint", move || {
        let mut c = DaliClient::connect(addr).unwrap();
        await_hand_off(&mut c)
    });
    assert!(health.healthy);
    assert!(read.try_recv().is_err(), "the read did not wait");

    gate.set(|s| s.1 = true);
    within("the checkpoint", move || checkpoint.join().unwrap()).unwrap();
    let (res, mut b) = read
        .recv_timeout(DEADLINE)
        .expect("the read was not answered after the checkpoint");
    let resps = res.unwrap();
    assert!(matches!(resps[0], Response::Began { .. }), "{resps:?}");
    assert_eq!(resps[1], Response::Data(vec![1; 16]));
    b.commit().unwrap();
    open.commit().unwrap();
    server.shutdown();
}

/// A session that disconnects while its handed-off update waits for a
/// record lock leaves an orphan: once the holder commits, the update
/// runs, the orphan is rolled back, and the holder's next lock on the
/// record is granted over the record's old value.
#[test]
fn a_disconnect_during_a_handed_off_wait_rolls_the_orphan_back() {
    let (server, _dir, [r, _]) = two_records("net-handoff-orphan");
    let addr = server.addr();
    let mut a = DaliClient::connect(addr).unwrap();
    a.begin().unwrap();
    a.lock_exclusive(r).unwrap();

    let mut b = std::net::TcpStream::connect(addr).unwrap();
    let burst: Vec<u8> = [
        Request::Begin,
        Request::Update {
            rec: r,
            data: vec![7; 16],
        },
    ]
    .iter()
    .flat_map(|req| frame(&encode_request(req)))
    .collect();
    b.write_all(&burst).unwrap();
    let admin = within("the update's hand-off", move || {
        let mut admin = DaliClient::connect(addr).unwrap();
        await_hand_off(&mut admin);
        admin
    });
    drop(b);
    a.commit().unwrap();

    let read = within("the orphan rollback and the next lock", move || {
        let mut admin = admin;
        while admin.stats().unwrap().orphans_rolled_back == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        a.begin().unwrap();
        a.lock_exclusive(r).unwrap();
        let read = a.read(r).unwrap();
        a.commit().unwrap();
        read
    });
    assert_eq!(read, [1; 16]);
    assert_eq!(server.engine().db().locks.locked_records(), 0);
    server.shutdown();
}

/// A server with [`seed_two`]'s records on a [`Gate`]d store that
/// commits durably and whose lock waits outlast every deadline here.
fn durable_server(name: &str) -> (DaliServer, dali_testutil::TempDir, Arc<Gate>, [RecId; 2]) {
    durable_server_with(name, |c| c)
}

/// [`durable_server`] with its configuration tweaked.
fn durable_server_with(
    name: &str,
    tweak: impl FnOnce(DaliConfig) -> DaliConfig,
) -> (DaliServer, dali_testutil::TempDir, Arc<Gate>, [RecId; 2]) {
    let dir = dali_testutil::TempDir::new(name);
    let gate = Arc::new(Gate::default());
    let store: Store = Arc::new(GatedStore(Arc::clone(&gate)));
    let mut config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    config.sync_commit = true;
    config.lock_timeout = Duration::from_secs(120);
    let (engine, _) = DaliEngine::create_on(tweak(config), store).unwrap();
    let server = DaliServer::start(engine, "127.0.0.1:0").unwrap();
    let recs = seed_two(&server);
    (server, dir, gate, recs)
}

/// A raw connection that has sent `reqs` as one burst.
fn burst(addr: std::net::SocketAddr, reqs: &[Request]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let bytes: Vec<u8> = reqs
        .iter()
        .flat_map(|req| frame(&encode_request(req)))
        .collect();
    stream.write_all(&bytes).unwrap();
    stream
}

/// The next reply on `stream`, waiting for it at most [`DEADLINE`].
fn reply(stream: &mut TcpStream) -> Response {
    stream.set_read_timeout(Some(DEADLINE)).unwrap();
    let payload = read_frame(stream).unwrap().expect("the server closed");
    Response::decode(&payload).unwrap()
}

/// Whether a reply has arrived on `stream` that was not read yet.
fn has_reply(stream: &mut TcpStream) -> bool {
    stream.set_nonblocking(true).unwrap();
    let got = stream.read(&mut [0u8; 1]);
    stream.set_nonblocking(false).unwrap();
    match got {
        Ok(n) => n > 0,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(e) => panic!("{e}"),
    }
}

fn update(rec: RecId, v: u8) -> Request {
    Request::Update {
        rec,
        data: vec![v; 16],
    }
}

/// Opens the gate when dropped, before the server is: a test that fails
/// while an fsync is parked then fails instead of hanging in the
/// shutdown, which answers every held commit.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.set(|s| s.1 = true);
    }
}

/// A durable commit held for its fsync: session A's pipelined `Begin,
/// Update r, Commit` gets its first two replies and no `Commit` reply
/// while the log worker's fsync is parked, and `Health` on another
/// connection is answered meanwhile. B's `Update r` is handed off and
/// waits for A's lock on the exec pool, unanswered. Once the fsync goes
/// on, A's commit is answered `Ok`, its lock is released, and B's update
/// is answered.
#[test]
fn a_durable_commit_is_answered_and_unlocked_only_after_its_fsync() {
    let (server, _dir, gate, [r, _]) = durable_server("net-held-commit");
    let _open = OpenOnDrop(Arc::clone(&gate));
    let addr = server.addr();
    gate.fsync_armed.store(true, SeqCst);
    let mut a = burst(addr, &[Request::Begin, update(r, 7), Request::Commit]);
    assert!(matches!(reply(&mut a), Response::Began { .. }));
    assert_eq!(reply(&mut a), Response::Ok);
    let parked = Arc::clone(&gate);
    within("the commit's fsync", move || parked.wait(|s| s.0));

    let health = within("health beside the held commit", move || {
        DaliClient::connect(addr).unwrap().health().unwrap()
    });
    assert!(health.healthy);
    let mut b = burst(addr, &[Request::Begin, update(r, 8)]);
    assert!(matches!(reply(&mut b), Response::Began { .. }));
    within("B's hand-off", move || {
        await_hand_off(&mut DaliClient::connect(addr).unwrap())
    });
    assert!(
        !has_reply(&mut a),
        "the commit was answered before its fsync"
    );
    assert!(!has_reply(&mut b), "the update did not wait for A's lock");

    gate.set(|s| s.1 = true);
    assert_eq!(reply(&mut a), Response::Ok);
    assert_eq!(reply(&mut b), Response::Ok);
    b.write_all(&frame(&encode_request(&Request::Commit)))
        .unwrap();
    assert_eq!(reply(&mut b), Response::Ok);
    let mut c = DaliClient::connect(addr).unwrap();
    c.begin().unwrap();
    assert_eq!(c.read(r).unwrap(), [8; 16]);
    c.commit().unwrap();
    server.shutdown();
}

/// A segment fsync that fails answers every commit it held with an error
/// and none with `Ok`, releases their locks, and `Health` then reports
/// the server unhealthy.
#[test]
fn a_failed_fsync_answers_every_held_commit_with_an_error() {
    let (server, _dir, gate, [r, s]) = durable_server("net-held-fail");
    let _open = OpenOnDrop(Arc::clone(&gate));
    let addr = server.addr();
    gate.fsync_armed.store(true, SeqCst);
    gate.fail.store(true, SeqCst);
    let mut sessions =
        [r, s].map(|rec| burst(addr, &[Request::Begin, update(rec, 9), Request::Commit]));
    for session in &mut sessions {
        // The pass that answered these ran the commit's log step too.
        assert!(matches!(reply(session), Response::Began { .. }));
        assert_eq!(reply(session), Response::Ok);
    }
    let parked = Arc::clone(&gate);
    within("the commit's fsync", move || parked.wait(|s| s.0));

    gate.set(|s| s.1 = true);
    for session in &mut sessions {
        let resp = reply(session);
        assert!(matches!(resp, Response::Err(_)), "{resp:?}");
    }
    assert_eq!(server.engine().db().locks.locked_records(), 0);
    let health = within("health after the failure", move || {
        DaliClient::connect(addr).unwrap().health().unwrap()
    });
    assert!(!health.healthy);
    server.shutdown();
}

/// The log segments of `dir`'s engine still waiting for their names.
fn pending_segments(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("system.log"))
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".pending")
        })
        .count()
}

/// A held commit that a segment roll's fsync makes durable is answered
/// with no other traffic to wake the loop. The log worker is parked in
/// the fsync of a sealed segment when A's commit asks for durability;
/// B's aborts (which ask for none) then roll the segment A's commit is
/// in, and once the gate opens the same drain makes that one durable too.
#[test]
fn a_held_commit_a_segment_drain_covers_is_answered() {
    let (server, dir, gate, [r, _]) =
        durable_server_with("net-held-drain", |c| c.with_log_segment_bytes(4096));
    let _open = OpenOnDrop(Arc::clone(&gate));
    let addr = server.addr();
    let mut b = DaliClient::connect(addr).unwrap();
    let table = b.create_table("big", 1024, 4).unwrap();
    b.begin().unwrap();
    let big = b.insert(table, &[1; 1024]).unwrap();
    b.commit().unwrap();
    let mut roll_to = |pending: usize| {
        while pending_segments(dir.path()) < pending {
            b.begin().unwrap();
            b.update(big, &[3; 1024]).unwrap();
            b.abort().unwrap();
        }
    };

    gate.fsync_armed.store(true, SeqCst);
    roll_to(1);
    let parked = Arc::clone(&gate);
    within("the sealed segment's fsync", move || parked.wait(|s| s.0));
    let mut a = burst(addr, &[Request::Begin, update(r, 7), Request::Commit]);
    assert!(matches!(reply(&mut a), Response::Began { .. }));
    assert_eq!(reply(&mut a), Response::Ok);
    assert_eq!(pending_segments(dir.path()), 1, "A's commit rolled");
    roll_to(2);
    assert!(
        !has_reply(&mut a),
        "the commit was answered before its fsync"
    );

    gate.set(|s| s.1 = true);
    assert_eq!(reply(&mut a), Response::Ok);
    assert_eq!(server.engine().db().locks.locked_records(), 0);
    server.shutdown();
}

/// A held commit whose fsync never returns does not hang the shutdown:
/// past the engine's `lock_timeout` the loop releases it, and its record
/// locks, with an error that says its durability is unknown, and the
/// server's drop returns within that bound while the fsync stays parked.
/// The gate opens only afterwards, so that the engine, the test's clone
/// of which outlives the server, can join its log worker; a failure
/// leaks that clone instead of waiting on the gate.
#[test]
fn a_shutdown_behind_an_fsync_that_never_returns_ends_within_the_bound() {
    let bound = Duration::from_millis(500);
    let (server, _dir, gate, [r, _]) = durable_server_with("net-held-stuck", |mut c| {
        c.lock_timeout = bound;
        c
    });
    let engine = std::mem::ManuallyDrop::new(server.engine().clone());
    gate.fsync_armed.store(true, SeqCst);
    let mut a = burst(
        server.addr(),
        &[Request::Begin, update(r, 7), Request::Commit],
    );
    assert!(matches!(reply(&mut a), Response::Began { .. }));
    assert_eq!(reply(&mut a), Response::Ok);
    let parked = Arc::clone(&gate);
    within("the commit's fsync", move || parked.wait(|s| s.0));

    let start = Instant::now();
    within("the server's drop", move || drop(server));
    let took = start.elapsed();
    assert!(took < bound + Duration::from_secs(5), "{took:?}");
    assert_eq!(engine.db().locks.locked_records(), 0);
    assert!(!gate.state.lock().unwrap().1, "the fsync was still parked");
    gate.set(|s| s.1 = true);
    drop(std::mem::ManuallyDrop::into_inner(engine));
}
