//! The event-driven network front-end: a readiness loop owning
//! nonblocking sessions as explicit state machines, with execution on a
//! bounded worker pool.
//!
//! # Architecture (DESIGN.md §6)
//!
//! ```text
//!            accept                    decode                 execute
//!  listener ───────► event workers ────────────► exec pool ──────────► engine
//!  (worker 0)        (epoll/poll)     Work queue  (bounded)   TxnHandle
//!                       ▲  │ read-accumulate          │
//!                       │  │ write-drain              │ encoded responses
//!                       └──┴──────── waker ◄──────────┘
//! ```
//!
//! * **Event workers** own nonblocking sockets. Each session is a state
//!   machine: *read-accumulate* bytes into a buffer, *decode* complete
//!   frames, hand requests to the exec pool, *write-drain* encoded
//!   responses. Event workers never block on a socket or the engine.
//! * **Exec pool** runs the verbs (which may block: lock waits, fsyncs,
//!   audits). One session is served by at most one exec worker at a
//!   time, so pipelined responses come back in receive order.
//! * **Pipelining**: up to `net_pipeline_depth` decoded-but-unanswered
//!   frames per connection. At the budget the session's read interest is
//!   *parked* — TCP backpressure, not disconnect.
//! * **Outbound budget**: a slow consumer whose queued response bytes
//!   exceed `net_outbound_budget` also parks reads; buffering is bounded
//!   by `budget + one frame`, never unbounded.
//! * **Admission control**: at `net_max_conns` open connections, newly
//!   accepted sockets get a best-effort structured error and close
//!   (counted in [`ServerStats::conns_rejected`]), and the listener's
//!   read interest is parked until a connection closes.
//! * **Orphan rollback**: a dropped connection's open transaction is
//!   aborted through the engine's level-by-level ATT rollback on the
//!   exec pool (never on an event loop), releasing all its locks.
//!   Shutdown drains these cleanup jobs before returning.
//! * **Observability**: per-verb log₂-bucket latency histograms
//!   ([`Request::Metrics`]) measured decode→response (queue wait
//!   included), plus queue-depth/park/loop counters in [`ServerStats`]
//!   and a cheap [`Request::Health`] probe.
//!
//! Protocol errors (garbage frame, bad checksum, unknown tag) still
//! terminate the connection after a best-effort error response — once
//! framing is suspect there is no trustworthy boundary to resume at —
//! but the error frame queues *behind* earlier pipelined responses, so
//! a half-good burst is answered before the close.

use crate::histogram::LatencyHistograms;
use crate::poller::{Interest, Poller, Waker};
use crate::protocol::{
    encode_response, frame, parse_frame, HealthReport, RepairSummary, Request, Response,
    ServerStats, WireError,
};
use dali_common::Result;
use dali_engine::{DaliEngine, TxnHandle};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Token the event loop's waker registers under.
const WAKER_TOKEN: u64 = u64::MAX;
/// Token worker 0's listener registers under.
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Server-side counters.
#[derive(Default)]
struct ServerCounters {
    sessions: AtomicU64,
    orphans_rolled_back: AtomicU64,
    conns_rejected: AtomicU64,
    frames_pipelined: AtomicU64,
    read_parks: AtomicU64,
    exec_queue_depth: AtomicU64,
    exec_queue_max: AtomicU64,
    loop_iterations: AtomicU64,
    outbound_buffered_max: AtomicU64,
}

impl ServerCounters {
    /// Raise a high-watermark cell to at least `v`.
    fn raise_max(cell: &AtomicU64, v: u64) {
        let mut cur = cell.load(Ordering::Relaxed);
        while v > cur {
            match cell.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }
}

/// Execute one *engine* verb against a session's transaction slot.
/// `Stats`/`Health`/`Metrics` are intercepted by the caller (they need
/// server state, not engine state). Session semantics: one txn per
/// connection, `NoTxn`/`TxnAlreadyOpen` misuse errors, errors leave the
/// txn open.
fn execute_engine_request(
    engine: &DaliEngine,
    txn_slot: &mut Option<TxnHandle>,
    req: Request,
) -> Response {
    match execute_engine_inner(engine, txn_slot, req) {
        Ok(resp) => resp,
        Err(e) => Response::Err(e),
    }
}

fn execute_engine_inner(
    engine: &DaliEngine,
    txn_slot: &mut Option<TxnHandle>,
    req: Request,
) -> std::result::Result<Response, WireError> {
    fn open(txn_slot: &Option<TxnHandle>) -> std::result::Result<&TxnHandle, WireError> {
        txn_slot.as_ref().ok_or(WireError::NoTxn)
    }
    Ok(match req {
        Request::Begin => {
            if txn_slot.is_some() {
                return Err(WireError::TxnAlreadyOpen);
            }
            let txn = engine.begin()?;
            let id = txn.id();
            *txn_slot = Some(txn);
            Response::Began { txn: id }
        }
        Request::Read { rec } => Response::Data(open(txn_slot)?.read_vec(rec)?),
        Request::Insert { table, data } => Response::Inserted {
            rec: open(txn_slot)?.insert(table, &data)?,
        },
        Request::Update { rec, data } => {
            open(txn_slot)?.update(rec, &data)?;
            Response::Ok
        }
        Request::Delete { rec } => {
            open(txn_slot)?.delete(rec)?;
            Response::Ok
        }
        Request::LockExclusive { rec } => {
            open(txn_slot)?.lock_exclusive(rec)?;
            Response::Ok
        }
        Request::Commit => {
            let txn = txn_slot.take().ok_or(WireError::NoTxn)?;
            txn.commit()?;
            Response::Ok
        }
        Request::Abort => {
            let txn = txn_slot.take().ok_or(WireError::NoTxn)?;
            txn.abort()?;
            Response::Ok
        }
        Request::CreateTable {
            name,
            rec_size,
            capacity,
        } => Response::Table {
            table: engine.create_table(&name, rec_size as usize, capacity as usize)?,
        },
        Request::OpenTable { name } => Response::Table {
            table: engine.table(&name)?,
        },
        Request::RecordCount { table } => Response::Count(engine.record_count(table)? as u64),
        Request::Audit => {
            let report = engine.audit()?;
            Response::Audited {
                clean: report.clean(),
                regions_checked: report.regions_checked as u64,
            }
        }
        Request::Ping => Response::Ok,
        Request::Repair { region } => {
            use dali_engine::repair::RepairOutcome;
            match engine.repair(region as usize)? {
                RepairOutcome::RepairedInPlace {
                    regions_rebuilt,
                    bytes_rebuilt,
                } => Response::Repaired(RepairSummary {
                    in_place: true,
                    regions_rebuilt: regions_rebuilt as u64,
                    bytes_rebuilt: bytes_rebuilt as u64,
                    records_replayed: 0,
                }),
                RepairOutcome::RecoveredViaLog {
                    regions_rebuilt,
                    bytes_rebuilt,
                    records_replayed,
                    ..
                } => Response::Repaired(RepairSummary {
                    in_place: false,
                    regions_rebuilt: regions_rebuilt as u64,
                    bytes_rebuilt: bytes_rebuilt as u64,
                    records_replayed: records_replayed as u64,
                }),
            }
        }
        // Server verbs the caller should have intercepted; answering
        // from engine state alone would report zeros, so refuse loudly.
        Request::Stats | Request::Health | Request::Metrics => {
            return Err(WireError::InvalidArg(
                "server verb reached the engine executor".into(),
            ))
        }
    })
}

/// Build the snapshot the `Stats` verb serves.
fn build_server_stats(engine: &DaliEngine, counters: &ServerCounters) -> ServerStats {
    let log = engine.log_stats();
    let deferred = engine.deferred_stats();
    ServerStats {
        commits: engine.stats().commits.load(Ordering::Relaxed),
        aborts: engine.stats().aborts.load(Ordering::Relaxed),
        fsyncs: log.fsyncs,
        log_flushes: log.flushes,
        durable_commits: log.durable_commits,
        piggybacked: log.piggybacked,
        group_followers: log.group_followers,
        sessions: counters.sessions.load(Ordering::Relaxed),
        orphans_rolled_back: counters.orphans_rolled_back.load(Ordering::Relaxed),
        deferred_drains: deferred.drains,
        deferred_coalesced: deferred.coalesced_deltas,
        deferred_max_shard_depth: deferred.max_shard_depth,
        deferred_pending: deferred.pending_deltas,
        audits_run: engine.stats().audits.load(Ordering::Relaxed),
        audit_regions: engine.stats().regions_audited.load(Ordering::Relaxed),
        audit_bytes_folded: engine.stats().bytes_folded.load(Ordering::Relaxed),
        audit_ns: engine.stats().audit_ns.load(Ordering::Relaxed),
        certify_regions_certified: engine
            .stats()
            .certify_regions_certified
            .load(Ordering::Relaxed),
        certify_regions_skipped: engine
            .stats()
            .certify_regions_skipped
            .load(Ordering::Relaxed),
        audit_latch_brackets: engine.stats().audit_latch_brackets.load(Ordering::Relaxed),
        repair_attempted: engine.stats().repair_attempted.load(Ordering::Relaxed),
        repair_succeeded: engine.stats().repair_succeeded.load(Ordering::Relaxed),
        repair_fell_back: engine.stats().repair_fell_back.load(Ordering::Relaxed),
        repair_bytes_rebuilt: engine.stats().repair_bytes_rebuilt.load(Ordering::Relaxed),
        certify_parity_groups: engine.stats().certify_parity_groups.load(Ordering::Relaxed),
        conns_rejected: counters.conns_rejected.load(Ordering::Relaxed),
        frames_pipelined: counters.frames_pipelined.load(Ordering::Relaxed),
        read_parks: counters.read_parks.load(Ordering::Relaxed),
        exec_queue_depth: counters.exec_queue_depth.load(Ordering::Relaxed),
        exec_queue_max: counters.exec_queue_max.load(Ordering::Relaxed),
        loop_iterations: counters.loop_iterations.load(Ordering::Relaxed),
        outbound_buffered_max: counters.outbound_buffered_max.load(Ordering::Relaxed),
        log_segments_active: engine.stats().log_segments_active.load(Ordering::Relaxed),
        log_segments_retired: engine.stats().log_segments_retired.load(Ordering::Relaxed),
        log_bytes_on_disk: engine.stats().log_bytes_on_disk.load(Ordering::Relaxed),
        redo_threads_used: engine.stats().redo_threads_used.load(Ordering::Relaxed),
        redo_parallel_ns: engine.stats().redo_parallel_ns.load(Ordering::Relaxed),
    }
}

// -------------------------------------------------------------------
// Session core: the half of a session shared with the exec pool
// -------------------------------------------------------------------

/// One unit of session work, flowing through a FIFO so responses keep
/// receive order even when protocol errors interleave with requests.
enum Work {
    /// A decoded request: its verb tag, decode timestamp (latency is
    /// decode→response, queue wait included), and body.
    Req {
        tag: u8,
        started: Instant,
        req: Request,
    },
    /// A pre-encoded protocol-error frame; the connection closes after
    /// it flushes (framing is no longer trustworthy).
    ProtocolError(Vec<u8>),
    /// The connection died: abort its open transaction (if any).
    Cleanup,
}

struct CoreState {
    work: VecDeque<Work>,
    /// Encoded response frames ready for the event loop to write-drain.
    resps: Vec<Vec<u8>>,
    /// How many entries appended to `resps` since the last drain answer
    /// a decoded request (protocol-error frames don't count against the
    /// pipeline budget).
    answered: usize,
    /// The close-after-flush flag set by a protocol error.
    close_after_resps: bool,
    txn: Option<TxnHandle>,
    /// True while an exec worker owns this session's FIFO — at most one
    /// at a time, which is what makes pipelined responses ordered.
    exec_scheduled: bool,
    /// The event loop dropped the connection; responses are discarded.
    closed: bool,
    /// Cleanup ran (exactly-once guard for the orphan rollback).
    cleaned: bool,
}

/// The session state shared between its owning event worker and the
/// exec pool.
struct SessionCore {
    conn_id: u64,
    /// Index of the owning event worker (where readiness notifications go).
    worker: usize,
    state: Mutex<CoreState>,
}

impl SessionCore {
    fn new(conn_id: u64, worker: usize) -> SessionCore {
        SessionCore {
            conn_id,
            worker,
            state: Mutex::new(CoreState {
                work: VecDeque::new(),
                resps: Vec::new(),
                answered: 0,
                close_after_resps: false,
                txn: None,
                exec_scheduled: false,
                closed: false,
                cleaned: false,
            }),
        }
    }
}

// -------------------------------------------------------------------
// Shared server state
// -------------------------------------------------------------------

/// New connections and readiness notifications bound for one event
/// worker (paired with that worker's waker).
#[derive(Default)]
struct Inbox {
    new_conns: Vec<(TcpStream, u64)>,
    /// Session tokens with freshly enqueued responses.
    ready: Vec<u64>,
}

struct ExecQueue {
    jobs: Mutex<VecDeque<Arc<SessionCore>>>,
    cv: Condvar,
    stop: AtomicBool,
}

struct Shared {
    engine: DaliEngine,
    counters: ServerCounters,
    histograms: LatencyHistograms,
    stop: AtomicBool,
    start: Instant,
    max_conns: usize,
    pipeline_depth: usize,
    outbound_budget: usize,
    inboxes: Vec<Mutex<Inbox>>,
    wakers: Vec<Waker>,
    exec: ExecQueue,
}

impl Shared {
    /// Hand a session to the exec pool unless an exec worker already
    /// owns its FIFO. Call with the session's state lock *held* (the
    /// flag check must be atomic with the enqueue that set work).
    fn schedule_locked(&self, core: &Arc<SessionCore>, state: &mut CoreState) {
        if !state.exec_scheduled {
            state.exec_scheduled = true;
            self.exec.jobs.lock().unwrap().push_back(Arc::clone(core));
            self.exec.cv.notify_one();
        }
    }

    /// Tell a session's event worker it has responses to drain.
    fn notify_ready(&self, core: &SessionCore) {
        self.inboxes[core.worker]
            .lock()
            .unwrap()
            .ready
            .push(core.conn_id);
        self.wakers[core.worker].wake();
    }

    fn health(&self) -> HealthReport {
        HealthReport {
            healthy: !self.stop.load(Ordering::Acquire) && self.engine.current_lsn().is_ok(),
            conns_open: self.counters.sessions.load(Ordering::Relaxed),
            exec_queue_depth: self.counters.exec_queue_depth.load(Ordering::Relaxed),
            uptime_ns: self.start.elapsed().as_nanos() as u64,
        }
    }
}

// -------------------------------------------------------------------
// Exec pool
// -------------------------------------------------------------------

fn exec_worker(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.exec.jobs.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.exec.stop.load(Ordering::Acquire) {
                    return;
                }
                q = shared.exec.cv.wait(q).unwrap();
            }
        };
        run_session(&shared, &job);
    }
}

/// Drain one session's work FIFO, one item at a time, until empty. The
/// `exec_scheduled` flag guarantees a single worker per session, so
/// responses are pushed in exactly the order frames were decoded.
fn run_session(shared: &Shared, core: &Arc<SessionCore>) {
    loop {
        let item = {
            let mut state = core.state.lock().unwrap();
            match state.work.pop_front() {
                Some(item) => item,
                None => {
                    state.exec_scheduled = false;
                    return;
                }
            }
        };
        match item {
            Work::Req { tag, started, req } => {
                shared
                    .counters
                    .exec_queue_depth
                    .fetch_sub(1, Ordering::Relaxed);
                // Server verbs answer from shared state; engine verbs may
                // block (locks, fsync), so the txn is taken OUT of the
                // session and the state lock released around execution.
                let resp = match req {
                    Request::Stats => {
                        Response::Stats(build_server_stats(&shared.engine, &shared.counters))
                    }
                    Request::Health => Response::Health(shared.health()),
                    Request::Metrics => Response::Metrics(
                        shared
                            .histograms
                            .report(shared.start.elapsed().as_nanos() as u64),
                    ),
                    req => {
                        let mut txn = core.state.lock().unwrap().txn.take();
                        let resp = execute_engine_request(&shared.engine, &mut txn, req);
                        core.state.lock().unwrap().txn = txn;
                        resp
                    }
                };
                let bytes = frame(&encode_response(&resp));
                {
                    let mut state = core.state.lock().unwrap();
                    if !state.closed {
                        state.resps.push(bytes);
                        state.answered += 1;
                    }
                }
                shared
                    .histograms
                    .record(tag, started.elapsed().as_nanos() as u64);
                shared.notify_ready(core);
            }
            Work::ProtocolError(bytes) => {
                let mut state = core.state.lock().unwrap();
                if !state.closed {
                    state.resps.push(bytes);
                    state.close_after_resps = true;
                    drop(state);
                    shared.notify_ready(core);
                }
            }
            Work::Cleanup => {
                let txn = {
                    let mut state = core.state.lock().unwrap();
                    state.cleaned = true;
                    state.txn.take()
                };
                if let Some(txn) = txn {
                    let _ = txn.abort();
                    shared
                        .counters
                        .orphans_rolled_back
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

// -------------------------------------------------------------------
// Event workers
// -------------------------------------------------------------------

/// The loop-owned half of a session: socket, accumulate buffer, write
/// queue, and interest bookkeeping. The state machine: read-accumulate
/// → decode (enqueue to exec) → write-drain, with parks in between.
struct Conn {
    stream: TcpStream,
    core: Arc<SessionCore>,
    /// Unparsed inbound bytes (read-accumulate).
    read_buf: Vec<u8>,
    /// Encoded response frames being drained, front partially written.
    write_bufs: VecDeque<Vec<u8>>,
    write_pos: usize,
    /// Bytes across `write_bufs` not yet written (outbound budget).
    outbound: usize,
    /// Decoded frames not yet answered (pipeline budget).
    pending: usize,
    /// Read interest parked by a budget.
    parked: bool,
    /// Stop parsing/reading: a protocol error poisoned the framing, or
    /// the peer half-closed.
    read_dead: bool,
    /// Close once `write_bufs` drains.
    closing: bool,
    /// Interest currently registered with the poller.
    registered: Interest,
}

impl Conn {
    fn wants(&self) -> Interest {
        Interest {
            read: !self.parked && !self.read_dead && !self.closing,
            write: !self.write_bufs.is_empty(),
        }
    }
}

struct EventWorker {
    id: usize,
    shared: Arc<Shared>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    /// Worker 0 only: the listener and its accept-pause state.
    listener: Option<TcpListener>,
    listener_parked: bool,
    next_conn_id: Arc<AtomicU64>,
}

impl EventWorker {
    fn run(mut self) {
        let mut events = Vec::with_capacity(512);
        loop {
            events.clear();
            if self.poller.wait(&mut events, None).is_err() {
                break;
            }
            self.shared
                .counters
                .loop_iterations
                .fetch_add(1, Ordering::Relaxed);

            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }

            let mut accept_ready = false;
            let mut touched: Vec<u64> = Vec::new();
            for ev in &events {
                match ev.token {
                    WAKER_TOKEN => self.shared.wakers[self.id].drain(),
                    LISTENER_TOKEN => accept_ready = true,
                    token => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            if ev.readable && !conn.read_dead && !conn.parked {
                                Self::read_accumulate(&self.shared, conn);
                            }
                            if ev.writable {
                                Self::write_drain(&self.shared, conn);
                            }
                            if ev.hangup && conn.write_bufs.is_empty() {
                                // Peer gone and nothing left to flush.
                                conn.closing = true;
                                conn.read_dead = true;
                            }
                            touched.push(token);
                        }
                    }
                }
            }

            // Inbox: adopt new connections, drain ready sessions.
            let (new_conns, ready) = {
                let mut inbox = self.shared.inboxes[self.id].lock().unwrap();
                (
                    std::mem::take(&mut inbox.new_conns),
                    std::mem::take(&mut inbox.ready),
                )
            };
            for (stream, conn_id) in new_conns {
                self.adopt(stream, conn_id);
                touched.push(conn_id);
            }
            for token in ready {
                if let Some(conn) = self.conns.get_mut(&token) {
                    Self::pump_responses(&self.shared, conn);
                    touched.push(token);
                }
            }

            // Interest upkeep + deferred closes for every touched conn.
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                self.settle(token);
            }

            if accept_ready {
                self.accept_drain();
            }
            self.maybe_unpark_listener();
        }
        self.teardown();
    }

    /// Register a freshly assigned connection and poll its first bytes.
    fn adopt(&mut self, stream: TcpStream, conn_id: u64) {
        if stream.set_nonblocking(true).is_err() {
            self.shared
                .counters
                .sessions
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        if self
            .poller
            .register(stream.as_raw_fd(), conn_id, Interest::READ)
            .is_err()
        {
            self.shared
                .counters
                .sessions
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let conn = Conn {
            stream,
            core: Arc::new(SessionCore::new(conn_id, self.id)),
            read_buf: Vec::new(),
            write_bufs: VecDeque::new(),
            write_pos: 0,
            outbound: 0,
            pending: 0,
            parked: false,
            read_dead: false,
            closing: false,
            registered: Interest::READ,
        };
        self.conns.insert(conn_id, conn);
    }

    /// Read until the socket would block (or a budget parks the read),
    /// decoding complete frames into the session's work FIFO.
    fn read_accumulate(shared: &Arc<Shared>, conn: &mut Conn) {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.read_dead = true;
                    if conn.write_bufs.is_empty() {
                        conn.closing = true;
                    }
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    Self::decode_frames(shared, conn);
                    if conn.parked || conn.read_dead {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.read_dead = true;
                    conn.closing = true;
                    break;
                }
            }
        }
    }

    /// Decode as many complete frames from the accumulate buffer as the
    /// budgets allow, handing work to the exec pool in one batch.
    fn decode_frames(shared: &Arc<Shared>, conn: &mut Conn) {
        let mut consumed_total = 0usize;
        let mut enqueued = 0u64;
        {
            let mut state = conn.core.state.lock().unwrap();
            loop {
                if conn.pending >= shared.pipeline_depth
                    || conn.outbound > shared.outbound_budget && shared.outbound_budget > 0
                {
                    if !conn.parked {
                        conn.parked = true;
                        shared.counters.read_parks.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                match parse_frame(&conn.read_buf[consumed_total..]) {
                    Ok(None) => break,
                    Ok(Some((payload, consumed))) => {
                        consumed_total += consumed;
                        match Request::decode(&payload) {
                            Ok(req) => {
                                if conn.pending > 0 {
                                    shared
                                        .counters
                                        .frames_pipelined
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                                conn.pending += 1;
                                enqueued += 1;
                                state.work.push_back(Work::Req {
                                    tag: req.tag(),
                                    started: Instant::now(),
                                    req,
                                });
                            }
                            Err(e) => {
                                let resp = Response::Err(WireError::from(&e));
                                state
                                    .work
                                    .push_back(Work::ProtocolError(frame(&encode_response(&resp))));
                                conn.read_dead = true;
                                break;
                            }
                        }
                    }
                    Err(e) => {
                        let resp = Response::Err(WireError::from(&e));
                        state
                            .work
                            .push_back(Work::ProtocolError(frame(&encode_response(&resp))));
                        conn.read_dead = true;
                        break;
                    }
                }
            }
            // Bump the queue gauge *before* the work becomes visible to
            // the exec pool, or a fast worker's decrement could race
            // ahead of this increment and underflow the gauge.
            if enqueued > 0 {
                let depth = shared
                    .counters
                    .exec_queue_depth
                    .fetch_add(enqueued, Ordering::Relaxed)
                    + enqueued;
                ServerCounters::raise_max(&shared.counters.exec_queue_max, depth);
            }
            if !state.work.is_empty() {
                shared.schedule_locked(&conn.core, &mut state);
            }
        }
        if consumed_total > 0 {
            conn.read_buf.drain(..consumed_total);
        }
    }

    /// Move freshly encoded responses from the session core into the
    /// write queue, then try to drain them to the socket immediately.
    fn pump_responses(shared: &Arc<Shared>, conn: &mut Conn) {
        let (frames, answered, close_after) = {
            let mut state = conn.core.state.lock().unwrap();
            (
                std::mem::take(&mut state.resps),
                std::mem::take(&mut state.answered),
                state.close_after_resps,
            )
        };
        conn.pending = conn.pending.saturating_sub(answered);
        for f in frames {
            conn.outbound += f.len();
            conn.write_bufs.push_back(f);
        }
        ServerCounters::raise_max(&shared.counters.outbound_buffered_max, conn.outbound as u64);
        Self::write_drain(shared, conn);
        if close_after && conn.write_bufs.is_empty() {
            conn.closing = true;
        }
    }

    /// Write queued frames until the socket would block.
    fn write_drain(_shared: &Arc<Shared>, conn: &mut Conn) {
        while let Some(front) = conn.write_bufs.front() {
            match conn.stream.write(&front[conn.write_pos..]) {
                Ok(n) => {
                    conn.write_pos += n;
                    conn.outbound -= n;
                    if conn.write_pos == front.len() {
                        conn.write_bufs.pop_front();
                        conn.write_pos = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.closing = true;
                    conn.read_dead = true;
                    conn.write_bufs.clear();
                    conn.outbound = 0;
                    break;
                }
            }
        }
        if conn.write_bufs.is_empty() {
            let state = conn.core.state.lock().unwrap();
            if state.close_after_resps && state.resps.is_empty() {
                drop(state);
                conn.closing = true;
            }
        }
    }

    /// Re-register interest if it changed; close the connection when the
    /// state machine has nothing left to do with the socket.
    fn settle(&mut self, token: u64) {
        let close = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Budgets may have relaxed (responses answered, outbound
            // flushed — whether via pump_responses or a bare writable
            // event): unpark, and re-parse leftover buffered bytes —
            // the kernel will not re-signal data that already sits in
            // our userspace buffer.
            if conn.parked
                && !conn.closing
                && conn.pending < self.shared.pipeline_depth
                && (self.shared.outbound_budget == 0
                    || conn.outbound <= self.shared.outbound_budget)
            {
                conn.parked = false;
                if !conn.read_dead {
                    Self::decode_frames(&self.shared, conn);
                }
            }
            // A dead read side with no queued work, in-flight exec, or
            // unflushed output has nothing left to produce: close.
            if conn.read_dead && !conn.closing && conn.write_bufs.is_empty() {
                let state = conn.core.state.lock().unwrap();
                if state.work.is_empty() && !state.exec_scheduled && state.resps.is_empty() {
                    conn.closing = true;
                }
            }
            if conn.closing && conn.write_bufs.is_empty() {
                true
            } else {
                let want = conn.wants();
                if want != conn.registered
                    && self
                        .poller
                        .reregister(conn.stream.as_raw_fd(), token, want)
                        .is_ok()
                {
                    conn.registered = want;
                }
                false
            }
        };
        if close {
            self.close_conn(token);
        }
    }

    /// Tear one connection down: deregister, drop the socket, and hand
    /// the orphan-rollback job to the exec pool.
    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        drop(conn.stream);
        self.shared
            .counters
            .sessions
            .fetch_sub(1, Ordering::Relaxed);
        {
            let mut state = conn.core.state.lock().unwrap();
            state.closed = true;
            // Unexecuted requests answer no one; drop them, keeping the
            // queue-depth gauge honest.
            let dropped = state
                .work
                .iter()
                .filter(|w| matches!(w, Work::Req { .. }))
                .count() as u64;
            if dropped > 0 {
                self.shared
                    .counters
                    .exec_queue_depth
                    .fetch_sub(dropped, Ordering::Relaxed);
            }
            state.work.clear();
            state.resps.clear();
            if !state.cleaned {
                state.work.push_back(Work::Cleanup);
                self.shared.schedule_locked(&conn.core, &mut state);
            }
        }
        // A slot freed: worker 0 may need to resume accepting.
        if self.shared.max_conns > 0 {
            self.shared.wakers[0].wake();
        }
    }

    /// Accept until the listener would block, rejecting past the cap.
    fn accept_drain(&mut self) {
        let n_workers = self.shared.inboxes.len();
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.stop.load(Ordering::Acquire) {
                        continue;
                    }
                    let open = self.shared.counters.sessions.load(Ordering::Relaxed);
                    if self.shared.max_conns > 0 && open as usize >= self.shared.max_conns {
                        Self::reject(&self.shared, stream);
                        continue;
                    }
                    self.shared
                        .counters
                        .sessions
                        .fetch_add(1, Ordering::Relaxed);
                    let conn_id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
                    let target = (conn_id as usize) % n_workers;
                    if target == self.id {
                        self.adopt(stream, conn_id);
                        self.settle(conn_id);
                    } else {
                        self.shared.inboxes[target]
                            .lock()
                            .unwrap()
                            .new_conns
                            .push((stream, conn_id));
                        self.shared.wakers[target].wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        // At the cap: park the listener until a connection closes
        // (accept-pause). The kernel backlog queues the overflow.
        if self.shared.max_conns > 0
            && self.shared.counters.sessions.load(Ordering::Relaxed) as usize
                >= self.shared.max_conns
            && !self.listener_parked
        {
            if let Some(listener) = &self.listener {
                if self.poller.deregister(listener.as_raw_fd()).is_ok() {
                    self.listener_parked = true;
                }
            }
        }
    }

    /// Best-effort structured rejection for a connection past the cap.
    fn reject(shared: &Arc<Shared>, stream: TcpStream) {
        shared
            .counters
            .conns_rejected
            .fetch_add(1, Ordering::Relaxed);
        let resp = Response::Err(WireError::OutOfSpace("server at connection limit".into()));
        let _ = stream.set_nonblocking(true);
        let _ = (&stream).write(&frame(&encode_response(&resp)));
        // Dropping the stream closes it; the error frame is advisory.
    }

    fn maybe_unpark_listener(&mut self) {
        if !self.listener_parked {
            return;
        }
        let open = self.shared.counters.sessions.load(Ordering::Relaxed) as usize;
        if self.shared.max_conns == 0 || open < self.shared.max_conns {
            if let Some(listener) = &self.listener {
                if self
                    .poller
                    .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                    .is_ok()
                {
                    self.listener_parked = false;
                }
            }
        }
    }

    /// Shutdown: close every connection, scheduling orphan cleanups on
    /// the exec pool (the server joins the pool after the event workers,
    /// so every rollback completes before `shutdown()` returns).
    fn teardown(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }
}

// -------------------------------------------------------------------
// The server handle
// -------------------------------------------------------------------

/// A running event-driven server. Dropping (or calling
/// [`shutdown`](Self::shutdown)) parks the listener, disconnects open
/// sessions, drains orphan rollbacks, and joins every worker.
pub struct DaliServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event_threads: Vec<JoinHandle<()>>,
    exec_threads: Vec<JoinHandle<()>>,
}

impl DaliServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and start the event workers and exec pool. The budgets come from
    /// the engine's [`DaliConfig`](dali_common::DaliConfig)
    /// (`net_max_conns`, `net_pipeline_depth`, `net_outbound_budget`);
    /// the thread counts follow the host.
    pub fn start(engine: DaliEngine, addr: impl ToSocketAddrs) -> Result<DaliServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let config = engine.config();
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        // Event loops do no blocking work, so a handful saturates the NIC
        // long before the execution pool does.
        let n_event = cpus.min(4);
        // The floor of eight matters on small hosts: a lock holder's
        // commit must find a free worker even when every other session is
        // blocked waiting on its locks.
        let n_exec = (2 * cpus).max(8);
        let max_conns = config.net_max_conns;
        let pipeline_depth = config.resolved_net_pipeline_depth();
        let outbound_budget = config.net_outbound_budget;

        // Every fd the event workers need (waker pair, epoll instance,
        // worker 0's listener handle) is created before any thread is
        // spawned, so running out of descriptors fails `start` cleanly
        // instead of leaving half a server running.
        let mut wakers = Vec::with_capacity(n_event);
        let mut inboxes = Vec::with_capacity(n_event);
        let mut pollers = Vec::with_capacity(n_event);
        for _ in 0..n_event {
            let waker = Waker::new()?;
            let mut poller = Poller::new()?;
            poller.register(waker.fd(), WAKER_TOKEN, Interest::READ)?;
            wakers.push(waker);
            inboxes.push(Mutex::new(Inbox::default()));
            pollers.push(poller);
        }
        pollers[0].register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        let mut listener = Some(listener);

        let shared = Arc::new(Shared {
            engine,
            counters: ServerCounters::default(),
            histograms: LatencyHistograms::new(),
            stop: AtomicBool::new(false),
            start: Instant::now(),
            max_conns,
            pipeline_depth,
            outbound_budget,
            inboxes,
            wakers,
            exec: ExecQueue {
                jobs: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                stop: AtomicBool::new(false),
            },
        });

        let next_conn_id = Arc::new(AtomicU64::new(0));
        let mut event_threads = Vec::with_capacity(n_event);
        for (id, poller) in pollers.into_iter().enumerate() {
            let worker = EventWorker {
                id,
                shared: Arc::clone(&shared),
                poller,
                conns: HashMap::new(),
                // Worker 0 owns the listener whose fd its poller watches.
                listener: listener.take(),
                listener_parked: false,
                next_conn_id: Arc::clone(&next_conn_id),
            };
            event_threads.push(
                std::thread::Builder::new()
                    .name(format!("dali-net-ev{id}"))
                    .spawn(move || worker.run())?,
            );
        }

        let mut exec_threads = Vec::with_capacity(n_exec);
        for id in 0..n_exec {
            let shared = Arc::clone(&shared);
            exec_threads.push(
                std::thread::Builder::new()
                    .name(format!("dali-net-ex{id}"))
                    .spawn(move || exec_worker(shared))?,
            );
        }

        Ok(DaliServer {
            shared,
            addr,
            event_threads,
            exec_threads,
        })
    }

    /// The bound address (use after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &DaliEngine {
        &self.shared.engine
    }

    /// Stop accepting, disconnect open sessions, drain orphan rollbacks,
    /// and join every worker. Idle clients see the connection close;
    /// their open transactions are rolled back through the orphan path
    /// *before* this returns.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for w in &self.shared.wakers {
            w.wake();
        }
        for h in self.event_threads.drain(..) {
            let _ = h.join();
        }
        // Event workers have enqueued every cleanup job; now let the
        // exec pool drain to empty and exit.
        // The flag is raised under the queue's lock: a worker that has
        // just read it clear is then already waiting, not about to, when
        // the wake-up is sent.
        {
            // (Held whether or not it is poisoned; this runs in `Drop`.)
            let _jobs = self.shared.exec.jobs.lock();
            self.shared.exec.stop.store(true, Ordering::Release);
        }
        self.shared.exec.cv.notify_all();
        for h in self.exec_threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for DaliServer {
    fn drop(&mut self) {
        if !self.event_threads.is_empty() || !self.exec_threads.is_empty() {
            self.stop();
        }
    }
}
