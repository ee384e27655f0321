//! The event-driven network front-end: one readiness loop owning the
//! listener and every nonblocking session as an explicit state machine,
//! executing every request that need not wait, with the waits on a
//! bounded worker pool and durable commits' fsyncs on the log worker.
//!
//! # Architecture (DESIGN.md §6)
//!
//! ```text
//!            accept                 decode + execute
//!  listener ───────► event loop ───────────────────────────► engine
//!                    (epoll)      no-wait TxnHandle verbs    ▲   │ durable
//!                     ▲  │ read-accumulate                   │   │ watermark
//!                     │  │ write-drain      would wait       │   ▼
//!                     │  └──────────────► exec pool ─────────┘  log worker
//!                     │    Work queue     (bounded)              (fsync)
//!                     └──────── waker ◄──────┴───────────────────────┘
//!                          encoded responses, durability notifications
//! ```
//!
//! * **The event loop** owns the listener and every nonblocking socket.
//!   Each session is a state machine: *read-accumulate* bytes into a
//!   buffer, *decode* complete frames, *execute* them, *write-drain*
//!   encoded responses. While a session has nothing on the exec pool the
//!   loop runs each request itself, in the engine's no-wait mode, and
//!   frames its reply straight into the write queue: a pipelined batch
//!   crosses no thread. The loop never blocks on a socket, a record lock,
//!   `quiesce` or the disk.
//! * **Durable commits** run on the loop too: after the engine's log
//!   step ([`TxnHandle::log_commit`]) the loop asks the log worker for an
//!   fsync past the commit and *holds* its reply and its transaction,
//!   record locks included; the session decodes nothing more meanwhile.
//!   The worker's durability notification wakes the loop, which answers
//!   every held commit the log is durable past, or has failed for, and
//!   releases its locks.
//! * **Exec pool** takes the work that may block: a request that would
//!   wait for a record lock or for `quiesce` (the engine refuses it in
//!   no-wait mode, having done nothing), `Audit`, `Repair`, the catalog
//!   verbs and `Stats`. Once a request is handed off, every later frame
//!   of the session queues behind it until the pool has drained the
//!   session, so replies keep receive order. One session is served by at
//!   most one exec worker at a time. A worker takes a session's whole
//!   queued *run* at once, frames its replies into one buffer and wakes
//!   the event loop once for it.
//! * **Pipelining**: up to [`PIPELINE_DEPTH`] decoded-but-unanswered
//!   frames per connection; a frame the loop runs counts until its reply
//!   is queued. At the budget the session's read interest is *parked* —
//!   TCP backpressure, not disconnect.
//! * **Outbound budget**: a slow consumer whose queued response bytes
//!   (counted as they are framed) exceed [`OUTBOUND_BUDGET`] also parks
//!   reads; buffering is bounded by `budget + depth × frame`, never
//!   unbounded.
//! * **Admission control**: at `net_max_conns` open connections, newly
//!   accepted sockets get a best-effort structured error and close
//!   (counted in [`ServerStats::conns_rejected`]), and the listener's
//!   read interest is parked until a connection closes.
//! * **Orphan rollback**: a dropped connection's open transaction is
//!   aborted on the exec pool (never on an event loop) through the
//!   engine's one rollback, the one restart uses, releasing all its
//!   locks; a held commit stands. Shutdown releases every held commit
//!   once it is decided and drains these cleanup jobs before returning.
//! * **Observability**: per-verb log₂-bucket latency histograms
//!   ([`Request::Metrics`]) measured decode→response (queue wait and a
//!   held commit's fsync included), plus queue-depth/park/loop counters
//!   in [`ServerStats`] and a cheap [`Request::Health`] probe.
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
use dali_common::{DaliError, Lsn, Result};
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
/// Token the listener registers under.
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// Decoded-but-unanswered frames per connection before its reads park.
pub const PIPELINE_DEPTH: usize = 64;
/// Unsent reply bytes per connection past which its reads park.
pub const OUTBOUND_BUDGET: usize = 1 << 20;

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

/// Whether the event loop may run `req` itself. Everything may but what
/// blocks by nature: an audit, a repair, the catalog verbs (DDL holds the
/// catalog across a log flush) and `Stats`, which lists the log
/// directory.
fn runs_inline(req: &Request) -> bool {
    !matches!(
        req,
        Request::Audit
            | Request::Repair { .. }
            | Request::CreateTable { .. }
            | Request::OpenTable { .. }
            | Request::Stats
    )
}

/// Execute one request against a session's transaction slot, the server
/// verbs (`Stats`, `Health`, `Metrics`) from server state and the rest
/// through [`execute_engine_request`]. With `wait`, always a reply.
fn execute_request(
    shared: &Shared,
    txn_slot: &mut Option<TxnHandle>,
    req: &Request,
    wait: bool,
) -> std::result::Result<Response, Failure> {
    Ok(match req {
        Request::Stats => build_server_stats(&shared.engine, &shared.counters)
            .map_or_else(|e| Response::Err(e.into()), Response::Stats),
        Request::Health => Response::Health(shared.health()),
        Request::Metrics => Response::Metrics(
            shared
                .histograms
                .report(shared.start.elapsed().as_nanos() as u64),
        ),
        req => return execute_engine_request(&shared.engine, txn_slot, req, wait),
    })
}

/// Why an engine verb gave no plain reply: an error to answer with, or,
/// in no-wait mode only, a wait it declined to begin, or a durable
/// `Commit` out of its slot whose reply waits for the log's fsync.
enum Failure {
    Reply(WireError),
    WouldWait,
    Held(TxnHandle, Lsn),
}

impl From<WireError> for Failure {
    fn from(e: WireError) -> Failure {
        Failure::Reply(e)
    }
}

impl From<DaliError> for Failure {
    fn from(e: DaliError) -> Failure {
        match e {
            DaliError::WouldWait => Failure::WouldWait,
            e => Failure::Reply(e.into()),
        }
    }
}

/// Execute one *engine* verb against a session's transaction slot, the
/// one executor of the event loop and the exec pool. Session semantics:
/// one txn per connection, `NoTxn`/`TxnAlreadyOpen` misuse errors, errors
/// leave the txn open. Without `wait` the verb runs in the engine's
/// no-wait mode ([`TxnHandle::set_no_wait`]) and fails with
/// [`Failure::WouldWait`] if it would have waited, having done nothing;
/// the caller runs it again, waiting. An error is a reply.
fn execute_engine_request(
    engine: &DaliEngine,
    txn_slot: &mut Option<TxnHandle>,
    req: &Request,
    wait: bool,
) -> std::result::Result<Response, Failure> {
    if let Some(txn) = txn_slot {
        txn.set_no_wait(!wait);
    }
    let res = execute_engine_inner(engine, txn_slot, req, wait);
    // A handle at rest waits: the orphan rollback runs on it as it is.
    if let Some(txn) = txn_slot {
        txn.set_no_wait(false);
    }
    match res {
        Err(Failure::Reply(e)) => Ok(Response::Err(e)),
        res => res,
    }
}

fn execute_engine_inner(
    engine: &DaliEngine,
    txn_slot: &mut Option<TxnHandle>,
    req: &Request,
    wait: bool,
) -> std::result::Result<Response, Failure> {
    fn open(txn_slot: &Option<TxnHandle>) -> std::result::Result<&TxnHandle, WireError> {
        txn_slot.as_ref().ok_or(WireError::NoTxn)
    }
    Ok(match req {
        Request::Begin => {
            if txn_slot.is_some() {
                return Err(WireError::TxnAlreadyOpen.into());
            }
            let txn = engine.begin()?;
            let id = txn.id();
            *txn_slot = Some(txn);
            Response::Began { txn: id }
        }
        Request::Read { rec } => Response::Data(open(txn_slot)?.read_vec(*rec)?),
        Request::Insert { table, data } => Response::Inserted {
            rec: open(txn_slot)?.insert(*table, data)?,
        },
        Request::Update { rec, data } => {
            open(txn_slot)?.update(*rec, data)?;
            Response::Ok
        }
        Request::Delete { rec } => {
            open(txn_slot)?.delete(*rec)?;
            Response::Ok
        }
        Request::LockExclusive { rec } => {
            open(txn_slot)?.lock_exclusive(*rec)?;
            Response::Ok
        }
        Request::Commit | Request::Abort => {
            let txn = open(txn_slot)?;
            // A durable commit that may not wait is held for its fsync.
            let hold = !wait && engine.config().sync_commit;
            let ended = match req {
                Request::Commit if hold => txn.log_commit().map(Some),
                Request::Commit => txn.commit_in_place().map(|()| None),
                _ => txn.abort_in_place().map(|()| None),
            };
            // Refused, the transaction is still open; otherwise it ended
            // (an error too ends it) and the handle goes, or is held.
            if !matches!(ended, Err(DaliError::WouldWait)) {
                if let (Some(txn), Ok(Some(lsn))) = (txn_slot.take(), &ended) {
                    return Err(Failure::Held(txn, *lsn));
                }
            }
            ended?;
            Response::Ok
        }
        Request::CreateTable {
            name,
            rec_size,
            capacity,
        } => Response::Table {
            table: engine.create_table(name, *rec_size as usize, *capacity as usize)?,
        },
        Request::OpenTable { name } => Response::Table {
            table: engine.table(name)?,
        },
        Request::RecordCount { table } => Response::Count(engine.record_count(*table)? as u64),
        Request::Audit => {
            let report = engine.audit()?;
            Response::Audited {
                clean: report.clean(),
                regions_checked: report.regions_checked as u64,
            }
        }
        Request::Ping => Response::Ok,
        Request::Repair { region } => {
            let outcome = engine.repair(*region as usize)?;
            Response::Repaired(RepairSummary {
                regions: outcome.regions as u64,
                bytes_written: outcome.bytes_written as u64,
                records_replayed: outcome.records_replayed as u64,
            })
        }
        // Server verbs the caller should have intercepted; answering
        // from engine state alone would report zeros, so refuse loudly.
        Request::Stats | Request::Health | Request::Metrics => {
            return Err(
                WireError::InvalidArg("server verb reached the engine executor".into()).into(),
            )
        }
    })
}

/// Build the snapshot the `Stats` verb serves. The log slots come from
/// a listing of the log directory, taken now.
fn build_server_stats(engine: &DaliEngine, counters: &ServerCounters) -> Result<ServerStats> {
    let log = engine.log_stats();
    let segments = engine.db().syslog.segment_stats()?;
    Ok(ServerStats {
        commits: engine.stats().commits.load(Ordering::Relaxed),
        aborts: engine.stats().aborts.load(Ordering::Relaxed),
        fsyncs: log.fsyncs,
        log_flushes: log.flushes,
        durable_commits: log.durable_commits,
        piggybacked: log.piggybacked,
        sessions: counters.sessions.load(Ordering::Relaxed),
        orphans_rolled_back: counters.orphans_rolled_back.load(Ordering::Relaxed),
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
        repair_bytes_rebuilt: engine.stats().repair_bytes_rebuilt.load(Ordering::Relaxed),
        conns_rejected: counters.conns_rejected.load(Ordering::Relaxed),
        frames_pipelined: counters.frames_pipelined.load(Ordering::Relaxed),
        read_parks: counters.read_parks.load(Ordering::Relaxed),
        exec_queue_depth: counters.exec_queue_depth.load(Ordering::Relaxed),
        exec_queue_max: counters.exec_queue_max.load(Ordering::Relaxed),
        loop_iterations: counters.loop_iterations.load(Ordering::Relaxed),
        outbound_buffered_max: counters.outbound_buffered_max.load(Ordering::Relaxed),
        log_segments_active: segments.segments,
        log_segments_retired: segments.retired,
        log_bytes_on_disk: segments.bytes_on_disk,
    })
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
    /// A protocol error; the connection closes after its error frame
    /// flushes (framing is no longer trustworthy).
    ProtocolError(WireError),
    /// The connection died: abort its open transaction (if any).
    Cleanup,
}

struct CoreState {
    /// Work handed to the exec pool, in receive order.
    work: VecDeque<Work>,
    /// Framed replies ready for the event loop to write-drain, one
    /// buffer per exec run.
    resps: Vec<Vec<u8>>,
    /// How many replies in `resps` answer a decoded request (protocol
    /// error frames don't count against the pipeline budget).
    answered: usize,
    /// The close-after-flush flag set by a protocol error.
    close_after_resps: bool,
    txn: Option<TxnHandle>,
    /// True while an exec worker owns this session's FIFO — at most one
    /// at a time, which is what makes pipelined responses ordered.
    exec_scheduled: bool,
    /// The event loop dropped the connection; responses are discarded.
    closed: bool,
}

/// The session state shared between the event loop and the exec pool.
struct SessionCore {
    conn_id: u64,
    state: Mutex<CoreState>,
}

impl SessionCore {
    fn new(conn_id: u64) -> SessionCore {
        SessionCore {
            conn_id,
            state: Mutex::new(CoreState {
                work: VecDeque::new(),
                resps: Vec::new(),
                answered: 0,
                close_after_resps: false,
                txn: None,
                exec_scheduled: false,
                closed: false,
            }),
        }
    }
}

// -------------------------------------------------------------------
// Shared server state
// -------------------------------------------------------------------

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
    /// Session tokens with freshly framed replies, for the event loop.
    ready: Mutex<Vec<u64>>,
    /// Shared with the log's durability notification, which must not
    /// own the engine: the log worker could then join itself.
    waker: Arc<Waker>,
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

    /// Tell the event loop a session has replies to drain.
    fn notify_ready(&self, core: &SessionCore) {
        self.ready.lock().unwrap().push(core.conn_id);
        self.waker.wake();
    }

    /// Liveness from flags alone: the loop answers it, so it waits for
    /// no lock and no I/O.
    fn health(&self) -> HealthReport {
        let db = self.engine.db();
        HealthReport {
            healthy: !self.stop.load(Ordering::Acquire)
                && db.check_alive().is_ok()
                && db.syslog.failed().is_ok(),
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

/// Drain one session's work FIFO a run at a time until it is empty. A
/// run is everything queued when the worker looks: taken with the txn
/// slot under one lock, executed in receive order with the slot
/// threaded through, waiting where a verb must, its replies framed into
/// one buffer. One more lock
/// publishes the buffer with one loop wake and takes the next run, or,
/// when none is queued, restores the slot and releases the session, so
/// the loop that drains the last run already sees the exec side idle.
/// The `exec_scheduled` flag guarantees a single worker per session, so
/// replies are pushed in exactly the order frames were decoded.
fn run_session(shared: &Shared, core: &Arc<SessionCore>) {
    let (mut run, mut out) = (VecDeque::new(), Vec::new());
    let mut txn = {
        let mut state = core.state.lock().unwrap();
        std::mem::swap(&mut state.work, &mut run);
        state.txn.take()
    };
    loop {
        let (mut executed, mut close_after, mut cleanup) = (0, false, false);
        for item in run.drain(..) {
            match item {
                Work::Req { tag, started, req } => {
                    // The state lock is not held across the run: verbs
                    // here may block (locks, fsync). A waiting call is
                    // never refused nor held.
                    let Ok(resp) = execute_request(shared, &mut txn, &req, true) else {
                        unreachable!("a waiting call came back without a reply")
                    };
                    resp.frame_into(&mut out);
                    executed += 1;
                    shared
                        .histograms
                        .record(tag, started.elapsed().as_nanos() as u64);
                }
                Work::ProtocolError(e) => {
                    Response::Err(e).frame_into(&mut out);
                    close_after = true;
                }
                Work::Cleanup => cleanup = true,
            }
        }
        shared
            .counters
            .exec_queue_depth
            .fetch_sub(executed as u64, Ordering::Relaxed);
        let orphan = if cleanup { txn.take() } else { None };
        let idle = {
            let mut state = core.state.lock().unwrap();
            if !state.closed && !out.is_empty() {
                state.resps.push(std::mem::take(&mut out));
                state.answered += executed;
                state.close_after_resps |= close_after;
                shared.notify_ready(core);
            }
            out.clear();
            std::mem::swap(&mut state.work, &mut run);
            if run.is_empty() {
                state.txn = txn.take();
                state.exec_scheduled = false;
            }
            run.is_empty()
        };
        if let Some(txn) = orphan {
            let _ = txn.abort();
            shared
                .counters
                .orphans_rolled_back
                .fetch_add(1, Ordering::Relaxed);
        }
        if idle {
            return;
        }
    }
}

// -------------------------------------------------------------------
// The event loop
// -------------------------------------------------------------------

/// The loop-owned half of a session: socket, accumulate buffer, write
/// queue, and interest bookkeeping. The state machine: read-accumulate
/// → decode (execute, or enqueue to exec) → write-drain, with parks in
/// between.
struct Conn {
    stream: TcpStream,
    core: Arc<SessionCore>,
    /// Unparsed inbound bytes (read-accumulate).
    read_buf: Vec<u8>,
    /// Reply runs being drained, front partially written.
    write_bufs: VecDeque<Vec<u8>>,
    write_pos: usize,
    /// Bytes across `write_bufs` not yet written (outbound budget).
    outbound: usize,
    /// Decoded frames not yet answered (pipeline budget).
    pending: usize,
    /// Read interest parked by a budget.
    parked: bool,
    /// A `Commit` is held for its fsync: nothing more is decoded or read
    /// until it is answered.
    holding: bool,
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
            read: !self.parked && !self.read_dead && !self.closing && !self.holding,
            write: !self.write_bufs.is_empty(),
        }
    }
}

/// A durable commit the loop holds between its log step and the fsync
/// that covers it.
struct Held {
    token: u64,
    txn: TxnHandle,
    lsn: Lsn,
    started: Instant,
}

struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    /// Held commits, of open connections and of closed ones alike.
    held: Vec<Held>,
    listener: TcpListener,
    /// `net_max_conns`, with `0` (unlimited) as `usize::MAX`.
    max_conns: usize,
    /// The listener is out of the poller while at `max_conns`.
    listener_parked: bool,
    next_conn_id: u64,
}

impl EventLoop {
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

            let mut accept_ready = false;
            let mut touched: Vec<u64> = Vec::new();
            for ev in &events {
                match ev.token {
                    WAKER_TOKEN => self.shared.waker.drain(),
                    LISTENER_TOKEN => accept_ready = true,
                    token => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            if ev.readable && !conn.read_dead && !conn.parked {
                                Self::read_accumulate(&self.shared, &mut self.held, conn);
                            }
                            if ev.writable {
                                Self::write_drain(conn);
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
            // Only after the waker is drained: a drain may swallow the
            // stop wake, which is then seen here instead of lost.
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }

            let ready = std::mem::take(&mut *self.shared.ready.lock().unwrap());
            for token in ready {
                if let Some(conn) = self.conns.get_mut(&token) {
                    Self::pump_responses(&self.shared, conn);
                    touched.push(token);
                }
            }
            // Also only after the drain: the log's durability
            // notification that a drain swallowed is read here.
            if !self.held.is_empty() {
                self.answer_held(&mut touched);
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

    /// Register a freshly accepted connection.
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
            core: Arc::new(SessionCore::new(conn_id)),
            read_buf: Vec::new(),
            write_bufs: VecDeque::new(),
            write_pos: 0,
            outbound: 0,
            pending: 0,
            parked: false,
            holding: false,
            read_dead: false,
            closing: false,
            registered: Interest::READ,
        };
        self.conns.insert(conn_id, conn);
    }

    /// Read until the socket would block (or a budget parks the read),
    /// decoding complete frames into the session's work FIFO.
    fn read_accumulate(shared: &Arc<Shared>, held: &mut Vec<Held>, conn: &mut Conn) {
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
                    Self::decode_frames(shared, held, conn);
                    if conn.parked || conn.read_dead || conn.holding {
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
    /// budgets allow, stamped with one decode time. While the session
    /// has nothing on the exec pool, each request runs here, in no-wait
    /// mode, and its reply is framed into the pass's buffer. The first
    /// request that must or would wait goes to the pool, and every later
    /// frame of the pass queues behind it. The pass's replies then join
    /// the write queue. A durable `Commit` whose log step ran here is
    /// held in `held`, and decoding stops until it is answered. A frame
    /// counts against the pipeline depth until its reply is queued, and
    /// a reply's bytes against the outbound budget from when they are
    /// framed.
    fn decode_frames(shared: &Arc<Shared>, held: &mut Vec<Held>, conn: &mut Conn) {
        let mut consumed_total = 0usize;
        let (mut enqueued, mut pipelined) = (0u64, 0u64);
        let (mut out, mut answered) = (Vec::new(), 0usize);
        let started = Instant::now();
        // A second handle to the core, so that the connection stays free
        // to borrow while its state is locked.
        let core = Arc::clone(&conn.core);
        let mut state = core.state.lock().unwrap();
        // Replies a worker published that the loop has not pumped go
        // first: this pass's answer later frames.
        Self::take_replies(shared, conn, &mut state);
        while !conn.holding {
            if conn.pending >= PIPELINE_DEPTH || conn.outbound + out.len() > OUTBOUND_BUDGET {
                if !conn.parked {
                    conn.parked = true;
                    shared.counters.read_parks.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
            let parsed = match parse_frame(&conn.read_buf[consumed_total..]) {
                Ok(None) => break,
                Ok(Some((payload, consumed))) => {
                    consumed_total += consumed;
                    Request::decode(payload)
                }
                Err(e) => Err(e),
            };
            let inline = state.work.is_empty() && !state.exec_scheduled;
            match parsed {
                Ok(req) => {
                    pipelined += u64::from(conn.pending > 0);
                    conn.pending += 1;
                    let tag = req.tag();
                    if inline && runs_inline(&req) {
                        match execute_request(shared, &mut state.txn, &req, false) {
                            Ok(resp) => {
                                resp.frame_into(&mut out);
                                answered += 1;
                                shared
                                    .histograms
                                    .record(tag, started.elapsed().as_nanos() as u64);
                                continue;
                            }
                            Err(Failure::Held(txn, lsn)) => {
                                held.push(Held {
                                    token: core.conn_id,
                                    txn,
                                    lsn,
                                    started,
                                });
                                // Asked for at once: the worker's next
                                // fsync covers every commit logged
                                // before it starts.
                                shared.engine.db().syslog.request_durable(lsn);
                                conn.holding = true;
                                continue;
                            }
                            Err(_) => {}
                        }
                    }
                    enqueued += 1;
                    state.work.push_back(Work::Req { tag, started, req });
                }
                Err(e) => {
                    let e = WireError::from(&e);
                    if inline {
                        Response::Err(e).frame_into(&mut out);
                    } else {
                        state.work.push_back(Work::ProtocolError(e));
                    }
                    conn.read_dead = true;
                    break;
                }
            }
        }
        shared
            .counters
            .frames_pipelined
            .fetch_add(pipelined, Ordering::Relaxed);
        // Bump the queue gauge *before* the work becomes visible to the
        // exec pool, or a fast worker's decrement could race ahead of
        // this increment and underflow the gauge.
        if enqueued > 0 {
            let depth = shared
                .counters
                .exec_queue_depth
                .fetch_add(enqueued, Ordering::Relaxed)
                + enqueued;
            ServerCounters::raise_max(&shared.counters.exec_queue_max, depth);
        }
        if !state.work.is_empty() {
            shared.schedule_locked(&core, &mut state);
        }
        drop(state);
        if consumed_total > 0 {
            conn.read_buf.drain(..consumed_total);
        }
        if !out.is_empty() {
            conn.pending -= answered;
            Self::queue_replies(shared, conn, out);
        }
        Self::write_drain(conn);
    }

    /// Append a buffer of framed replies to the write queue.
    fn queue_replies(shared: &Shared, conn: &mut Conn, replies: Vec<u8>) {
        conn.outbound += replies.len();
        conn.write_bufs.push_back(replies);
        ServerCounters::raise_max(&shared.counters.outbound_buffered_max, conn.outbound as u64);
    }

    /// Move the reply runs a worker published into the write queue,
    /// freeing their frames' pipeline budget. After a protocol error's
    /// frame the connection closes once the queue drains.
    fn take_replies(shared: &Shared, conn: &mut Conn, state: &mut CoreState) {
        conn.pending = conn
            .pending
            .saturating_sub(std::mem::take(&mut state.answered));
        for run in state.resps.drain(..) {
            Self::queue_replies(shared, conn, run);
        }
        conn.closing |= state.close_after_resps;
    }

    /// Move the published reply runs into the write queue, then try to
    /// drain them to the socket immediately.
    fn pump_responses(shared: &Arc<Shared>, conn: &mut Conn) {
        let core = Arc::clone(&conn.core);
        let mut state = core.state.lock().unwrap();
        Self::take_replies(shared, conn, &mut state);
        drop(state);
        Self::write_drain(conn);
    }

    /// Write queued reply runs, one `write` each, until the socket would
    /// block.
    fn write_drain(conn: &mut Conn) {
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
    }

    /// Re-register interest if it changed; close the connection when the
    /// state machine has nothing left to do with the socket.
    fn settle(&mut self, token: u64) {
        let close = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Budgets may have relaxed (responses answered, outbound
            // flushed — whether via pump_responses, a bare writable
            // event or a pass that answered its own frames): unpark, and
            // re-parse leftover buffered bytes — the kernel will not
            // re-signal data that already sits in our userspace buffer.
            // Each pass that parks again has consumed frames, so this
            // ends.
            while conn.parked
                && !conn.closing
                && conn.pending < PIPELINE_DEPTH
                && conn.outbound <= OUTBOUND_BUDGET
            {
                conn.parked = false;
                if !conn.read_dead {
                    Self::decode_frames(&self.shared, &mut self.held, conn);
                }
            }
            // A dead read side with no queued work, in-flight exec, held
            // commit or unflushed output has nothing left to produce:
            // close.
            if conn.read_dead && !conn.closing && !conn.holding && conn.write_bufs.is_empty() {
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

    /// Answer every held commit the log has decided (its kept failure
    /// first, as the log checks) and release its locks. A closed
    /// connection's commit stands, unanswered.
    fn answer_held(&mut self, touched: &mut Vec<u64>) {
        let log = &self.shared.engine.db().syslog;
        let mut i = 0;
        while i < self.held.len() {
            let lsn = self.held[i].lsn;
            let durable = match log.failed() {
                Ok(()) if log.durable_lsn() < lsn => {
                    i += 1;
                    continue;
                }
                decided => decided,
            };
            let held = self.held.swap_remove(i);
            let acked = held.txn.acknowledge(durable);
            let resp = acked.map_or_else(|e| Response::Err(e.into()), |()| Response::Ok);
            self.shared.histograms.record(
                Request::Commit.tag(),
                held.started.elapsed().as_nanos() as u64,
            );
            let Some(conn) = self.conns.get_mut(&held.token) else {
                continue;
            };
            conn.holding = false;
            conn.pending -= 1;
            let mut out = Vec::new();
            resp.frame_into(&mut out);
            Self::queue_replies(&self.shared, conn, out);
            if conn.read_dead {
                Self::write_drain(conn);
            } else {
                Self::decode_frames(&self.shared, &mut self.held, conn);
            }
            touched.push(held.token);
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
            state.work.push_back(Work::Cleanup);
            self.shared.schedule_locked(&conn.core, &mut state);
        }
    }

    /// Accept until the listener would block, rejecting past the cap.
    fn accept_drain(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.stop.load(Ordering::Acquire) {
                        continue;
                    }
                    let open = self.shared.counters.sessions.load(Ordering::Relaxed);
                    if open as usize >= self.max_conns {
                        Self::reject(&self.shared, stream);
                        continue;
                    }
                    self.shared
                        .counters
                        .sessions
                        .fetch_add(1, Ordering::Relaxed);
                    let conn_id = self.next_conn_id;
                    self.next_conn_id += 1;
                    self.adopt(stream, conn_id);
                    self.settle(conn_id);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        // At the cap: park the listener until a connection closes
        // (accept-pause). The kernel backlog queues the overflow.
        if self.shared.counters.sessions.load(Ordering::Relaxed) as usize >= self.max_conns
            && !self.listener_parked
            && self.poller.deregister(self.listener.as_raw_fd()).is_ok()
        {
            self.listener_parked = true;
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

    /// Resume accepting once a connection closed below the cap (runs at
    /// the end of every loop iteration, after the closes).
    fn maybe_unpark_listener(&mut self) {
        if self.listener_parked
            && (self.shared.counters.sessions.load(Ordering::Relaxed) as usize) < self.max_conns
            && self
                .poller
                .register(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                .is_ok()
        {
            self.listener_parked = false;
        }
    }

    /// Shutdown: release every held commit once the log has decided it,
    /// unanswered, then close every connection, scheduling orphan
    /// cleanups on the exec pool (the server joins the pool after the
    /// event loop, so every rollback completes before `shutdown()`
    /// returns).
    fn teardown(&mut self) {
        let log = &self.shared.engine.db().syslog;
        for held in self.held.drain(..) {
            let _ = held.txn.acknowledge(log.wait_durable(held.lsn));
        }
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
/// sessions, drains orphan rollbacks, and joins every thread.
pub struct DaliServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event_thread: Option<JoinHandle<()>>,
    exec_threads: Vec<JoinHandle<()>>,
}

impl DaliServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and start the event loop and the exec pool. Admission control
    /// comes from the engine's [`DaliConfig`](dali_common::DaliConfig)
    /// (`net_max_conns`); the exec pool's size follows the host.
    pub fn start(engine: DaliEngine, addr: impl ToSocketAddrs) -> Result<DaliServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let max_conns = match engine.config().net_max_conns {
            0 => usize::MAX,
            n => n,
        };
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        // The pool carries every wait for a lock or `quiesce`, and the
        // verbs behind one. The floor of eight matters on small hosts: a
        // lock holder's commit, handed off behind a wait of its own, must
        // find a free worker even when every other session is blocked
        // waiting on its locks.
        let n_exec = (2 * cpus).max(8);

        // Every fd the event loop needs (waker pair, epoll instance) is
        // created before any thread is spawned, so running out of
        // descriptors fails `start` before anything runs.
        let waker = Arc::new(Waker::new()?);
        let mut poller = Poller::new()?;
        poller.register(waker.fd(), WAKER_TOKEN, Interest::READ)?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;

        let shared = Arc::new(Shared {
            engine,
            counters: ServerCounters::default(),
            histograms: LatencyHistograms::new(),
            stop: AtomicBool::new(false),
            start: Instant::now(),
            ready: Mutex::new(Vec::new()),
            waker,
            exec: ExecQueue {
                jobs: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                stop: AtomicBool::new(false),
            },
        });
        // The log worker wakes the loop for its held commits.
        let notify = Arc::clone(&shared.waker);
        shared
            .engine
            .db()
            .syslog
            .set_durable_notify(Some(Box::new(move || notify.wake())));
        let event_loop = EventLoop {
            shared: Arc::clone(&shared),
            poller,
            conns: HashMap::new(),
            held: Vec::new(),
            listener,
            max_conns,
            listener_parked: false,
            next_conn_id: 0,
        };

        // Each thread joins the server as it starts: if a later spawn
        // fails, dropping the server stops and joins what already runs.
        let mut server = DaliServer {
            shared,
            addr,
            event_thread: None,
            exec_threads: Vec::with_capacity(n_exec),
        };
        server.event_thread = Some(
            std::thread::Builder::new()
                .name("dali-net-ev".into())
                .spawn(move || event_loop.run())?,
        );
        for id in 0..n_exec {
            let shared = Arc::clone(&server.shared);
            server.exec_threads.push(
                std::thread::Builder::new()
                    .name(format!("dali-net-ex{id}"))
                    .spawn(move || exec_worker(shared))?,
            );
        }
        Ok(server)
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
    /// and join every thread. Idle clients see the connection close;
    /// their open transactions are rolled back through the orphan path
    /// *before* this returns.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for DaliServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.waker.wake();
        if let Some(h) = self.event_thread.take() {
            let _ = h.join();
        }
        // The event loop has enqueued every cleanup job; now let the exec
        // pool drain to empty and exit.
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
        self.shared.engine.db().syslog.set_durable_notify(None);
    }
}
