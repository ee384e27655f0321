//! Blocking client for the dali-net wire protocol.
//!
//! One connection, one request in flight, at most one open transaction —
//! the same discipline as an in-process [`TxnHandle`]'s owner. Server
//! errors come back as the structured [`DaliError`] they started as, so
//! retry loops written against the embedded engine (`matches!(e,
//! DaliError::LockDenied { .. })`) work unchanged against the network.
//!
//! [`TxnHandle`]: dali_engine::TxnHandle

use crate::protocol::{
    read_frame, HealthReport, MetricsReport, RepairSummary, Request, Response, ServerStats,
};
use dali_common::{DaliError, RecId, Result, TableId, TxnId};
use dali_workload::Session;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Fold transport-level "the peer went away" errors into the structured
/// [`DaliError::ConnectionClosed`], so callers can distinguish a server
/// shutdown (retry elsewhere / surface cleanly) from a torn frame or a
/// local I/O fault.
fn map_closed(e: DaliError) -> DaliError {
    match &e {
        DaliError::Io(io) => match io.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => DaliError::ConnectionClosed,
            _ => e,
        },
        _ => e,
    }
}

/// A connection to a [`DaliServer`](crate::DaliServer).
pub struct DaliClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The outgoing batch, framed in place and written in one go.
    wire: Vec<u8>,
}

impl DaliClient {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<DaliClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(DaliClient {
            reader,
            writer: stream,
            wire: Vec::new(),
        })
    }

    /// Send one request and wait for its response: one frame, one write.
    /// A connection the server closed — mid-request or between requests —
    /// surfaces as [`DaliError::ConnectionClosed`], not a raw I/O error.
    fn call(&mut self, req: &Request) -> Result<Response> {
        self.send(std::slice::from_ref(req))?;
        self.receive()
    }

    /// Send a batch of requests, then collect the responses, which the
    /// server returns in receive order. Every request is framed into one
    /// buffer that is written once, so the batch leaves as one write; the
    /// replies are read through the connection's buffered reader. The
    /// server overlaps the frames in its execution pool up to the
    /// connection's pipeline budget, amortizing round trips.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>> {
        self.send(reqs)?;
        reqs.iter().map(|_| self.receive()).collect()
    }

    /// Frame `reqs` back to back and send them in one write.
    fn send(&mut self, reqs: &[Request]) -> Result<()> {
        self.wire.clear();
        for req in reqs {
            req.frame_into(&mut self.wire);
        }
        self.writer
            .write_all(&self.wire)
            .map_err(|e| map_closed(e.into()))
    }

    /// Read and decode the next response frame.
    fn receive(&mut self) -> Result<Response> {
        match read_frame(&mut self.reader).map_err(map_closed)? {
            Some(payload) => Response::decode(&payload),
            None => Err(DaliError::ConnectionClosed),
        }
    }

    /// Send a request and translate a structured error response back
    /// into the [`DaliError`] it started as.
    fn call_ok(&mut self, req: &Request) -> Result<Response> {
        match self.call(req)? {
            Response::Err(e) => Err(e.into()),
            resp => Ok(resp),
        }
    }

    fn unexpected(resp: Response) -> DaliError {
        DaliError::InvalidArg(format!("protocol: unexpected response {resp:?}"))
    }

    // ---- transaction verbs ----

    /// Begin a transaction on this connection; returns its server-side id.
    pub fn begin(&mut self) -> Result<TxnId> {
        match self.call_ok(&Request::Begin)? {
            Response::Began { txn } => Ok(txn),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Read a record.
    pub fn read(&mut self, rec: RecId) -> Result<Vec<u8>> {
        match self.call_ok(&Request::Read { rec })? {
            Response::Data(data) => Ok(data),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Insert a record; returns its id.
    pub fn insert(&mut self, table: TableId, data: &[u8]) -> Result<RecId> {
        match self.call_ok(&Request::Insert {
            table,
            data: data.to_vec(),
        })? {
            Response::Inserted { rec } => Ok(rec),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Update a record in place.
    pub fn update(&mut self, rec: RecId, data: &[u8]) -> Result<()> {
        match self.call_ok(&Request::Update {
            rec,
            data: data.to_vec(),
        })? {
            Response::Ok => Ok(()),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Delete a record.
    pub fn delete(&mut self, rec: RecId) -> Result<()> {
        match self.call_ok(&Request::Delete { rec })? {
            Response::Ok => Ok(()),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Take the exclusive record lock up front (read-for-update).
    pub fn lock_exclusive(&mut self, rec: RecId) -> Result<()> {
        match self.call_ok(&Request::LockExclusive { rec })? {
            Response::Ok => Ok(()),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Commit the connection's transaction (group-committed server-side
    /// under the engine's commit window).
    pub fn commit(&mut self) -> Result<()> {
        match self.call_ok(&Request::Commit)? {
            Response::Ok => Ok(()),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Abort the connection's transaction.
    pub fn abort(&mut self) -> Result<()> {
        match self.call_ok(&Request::Abort)? {
            Response::Ok => Ok(()),
            resp => Err(Self::unexpected(resp)),
        }
    }

    // ---- DDL / catalog ----

    /// Create a table (auto-committed DDL).
    pub fn create_table(
        &mut self,
        name: &str,
        rec_size: usize,
        capacity: usize,
    ) -> Result<TableId> {
        match self.call_ok(&Request::CreateTable {
            name: name.to_string(),
            rec_size: rec_size as u32,
            capacity: capacity as u64,
        })? {
            Response::Table { table } => Ok(table),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Look up a table id by name.
    pub fn table(&mut self, name: &str) -> Result<TableId> {
        match self.call_ok(&Request::OpenTable {
            name: name.to_string(),
        })? {
            Response::Table { table } => Ok(table),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Number of allocated records in a table.
    pub fn record_count(&mut self, table: TableId) -> Result<usize> {
        match self.call_ok(&Request::RecordCount { table })? {
            Response::Count(n) => Ok(n as usize),
            resp => Err(Self::unexpected(resp)),
        }
    }

    // ---- admin verbs ----

    /// Run a full-database audit; returns `(clean, regions_checked)`.
    pub fn audit(&mut self) -> Result<(bool, u64)> {
        match self.call_ok(&Request::Audit)? {
            Response::Audited {
                clean,
                regions_checked,
            } => Ok((clean, regions_checked)),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Online parity repair of one protection region (admin verb):
    /// rebuild it in place from its parity group, falling back to
    /// log-based cache recovery server-side when the group cannot be
    /// trusted. The summary says which rung of the ladder repaired it.
    pub fn repair(&mut self, region: u64) -> Result<RepairSummary> {
        match self.call_ok(&Request::Repair { region })? {
            Response::Repaired(summary) => Ok(summary),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Server statistics snapshot.
    pub fn stats(&mut self) -> Result<ServerStats> {
        match self.call_ok(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.call_ok(&Request::Ping)? {
            Response::Ok => Ok(()),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Cheap health probe: server liveness, open connections, and the
    /// execution-queue depth — answered from server state without
    /// touching a table.
    pub fn health(&mut self) -> Result<HealthReport> {
        match self.call_ok(&Request::Health)? {
            Response::Health(h) => Ok(h),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Per-verb latency histograms (log₂-ns buckets) since server start.
    pub fn metrics(&mut self) -> Result<MetricsReport> {
        match self.call_ok(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            resp => Err(Self::unexpected(resp)),
        }
    }

    /// Drop the connection *without* closing the open transaction —
    /// simulates a client crash mid-transaction. The server must roll
    /// the orphan back and release its locks.
    pub fn drop_connection(self) {
        // Dropping the streams closes the socket; consuming self makes
        // the intent explicit at call sites.
    }
}

/// A connection is a [`Session`]: `dali-workload`'s TPC-B driver runs over
/// N connections exactly as it runs over N in-process sessions.
impl Session for DaliClient {
    fn begin(&mut self) -> Result<()> {
        DaliClient::begin(self).map(drop)
    }

    fn read(&mut self, rec: RecId) -> Result<Vec<u8>> {
        DaliClient::read(self, rec)
    }

    fn update(&mut self, rec: RecId, data: &[u8]) -> Result<()> {
        DaliClient::update(self, rec, data)
    }

    fn insert(&mut self, table: TableId, data: &[u8]) -> Result<RecId> {
        DaliClient::insert(self, table, data)
    }

    fn delete(&mut self, rec: RecId) -> Result<()> {
        DaliClient::delete(self, rec)
    }

    fn lock_exclusive(&mut self, rec: RecId) -> Result<()> {
        DaliClient::lock_exclusive(self, rec)
    }

    fn commit(&mut self) -> Result<()> {
        DaliClient::commit(self)
    }

    fn abort(&mut self) -> Result<()> {
        DaliClient::abort(self)
    }

    fn create_table(&mut self, name: &str, rec_size: usize, capacity: usize) -> Result<TableId> {
        DaliClient::create_table(self, name, rec_size, capacity)
    }

    fn table(&mut self, name: &str) -> Result<TableId> {
        DaliClient::table(self, name)
    }
}
