//! The wire protocol: request/response enums with a checksummed,
//! length-prefixed binary encoding.
//!
//! A frame is `[len: u32][checksum: u32][payload]`, little-endian, where
//! `checksum` is the XOR fold of the payload (DESIGN.md "Encoding"). The
//! checksum catches torn writes on a half-closed socket; a frame that
//! fails length, checksum, or payload validation surfaces as
//! [`DaliError::InvalidArg`] — never a panic — so a malicious or
//! truncated peer cannot take the server down.
//!
//! Every payload is decoded through the workspace's one checked
//! [`Reader`]: no field is read past the bytes that remain, and every
//! count or length is held against them before anything is allocated, so
//! garbage lengths cannot trigger huge allocations either.
//!
//! Each message type is declared **once**, with the workspace codec's
//! `wire_enum!` (a variant's tag and fields in wire order) or
//! `wire_struct!` (a struct's fields), and its Rust type, encoder,
//! decoder and `tag()` are all derived from that declaration, so they
//! cannot drift apart. Only the framing below is the protocol's own.

use dali_common::codec::{Listed, Reader, Wire};
use dali_common::{fold, wire_enum, wire_struct, DaliError, DbAddr, RecId, Result, TableId, TxnId};
use std::io::Read;

/// Hard cap on a frame's payload size (largest legitimate payload is a
/// record image plus fixed overhead; 16 MiB leaves room for any record
/// size this engine supports).
pub const MAX_FRAME: usize = 16 << 20;

fn bad(msg: String) -> DaliError {
    DaliError::InvalidArg(format!("protocol: {msg}"))
}

// -------------------------------------------------------------------
// Messages
// -------------------------------------------------------------------

wire_enum! {
    /// A client request. One transaction per connection at a time: `Begin`
    /// opens it, `Commit`/`Abort` close it, and the data verbs operate on
    /// the connection's current transaction.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Request {
        /// Begin a transaction on this connection.
        0 "begin" Begin,
        /// Read a record (shared lock).
        1 "read" Read { rec: RecId },
        /// Insert a record into a table.
        2 "insert" Insert { table: TableId, data: Vec<u8> },
        /// Update a record in place (exclusive lock).
        3 "update" Update { rec: RecId, data: Vec<u8> },
        /// Delete a record.
        4 "delete" Delete { rec: RecId },
        /// Take an exclusive lock without reading (read-for-update intent).
        5 "lock_exclusive" LockExclusive { rec: RecId },
        /// Commit the connection's transaction.
        6 "commit" Commit,
        /// Abort the connection's transaction.
        7 "abort" Abort,
        /// DDL: create a table (auto-committed).
        8 "create_table" CreateTable { name: String, rec_size: u32, capacity: u64 },
        /// Look up a table id by name.
        9 "open_table" OpenTable { name: String },
        /// Number of allocated records in a table.
        10 "record_count" RecordCount { table: TableId },
        /// Admin: run a full-database audit.
        11 "audit" Audit,
        /// Admin: engine + log + server counters.
        12 "stats" Stats,
        /// Liveness probe.
        13 "ping" Ping,
        /// Admin: online repair of one protection region — rebuild the
        /// pages under it from the certified checkpoint plus the log.
        14 "repair" Repair { region: u64 },
        /// Admin: cheap liveness + load probe (answered without touching the
        /// engine's data path).
        15 "health" Health,
        /// Admin: per-verb latency histograms and loop counters.
        16 "metrics" Metrics,
    }
}

wire_struct! {
    /// Server statistics returned by [`Request::Stats`]: the engine's
    /// operation counters, the system log's flush/fsync counters (group
    /// commit amortization is `fsyncs / durable_commits`), and the server's
    /// session bookkeeping.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ServerStats {
        pub commits: u64,
        pub aborts: u64,
        /// `sync_data` calls issued by the log.
        pub fsyncs: u64,
        /// Tail-to-file log writes.
        pub log_flushes: u64,
        /// Durable-commit requests served by the log.
        pub durable_commits: u64,
        /// Durable commits that rode a neighbour's fsync.
        pub piggybacked: u64,
        /// Currently connected sessions.
        pub sessions: u64,
        /// Transactions rolled back because their connection dropped.
        pub orphans_rolled_back: u64,
        /// Full-database audit sweeps run (on-demand + checkpoint
        /// certification).
        pub audits_run: u64,
        /// Regions folded-and-compared across all audit sweeps.
        pub audit_regions: u64,
        /// Bytes XOR-folded by audit sweeps.
        pub audit_bytes_folded: u64,
        /// Wall-clock nanoseconds spent inside audit sweeps.
        pub audit_ns: u64,
        /// Regions folded by checkpoint certification sweeps (full + delta).
        pub certify_regions_certified: u64,
        /// Regions delta certifications skipped relative to full sweeps.
        pub certify_regions_skipped: u64,
        /// Exclusive latch brackets taken by audit/certification sweeps.
        pub audit_latch_brackets: u64,
        /// Regions handed to online repair.
        pub repair_attempted: u64,
        /// Regions online repair rebuilt.
        pub repair_succeeded: u64,
        /// Bytes written back by online repairs (whole pages).
        pub repair_bytes_rebuilt: u64,
        /// Connections rejected by admission control (at `net_max_conns`).
        pub conns_rejected: u64,
        /// Frames decoded while an earlier frame from the same connection was
        /// still unanswered — the depth the pipelining budget actually bought.
        pub frames_pipelined: u64,
        /// Times a session's read interest was parked by backpressure
        /// (pipeline budget exhausted or outbound budget exceeded).
        pub read_parks: u64,
        /// Requests currently queued for the execution pool.
        pub exec_queue_depth: u64,
        /// High-watermark of the execution-pool queue depth.
        pub exec_queue_max: u64,
        /// Readiness-loop wakeups.
        pub loop_iterations: u64,
        /// High-watermark of any one connection's buffered outbound bytes.
        pub outbound_buffered_max: u64,
        /// Segment files in the log directory when the verb is answered.
        pub log_segments_active: u64,
        /// Segments retired by checkpoint-driven retention since open.
        pub log_segments_retired: u64,
        /// Total bytes of those segment files.
        pub log_bytes_on_disk: u64,
    }
}

wire_struct! {
    /// Outcome of a [`Request::Repair`] — a wire mirror of the engine's
    /// `RepairOutcome`, so the protocol stays free of engine types.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RepairSummary {
        /// Regions repaired.
        pub regions: u64,
        /// Bytes written back (whole pages).
        pub bytes_written: u64,
        /// Stable-log records with a share in the rebuilt pages.
        pub records_replayed: u64,
    }
}

wire_struct! {
    /// Outcome of a [`Request::Health`] probe — answered from server
    /// counters alone, so it stays cheap under load and meaningful when the
    /// data path is wedged.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct HealthReport {
        /// The server is accepting work (not shutting down, engine alive).
        pub healthy: bool,
        /// Connections currently open.
        pub conns_open: u64,
        /// Requests queued for the execution pool right now.
        pub exec_queue_depth: u64,
        /// Nanoseconds since the server started.
        pub uptime_ns: u64,
    }
}

wire_struct! {
    /// Per-verb latency distribution inside a [`MetricsReport`].
    ///
    /// `buckets` are log₂-nanosecond histogram cells: `(i, n)` counts `n`
    /// requests whose decode→response latency fell in `[2^i, 2^(i+1))` ns.
    /// Only non-zero cells cross the wire; bucketwise addition merges
    /// reports from different servers or scrape intervals.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct VerbMetrics {
        /// The request tag this row describes (`Request` encoding tag).
        pub verb: u8,
        /// Requests completed.
        pub count: u64,
        /// Sum of latencies in nanoseconds (for means; percentiles come from
        /// the buckets).
        pub total_ns: u64,
        /// Sparse `(log2_bucket, count)` cells, ascending by bucket.
        pub buckets: Vec<(u8, u64)>,
    }
}

impl VerbMetrics {
    /// Upper-bound latency (ns) of the bucket containing the `q`-quantile
    /// request (`q` in `[0, 1]`), or 0 when empty. p50 = `quantile(0.50)`,
    /// p99 = `quantile(0.99)`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return 1u64 << (bucket as u32 + 1).min(63);
            }
        }
        self.buckets
            .last()
            .map(|&(b, _)| 1u64 << (b as u32 + 1).min(63))
            .unwrap_or(0)
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

wire_struct! {
    /// Outcome of a [`Request::Metrics`] — the server's per-verb latency
    /// histograms plus uptime, mergeable across servers by verb.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct MetricsReport {
        /// Nanoseconds since the server started.
        pub uptime_ns: u64,
        /// One row per verb that has completed at least one request,
        /// ascending by verb tag.
        pub verbs: Vec<VerbMetrics>,
    }
}

impl Listed for VerbMetrics {
    const MIN_BYTES: usize = 1 + 8 + 8 + 4;
}

impl MetricsReport {
    /// The row for a verb tag, if any requests of that verb completed.
    pub fn verb(&self, tag: u8) -> Option<&VerbMetrics> {
        self.verbs.iter().find(|v| v.verb == tag)
    }
}

wire_enum! {
    /// A server response.
    ///
    /// `Stats` dwarfs the other variants (37 counters), but responses are
    /// transient — decoded, delivered, dropped — and never stored in bulk,
    /// so boxing it would buy nothing and cost an allocation per stats poll.
    #[allow(clippy::large_enum_variant)]
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Response {
        /// The request succeeded with nothing to return.
        0 "ok" Ok,
        /// `Begin` succeeded; the server-side transaction id (diagnostics —
        /// clients retry by reconnecting the verb sequence, not by id).
        1 "began" Began { txn: TxnId },
        /// A record's contents.
        2 "data" Data(data: Vec<u8>),
        /// An insert's record id.
        3 "inserted" Inserted { rec: RecId },
        /// A table id (create/open).
        4 "table" Table { table: TableId },
        /// A record count.
        5 "count" Count(count: u64),
        /// Audit outcome: clean flag and number of regions checked.
        6 "audited" Audited { clean: bool, regions_checked: u64 },
        /// Statistics snapshot.
        7 "stats" Stats(stats: ServerStats),
        /// Repair outcome: how the region was brought back.
        9 "repaired" Repaired(summary: RepairSummary),
        /// The request failed; the error is structured so client retry loops
        /// can match on it exactly like in-process code.
        8 "err" Err(error: WireError),
        /// Liveness + load probe outcome.
        10 "health" Health(report: HealthReport),
        /// Per-verb latency histograms.
        11 "metrics" Metrics(report: MetricsReport),
    }
}

wire_enum! {
    /// Structured errors carried over the wire — a mirror of [`DaliError`]
    /// plus the protocol-level failure modes. Conversions both ways keep
    /// client retry loops (`matches!(e, DaliError::LockDenied { .. })`)
    /// identical to the in-process ones in `crates/workload`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum WireError {
        0 "lock_denied" LockDenied { txn: TxnId, rec: RecId },
        1 "corruption_detected" CorruptionDetected { addr: DbAddr, len: u64, expected: u32, actual: u32 },
        2 "write_fault" WriteFault { addr: DbAddr },
        3 "txn_aborted" TxnAborted(txn: TxnId),
        4 "not_found" NotFound(what: String),
        5 "out_of_space" OutOfSpace(what: String),
        6 "invalid_arg" InvalidArg(what: String),
        7 "recovery_failed" RecoveryFailed(what: String),
        8 "crashed" Crashed,
        9 "io" Io(what: String),
        /// The connection has no open transaction for a data verb, or an
        /// open one where `Begin` requires none.
        10 "no_txn" NoTxn,
        11 "txn_already_open" TxnAlreadyOpen,
        /// The peer closed the connection (cleanly or mid-request). Never
        /// sent by the server — the client synthesizes it when a read or
        /// write hits EOF/reset — but it has a wire tag so a proxy that does
        /// send it round-trips.
        12 "connection_closed" ConnectionClosed,
    }
}

impl From<&DaliError> for WireError {
    fn from(e: &DaliError) -> WireError {
        match e {
            DaliError::Io(err) => WireError::Io(err.to_string()),
            DaliError::CorruptionDetected {
                addr,
                len,
                expected,
                actual,
            } => WireError::CorruptionDetected {
                addr: *addr,
                len: *len as u64,
                expected: *expected,
                actual: *actual,
            },
            DaliError::WriteFault { addr } => WireError::WriteFault { addr: *addr },
            DaliError::TxnAborted(t) => WireError::TxnAborted(*t),
            DaliError::LockDenied { txn, rec } => WireError::LockDenied {
                txn: *txn,
                rec: *rec,
            },
            DaliError::NotFound(s) => WireError::NotFound(s.clone()),
            DaliError::OutOfSpace(s) => WireError::OutOfSpace(s.clone()),
            DaliError::InvalidArg(s) => WireError::InvalidArg(s.clone()),
            DaliError::RecoveryFailed(s) => WireError::RecoveryFailed(s.clone()),
            DaliError::Crashed => WireError::Crashed,
            DaliError::ConnectionClosed => WireError::ConnectionClosed,
        }
    }
}

impl From<DaliError> for WireError {
    fn from(e: DaliError) -> WireError {
        WireError::from(&e)
    }
}

impl From<WireError> for DaliError {
    fn from(e: WireError) -> DaliError {
        match e {
            WireError::Io(s) => DaliError::Io(std::io::Error::other(s)),
            WireError::CorruptionDetected {
                addr,
                len,
                expected,
                actual,
            } => DaliError::CorruptionDetected {
                addr,
                len: len as usize,
                expected,
                actual,
            },
            WireError::WriteFault { addr } => DaliError::WriteFault { addr },
            WireError::TxnAborted(t) => DaliError::TxnAborted(t),
            WireError::LockDenied { txn, rec } => DaliError::LockDenied { txn, rec },
            WireError::NotFound(s) => DaliError::NotFound(s),
            WireError::OutOfSpace(s) => DaliError::OutOfSpace(s),
            WireError::InvalidArg(s) => DaliError::InvalidArg(s),
            WireError::RecoveryFailed(s) => DaliError::RecoveryFailed(s),
            WireError::Crashed => DaliError::Crashed,
            WireError::NoTxn => DaliError::InvalidArg("no transaction open on connection".into()),
            WireError::TxnAlreadyOpen => {
                DaliError::InvalidArg("transaction already open on connection".into())
            }
            WireError::ConnectionClosed => DaliError::ConnectionClosed,
        }
    }
}

fn encode_payload<'a>(message: &impl Wire<'a>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    message.put(&mut payload);
    payload
}

/// Encode a request payload into a fresh buffer (`frame` adds the
/// header).
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode_payload(req)
}

/// Encode a response payload into a fresh buffer.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode_payload(resp)
}

// -------------------------------------------------------------------
// Framing
// -------------------------------------------------------------------

/// XOR-fold checksum over a payload (zero-padded trailing word): the
/// workspace's one XOR slice kernel, as the system log's frames use.
#[inline]
pub fn checksum(payload: &[u8]) -> u32 {
    fold::xor_fold_padded(payload)
}

/// The `[len][checksum]` header of `payload`'s frame.
fn frame_header(payload: &[u8]) -> [u8; 8] {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut header = [0u8; 8];
    header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..8].copy_from_slice(&checksum(payload).to_le_bytes());
    header
}

/// Split a frame header into payload length and checksum, refusing an
/// oversized length before anything is allocated for it.
fn parse_header(header: &[u8]) -> Result<(usize, u32)> {
    let mut r = Reader::new(header, bad);
    let (len, sum) = (r.u32()? as usize, r.u32()?);
    if len > MAX_FRAME {
        return Err(r.fail(format_args!("frame of {len} bytes exceeds {MAX_FRAME}")));
    }
    Ok((len, sum))
}

/// Read one frame from `r`. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection); errors on truncation
/// mid-frame, an oversized length, or a checksum mismatch.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(bad("connection closed mid-frame header".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(DaliError::Io(e)),
        }
    }
    let (len, sum) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| bad(format!("connection closed mid-frame payload: {e}")))?;
    if checksum(&payload) != sum {
        return Err(bad("frame checksum mismatch".into()));
    }
    Ok(Some(payload))
}

/// Append `message`'s frame to `out`: reserve the header, encode the
/// payload in place, then patch its length and checksum. Byte-identical
/// to [`frame`] of the encoded payload.
fn frame_into<'a>(message: &impl Wire<'a>, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    message.put(out);
    let header = frame_header(&out[start + 8..]);
    out[start..start + 8].copy_from_slice(&header);
}

impl Request {
    /// Append this request's frame to `out` (see [`frame`]).
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        frame_into(self, out)
    }
}

impl Response {
    /// Append this response's frame to `out` (see [`frame`]).
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        frame_into(self, out)
    }
}

/// Build one wire frame (`[len][checksum][payload]`) as an owned buffer
/// — the bytes a message's `frame_into` appends in place.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&frame_header(payload));
    out.extend_from_slice(payload);
    out
}

/// Incremental frame parser for a nonblocking accumulate buffer: returns
/// `Ok(Some((payload, consumed)))`, the payload borrowed from `buf`, when
/// `buf` starts with a complete valid frame, `Ok(None)` when more bytes
/// are needed, and an error on an oversized length or checksum mismatch
/// (the connection has no trustworthy frame boundary left and must close).
pub fn parse_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>> {
    let Some((header, rest)) = buf.split_at_checked(8) else {
        return Ok(None);
    };
    let (len, sum) = parse_header(header)?;
    let Some(payload) = rest.get(..len) else {
        return Ok(None);
    };
    if checksum(payload) != sum {
        return Err(bad("frame checksum mismatch".into()));
    }
    Ok(Some((payload, 8 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::SlotId;

    #[test]
    fn request_round_trips() {
        let samples = vec![
            Request::Begin,
            Request::Read {
                rec: RecId::new(TableId(1), SlotId(2)),
            },
            Request::Insert {
                table: TableId(3),
                data: vec![1, 2, 3],
            },
            Request::Update {
                rec: RecId::new(TableId(1), SlotId(2)),
                data: vec![0; 100],
            },
            Request::Delete {
                rec: RecId::new(TableId(9), SlotId(0)),
            },
            Request::LockExclusive {
                rec: RecId::new(TableId(0), SlotId(7)),
            },
            Request::Commit,
            Request::Abort,
            Request::CreateTable {
                name: "accounts".into(),
                rec_size: 100,
                capacity: 1000,
            },
            Request::OpenTable {
                name: "history".into(),
            },
            Request::RecordCount { table: TableId(2) },
            Request::Audit,
            Request::Stats,
            Request::Ping,
            Request::Repair { region: 12345 },
            Request::Health,
            Request::Metrics,
        ];
        for req in samples {
            let mut buf = Vec::new();
            req.encode(&mut buf);
            assert_eq!(Request::decode(&buf).unwrap(), req);
            assert_eq!(buf[0], req.tag(), "tag() must match the encoding");
        }
    }

    #[test]
    fn response_round_trips() {
        let samples = vec![
            Response::Ok,
            Response::Began { txn: TxnId(42) },
            Response::Data(vec![9; 100]),
            Response::Inserted {
                rec: RecId::new(TableId(1), SlotId(77)),
            },
            Response::Table { table: TableId(3) },
            Response::Count(12345),
            Response::Audited {
                clean: true,
                regions_checked: 65536,
            },
            Response::Stats(ServerStats {
                commits: 1,
                aborts: 2,
                fsyncs: 3,
                log_flushes: 4,
                durable_commits: 5,
                piggybacked: 6,
                sessions: 8,
                orphans_rolled_back: 9,
                audits_run: 14,
                audit_regions: 15,
                audit_bytes_folded: 16,
                audit_ns: 17,
                certify_regions_certified: 18,
                certify_regions_skipped: 19,
                audit_latch_brackets: 20,
                repair_attempted: 21,
                repair_succeeded: 22,
                repair_bytes_rebuilt: 24,
                conns_rejected: 26,
                frames_pipelined: 27,
                read_parks: 28,
                exec_queue_depth: 29,
                exec_queue_max: 30,
                loop_iterations: 31,
                outbound_buffered_max: 32,
                log_segments_active: 33,
                log_segments_retired: 34,
                log_bytes_on_disk: 35,
            }),
            Response::Repaired(RepairSummary {
                regions: 1,
                bytes_written: 4096,
                records_replayed: 42,
            }),
            Response::Err(WireError::LockDenied {
                txn: TxnId(5),
                rec: RecId::new(TableId(1), SlotId(2)),
            }),
            Response::Err(WireError::CorruptionDetected {
                addr: DbAddr(0x40),
                len: 64,
                expected: 0xdead_beef,
                actual: 0x1234_5678,
            }),
            Response::Err(WireError::NoTxn),
            Response::Err(WireError::Crashed),
            Response::Err(WireError::ConnectionClosed),
            Response::Health(HealthReport {
                healthy: true,
                conns_open: 1024,
                exec_queue_depth: 3,
                uptime_ns: 5_000_000_000,
            }),
            Response::Metrics(MetricsReport {
                uptime_ns: 7,
                verbs: vec![
                    VerbMetrics {
                        verb: 13,
                        count: 100,
                        total_ns: 12345,
                        buckets: vec![(10, 60), (11, 39), (20, 1)],
                    },
                    VerbMetrics {
                        verb: 6,
                        count: 1,
                        total_ns: 9,
                        buckets: vec![(3, 1)],
                    },
                ],
            }),
            Response::Metrics(MetricsReport::default()),
        ];
        for resp in samples {
            let mut buf = Vec::new();
            resp.encode(&mut buf);
            assert_eq!(Response::decode(&buf).unwrap(), resp);
        }
    }

    #[test]
    fn verb_metrics_quantiles() {
        let v = VerbMetrics {
            verb: 13,
            count: 100,
            total_ns: 0,
            buckets: vec![(10, 50), (12, 49), (20, 1)],
        };
        // p50 lands in the first bucket: upper bound 2^11.
        assert_eq!(v.quantile(0.50), 1 << 11);
        // p99 lands in the second: upper bound 2^13.
        assert_eq!(v.quantile(0.99), 1 << 13);
        // p100 hits the outlier bucket.
        assert_eq!(v.quantile(1.0), 1 << 21);
        assert_eq!(VerbMetrics::default().quantile(0.5), 0);
    }

    #[test]
    fn connection_closed_round_trips_both_ways() {
        let w = WireError::from(&DaliError::ConnectionClosed);
        assert_eq!(w, WireError::ConnectionClosed);
        let back: DaliError = w.into();
        assert!(matches!(back, DaliError::ConnectionClosed));
    }

    #[test]
    fn wire_error_mirrors_dali_error() {
        let e = DaliError::LockDenied {
            txn: TxnId(3),
            rec: RecId::new(TableId(1), SlotId(2)),
        };
        let w = WireError::from(&e);
        let back: DaliError = w.into();
        assert!(matches!(back, DaliError::LockDenied { txn: TxnId(3), .. }));
    }

    #[test]
    fn frame_round_trip_over_cursor() {
        let buf = frame(&encode_request(&Request::Ping));
        let mut cursor = &buf[..];
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(Request::decode(&got).unwrap(), Request::Ping);
        // Clean EOF after the frame.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn incremental_parser_matches_blocking_reader() {
        let wire = frame(&encode_request(&Request::Ping));
        // Every strict prefix needs more bytes; the full frame parses.
        for cut in 0..wire.len() {
            assert!(matches!(parse_frame(&wire[..cut]), Ok(None)), "cut {cut}");
        }
        let (got, consumed) = parse_frame(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(Request::decode(got).unwrap(), Request::Ping);
        // Two frames back to back: consumed points at the second.
        let mut twice = wire.clone();
        twice.extend_from_slice(&wire);
        let (_, consumed) = parse_frame(&twice).unwrap().unwrap();
        assert!(parse_frame(&twice[consumed..]).unwrap().is_some());
        // Corruption and oversized lengths error.
        let mut bad_frame = wire.clone();
        *bad_frame.last_mut().unwrap() ^= 1;
        assert!(parse_frame(&bad_frame).is_err());
        let mut huge = [0u8; 8];
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(parse_frame(&huge).is_err());
    }

    #[test]
    fn torn_and_corrupt_frames_error_without_panic() {
        let buf = frame(&encode_request(&Request::Begin));
        // Truncated payload.
        let mut cursor = &buf[..buf.len() - 1];
        assert!(read_frame(&mut cursor).is_err());
        // Truncated header.
        let mut cursor = &buf[..4];
        assert!(read_frame(&mut cursor).is_err());
        // Flipped payload bit → checksum mismatch.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        let mut cursor = &bad[..];
        assert!(read_frame(&mut cursor).is_err());
        // Absurd length field → rejected before allocation.
        let mut huge = [0u8; 8];
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err());
    }
}
