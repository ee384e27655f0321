//! dali-net: the engine over TCP.
//!
//! Turns the embedded engine into a networked database: an event-driven
//! [`DaliServer`] runs epoll readiness loops over nonblocking sessions
//! and executes verbs on a bounded pool, a blocking [`DaliClient`] speaks the length-prefixed,
//! checksummed binary protocol in [`protocol`] (with optional frame
//! [`pipelining`](DaliClient::pipeline)), and [`NetTpcbDriver`] re-runs
//! the contended TPC-B workload over N client connections.
//!
//! Design points (DESIGN.md §6):
//!
//! * **Framing**: `[len][checksum][payload]`, the same defensive idiom as
//!   the WAL's on-disk records — a torn or corrupt frame is a structured
//!   protocol error, never a panic or a mis-parse.
//! * **Structured errors**: engine failures cross the wire as
//!   [`WireError`] and come back out as the [`DaliError`] they started
//!   as, so client retry loops are written exactly like in-process ones.
//!   A connection the server closed surfaces as
//!   [`DaliError::ConnectionClosed`].
//! * **Event-driven sessions**: each connection is a state machine
//!   (read-accumulate → decode → execute → write-drain) owned by an
//!   event loop; pipelined frames overlap in the execution pool and are
//!   answered in receive order, and per-connection budgets
//!   (`net_pipeline_depth`, `net_outbound_budget`) park the read side
//!   instead of buffering without bound. `net_max_conns` caps admission.
//! * **Orphan cleanup**: a dropped connection's open transaction is
//!   rolled back level by level through the engine's ATT rollback,
//!   releasing all its locks.
//! * **Group commit**: with `DaliConfig::with_commit_window`, concurrent
//!   committers from different connections share one fsync (see
//!   `SystemLog::commit_durable`); the [`ServerStats`] verb exposes the
//!   fsync/flush counters.
//! * **Observability**: per-verb log₂-bucket latency histograms via the
//!   `Metrics` verb ([`MetricsReport`]), a cheap `Health` probe
//!   ([`HealthReport`]), and loop/queue counters in [`ServerStats`].
//!
//! [`DaliError`]: dali_common::DaliError
//! [`DaliError::ConnectionClosed`]: dali_common::DaliError::ConnectionClosed

pub mod client;
pub mod histogram;
pub mod poller;
pub mod protocol;
pub mod server;
pub mod tpcb;

pub use client::DaliClient;
pub use histogram::LatencyHistograms;
pub use protocol::{
    HealthReport, MetricsReport, RepairSummary, Request, Response, ServerStats, VerbMetrics,
    WireError, MAX_FRAME,
};
pub use server::DaliServer;
pub use tpcb::{NetRunStats, NetTpcbDriver};
