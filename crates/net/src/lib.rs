//! dali-net: the engine over TCP.
//!
//! Turns the embedded engine into a networked database: an event-driven
//! [`DaliServer`] runs one epoll readiness loop over the listener and
//! every nonblocking session, executes every verb that need not wait on
//! that loop and the waits on a bounded pool; a blocking [`DaliClient`]
//! speaks the length-prefixed,
//! checksummed binary protocol in [`protocol`] (with optional frame
//! [`pipelining`](DaliClient::pipeline)). A [`DaliClient`] is a
//! `dali_workload::Session`, so the one TPC-B driver runs over N client
//! connections as it runs over N in-process sessions.
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
//!   (read-accumulate → decode → execute → write-drain) owned by the
//!   event loop, which runs a decoded request where it is decoded unless
//!   it must wait; what waits goes to the pool with every frame behind
//!   it, so replies keep receive order, and two per-connection
//!   budgets ([`server::PIPELINE_DEPTH`], [`server::OUTBOUND_BUDGET`])
//!   park the read side instead of buffering without bound.
//!   `net_max_conns` caps admission.
//! * **Orphan cleanup**: a dropped connection's open transaction is
//!   rolled back level by level through the engine's ATT rollback,
//!   releasing all its locks.
//! * **Group commit**: the loop logs a durable commit and holds its
//!   reply and locks; the log worker's one fsync covers every commit
//!   written before it starts, and its durability notification wakes the
//!   loop to answer them (see `SystemLog::request_durable`); the
//!   [`ServerStats`] verb exposes the fsync/flush counters.
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

pub use client::DaliClient;
pub use histogram::LatencyHistograms;
pub use protocol::{
    HealthReport, MetricsReport, RepairSummary, Request, Response, ServerStats, VerbMetrics,
    WireError, MAX_FRAME,
};
pub use server::DaliServer;
