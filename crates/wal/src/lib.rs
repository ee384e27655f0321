//! Write-ahead logging in the Dali style (paper §2, §2.1).
//!
//! Dali uses *local logging*: each transaction accumulates undo and redo
//! records privately; when a lower-level operation commits, its redo
//! records move to the *system log tail* in memory and its physical undo
//! records are replaced by one logical undo record. The tail is flushed to
//! the *stable system log* on transaction commit and at checkpoints.
//! Because redo only reaches the system log at operation commit, every
//! physical record on the stable log belongs to a committed operation —
//! restart rollback is purely logical, and a checkpointed ATT holds
//! logical undo only.
//!
//! This crate provides:
//!
//! * [`record`] — the log record, declared once for owned and borrowed
//!   payloads, including the paper's *read log records* (§4.2, with
//!   optional region codewords per the §4.3 extension), and its
//!   checksummed framing.
//! * [`locallog`] — per-transaction undo and redo logs.
//! * [`dpt`] — the dual dirty-page sets backing ping-pong checkpointing.
//! * [`segment`] — the stable log's segment files: naming, chain
//!   validation, byte-level truncation, bitcask-style retirement, and
//!   the streaming [`LogReader`] every scan of the stable log goes
//!   through (one segment in memory, records borrowed from it).
//! * [`syslog`] — the system log: in-memory tail + stable segment
//!   directory, append, flush under the system-log latch and segment
//!   rolls.

pub mod dpt;
pub mod locallog;
pub mod record;
pub mod segment;
pub mod syslog;

pub use dpt::{pages_to_regions, DualDirtySet};
pub use locallog::{LocalRedoLog, LocalUndoLog, PhysicalUndo, Span};
pub use record::{Frame, LogRecord, LogRecordRef, LogicalUndo, LogicalUndoRef, OpKind};
pub use segment::{LogReader, SegmentBuf};
pub use syslog::{SegmentStats, SyncStats, SystemLog};
