//! Error type shared across the workspace.

use crate::ids::{DbAddr, RecId, TxnId};
use std::fmt;
use std::io;

/// Result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, DaliError>;

/// Errors surfaced by the storage manager and protection subsystems.
#[derive(Debug)]
pub enum DaliError {
    /// An I/O error from the log, checkpoint, or anchor files.
    Io(io::Error),
    /// A codeword precheck or audit found a region whose computed codeword
    /// does not match the maintained codeword (direct physical corruption,
    /// paper §3).
    CorruptionDetected {
        /// Byte range of the first failing protection region.
        addr: DbAddr,
        len: usize,
        /// The codeword maintained for the region.
        expected: u32,
        /// The codeword computed from the region contents.
        actual: u32,
    },
    /// A write through the prescribed interface targeted a page that the
    /// hardware-protection scheme currently has read-only (simulated trap).
    WriteFault { addr: DbAddr },
    /// The transaction was aborted. No engine call returns it today
    /// (online repair leaves live transactions alone, and a deadlock
    /// victim gets `LockDenied`); it stays because the wire format
    /// carries it.
    TxnAborted(TxnId),
    /// A lock request timed out or would deadlock.
    LockDenied { txn: TxnId, rec: RecId },
    /// A verb run in no-wait mode met a record lock it could not take at
    /// once, or `quiesce` held or wanted by a writer, and returned before
    /// any effect. Only a caller that asked for that mode sees it.
    WouldWait,
    /// A request referenced a table, record, or address that does not exist.
    NotFound(String),
    /// Allocation failed (heap full, arena exhausted, no free slot).
    OutOfSpace(String),
    /// The request was malformed (bad range, wrong record size, misuse of
    /// the update interface such as endUpdate without beginUpdate).
    InvalidArg(String),
    /// The on-disk checkpoint, anchor, or log failed validation during
    /// restart.
    RecoveryFailed(String),
    /// The engine is shut down or has simulated a crash; no further
    /// operations are accepted until restart.
    Crashed,
    /// The network peer closed the connection (cleanly or mid-request).
    /// Surfaced by `dali-net` so clients can distinguish "server went
    /// away" from a local I/O fault and retry against a replica.
    ConnectionClosed,
}

impl fmt::Display for DaliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaliError::Io(e) => write!(f, "i/o error: {e}"),
            DaliError::CorruptionDetected {
                addr,
                len,
                expected,
                actual,
            } => write!(
                f,
                "corruption detected in region {addr}+{len}: maintained codeword {expected:#010x}, computed {actual:#010x}"
            ),
            DaliError::WriteFault { addr } => {
                write!(f, "write fault: page containing {addr} is protected")
            }
            DaliError::TxnAborted(t) => write!(f, "transaction {t} aborted"),
            DaliError::LockDenied { txn, rec } => {
                write!(f, "lock denied to {txn} on {rec}")
            }
            DaliError::WouldWait => write!(f, "a no-wait request would have waited"),
            DaliError::NotFound(s) => write!(f, "not found: {s}"),
            DaliError::OutOfSpace(s) => write!(f, "out of space: {s}"),
            DaliError::InvalidArg(s) => write!(f, "invalid argument: {s}"),
            DaliError::RecoveryFailed(s) => write!(f, "recovery failed: {s}"),
            DaliError::Crashed => write!(f, "database has crashed; restart required"),
            DaliError::ConnectionClosed => write!(f, "connection closed by peer"),
        }
    }
}

impl std::error::Error for DaliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaliError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DaliError {
    fn from(e: io::Error) -> Self {
        DaliError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SlotId, TableId};

    #[test]
    fn display_is_informative() {
        let e = DaliError::CorruptionDetected {
            addr: DbAddr(64),
            len: 64,
            expected: 0xdead_beef,
            actual: 0x1234_5678,
        };
        let s = e.to_string();
        assert!(s.contains("0xdeadbeef"), "{s}");
        assert!(s.contains("@0x40"), "{s}");
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: DaliError = io::Error::other("boom").into();
        assert!(matches!(e, DaliError::Io(_)));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn connection_closed_display() {
        assert_eq!(
            DaliError::ConnectionClosed.to_string(),
            "connection closed by peer"
        );
    }

    #[test]
    fn lock_denied_display() {
        let e = DaliError::LockDenied {
            txn: TxnId(4),
            rec: RecId::new(TableId(1), SlotId(2)),
        };
        assert_eq!(e.to_string(), "lock denied to T4 on tbl1:2");
    }
}
