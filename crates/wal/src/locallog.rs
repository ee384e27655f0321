//! Per-transaction local logs (paper §2: "undo and redo logs in Dali are
//! stored on a per-transaction basis").
//!
//! * [`LocalRedoLog`] — redo (and read) records accumulated by the
//!   transaction's current operation; migrated to the system log when the
//!   operation commits.
//! * [`LocalUndoLog`] — the transaction's undo stack: physical undo
//!   entries for updates of in-flight operations, replaced by one logical
//!   entry when the operation commits. The physical entry carries the
//!   paper's *codeword-applied* flag (§3.1): while an update is between
//!   `beginUpdate` and `endUpdate` the codeword has not yet absorbed the
//!   change, so a rollback in that window must restore the bytes *without*
//!   touching the codeword.
//!
//! The undo log is serializable because checkpoints persist the ATT
//! including each transaction's local undo log (§2.1). The checkpointer
//! quiesces physical updates first, so serialized physical entries always
//! have the codeword-applied flag in its quiescent state.

use crate::record::{put_blob, LogRecord, LogicalUndo};
use bytes::{BufMut, BytesMut};
use dali_common::codec::Reader;
use dali_common::{DaliError, DbAddr, OpSeq, RecId, Result};

/// What a single undo entry restores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UndoKind {
    /// Restore `before` at `addr` (both widened to word alignment so the
    /// codeword delta is computable).
    Physical {
        addr: DbAddr,
        before: Vec<u8>,
        /// Paper §3.1 "codeword-applied" flag. `true` means the update is
        /// still inside its beginUpdate/endUpdate window: the codeword has
        /// *not* yet been updated for it, so undoing must skip the
        /// codeword adjustment.
        codeword_pending: bool,
    },
    /// Execute a logical (level-1) compensation.
    Logical(LogicalUndo),
}

/// One entry of a transaction's undo stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UndoEntry {
    /// The operation that generated the entry.
    pub op: OpSeq,
    pub kind: UndoKind,
}

/// The transaction-local undo stack.
#[derive(Clone, Debug, Default)]
pub struct LocalUndoLog {
    entries: Vec<UndoEntry>,
}

impl LocalUndoLog {
    /// Empty undo log.
    pub fn new() -> LocalUndoLog {
        LocalUndoLog::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Push a physical undo entry (at `beginUpdate`).
    pub fn push_physical(&mut self, op: OpSeq, addr: DbAddr, before: Vec<u8>) {
        self.entries.push(UndoEntry {
            op,
            kind: UndoKind::Physical {
                addr,
                before,
                codeword_pending: true,
            },
        });
    }

    /// Clear the codeword-applied flag of the most recent physical entry
    /// (at `endUpdate`). Errors if the top entry is not a pending physical
    /// update of `op`.
    pub fn seal_top_physical(&mut self, op: OpSeq) -> Result<()> {
        match self.entries.last_mut() {
            Some(UndoEntry {
                op: eop,
                kind:
                    UndoKind::Physical {
                        codeword_pending, ..
                    },
            }) if *eop == op && *codeword_pending => {
                *codeword_pending = false;
                Ok(())
            }
            _ => Err(DaliError::InvalidArg(
                "endUpdate without matching beginUpdate".into(),
            )),
        }
    }

    /// Operation commit: drop the operation's physical entries and push a
    /// single logical entry in their place (paper §2: "the undo
    /// information for that operation is replaced with a logical undo
    /// record").
    ///
    /// A transaction has one level-1 operation in flight at a time, so
    /// those physical entries are exactly the run on top of the stack:
    /// popping them is O(entries of this operation), where filtering the
    /// whole stack made a transaction of n operations O(n²).
    pub fn commit_op(&mut self, op: OpSeq, undo: LogicalUndo) {
        while matches!(
            self.entries.last(),
            Some(UndoEntry { op: top, kind: UndoKind::Physical { .. } }) if *top == op
        ) {
            self.entries.pop();
        }
        debug_assert!(
            !self
                .entries
                .iter()
                .any(|e| e.op == op && matches!(e.kind, UndoKind::Physical { .. })),
            "physical undo of {op:?} buried under another operation's entries"
        );
        self.entries.push(UndoEntry {
            op,
            kind: UndoKind::Logical(undo),
        });
    }

    /// Pop the most recent entry (rollback order).
    pub fn pop(&mut self) -> Option<UndoEntry> {
        self.entries.pop()
    }

    /// Peek at the most recent entry.
    pub fn last(&self) -> Option<&UndoEntry> {
        self.entries.last()
    }

    /// Records targeted by the logical (committed-operation) entries —
    /// the conflict granules checked by delete-transaction recovery
    /// (§4.3).
    pub fn logical_targets(&self) -> impl Iterator<Item = RecId> + '_ {
        self.entries.iter().filter_map(|e| match &e.kind {
            UndoKind::Logical(u) => Some(u.target()),
            UndoKind::Physical { .. } => None,
        })
    }

    /// Iterate entries bottom (oldest) to top.
    pub fn iter(&self) -> impl Iterator<Item = &UndoEntry> {
        self.entries.iter()
    }

    /// Serialize for the checkpointed ATT.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            buf.put_u32_le(e.op.0);
            match &e.kind {
                UndoKind::Physical {
                    addr,
                    before,
                    codeword_pending,
                } => {
                    debug_assert!(
                        !codeword_pending,
                        "checkpointing an undo log with an update in flight"
                    );
                    buf.put_u8(0);
                    buf.put_u64_le(addr.0 as u64);
                    put_blob(buf, before);
                }
                UndoKind::Logical(u) => {
                    buf.put_u8(1);
                    let mut tmp = BytesMut::new();
                    // Reuse LogRecord encoding for the logical undo by
                    // wrapping it in an OpCommit payload shape.
                    LogRecord::OpCommit {
                        txn: dali_common::TxnId(0),
                        op: e.op,
                        undo: u.clone(),
                    }
                    .encode(&mut tmp);
                    put_blob(buf, &tmp);
                }
            }
        }
    }

    /// Deserialize from a checkpointed ATT.
    pub fn decode(r: &mut Reader<'_>) -> Result<LocalUndoLog> {
        // The smallest entry is op + tag + an empty logical-undo blob.
        let n = r.count(4 + 1 + 4)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let op = OpSeq(r.u32()?);
            let kind = match r.u8()? {
                0 => UndoKind::Physical {
                    addr: DbAddr(r.u64()? as usize),
                    before: r.blob()?.to_vec(),
                    codeword_pending: false,
                },
                1 => match LogRecord::decode(r.blob()?)? {
                    LogRecord::OpCommit { undo, .. } => UndoKind::Logical(undo),
                    _ => return Err(r.fail("expected logical undo in ATT")),
                },
                tag => return Err(r.fail(format_args!("unknown undo entry tag {tag}"))),
            };
            entries.push(UndoEntry { op, kind });
        }
        Ok(LocalUndoLog { entries })
    }
}

/// Redo (and read) records of the transaction's current operation,
/// awaiting migration to the system log at operation commit.
#[derive(Clone, Debug, Default)]
pub struct LocalRedoLog {
    recs: Vec<LogRecord>,
}

impl LocalRedoLog {
    /// Empty redo log.
    pub fn new() -> LocalRedoLog {
        LocalRedoLog::default()
    }

    /// Append a record.
    pub fn push(&mut self, rec: LogRecord) {
        self.recs.push(rec);
    }

    /// Number of pending records.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True if nothing pending.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Take all pending records (operation commit migrates them).
    pub fn drain(&mut self) -> Vec<LogRecord> {
        std::mem::take(&mut self.recs)
    }

    /// Discard pending records (operation rollback: the operation never
    /// committed, so its redo never reaches the system log).
    pub fn discard(&mut self) {
        self.recs.clear();
    }

    /// Iterate pending records.
    pub fn iter(&self) -> impl Iterator<Item = &LogRecord> {
        self.recs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::{SlotId, TableId, TxnId};

    fn rec(t: u32, s: u32) -> RecId {
        RecId::new(TableId(t), SlotId(s))
    }

    #[test]
    fn begin_end_update_flag_protocol() {
        let mut log = LocalUndoLog::new();
        log.push_physical(OpSeq(1), DbAddr(0), vec![0; 4]);
        match &log.last().unwrap().kind {
            UndoKind::Physical {
                codeword_pending, ..
            } => assert!(*codeword_pending),
            _ => panic!(),
        }
        log.seal_top_physical(OpSeq(1)).unwrap();
        match &log.last().unwrap().kind {
            UndoKind::Physical {
                codeword_pending, ..
            } => assert!(!*codeword_pending),
            _ => panic!(),
        }
        // Sealing twice is a protocol error.
        assert!(log.seal_top_physical(OpSeq(1)).is_err());
    }

    #[test]
    fn commit_op_replaces_physical_with_logical() {
        let mut log = LocalUndoLog::new();
        log.push_physical(OpSeq(1), DbAddr(0), vec![0; 4]);
        log.seal_top_physical(OpSeq(1)).unwrap();
        log.push_physical(OpSeq(1), DbAddr(8), vec![0; 4]);
        log.seal_top_physical(OpSeq(1)).unwrap();
        log.commit_op(
            OpSeq(1),
            LogicalUndo::HeapUpdate {
                rec: rec(1, 2),
                before: vec![1, 2, 3],
            },
        );
        assert_eq!(log.len(), 1);
        assert!(matches!(
            log.last().unwrap().kind,
            UndoKind::Logical(LogicalUndo::HeapUpdate { .. })
        ));
    }

    #[test]
    fn commit_op_keeps_other_ops_entries() {
        let mut log = LocalUndoLog::new();
        log.commit_op(OpSeq(1), LogicalUndo::HeapInsert { rec: rec(1, 1) });
        log.push_physical(OpSeq(2), DbAddr(0), vec![0; 4]);
        log.seal_top_physical(OpSeq(2)).unwrap();
        log.commit_op(OpSeq(2), LogicalUndo::HeapInsert { rec: rec(1, 2) });
        assert_eq!(log.len(), 2);
        let targets: Vec<_> = log.logical_targets().collect();
        assert_eq!(targets, vec![rec(1, 1), rec(1, 2)]);
    }

    /// `commit_op` as it was: filter the *whole* stack. The reference
    /// the pop-from-top version must match.
    fn commit_op_by_retain(entries: &mut Vec<UndoEntry>, op: OpSeq, undo: LogicalUndo) {
        entries.retain(|e| !(e.op == op && matches!(e.kind, UndoKind::Physical { .. })));
        entries.push(UndoEntry {
            op,
            kind: UndoKind::Logical(undo),
        });
    }

    proptest::proptest! {
        /// Under any history that keeps one operation in flight — each
        /// operation pushes its physical entries, then either commits or
        /// is rolled back (its entries popped) before the next begins —
        /// popping the top run leaves exactly the stack that filtering
        /// all of it left.
        #[test]
        fn commit_op_pops_what_retain_removed(
            ops in proptest::collection::vec((0usize..5, proptest::prelude::any::<bool>()), 0..40),
            in_flight_at_checkpoint in 0usize..4,
        ) {
            let mut log = LocalUndoLog::new();
            let mut model: Vec<UndoEntry> = Vec::new();
            // A stack restored from a checkpointed ATT may start with an
            // operation's physical entries already on it.
            let first = OpSeq(0);
            for i in 0..in_flight_at_checkpoint {
                log.push_physical(first, DbAddr(8 * i), vec![i as u8; 8]);
                log.seal_top_physical(first).unwrap();
            }
            model.extend(log.iter().cloned());
            for (seq, (physical, commits)) in ops.into_iter().enumerate() {
                let op = OpSeq(seq as u32);
                for i in 0..physical {
                    log.push_physical(op, DbAddr(8 * i), vec![seq as u8; 8]);
                    log.seal_top_physical(op).unwrap();
                    model.push(log.last().unwrap().clone());
                }
                if commits {
                    let undo = LogicalUndo::HeapInsert { rec: rec(1, seq as u32) };
                    log.commit_op(op, undo.clone());
                    commit_op_by_retain(&mut model, op, undo);
                } else {
                    let mine = if seq == 0 { in_flight_at_checkpoint } else { 0 } + physical;
                    for _ in 0..mine {
                        log.pop();
                        model.pop();
                    }
                }
                proptest::prop_assert_eq!(&log.entries, &model);
            }
        }
    }

    /// What the model above never does: a second operation commits over
    /// the first one's physical entries. Debug builds refuse to bury
    /// them silently.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "buried under another operation")]
    fn commit_op_rejects_physical_entries_below_the_top_run() {
        let mut log = LocalUndoLog::new();
        log.push_physical(OpSeq(1), DbAddr(0), vec![0; 4]);
        log.seal_top_physical(OpSeq(1)).unwrap();
        log.commit_op(OpSeq(2), LogicalUndo::HeapInsert { rec: rec(1, 2) });
        log.commit_op(OpSeq(1), LogicalUndo::HeapInsert { rec: rec(1, 1) });
    }

    #[test]
    fn pop_is_lifo() {
        let mut log = LocalUndoLog::new();
        log.commit_op(OpSeq(1), LogicalUndo::HeapInsert { rec: rec(1, 1) });
        log.commit_op(OpSeq(2), LogicalUndo::HeapInsert { rec: rec(1, 2) });
        assert_eq!(log.pop().unwrap().op, OpSeq(2));
        assert_eq!(log.pop().unwrap().op, OpSeq(1));
        assert!(log.pop().is_none());
    }

    #[test]
    fn undo_log_encode_decode_round_trip() {
        let mut log = LocalUndoLog::new();
        log.commit_op(
            OpSeq(1),
            LogicalUndo::HeapDelete {
                rec: rec(2, 3),
                image: vec![7; 16],
            },
        );
        log.push_physical(OpSeq(2), DbAddr(400), vec![1, 2, 3, 4]);
        log.seal_top_physical(OpSeq(2)).unwrap();

        let mut buf = BytesMut::new();
        log.encode(&mut buf);
        let mut r = Reader::new(&buf, DaliError::RecoveryFailed);
        let back = LocalUndoLog::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.entries, log.entries);
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut log = LocalUndoLog::new();
        log.push_physical(OpSeq(1), DbAddr(0), vec![9; 8]);
        log.seal_top_physical(OpSeq(1)).unwrap();
        let mut buf = BytesMut::new();
        log.encode(&mut buf);
        let mut short = Reader::new(&buf[..buf.len() - 2], DaliError::RecoveryFailed);
        assert!(LocalUndoLog::decode(&mut short).is_err());
    }

    #[test]
    fn redo_log_drain_and_discard() {
        let mut r = LocalRedoLog::new();
        r.push(LogRecord::TxnBegin { txn: TxnId(1) });
        r.push(LogRecord::TxnCommit { txn: TxnId(1) });
        assert_eq!(r.len(), 2);
        let drained = r.drain();
        assert_eq!(drained.len(), 2);
        assert!(r.is_empty());

        r.push(LogRecord::TxnAbort { txn: TxnId(1) });
        r.discard();
        assert!(r.is_empty());
    }
}
