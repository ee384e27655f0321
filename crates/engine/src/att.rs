//! The Active Transaction Table (paper §2.1).
//!
//! Each entry carries the transaction's local undo and redo logs (Dali's
//! local logging). The checkpointer serializes the ATT — including local
//! undo logs — into checkpoint metadata so that restart recovery has
//! physical undo for operations that were in flight at checkpoint time.

use dali_common::codec::{Reader, Wire};
use dali_common::{CodewordAlgebraKind, DaliError, DbAddr, OpSeq, RecId, Result, TxnId};
use dali_wal::record::OpKind;
use dali_wal::{LocalRedoLog, LocalUndoLog};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Transaction lifecycle state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    Active,
    Committed,
    Aborted,
}

/// A level-1 operation in progress.
#[derive(Clone, Debug)]
pub struct OpState {
    pub seq: OpSeq,
    pub kind: OpKind,
    pub rec: RecId,
}

/// Per-transaction state (one ATT entry).
pub struct TxnState {
    pub id: TxnId,
    pub status: TxnStatus,
    pub undo: LocalUndoLog,
    pub redo: LocalRedoLog,
    pub next_op: u32,
    pub cur_op: Option<OpState>,
    /// A physical update is between its beginUpdate and endUpdate: the
    /// checkpointer must not serialize this entry's undo log.
    pub update_in_flight: bool,
    /// Ranges exposed (mprotect-unprotected) by the current operation's
    /// physical updates; reprotected together when the operation ends, so
    /// control information sharing a page with data costs no extra
    /// syscall (the page-based behaviour of §5.3).
    pub op_exposures: Vec<(DbAddr, usize)>,
    /// Slots freed by this transaction's deletes (and insert rollbacks),
    /// released to the allocator mirror only at end of transaction.
    pub deferred_frees: Vec<RecId>,
}

impl TxnState {
    /// Fresh state for a transaction discovered during recovery, which
    /// only ever undoes it: its redo log stays empty.
    pub fn new_for_recovery(id: TxnId) -> TxnState {
        TxnState::new(id, CodewordAlgebraKind::XorFold)
    }

    /// Fresh state whose redo frames are checksummed under `kind`.
    fn new(id: TxnId, kind: CodewordAlgebraKind) -> TxnState {
        TxnState {
            id,
            status: TxnStatus::Active,
            undo: LocalUndoLog::new(),
            redo: LocalRedoLog::with_algebra(kind),
            next_op: 0,
            cur_op: None,
            update_in_flight: false,
            op_exposures: Vec::new(),
            deferred_frees: Vec::new(),
        }
    }

    /// Allocate the next operation sequence number.
    pub fn next_op_seq(&mut self) -> OpSeq {
        let s = OpSeq(self.next_op);
        self.next_op += 1;
        s
    }
}

/// The active transaction table.
#[derive(Default)]
pub struct Att {
    map: Mutex<HashMap<TxnId, Arc<Mutex<TxnState>>>>,
    /// Algebra of the transactions' redo frame checksums: the log's.
    kind: CodewordAlgebraKind,
}

impl Att {
    /// Empty table whose transactions frame redo under the XOR fold.
    pub fn new() -> Att {
        Att::default()
    }

    /// Empty table whose transactions frame redo under `kind`.
    pub fn with_algebra(kind: CodewordAlgebraKind) -> Att {
        Att {
            kind,
            ..Att::default()
        }
    }

    /// Register a new transaction.
    pub fn insert(&self, id: TxnId) -> Arc<Mutex<TxnState>> {
        let state = Arc::new(Mutex::new(TxnState::new(id, self.kind)));
        self.map.lock().insert(id, Arc::clone(&state));
        state
    }

    /// Remove a finished transaction.
    pub fn remove(&self, id: TxnId) {
        self.map.lock().remove(&id);
    }

    /// Number of registered transactions.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True if no transactions are registered.
    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }

    /// Serialize the ATT for a checkpoint: each active transaction's id
    /// and local undo log. Must be called while physical updates are
    /// quiesced (no entry may have an update in flight).
    pub fn encode_for_ckpt(&self) -> Result<Vec<u8>> {
        let map = self.map.lock();
        let mut buf = Vec::new();
        let mut entries: Vec<_> = map.values().collect();
        entries.sort_by_key(|s| s.lock().id);
        (entries.len() as u32).put(&mut buf);
        for entry in entries {
            let st = entry.lock();
            if st.update_in_flight {
                return Err(DaliError::InvalidArg(
                    "checkpointing ATT with a physical update in flight".into(),
                ));
            }
            st.id.put(&mut buf);
            st.next_op.put(&mut buf);
            st.undo.encode(&mut buf);
        }
        Ok(buf)
    }

    /// Decode a checkpointed ATT into recovery-time transaction states.
    pub fn decode_for_recovery(bytes: &[u8]) -> Result<Vec<TxnState>> {
        let mut r = Reader::new(bytes, |msg| {
            DaliError::RecoveryFailed(format!("checkpointed ATT: {msg}"))
        });
        // The smallest entry is id + next_op + an empty undo log's count.
        let n = r.count(8 + 4 + 4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut st = TxnState::new_for_recovery(TxnId(r.u64()?));
            st.next_op = r.u32()?;
            st.undo = LocalUndoLog::decode(&mut r)?;
            out.push(st);
        }
        r.finish()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::{SlotId, TableId};
    use dali_wal::record::LogicalUndo;

    #[test]
    fn insert_and_remove_track_len() {
        let att = Att::new();
        att.insert(TxnId(1));
        att.insert(TxnId(2));
        assert_eq!(att.len(), 2);
        att.remove(TxnId(1));
        assert_eq!(att.len(), 1);
        att.remove(TxnId(1));
        assert_eq!(att.len(), 1, "removing an absent id changes nothing");
        att.remove(TxnId(2));
        assert!(att.is_empty());
    }

    #[test]
    fn op_seq_monotonic() {
        let att = Att::new();
        let st = att.insert(TxnId(1));
        let mut g = st.lock();
        assert_eq!(g.next_op_seq(), OpSeq(0));
        assert_eq!(g.next_op_seq(), OpSeq(1));
    }

    #[test]
    fn ckpt_round_trip() {
        let att = Att::new();
        {
            let st = att.insert(TxnId(7));
            let mut g = st.lock();
            g.next_op = 3;
            g.undo
                .push_physical(OpSeq(2), DbAddr(100), vec![1, 2, 3, 4]);
            g.undo.seal_top_physical(OpSeq(2)).unwrap();
            g.undo.commit_op(
                OpSeq(2),
                LogicalUndo::HeapInsert {
                    rec: RecId::new(TableId(0), SlotId(9)),
                },
            );
        }
        att.insert(TxnId(8));
        let blob = att.encode_for_ckpt().unwrap();
        let states = Att::decode_for_recovery(&blob).unwrap();
        assert_eq!(states.len(), 2);
        let t7 = states.iter().find(|s| s.id == TxnId(7)).unwrap();
        assert_eq!(t7.next_op, 3);
        assert_eq!(t7.undo.len(), 1);
        let t8 = states.iter().find(|s| s.id == TxnId(8)).unwrap();
        assert!(t8.undo.is_empty());
    }

    #[test]
    fn ckpt_rejects_in_flight_update() {
        let att = Att::new();
        let st = att.insert(TxnId(1));
        st.lock().update_in_flight = true;
        assert!(att.encode_for_ckpt().is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Att::decode_for_recovery(&[1, 2]).is_err());
        // Claims one entry but has no body.
        assert!(Att::decode_for_recovery(&[1, 0, 0, 0]).is_err());
    }
}
