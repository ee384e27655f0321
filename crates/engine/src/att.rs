//! The Active Transaction Table (paper §2.1).
//!
//! Each entry carries the transaction's local undo and redo logs (Dali's
//! local logging). The checkpointer serializes the ATT — each live
//! transaction's id and the logical undo of the operations it completed —
//! into checkpoint metadata, for restart recovery to roll back from. It
//! holds `quiesce` exclusively, which an operation holds from begin to
//! end and a transaction from its `TxnCommit` or `TxnAbort` append to
//! its removal from the table: no operation is in flight, and no
//! transaction whose end the log already holds is in the table.
//!
//! A finished transaction's buffers — undo arena and stacks, redo
//! frames, side lists — go back to the table emptied, and the next
//! begin takes them, so a short transaction allocates none of them.

use dali_common::codec::{Reader, Wire};
use dali_common::{CodewordAlgebraKind, DaliError, DbAddr, OpSeq, RecId, Result, TxnId};
use dali_wal::{LocalRedoLog, LocalUndoLog};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Transaction lifecycle state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    Active,
    /// The commit is in the log; its record locks wait for its
    /// acknowledgment.
    Logged,
    Committed,
    Aborted,
}

/// Per-transaction state (one ATT entry).
pub struct TxnState {
    pub id: TxnId,
    pub status: TxnStatus,
    pub undo: LocalUndoLog,
    pub redo: LocalRedoLog,
    pub next_op: u32,
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
    /// Empty every buffer for a later transaction, keeping (bounded)
    /// allocations, and make the state a fresh active one.
    fn recycle(&mut self) {
        self.status = TxnStatus::Active;
        self.undo.recycle();
        self.redo.recycle();
        self.next_op = 0;
        self.op_exposures.clear();
        self.deferred_frees.clear();
    }

    /// Fresh state whose redo frames are checksummed under `kind`: the
    /// log's algebra, also for a transaction recovery rebuilds.
    pub fn new(id: TxnId, kind: CodewordAlgebraKind) -> TxnState {
        TxnState {
            id,
            status: TxnStatus::Active,
            undo: LocalUndoLog::new(),
            redo: LocalRedoLog::with_algebra(kind),
            next_op: 0,
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

/// Finished transactions' states kept for reuse, at most.
const SPARE_STATES: usize = 64;

/// The active transaction table.
#[derive(Default)]
pub struct Att {
    map: Mutex<HashMap<TxnId, Arc<Mutex<TxnState>>>>,
    /// Algebra of the transactions' redo frame checksums: the log's.
    kind: CodewordAlgebraKind,
    /// Emptied states of finished transactions, for the next begins.
    /// A leaf lock: taken under a state mutex, never the other way.
    spare: Mutex<Vec<TxnState>>,
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

    /// Register a new transaction, on a finished one's buffers if any
    /// are spare.
    pub fn insert(&self, id: TxnId) -> Arc<Mutex<TxnState>> {
        let st = match self.spare.lock().pop() {
            Some(mut st) => {
                st.id = id;
                st
            }
            None => TxnState::new(id, self.kind),
        };
        let state = Arc::new(Mutex::new(st));
        self.map.lock().insert(id, Arc::clone(&state));
        state
    }

    /// Keep a finished transaction's buffers for a later
    /// [`insert`](Self::insert), up to a bound; `st` is left with empty
    /// ones and its status.
    pub fn recycle(&self, st: &mut TxnState) {
        let mut spare = self.spare.lock();
        if spare.len() < SPARE_STATES {
            let mut kept = std::mem::replace(st, TxnState::new(st.id, self.kind));
            st.status = kept.status;
            kept.recycle();
            spare.push(kept);
        }
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

    /// Serialize the ATT for a checkpoint: each transaction's id, next
    /// operation number and logical undo.
    pub fn encode_for_ckpt(&self) -> Vec<u8> {
        let map = self.map.lock();
        let mut buf = Vec::new();
        let mut entries: Vec<_> = map.values().collect();
        entries.sort_by_key(|s| s.lock().id);
        (entries.len() as u32).put(&mut buf);
        for entry in entries {
            let st = entry.lock();
            st.id.put(&mut buf);
            st.next_op.put(&mut buf);
            st.undo.encode(&mut buf);
        }
        buf
    }

    /// Decode a checkpointed ATT into recovery-time transaction states
    /// framing redo under `kind`.
    pub fn decode_for_recovery(bytes: &[u8], kind: CodewordAlgebraKind) -> Result<Vec<TxnState>> {
        let mut r = Reader::new(bytes, |msg| {
            DaliError::RecoveryFailed(format!("checkpointed ATT: {msg}"))
        });
        // The smallest entry is id + next_op + an empty undo log's count.
        let n = r.count(8 + 4 + 4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut st = TxnState::new(TxnId(r.u64()?), kind);
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
            g.undo.seal_top_physical().unwrap();
            g.undo.commit_op(
                OpSeq(2),
                LogicalUndo::HeapInsert {
                    rec: RecId::new(TableId(0), SlotId(9)),
                },
            );
        }
        att.insert(TxnId(8));
        let blob = att.encode_for_ckpt();
        let states = Att::decode_for_recovery(&blob, CodewordAlgebraKind::XorFold).unwrap();
        assert_eq!(states.len(), 2);
        let t7 = states.iter().find(|s| s.id == TxnId(7)).unwrap();
        assert_eq!(t7.next_op, 3);
        assert_eq!(t7.undo.len(), 1);
        let t8 = states.iter().find(|s| s.id == TxnId(8)).unwrap();
        assert!(t8.undo.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        let kind = CodewordAlgebraKind::XorFold;
        assert!(Att::decode_for_recovery(&[1, 2], kind).is_err());
        // Claims one entry but has no body.
        assert!(Att::decode_for_recovery(&[1, 0, 0, 0], kind).is_err());
    }
}
