//! Per-transaction local logs (paper §2: "undo and redo logs in Dali are
//! stored on a per-transaction basis").
//!
//! * [`LocalRedoLog`] — redo (and read) records accumulated by the
//!   transaction's current operation, framed as they are pushed; migrated
//!   to the system log as one copy when the operation commits.
//! * [`LocalUndoLog`] — the transaction's undo stack: physical undo
//!   entries for updates of in-flight operations, replaced by one logical
//!   entry when the operation commits. The physical entry carries the
//!   paper's *codeword-applied* flag (§3.1): while an update is between
//!   `beginUpdate` and `endUpdate` the codeword has not yet absorbed the
//!   change, so a rollback in that window must restore the bytes *without*
//!   touching the codeword.
//!
//! Every image the undo stack holds is a [`Span`] of one per-transaction
//! byte arena, and the redo log is one reused frame buffer, so once both
//! have grown an update allocates nothing.
//!
//! The undo log is serializable because checkpoints persist the ATT
//! including each transaction's local undo log (§2.1). The checkpointer
//! quiesces physical updates first, so serialized physical entries always
//! have the codeword-applied flag in its quiescent state.

use crate::record::{
    frame_into, frame_len, LogRecord, LogRecordRef, LogicalUndo, LogicalUndoRef, FRAME_HDR,
};
use dali_common::codec::{put_blob_with, Reader, Wire};
use dali_common::{CodewordAlgebraKind, DaliError, DbAddr, OpSeq, RecId, Result, TxnId};

/// A byte range of a [`LocalUndoLog`]'s arena.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub off: usize,
    pub len: usize,
}

/// What a single undo entry restores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UndoKind {
    /// Restore the `before` bytes at `addr` (both widened to word
    /// alignment so the codeword delta is computable).
    Physical {
        addr: DbAddr,
        before: Span,
        /// Paper §3.1 "codeword-applied" flag. `true` means the update is
        /// still inside its beginUpdate/endUpdate window: the codeword has
        /// *not* yet been updated for it, so undoing must skip the
        /// codeword adjustment.
        codeword_pending: bool,
    },
    /// Execute a logical (level-1) compensation.
    Logical(LogicalUndo<Span>),
}

/// One entry of a transaction's undo stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UndoEntry {
    /// The operation that generated the entry.
    pub op: OpSeq,
    pub kind: UndoKind,
}

/// The transaction-local undo stack and the arena its images live in.
#[derive(Clone, Debug, Default)]
pub struct LocalUndoLog {
    entries: Vec<UndoEntry>,
    /// The entries' images, in push order (plus images staged for the
    /// operation in flight).
    arena: Vec<u8>,
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

    /// Append `len` bytes to the arena, written by `f` — which reads
    /// them from the image: a before-image or a record image captured for
    /// an entry. On error the arena is left as it was.
    pub fn stage(&mut self, len: usize, f: impl FnOnce(&mut [u8]) -> Result<()>) -> Result<Span> {
        let off = self.arena.len();
        self.arena.resize(off + len, 0);
        f(&mut self.arena[off..]).inspect_err(|_| self.arena.truncate(off))?;
        Ok(Span { off, len })
    }

    /// Append a copy of `bytes` to the arena.
    pub fn copy_in(&mut self, bytes: &[u8]) -> Span {
        let span = Span {
            off: self.arena.len(),
            len: bytes.len(),
        };
        self.arena.extend_from_slice(bytes);
        span
    }

    /// The arena bytes of `span`.
    pub fn bytes(&self, span: Span) -> &[u8] {
        &self.arena[span.off..][..span.len]
    }

    /// A logical entry with its image borrowed from the arena.
    pub fn logical(&self, undo: &LogicalUndo<Span>) -> LogicalUndoRef<'_> {
        undo.map(|s| self.bytes(*s))
    }

    /// Push a physical undo entry (at `beginUpdate`) whose before-image
    /// is the staged `before`.
    pub fn push_physical_at(&mut self, op: OpSeq, addr: DbAddr, before: Span) {
        self.entries.push(UndoEntry {
            op,
            kind: UndoKind::Physical {
                addr,
                before,
                codeword_pending: true,
            },
        });
    }

    /// Push a physical undo entry holding a copy of `before`.
    pub fn push_physical(&mut self, op: OpSeq, addr: DbAddr, before: Vec<u8>) {
        let before = self.copy_in(&before);
        self.push_physical_at(op, addr, before);
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
    /// record"), whose image is already in the arena.
    ///
    /// A transaction has one level-1 operation in flight at a time, so
    /// those physical entries are exactly the run on top of the stack:
    /// popping them is O(entries of this operation), where filtering the
    /// whole stack made a transaction of n operations O(n²). Their
    /// before-images are the top of the arena, above the image the
    /// operation staged first, and are cut with them.
    pub fn commit_op(&mut self, op: OpSeq, undo: LogicalUndo<Span>) {
        let mut cut = self.arena.len();
        while let Some(&UndoEntry {
            op: top,
            kind: UndoKind::Physical { before, .. },
        }) = self.entries.last()
        {
            if top != op {
                break;
            }
            cut = before.off;
            self.entries.pop();
        }
        debug_assert!(
            !self
                .entries
                .iter()
                .any(|e| e.op == op && matches!(e.kind, UndoKind::Physical { .. })),
            "physical undo of {op:?} buried under another operation's entries"
        );
        self.arena
            .truncate(cut.max(undo.image().map_or(0, |s| s.off + s.len)));
        self.entries.push(UndoEntry {
            op,
            kind: UndoKind::Logical(undo),
        });
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
    pub fn iter(&self) -> std::slice::Iter<'_, UndoEntry> {
        self.entries.iter()
    }

    /// Serialize for the checkpointed ATT.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        (self.entries.len() as u32).put(buf);
        for e in &self.entries {
            e.op.put(buf);
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
                    0u8.put(buf);
                    addr.put(buf);
                    self.bytes(*before).put(buf);
                }
                UndoKind::Logical(u) => {
                    // A blob holding the logical undo in an OpCommit
                    // payload's shape.
                    1u8.put(buf);
                    let undo = LogRecordRef::OpCommit {
                        txn: TxnId(0),
                        op: e.op,
                        undo: self.logical(u),
                    };
                    put_blob_with(buf, |buf| undo.put(buf));
                }
            }
        }
    }

    /// Deserialize from a checkpointed ATT.
    pub fn decode(r: &mut Reader<'_>) -> Result<LocalUndoLog> {
        // The smallest entry is op + tag + an empty logical-undo blob.
        let n = r.count(4 + 1 + 4)?;
        let mut log = LocalUndoLog::new();
        log.entries.reserve(n);
        for _ in 0..n {
            let op = OpSeq(r.u32()?);
            let kind = match r.u8()? {
                0 => UndoKind::Physical {
                    addr: DbAddr(r.u64()? as usize),
                    before: log.copy_in(r.blob()?),
                    codeword_pending: false,
                },
                1 => match LogRecordRef::decode(r.blob()?)? {
                    LogRecordRef::OpCommit { undo, .. } => {
                        UndoKind::Logical(undo.map(|b| log.copy_in(b)))
                    }
                    _ => return Err(r.fail("expected logical undo in ATT")),
                },
                tag => return Err(r.fail(format_args!("unknown undo entry tag {tag}"))),
            };
            log.entries.push(UndoEntry { op, kind });
        }
        Ok(log)
    }
}

/// Redo (and read) records of the transaction's current operation,
/// awaiting migration to the system log at operation commit. Each record
/// is framed (`[len][checksum][type][payload]`, the system log's bytes)
/// into one reused buffer as it is pushed, so encoding and checksumming
/// happen outside the log latch.
#[derive(Clone, Debug, Default)]
pub struct LocalRedoLog {
    /// Algebra of the frame checksums: the system log's.
    kind: CodewordAlgebraKind,
    frames: Vec<u8>,
    count: usize,
    /// `(addr, len)` of each physical redo record, oldest first: the
    /// writes whose pages the system log notes dirty.
    writes: Vec<(DbAddr, usize)>,
}

impl LocalRedoLog {
    /// Empty redo log with XOR-checksummed frames.
    pub fn new() -> LocalRedoLog {
        LocalRedoLog::default()
    }

    /// Empty redo log whose frame checksums fold under `kind`.
    pub fn with_algebra(kind: CodewordAlgebraKind) -> LocalRedoLog {
        LocalRedoLog {
            kind,
            ..LocalRedoLog::default()
        }
    }

    /// Append a record.
    pub fn push(&mut self, rec: LogRecord) {
        if let LogRecord::PhysicalRedo { addr, data, .. } = &rec {
            self.writes.push((*addr, data.len()));
        }
        self.append(&rec);
    }

    /// Append a physical redo record of `data` written at `addr`.
    pub fn push_redo(&mut self, txn: TxnId, op: OpSeq, addr: DbAddr, data: &[u8]) {
        self.append(&LogRecordRef::PhysicalRedo {
            txn,
            op,
            addr,
            data,
        });
        self.writes.push((addr, data.len()));
    }

    /// Append an operation commit record.
    pub fn push_op_commit(&mut self, txn: TxnId, op: OpSeq, undo: LogicalUndoRef<'_>) {
        self.append(&LogRecordRef::OpCommit { txn, op, undo });
    }

    fn append<'a, B, S, C>(&mut self, rec: &LogRecord<B, S, C>)
    where
        LogRecord<B, S, C>: Wire<'a>,
    {
        frame_into(self.kind, rec, &mut self.frames);
        self.count += 1;
    }

    /// Number of pending records.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if nothing pending.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The pending records' frames, oldest first.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.frames
    }

    /// `(addr, len)` of each pending physical redo record, oldest first.
    pub(crate) fn writes(&self) -> &[(DbAddr, usize)] {
        &self.writes
    }

    /// Discard pending records: after they migrated to the system log, or
    /// at rollback (they never reach it).
    pub fn discard(&mut self) {
        self.frames.clear();
        self.count = 0;
        self.writes.clear();
    }

    /// Roll back operation `op`, in flight: cut its `OpBegin` and
    /// physical redo frames. Every other frame stays byte-identical and in
    /// order — above all its read records: the reads really happened, and
    /// corruption tracing may only overestimate reads, never underestimate
    /// (§4.2).
    pub fn cut_op(&mut self, op: OpSeq) {
        let (mut read, mut kept) = (0, 0);
        self.writes.clear();
        while read < self.frames.len() {
            let len = frame_len(&self.frames[read..]);
            match LogRecordRef::decode(&self.frames[read + FRAME_HDR..read + len]) {
                Ok(
                    LogRecordRef::OpBegin { op: o, .. } | LogRecordRef::PhysicalRedo { op: o, .. },
                ) if o == op => self.count -= 1,
                rec => {
                    if let Ok(LogRecordRef::PhysicalRedo { addr, data, .. }) = rec {
                        self.writes.push((addr, data.len()));
                    }
                    self.frames.copy_within(read..read + len, kept);
                    kept += len;
                }
            }
            read += len;
        }
        self.frames.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogicalUndo;
    use dali_common::{SlotId, TableId};

    fn rec(t: u32, s: u32) -> RecId {
        RecId::new(TableId(t), SlotId(s))
    }

    #[test]
    fn begin_end_update_flag_protocol() {
        let mut log = LocalUndoLog::new();
        log.push_physical(OpSeq(1), DbAddr(0), vec![0; 4]);
        match &log.entries.last().unwrap().kind {
            UndoKind::Physical {
                codeword_pending, ..
            } => assert!(*codeword_pending),
            _ => panic!(),
        }
        log.seal_top_physical(OpSeq(1)).unwrap();
        match &log.entries.last().unwrap().kind {
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
        // The operation stages its record image first, then updates.
        let before = log.copy_in(&[1, 2, 3]);
        log.push_physical(OpSeq(1), DbAddr(0), vec![0; 4]);
        log.seal_top_physical(OpSeq(1)).unwrap();
        log.push_physical(OpSeq(1), DbAddr(8), vec![0; 4]);
        log.seal_top_physical(OpSeq(1)).unwrap();
        log.commit_op(
            OpSeq(1),
            LogicalUndo::HeapUpdate {
                rec: rec(1, 2),
                before,
            },
        );
        assert_eq!(log.len(), 1);
        let UndoKind::Logical(undo) = &log.entries.last().unwrap().kind else {
            panic!("expected a logical entry");
        };
        assert_eq!(
            log.logical(undo),
            LogicalUndo::HeapUpdate {
                rec: rec(1, 2),
                before: &[1, 2, 3][..],
            }
        );
        // The physical before-images left the arena with their entries.
        assert_eq!(log.arena.len(), 3);
    }

    #[test]
    fn stage_failure_leaves_the_arena_as_it_was() {
        let mut log = LocalUndoLog::new();
        let kept = log.copy_in(&[9; 5]);
        let err = log.stage(8, |buf| {
            buf.fill(1);
            Err(DaliError::InvalidArg("unreadable".into()))
        });
        assert!(err.is_err());
        assert_eq!(log.arena.len(), 5);
        let staged = log
            .stage(2, |buf| {
                buf.copy_from_slice(&[4, 2]);
                Ok(())
            })
            .unwrap();
        assert_eq!(
            (log.bytes(kept), log.bytes(staged)),
            (&[9; 5][..], &[4, 2][..])
        );
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
    fn commit_op_by_retain(entries: &mut Vec<UndoEntry>, op: OpSeq, undo: LogicalUndo<Span>) {
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
                    model.push(log.entries.last().unwrap().clone());
                }
                if commits {
                    let undo = LogicalUndo::HeapInsert { rec: rec(1, seq as u32) };
                    log.commit_op(op, undo);
                    commit_op_by_retain(&mut model, op, undo);
                } else {
                    let mine = if seq == 0 { in_flight_at_checkpoint } else { 0 } + physical;
                    for _ in 0..mine {
                        log.entries.pop();
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
    fn undo_log_encode_decode_round_trip() {
        let mut log = LocalUndoLog::new();
        let image = log.copy_in(&[7; 16]);
        log.commit_op(
            OpSeq(1),
            LogicalUndo::HeapDelete {
                rec: rec(2, 3),
                image,
            },
        );
        log.push_physical(OpSeq(2), DbAddr(400), vec![1, 2, 3, 4]);
        log.seal_top_physical(OpSeq(2)).unwrap();

        let mut buf = Vec::new();
        log.encode(&mut buf);
        let mut r = Reader::new(&buf, DaliError::RecoveryFailed);
        let back = LocalUndoLog::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.entries, log.entries);
        assert_eq!(back.arena, log.arena);
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut log = LocalUndoLog::new();
        log.push_physical(OpSeq(1), DbAddr(0), vec![9; 8]);
        log.seal_top_physical(OpSeq(1)).unwrap();
        let mut buf = Vec::new();
        log.encode(&mut buf);
        let mut short = Reader::new(&buf[..buf.len() - 2], DaliError::RecoveryFailed);
        assert!(LocalUndoLog::decode(&mut short).is_err());
    }

    #[test]
    fn redo_log_frames_records_and_discards() {
        let recs = [
            LogRecord::TxnBegin { txn: TxnId(1) },
            LogRecord::PhysicalRedo {
                txn: TxnId(1),
                op: OpSeq(0),
                addr: DbAddr(40),
                data: vec![5; 12],
            },
            LogRecord::TxnCommit { txn: TxnId(1) },
        ];
        for kind in CodewordAlgebraKind::ALL {
            let mut r = LocalRedoLog::with_algebra(kind);
            let mut framed = Vec::new();
            for rec in &recs {
                r.push(rec.clone());
                frame_into(kind, rec, &mut framed);
            }
            assert_eq!(r.len(), 3);
            assert_eq!(r.bytes(), &framed[..], "{kind:?}");
            assert_eq!(r.writes(), &[(DbAddr(40), 12)]);
            r.discard();
            assert!(r.is_empty() && r.bytes().is_empty() && r.writes().is_empty());
        }
    }

    /// Rolling back an in-flight operation cuts its own `OpBegin` and
    /// physical redo frames and keeps every other frame — the read
    /// records pushed during it among them — byte for byte and in order.
    #[test]
    fn cut_op_keeps_read_frames_byte_identical_and_in_order() {
        let (txn, op) = (TxnId(4), OpSeq(2));
        let read = |addr: usize, codewords: Vec<u32>| LogRecord::ReadLog {
            txn,
            addr: DbAddr(addr),
            len: 64,
            codewords,
        };
        let redo = |op, addr: usize| LogRecord::PhysicalRedo {
            txn,
            op,
            addr: DbAddr(addr),
            data: vec![addr as u8; 8],
        };
        for kind in CodewordAlgebraKind::ALL {
            let mut r = LocalRedoLog::with_algebra(kind);
            r.push(LogRecord::TxnBegin { txn });
            r.push(read(0, vec![]));
            r.push(redo(OpSeq(1), 8)); // another operation's record survives
            r.push(LogRecord::OpBegin {
                txn,
                op,
                kind: crate::record::OpKind::Update,
                rec: rec(1, 1),
            });
            r.push(read(64, vec![0xdead_beef]));
            r.push(redo(op, 64));
            r.push(read(128, vec![1, 2]));
            r.push(redo(op, 128));
            r.cut_op(op);

            let mut want = Vec::new();
            let survivors = [
                LogRecord::TxnBegin { txn },
                read(0, vec![]),
                redo(OpSeq(1), 8),
                read(64, vec![0xdead_beef]),
                read(128, vec![1, 2]),
            ];
            for rec in &survivors {
                frame_into(kind, rec, &mut want);
            }
            assert_eq!(r.bytes(), &want[..], "{kind:?}");
            assert_eq!(r.len(), survivors.len());
            assert_eq!(r.writes(), &[(DbAddr(8), 8)]);
        }
    }
}
