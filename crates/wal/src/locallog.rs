//! Per-transaction local logs (paper §2: "undo and redo logs in Dali are
//! stored on a per-transaction basis").
//!
//! * [`LocalRedoLog`] — redo (and read) records accumulated by the
//!   transaction's current operation, framed as they are pushed; migrated
//!   to the system log as one copy when the operation commits.
//! * [`LocalUndoLog`] — the transaction's undo, in two parts: the logical
//!   undo of its committed operations, and the physical undo of the one
//!   operation in flight. Operation commit replaces the latter with one
//!   logical entry; a failed operation restores it and cuts it
//!   ([`LocalUndoLog::cut_op`]). A physical entry carries the paper's
//!   *codeword-applied* flag (§3.1): while an update is between
//!   `beginUpdate` and `endUpdate` the codeword has not yet absorbed the
//!   change, so a rollback in that window must restore the bytes *without*
//!   touching the codeword.
//!
//! Every image the undo log holds is a [`Span`] of one per-transaction
//! byte arena, and the redo log is one reused frame buffer, so once both
//! have grown an update allocates nothing.
//!
//! Checkpoints persist the ATT with each transaction's logical undo
//! (§2.1); physical undo never leaves its operation, so it is never
//! serialized.

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

/// The physical undo of one update of the operation in flight: restore
/// the `before` bytes at `addr` (both widened to word alignment so the
/// codeword delta is computable).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PhysicalUndo {
    pub addr: DbAddr,
    pub before: Span,
    /// Paper §3.1 "codeword-applied" flag. `true` means the update is
    /// still inside its beginUpdate/endUpdate window: the codeword has
    /// *not* yet been updated for it, so undoing must skip the codeword
    /// adjustment.
    pub codeword_pending: bool,
}

/// A transaction's undo and the arena its images live in.
#[derive(Clone, Debug, Default)]
pub struct LocalUndoLog {
    /// The committed operations' logical undo, oldest first: all a
    /// checkpoint saves.
    logical: Vec<(OpSeq, LogicalUndo<Span>)>,
    /// The operation in flight's physical undo, oldest first.
    physical: Vec<PhysicalUndo>,
    /// The images, in push order (plus images staged for the operation
    /// in flight).
    arena: Vec<u8>,
}

/// Bytes of capacity a buffer keeps when it is emptied for reuse by a
/// later transaction; a larger one is shrunk to this.
const REUSE_CAPACITY: usize = 64 << 10;

impl LocalUndoLog {
    /// Empty undo log.
    pub fn new() -> LocalUndoLog {
        LocalUndoLog::default()
    }

    /// Empty the log for a later transaction, keeping its allocations up
    /// to a bound.
    pub fn recycle(&mut self) {
        self.logical.clear();
        self.physical.clear();
        self.arena.clear();
        self.logical
            .shrink_to(REUSE_CAPACITY / size_of::<(OpSeq, LogicalUndo<Span>)>());
        self.physical
            .shrink_to(REUSE_CAPACITY / size_of::<PhysicalUndo>());
        self.arena.shrink_to(REUSE_CAPACITY);
    }

    /// Number of committed operations.
    pub fn len(&self) -> usize {
        self.logical.len()
    }

    /// True if no operation committed.
    pub fn is_empty(&self) -> bool {
        self.logical.is_empty()
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
    pub fn push_physical_at(&mut self, addr: DbAddr, before: Span) {
        self.physical.push(PhysicalUndo {
            addr,
            before,
            codeword_pending: true,
        });
    }

    /// Push a physical undo entry of operation `op`, the one in flight,
    /// holding a copy of `before`. The entry does not keep `op`: the stack
    /// is that one operation's.
    pub fn push_physical(&mut self, _op: OpSeq, addr: DbAddr, before: Vec<u8>) {
        let before = self.copy_in(&before);
        self.push_physical_at(addr, before);
    }

    /// Clear the codeword-applied flag of the newest physical entry (at
    /// `endUpdate`). Errors if it is not pending.
    pub fn seal_top_physical(&mut self) -> Result<()> {
        match self.physical.last_mut() {
            Some(p) if p.codeword_pending => {
                p.codeword_pending = false;
                Ok(())
            }
            _ => Err(DaliError::InvalidArg(
                "endUpdate without matching beginUpdate".into(),
            )),
        }
    }

    /// The operation in flight's physical undo, oldest first.
    pub fn physical(&self) -> &[PhysicalUndo] {
        &self.physical
    }

    /// Operation commit: drop the operation's physical undo and push a
    /// single logical entry in its place (paper §2: "the undo information
    /// for that operation is replaced with a logical undo record"), whose
    /// image is already in the arena. The before-images are the top of
    /// the arena, above the image the operation staged first, and are cut
    /// with their entries.
    pub fn commit_op(&mut self, op: OpSeq, undo: LogicalUndo<Span>) {
        let cut = self
            .physical
            .first()
            .map_or(self.arena.len(), |p| p.before.off);
        self.physical.clear();
        self.arena
            .truncate(cut.max(undo.image().map_or(0, |s| s.off + s.len)));
        self.logical.push((op, undo));
    }

    /// The arena's length: taken when an operation begins, the `mark`
    /// [`cut_op`](Self::cut_op) cuts back to.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// The operation in flight failed and its writes were restored: drop
    /// its physical undo and every image it staged since `mark`, the
    /// before-images and the image staged first alike.
    pub fn cut_op(&mut self, mark: usize) {
        self.physical.clear();
        self.arena.truncate(mark);
    }

    /// The committed operations' logical undo, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = LogicalUndoRef<'_>> {
        self.logical.iter().map(|(_, u)| self.logical(u))
    }

    /// Records targeted by the committed operations — the conflict
    /// granules checked by delete-transaction recovery (§4.3).
    pub fn logical_targets(&self) -> impl Iterator<Item = RecId> + '_ {
        self.logical.iter().map(|(_, u)| u.target())
    }

    /// Serialize the logical undo for the checkpointed ATT.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        (self.logical.len() as u32).put(buf);
        for (op, u) in &self.logical {
            op.put(buf);
            // Tag 1 (logical; `decode` refuses any other), then a blob
            // holding the logical undo in an OpCommit payload's shape.
            1u8.put(buf);
            let undo = LogRecordRef::OpCommit {
                txn: TxnId(0),
                op: *op,
                undo: self.logical(u),
            };
            put_blob_with(buf, |buf| undo.put(buf));
        }
    }

    /// Deserialize from a checkpointed ATT.
    pub fn decode(r: &mut Reader<'_>) -> Result<LocalUndoLog> {
        // The smallest entry is op + tag + an empty logical-undo blob.
        let n = r.count(4 + 1 + 4)?;
        let mut log = LocalUndoLog::new();
        log.logical.reserve(n);
        for _ in 0..n {
            let op = OpSeq(r.u32()?);
            if r.u8()? != 1 {
                return Err(r.fail("undo entry is not logical"));
            }
            let LogRecordRef::OpCommit { undo, .. } = LogRecordRef::decode(r.blob()?)? else {
                return Err(r.fail("expected logical undo in ATT"));
            };
            let undo = undo.map(|b| log.copy_in(b));
            log.logical.push((op, undo));
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

    /// Empty the log for a later transaction, keeping its allocations up
    /// to a bound.
    pub fn recycle(&mut self) {
        self.discard();
        self.frames.shrink_to(REUSE_CAPACITY);
        self.writes
            .shrink_to(REUSE_CAPACITY / size_of::<(DbAddr, usize)>());
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
        assert!(log.physical()[0].codeword_pending);
        log.seal_top_physical().unwrap();
        assert!(!log.physical()[0].codeword_pending);
        // Sealing twice is a protocol error.
        assert!(log.seal_top_physical().is_err());
    }

    #[test]
    fn commit_op_replaces_physical_with_logical() {
        let mut log = LocalUndoLog::new();
        // The operation stages its record image first, then updates.
        let before = log.copy_in(&[1, 2, 3]);
        log.push_physical(OpSeq(1), DbAddr(0), vec![0; 4]);
        log.seal_top_physical().unwrap();
        log.push_physical(OpSeq(1), DbAddr(8), vec![0; 4]);
        log.seal_top_physical().unwrap();
        log.commit_op(
            OpSeq(1),
            LogicalUndo::HeapUpdate {
                rec: rec(1, 2),
                before,
            },
        );
        assert!(log.physical().is_empty());
        assert_eq!(
            log.iter().collect::<Vec<_>>(),
            [LogicalUndo::HeapUpdate {
                rec: rec(1, 2),
                before: &[1, 2, 3][..],
            }]
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

    proptest::proptest! {
        /// Under any history of operations — each stages an image or not,
        /// pushes its physical entries, then commits or is cut — the
        /// logical entries are the committed operations' in order, no
        /// physical entry outlives its operation, and the arena holds
        /// exactly the committed operations' images.
        #[test]
        fn an_operation_leaves_only_its_logical_entry(
            ops in proptest::collection::vec((0usize..5, 0usize..3, proptest::prelude::any::<bool>()), 0..40),
        ) {
            let mut log = LocalUndoLog::new();
            let mut model = Vec::new();
            for (seq, (physical, image, commits)) in ops.into_iter().enumerate() {
                let (op, rec) = (OpSeq(seq as u32), rec(1, seq as u32));
                let mark = log.arena_len();
                let before = log.copy_in(&vec![seq as u8; image]);
                for i in 0..physical {
                    log.push_physical(op, DbAddr(8 * i), vec![seq as u8; 8]);
                    log.seal_top_physical().unwrap();
                }
                if commits {
                    let undo = match image {
                        0 => LogicalUndo::HeapInsert { rec },
                        _ => LogicalUndo::HeapUpdate { rec, before },
                    };
                    log.commit_op(op, undo);
                    model.push((op, undo));
                    proptest::prop_assert_eq!(log.arena_len(), mark + image);
                } else {
                    log.cut_op(mark);
                    proptest::prop_assert_eq!(log.arena_len(), mark);
                }
                proptest::prop_assert!(log.physical().is_empty());
                proptest::prop_assert_eq!(&log.logical, &model);
            }
        }
    }

    /// The encoding holds the committed operations' logical undo only.
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
        log.commit_op(OpSeq(2), LogicalUndo::HeapInsert { rec: rec(2, 4) });
        log.push_physical(OpSeq(3), DbAddr(400), vec![1, 2, 3, 4]);

        let mut buf = Vec::new();
        log.encode(&mut buf);
        let mut r = Reader::new(&buf, DaliError::RecoveryFailed);
        let back = LocalUndoLog::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.logical, log.logical);
        assert!(back.physical.is_empty());
        assert_eq!(back.arena, [7; 16]);
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
