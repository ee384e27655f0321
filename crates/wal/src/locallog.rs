//! Per-transaction local logs (paper §2: "undo and redo logs in Dali are
//! stored on a per-transaction basis").
//!
//! * [`LocalRedoLog`] — the records a transaction has not yet migrated,
//!   framed as they are pushed, and the entries of its operation or
//!   rollback in flight, framed with it when it commits or ends; migrated
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
    frame_into, EntriesRef, Entry, LogRecord, LogRecordRef, LogicalUndo, LogicalUndoRef, OpKind,
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
            // holding the logical undo.
            1u8.put(buf);
            put_blob_with(buf, |buf| self.logical(u).put(buf));
        }
    }

    /// Deserialize from a checkpointed ATT.
    pub fn decode(r: &mut Reader<'_>) -> Result<LocalUndoLog> {
        // The smallest entry is op + tag + an empty blob.
        let n = r.count(4 + 1 + 4)?;
        let mut log = LocalUndoLog::new();
        log.logical.reserve(n);
        for _ in 0..n {
            let op = OpSeq(r.u32()?);
            if r.u8()? != 1 {
                return Err(r.fail("undo entry is not logical"));
            }
            let undo = LogicalUndoRef::decode(r.blob()?)?.map(|b| log.copy_in(b));
            log.logical.push((op, undo));
        }
        Ok(log)
    }
}

/// Records of a transaction awaiting migration to the system log, framed
/// (`[len][checksum][type][payload]`, the system log's bytes) into one
/// reused buffer as they are pushed, so encoding and checksumming happen
/// outside the log latch. The entries of the operation or rollback in
/// flight are encoded into a second reused buffer as the update brackets
/// produce them, and framed with it when it commits or ends.
#[derive(Clone, Debug, Default)]
pub struct LocalRedoLog {
    /// Algebra of the frame checksums: the system log's.
    kind: CodewordAlgebraKind,
    frames: Vec<u8>,
    count: usize,
    /// `(addr, len)` of each write, oldest first: the writes whose pages
    /// the system log notes dirty.
    writes: Vec<(DbAddr, usize)>,
    /// The entries in flight, encoded, and how many.
    entries: Vec<u8>,
    entry_count: u32,
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

    /// Append a record in a frame of its own.
    pub fn push(&mut self, rec: LogRecord) {
        if let LogRecord::PhysicalRedo { addr, data, .. } = &rec {
            self.writes.push((*addr, data.len()));
        }
        self.append(&rec);
    }

    fn append<'a, B, S, C, E>(&mut self, rec: &LogRecord<B, S, C, E>)
    where
        LogRecord<B, S, C, E>: Wire<'a>,
    {
        frame_into(self.kind, rec, &mut self.frames);
        self.count += 1;
    }

    /// Push the after-image of `data` written at `addr`: an entry of the
    /// operation or rollback in flight.
    pub fn push_redo(&mut self, addr: DbAddr, data: &[u8]) {
        Entry::<_, Vec<u32>>::Write { addr, data }.put(&mut self.entries);
        self.entry_count += 1;
        self.writes.push((addr, data.len()));
    }

    /// Push a write-as-read entry (§4.3): `codewords` of the regions over
    /// `[addr, addr + len)`.
    pub fn push_read(&mut self, addr: DbAddr, len: u32, codewords: Vec<u32>) {
        Entry::<&[u8], _>::Read {
            addr,
            len,
            codewords,
        }
        .put(&mut self.entries);
        self.entry_count += 1;
    }

    /// Frame the operation in flight ([`LogRecord::Op`]): its entries,
    /// then its logical undo.
    pub fn commit_op(
        &mut self,
        (txn, op, kind, rec): (TxnId, OpSeq, OpKind, RecId),
        undo: LogicalUndoRef<'_>,
    ) {
        let entries = EntriesRef {
            count: self.entry_count,
            bytes: &self.entries,
        };
        let frame = LogRecordRef::Op {
            txn,
            op,
            kind,
            rec,
            entries,
            undo,
        };
        frame_into(self.kind, &frame, &mut self.frames);
        self.count += 1;
        self.clear_entries();
    }

    /// Frame the rollback in flight, its restores as its entries: the
    /// transaction's [`LogRecord::TxnAbort`].
    pub fn abort(&mut self, txn: TxnId) {
        let entries = EntriesRef {
            count: self.entry_count,
            bytes: &self.entries,
        };
        frame_into(
            self.kind,
            &LogRecordRef::TxnAbort { txn, entries },
            &mut self.frames,
        );
        self.count += 1;
        self.clear_entries();
    }

    fn clear_entries(&mut self) {
        self.entries.clear();
        self.entry_count = 0;
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

    /// `(addr, len)` of each pending write, oldest first.
    pub(crate) fn writes(&self) -> &[(DbAddr, usize)] {
        &self.writes
    }

    /// Discard pending records: after they migrated to the system log, or
    /// at rollback (they never reach it).
    pub fn discard(&mut self) {
        self.frames.clear();
        self.count = 0;
        self.writes.clear();
        self.clear_entries();
    }

    /// Empty the log for a later transaction, keeping its allocations up
    /// to a bound.
    pub fn recycle(&mut self) {
        self.discard();
        self.frames.shrink_to(REUSE_CAPACITY);
        self.entries.shrink_to(REUSE_CAPACITY);
        self.writes
            .shrink_to(REUSE_CAPACITY / size_of::<(DbAddr, usize)>());
    }

    /// Roll back `txn`'s operation in flight: drop its entries and its
    /// writes, and push each of its read entries as a `ReadLog` record of
    /// its own. Every earlier frame stays byte-identical: the reads really
    /// happened, and corruption tracing may only overestimate reads, never
    /// underestimate (§4.2).
    pub fn cut_op(&mut self, txn: TxnId) {
        let entries = EntriesRef {
            count: self.entry_count,
            bytes: &self.entries,
        };
        for entry in entries.iter() {
            let Entry::Read {
                addr,
                len,
                codewords,
            } = entry
            else {
                self.writes.pop();
                continue;
            };
            let read = LogRecordRef::ReadLog {
                txn,
                addr,
                len,
                codewords,
            };
            frame_into(self.kind, &read, &mut self.frames);
            self.count += 1;
        }
        self.clear_entries();
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

    /// An operation's frame built from its pushed entries is the frame of
    /// the owned `Op` record it stands for, and a rollback's the
    /// `TxnAbort`'s, under each algebra; the writes are noted in order.
    #[test]
    fn a_frame_built_from_its_entries_is_its_records_frame() {
        let (txn, r) = (TxnId(4), rec(1, 1));
        for kind in CodewordAlgebraKind::ALL {
            let mut log = LocalRedoLog::with_algebra(kind);
            log.push(LogRecord::TxnBegin { txn });
            log.push_read(DbAddr(64), 8, vec![0xdead_beef]);
            log.push_redo(DbAddr(72), &[1; 8]);
            let undo = LogicalUndo::HeapUpdate {
                rec: r,
                before: &[2; 16][..],
            };
            log.commit_op((txn, OpSeq(2), OpKind::Update, r), undo);
            log.push_redo(DbAddr(72), &[2; 8]);
            log.abort(txn);
            let records: [LogRecord; 3] = [
                LogRecord::TxnBegin { txn },
                LogRecord::Op {
                    txn,
                    op: OpSeq(2),
                    kind: OpKind::Update,
                    rec: r,
                    entries: vec![
                        Entry::Read {
                            addr: DbAddr(64),
                            len: 8,
                            codewords: vec![0xdead_beef],
                        },
                        Entry::Write {
                            addr: DbAddr(72),
                            data: vec![1; 8],
                        },
                    ],
                    undo: LogicalUndo::HeapUpdate {
                        rec: r,
                        before: vec![2; 16],
                    },
                },
                LogRecord::TxnAbort {
                    txn,
                    entries: vec![Entry::Write {
                        addr: DbAddr(72),
                        data: vec![2; 8],
                    }],
                },
            ];
            let mut want = Vec::new();
            for record in &records {
                frame_into(kind, record, &mut want);
            }
            assert_eq!(log.bytes(), &want[..], "{kind:?}");
            assert_eq!(log.len(), 3);
            assert_eq!(log.writes(), &[(DbAddr(72), 8), (DbAddr(72), 8)]);
        }
    }

    /// Rolling back an in-flight operation cuts its frame and keeps every
    /// frame before it byte for byte; each read entry it held follows as
    /// a read record of its own, in order, and its writes are forgotten.
    #[test]
    fn cut_op_keeps_earlier_frames_and_re_emits_its_reads() {
        let txn = TxnId(4);
        let read = |addr: usize, codewords: Vec<u32>| LogRecord::ReadLog {
            txn,
            addr: DbAddr(addr),
            len: 64,
            codewords,
        };
        for kind in CodewordAlgebraKind::ALL {
            let mut r = LocalRedoLog::with_algebra(kind);
            r.push(LogRecord::TxnBegin { txn });
            r.push(read(0, vec![]));
            r.push_redo(DbAddr(8), &[8; 8]);
            let undo = LogicalUndo::HeapInsert { rec: rec(1, 0) };
            r.commit_op((txn, OpSeq(1), OpKind::Insert, rec(1, 0)), undo);
            let kept = r.bytes().to_vec();
            r.push_read(DbAddr(64), 64, vec![0xdead_beef]);
            r.push_redo(DbAddr(64), &[64; 8]);
            r.push_read(DbAddr(128), 64, vec![1, 2]);
            r.push_redo(DbAddr(128), &[128; 8]);
            r.cut_op(txn);

            let mut want = kept;
            for rec in [read(64, vec![0xdead_beef]), read(128, vec![1, 2])] {
                frame_into(kind, &rec, &mut want);
            }
            assert_eq!(r.bytes(), &want[..], "{kind:?}");
            assert_eq!(r.len(), 5);
            assert_eq!(r.writes(), &[(DbAddr(8), 8)]);
        }
    }
}
