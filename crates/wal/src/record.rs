//! Log record types and their checksummed binary encoding.
//!
//! Framing on the system log is `[len: u32][checksum: u32][type: u8][payload]`
//! where `checksum` folds the payload under the *configured codeword
//! algebra* (in the same spirit as the paper's codewords — cheap parity
//! that catches torn or overwritten log frames) and then folds the frame
//! *type* byte in as one more word. Checksumming the type matters: the
//! type is what sequences the segmented log (a [`FRAME_SEAL`] marks the
//! clean end of a segment), so a flipped type byte must fail the
//! checksum rather than silently resequence the stream. Historically the
//! frame checksum was hardwired to the XOR fold even when the data image
//! used the residue algebra, which left paired same-direction bit-column
//! flips inside one frame as a silent residual; [`checksum_with`] closes
//! that gap by giving residue configurations residue-checked frames. An
//! LSN is the *global* byte offset of a frame's first byte — segment
//! files partition the offset space without renumbering it.

use bytes::BytesMut;
use dali_common::codec::{CodewordsRef, Reader, Wire};
use dali_common::{
    fold, wire_enum, CodewordAlgebraKind, DaliError, DbAddr, Lsn, OpSeq, RecId, Result, TableId,
    TxnId,
};

wire_enum! {
    /// Kinds of level-1 (heap) operations, recorded in `OpBegin` so that
    /// delete-transaction recovery can test operation conflicts (§4.3: a
    /// begin operation record is "checked against the operations in the
    /// undo logs of all transactions currently in CorruptTransTable").
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub enum OpKind {
        /// Insert a record.
        0 "Insert" Insert,
        /// Delete a record.
        1 "Delete" Delete,
        /// Update a record in place.
        2 "Update" Update,
    }
}

wire_enum! {
    /// Logical undo description, carried in operation commit log records
    /// and in the checkpointed ATT (paper §2.1: "a copy of the logical
    /// undo description is included in the operation commit log record
    /// for use in restart recovery"). `B` holds the saved record image:
    /// owned bytes by default, a slice of the frame it was decoded from in
    /// [`LogicalUndoRef`], or a range of a transaction's undo arena in
    /// [`LocalUndoLog`](crate::LocalUndoLog).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum LogicalUndo<B = Vec<u8>> {
        /// Undo an insert by deleting the slot.
        0 "HeapInsert" HeapInsert { rec: RecId },
        /// Undo a delete by re-inserting the saved image into the slot.
        1 "HeapDelete" HeapDelete { rec: RecId, image: B },
        /// Undo an in-place update by writing back the before-image.
        2 "HeapUpdate" HeapUpdate { rec: RecId, before: B },
    }
}

/// [`LogicalUndo`] borrowed from the bytes it was decoded from or lives
/// in: the image is a slice, not a copy.
pub type LogicalUndoRef<'a> = LogicalUndo<&'a [u8]>;

impl<B> LogicalUndo<B> {
    /// The record this operation targeted (conflict granule for §4.3).
    pub fn target(&self) -> RecId {
        match self {
            LogicalUndo::HeapInsert { rec }
            | LogicalUndo::HeapDelete { rec, .. }
            | LogicalUndo::HeapUpdate { rec, .. } => *rec,
        }
    }

    /// The saved record image, if the undo carries one.
    pub(crate) fn image(&self) -> Option<&B> {
        match self {
            LogicalUndo::HeapInsert { .. } => None,
            LogicalUndo::HeapDelete { image: b, .. }
            | LogicalUndo::HeapUpdate { before: b, .. } => Some(b),
        }
    }

    /// The same undo with its image mapped through `f`.
    pub fn map<'a, C>(&'a self, f: impl FnOnce(&'a B) -> C) -> LogicalUndo<C> {
        match self {
            LogicalUndo::HeapInsert { rec } => LogicalUndo::HeapInsert { rec: *rec },
            LogicalUndo::HeapDelete { rec, image } => LogicalUndo::HeapDelete {
                rec: *rec,
                image: f(image),
            },
            LogicalUndo::HeapUpdate { rec, before } => LogicalUndo::HeapUpdate {
                rec: *rec,
                before: f(before),
            },
        }
    }
}

wire_enum! {
    /// A record on the system log (or in a local redo log awaiting
    /// migration). The type parameters hold its variable-length fields —
    /// record bytes, a table name, read codewords — owned by default, and
    /// borrowed from the bytes a scan decodes in [`LogRecordRef`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum LogRecord<B = Vec<u8>, S = String, C = Vec<u32>> {
        /// Transaction start.
        0 "TxnBegin" TxnBegin { txn: TxnId },
        /// A level-1 operation started. Carried to the system log with the
        /// operation's redo records at operation commit.
        1 "OpBegin" OpBegin { txn: TxnId, op: OpSeq, kind: OpKind, rec: RecId },
        /// Physical after-image of an in-place update (redo is always
        /// physical in Dali, §2.1).
        2 "PhysicalRedo" PhysicalRedo { txn: TxnId, op: OpSeq, addr: DbAddr, data: B },
        /// Read log record (§4.2): the identity of data read — a start
        /// point and a number of bytes, *not the value* — plus, in the CW
        /// ReadLog scheme, the maintained codewords of the overlapped
        /// protection regions (§4.3 extension).
        3 "ReadLog" ReadLog { txn: TxnId, addr: DbAddr, len: u32, codewords: C },
        /// Operation commit: the operation's logical undo description.
        4 "OpCommit" OpCommit { txn: TxnId, op: OpSeq, undo: LogicalUndo<B> },
        /// Transaction commit.
        5 "TxnCommit" TxnCommit { txn: TxnId },
        /// Transaction abort: the end of the batch that logs its
        /// rollback's restores as physical redo (after a recovery's exit
        /// checkpoint, which holds them, alone).
        6 "TxnAbort" TxnAbort { txn: TxnId },
        /// An audit pass began. `Audit_SN` in §4.3 is the LSN of the last
        /// AuditBegin whose matching AuditEnd reported clean.
        7 "AuditBegin" AuditBegin { audit_id: u64 },
        /// An audit pass ended; `clean` is false when corruption was found.
        8 "AuditEnd" AuditEnd { audit_id: u64, clean: bool },
        /// A checkpoint completed and was certified; recovery scans start
        /// at the `redo_start` recorded in the checkpoint header, this
        /// record is informational.
        9 "CkptComplete" CkptComplete { ckpt_lsn: Lsn },
        /// DDL: a table was created (auto-committed). Recovery replays
        /// this to rebuild catalog entries added after the checkpoint.
        10 "CreateTable" CreateTable {
            table: TableId,
            name: S,
            rec_size: u32,
            capacity: u64,
            bitmap_base: DbAddr,
            data_base: DbAddr,
        },
    }
}

/// A [`LogRecord`] decoded in place: every variable-length field is a
/// slice of the buffer the record was decoded from, so walking a log
/// segment allocates nothing.
pub type LogRecordRef<'a> = LogRecord<&'a [u8], &'a str, CodewordsRef<'a>>;

impl<B, S, C> LogRecord<B, S, C> {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::TxnBegin { txn }
            | LogRecord::OpBegin { txn, .. }
            | LogRecord::PhysicalRedo { txn, .. }
            | LogRecord::ReadLog { txn, .. }
            | LogRecord::OpCommit { txn, .. }
            | LogRecord::TxnCommit { txn }
            | LogRecord::TxnAbort { txn } => Some(*txn),
            _ => None,
        }
    }
}

/// XOR-fold checksum over a payload (zero-padded trailing word): the
/// workspace's one XOR slice kernel.
#[inline]
pub fn checksum(payload: &[u8]) -> u32 {
    fold::xor_fold_padded(payload)
}

/// Payload checksum under the configured codeword algebra — by
/// construction the fold `dali-codeword` computes for region codewords.
/// The residue variant is what lets a residue-configured database catch a
/// paired same-direction bit-column flip *inside a log frame* — the XOR
/// checksum's blind spot.
#[inline]
pub fn checksum_with(kind: CodewordAlgebraKind, payload: &[u8]) -> u32 {
    fold::fold_padded(kind, payload)
}

/// Size of a frame header: `[len: u32][checksum: u32][type: u8]`.
pub const FRAME_HDR: usize = 9;

/// Frame type of an ordinary log record.
pub const FRAME_RECORD: u8 = 1;

/// Frame type of a segment seal: an empty-payload marker that says "this
/// segment ended cleanly here; the stream continues in the next segment".
/// A seal mid-file (bytes after it in the same segment) is corruption.
pub const FRAME_SEAL: u8 = 2;

/// One parsed frame off the stable log; `R` holds its record, owned by
/// default and a [`LogRecordRef`] for a scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame<R = LogRecord> {
    /// An ordinary log record.
    Record(R),
    /// A segment seal (clean end-of-segment marker).
    Seal,
}

/// Fold the frame type into the payload checksum. One extra `combine`
/// under the configured algebra: cheap, and it makes a flipped type byte
/// (Record↔Seal) a checksum failure instead of a stream resequencing.
fn frame_checksum(kind: CodewordAlgebraKind, frame_type: u8, payload: &[u8]) -> u32 {
    kind.combine(checksum_with(kind, payload), frame_type as u32)
}

/// Frame a record, owned or borrowed, onto `out` in place: reserve the
/// header `[len][checksum][type]`, encode the payload, then patch the
/// length and the checksum (under `kind`) in. Returns bytes appended.
pub fn frame_into<'a, B, S, C>(
    kind: CodewordAlgebraKind,
    rec: &LogRecord<B, S, C>,
    out: &mut Vec<u8>,
) -> usize
where
    LogRecord<B, S, C>: Wire<'a>,
{
    let start = out.len();
    out.resize(start + FRAME_HDR, FRAME_RECORD);
    rec.put(out);
    let len = out.len() - start - FRAME_HDR;
    let sum = frame_checksum(kind, FRAME_RECORD, &out[start + FRAME_HDR..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&sum.to_le_bytes());
    FRAME_HDR + len
}

/// [`frame_into`] a `BytesMut`. The buffer moves into a `Vec` and back,
/// so nothing is copied or allocated beyond what the frame needs.
pub fn frame_with(kind: CodewordAlgebraKind, rec: &LogRecord, out: &mut BytesMut) -> usize {
    let mut buf = Vec::from(std::mem::take(out));
    let n = frame_into(kind, rec, &mut buf);
    *out = buf.into();
    n
}

/// Frame a segment seal (empty payload). Returns bytes appended
/// (always [`FRAME_HDR`]).
pub fn frame_seal(kind: CodewordAlgebraKind, out: &mut Vec<u8>) -> usize {
    0u32.put(out);
    frame_checksum(kind, FRAME_SEAL, &[]).put(out);
    FRAME_SEAL.put(out);
    FRAME_HDR
}

/// Length of the whole frame that starts at `buf[0]`, read from its
/// header (the frame must be intact: one this process framed).
pub(crate) fn frame_len(buf: &[u8]) -> usize {
    FRAME_HDR + u32::from_le_bytes(buf[..4].try_into().expect("frame header")) as usize
}

/// Parse one XOR-checksummed frame starting at `buf[0]`; returns the
/// frame and its encoded length. Errors on truncation or checksum
/// mismatch. Algebra-aware paths use [`unframe_with`].
pub fn unframe(buf: &[u8]) -> Result<(Frame, usize)> {
    unframe_with(CodewordAlgebraKind::XorFold, buf)
}

/// Parse one frame whose checksum was computed under `kind` into an
/// owned record.
pub fn unframe_with(kind: CodewordAlgebraKind, buf: &[u8]) -> Result<(Frame, usize)> {
    parse_frame(Some(kind), buf)
}

/// Parse the frame at `buf[0]`, its record held as `R` (borrowing from
/// `buf` if `R` does); returns the frame and its encoded length. The
/// checksum is verified under `verify` — or not at all, for a second walk
/// over frames already accepted. Errors on truncation, checksum mismatch
/// or an undecodable payload.
pub(crate) fn parse_frame<'a, R: Wire<'a>>(
    verify: Option<CodewordAlgebraKind>,
    buf: &'a [u8],
) -> Result<(Frame<R>, usize)> {
    let mut r = Reader::new(buf, bad);
    let len = r.u32()? as usize;
    let sum = r.u32()?;
    let frame_type = r.u8()?;
    let payload = r.take(len)?;
    if verify.is_some_and(|kind| frame_checksum(kind, frame_type, payload) != sum) {
        return Err(r.fail("log frame checksum mismatch"));
    }
    let frame = match frame_type {
        FRAME_RECORD => {
            let mut p = Reader::new(payload, bad);
            let rec = R::get(&mut p)?;
            p.finish()?;
            Frame::Record(rec)
        }
        FRAME_SEAL if len == 0 => Frame::Seal,
        FRAME_SEAL => return Err(r.fail(format_args!("seal frame with {len}-byte payload"))),
        other => return Err(r.fail(format_args!("unknown frame type {other}"))),
    };
    Ok((frame, FRAME_HDR + len))
}

fn bad(msg: String) -> DaliError {
    DaliError::RecoveryFailed(format!("log record: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::SlotId;
    use proptest::prelude::*;

    fn rec_samples() -> Vec<LogRecord> {
        vec![
            LogRecord::TxnBegin { txn: TxnId(1) },
            LogRecord::OpBegin {
                txn: TxnId(1),
                op: OpSeq(2),
                kind: OpKind::Update,
                rec: RecId::new(TableId(3), SlotId(4)),
            },
            LogRecord::PhysicalRedo {
                txn: TxnId(1),
                op: OpSeq(2),
                addr: DbAddr(0xdead),
                data: vec![1, 2, 3, 4, 5],
            },
            LogRecord::ReadLog {
                txn: TxnId(1),
                addr: DbAddr(64),
                len: 100,
                codewords: vec![],
            },
            LogRecord::ReadLog {
                txn: TxnId(1),
                addr: DbAddr(64),
                len: 100,
                codewords: vec![0xabcd, 0x1234],
            },
            LogRecord::OpCommit {
                txn: TxnId(1),
                op: OpSeq(2),
                undo: LogicalUndo::HeapUpdate {
                    rec: RecId::new(TableId(3), SlotId(4)),
                    before: vec![9; 100],
                },
            },
            LogRecord::OpCommit {
                txn: TxnId(1),
                op: OpSeq(3),
                undo: LogicalUndo::HeapInsert {
                    rec: RecId::new(TableId(1), SlotId(0)),
                },
            },
            LogRecord::OpCommit {
                txn: TxnId(1),
                op: OpSeq(4),
                undo: LogicalUndo::HeapDelete {
                    rec: RecId::new(TableId(1), SlotId(7)),
                    image: vec![0xaa; 32],
                },
            },
            LogRecord::TxnCommit { txn: TxnId(1) },
            LogRecord::TxnAbort { txn: TxnId(9) },
            LogRecord::AuditBegin { audit_id: 77 },
            LogRecord::AuditEnd {
                audit_id: 77,
                clean: false,
            },
            LogRecord::CkptComplete { ckpt_lsn: Lsn(123) },
            LogRecord::CreateTable {
                table: TableId(2),
                name: "accounts".to_string(),
                rec_size: 100,
                capacity: 100_000,
                bitmap_base: DbAddr(8192),
                data_base: DbAddr(16384),
            },
        ]
    }

    /// Owned and borrowed, every variant decodes to itself and encodes
    /// to the same bytes.
    #[test]
    fn round_trip_all_variants() {
        for rec in rec_samples() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let back = LogRecord::decode(&buf).unwrap();
            assert_eq!(back, rec);
            let mut again = Vec::new();
            LogRecordRef::decode(&buf).unwrap().encode(&mut again);
            assert_eq!(again, buf, "{rec:?}");
        }
    }

    #[test]
    fn frame_round_trip_sequence() {
        let mut out = Vec::new();
        let recs = rec_samples();
        for r in &recs {
            frame_into(CodewordAlgebraKind::XorFold, r, &mut out);
        }
        let mut cursor = &out[..];
        let mut got = vec![];
        while !cursor.is_empty() {
            let (f, n) = unframe(cursor).unwrap();
            match f {
                Frame::Record(r) => got.push(r),
                Frame::Seal => panic!("unexpected seal"),
            }
            cursor = &cursor[n..];
        }
        assert_eq!(got, recs);
    }

    #[test]
    fn seal_frame_round_trips_under_both_algebras() {
        for kind in CodewordAlgebraKind::ALL {
            let mut out = Vec::new();
            let n = frame_seal(kind, &mut out);
            assert_eq!(n, FRAME_HDR);
            assert_eq!(out.len(), FRAME_HDR);
            let (f, m) = unframe_with(kind, &out).unwrap();
            assert_eq!(f, Frame::Seal, "{kind:?}");
            assert_eq!(m, FRAME_HDR);
        }
    }

    /// A flipped frame-type byte (Record↔Seal, or to garbage) must fail
    /// the checksum under both algebras — the type participates in the
    /// fold precisely so corruption cannot resequence the segment stream.
    #[test]
    fn flipped_type_byte_fails_checksum() {
        for kind in CodewordAlgebraKind::ALL {
            let rec: LogRecord = LogRecord::TxnCommit { txn: TxnId(42) };
            let mut out = Vec::new();
            frame_into(kind, &rec, &mut out);
            for forged in [FRAME_SEAL, 0u8, 7u8] {
                let mut bytes = out.to_vec();
                bytes[8] = forged;
                assert!(
                    unframe_with(kind, &bytes).is_err(),
                    "{kind:?} accepted forged type {forged}"
                );
            }
            // And a seal forged into a record type.
            let mut out = Vec::new();
            frame_seal(kind, &mut out);
            let mut bytes = out.to_vec();
            bytes[8] = FRAME_RECORD;
            assert!(unframe_with(kind, &bytes).is_err(), "{kind:?}");
        }
    }

    /// A paired same-direction bit-column flip cancels in the XOR frame
    /// checksum but moves the residue one — the exact gap the algebra
    /// threading closes.
    #[test]
    fn paired_same_column_flip_slides_under_xor_but_not_residue() {
        let payload: Vec<u8> = (0..32u8).collect();
        let mut flipped = payload.clone();
        flipped[0] ^= 0x08; // same bit column, two words apart,
        flipped[4] ^= 0x08; // both 0 -> 1: same direction
        assert_eq!(
            checksum_with(CodewordAlgebraKind::XorFold, &payload),
            checksum_with(CodewordAlgebraKind::XorFold, &flipped),
            "XOR blind spot"
        );
        assert_ne!(
            checksum_with(CodewordAlgebraKind::Residue, &payload),
            checksum_with(CodewordAlgebraKind::Residue, &flipped),
            "residue sees it"
        );
    }

    #[test]
    fn residue_frames_round_trip_and_reject_cross_kind() {
        for kind in CodewordAlgebraKind::ALL {
            let mut out = Vec::new();
            let recs = rec_samples();
            for r in &recs {
                frame_into(kind, r, &mut out);
            }
            let mut cursor = &out[..];
            let mut got = vec![];
            while !cursor.is_empty() {
                let (f, n) = unframe_with(kind, cursor).unwrap();
                match f {
                    Frame::Record(r) => got.push(r),
                    Frame::Seal => panic!("unexpected seal"),
                }
                cursor = &cursor[n..];
            }
            assert_eq!(got, recs, "{kind:?}");
        }
        // A frame whose payload folds differently under the two algebras
        // must not verify under the wrong one. The folds coincide when no
        // addition carries fire (disjoint bit columns), so pick a txn id
        // whose words overlap in every column.
        let rec: LogRecord = LogRecord::TxnCommit {
            txn: TxnId(0x0000_FFFF_FFFF_FFFF),
        };
        let mut out = Vec::new();
        frame_into(CodewordAlgebraKind::Residue, &rec, &mut out);
        assert!(unframe_with(CodewordAlgebraKind::XorFold, &out).is_err());
    }

    #[test]
    fn checksum_detects_flip() {
        let rec: LogRecord = LogRecord::TxnCommit { txn: TxnId(42) };
        let mut out = Vec::new();
        frame_into(CodewordAlgebraKind::XorFold, &rec, &mut out);
        let mut bytes = out.to_vec();
        bytes[10] ^= 0x10; // flip a payload bit
        assert!(unframe(&bytes).is_err());
    }

    #[test]
    fn truncated_frame_is_error() {
        let rec: LogRecord = LogRecord::TxnCommit { txn: TxnId(42) };
        let mut out = Vec::new();
        frame_into(CodewordAlgebraKind::XorFold, &rec, &mut out);
        assert!(unframe(&out[..out.len() - 1]).is_err());
        assert!(unframe(&out[..4]).is_err());
    }

    #[test]
    fn trailing_garbage_in_payload_rejected() {
        let rec: LogRecord = LogRecord::TxnCommit { txn: TxnId(1) };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        buf.push(0);
        assert!(<LogRecord>::decode(&buf).is_err());
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(
            LogRecordRef::TxnBegin { txn: TxnId(5) }.txn(),
            Some(TxnId(5))
        );
        assert_eq!(LogRecordRef::AuditBegin { audit_id: 1 }.txn(), None);
    }

    #[test]
    fn logical_undo_target() {
        let r = RecId::new(TableId(1), SlotId(2));
        assert_eq!(LogicalUndo::<Vec<u8>>::HeapInsert { rec: r }.target(), r);
        assert_eq!(
            LogicalUndo::HeapDelete {
                rec: r,
                image: Vec::<u8>::new()
            }
            .target(),
            r
        );
    }

    proptest! {
        #[test]
        fn prop_round_trip_physical_redo(
            txn in any::<u64>(),
            op in any::<u32>(),
            addr in 0usize..1_000_000_000,
            data in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let rec: LogRecord = LogRecord::PhysicalRedo {
                txn: TxnId(txn),
                op: OpSeq(op),
                addr: DbAddr(addr),
                data,
            };
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            prop_assert_eq!(LogRecord::decode(&buf).unwrap(), rec);
        }

        #[test]
        fn prop_round_trip_readlog(
            txn in any::<u64>(),
            addr in 0usize..1_000_000_000,
            len in any::<u32>(),
            cws in proptest::collection::vec(any::<u32>(), 0..8),
        ) {
            let rec: LogRecord = LogRecord::ReadLog {
                txn: TxnId(txn),
                addr: DbAddr(addr),
                len,
                codewords: cws,
            };
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            prop_assert_eq!(LogRecord::decode(&buf).unwrap(), rec);
        }

        #[test]
        fn prop_frame_survives_arbitrary_records(
            which in 0usize..14,
        ) {
            let rec = rec_samples()[which].clone();
            let mut out = Vec::new();
            frame_into(CodewordAlgebraKind::XorFold, &rec, &mut out);
            let (back, n) = unframe(&out).unwrap();
            prop_assert_eq!(n, out.len());
            prop_assert_eq!(back, Frame::Record(rec));
        }
    }
}
