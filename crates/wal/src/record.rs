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

use bytes::{BufMut, BytesMut};
use dali_common::codec::Reader;
use dali_common::{
    fold, CodewordAlgebraKind, DaliError, DbAddr, Lsn, OpSeq, RecId, Result, TableId, TxnId,
};

/// Kinds of level-1 (heap) operations, recorded in `OpBegin` so that
/// delete-transaction recovery can test operation conflicts (§4.3: a begin
/// operation record is "checked against the operations in the undo logs of
/// all transactions currently in CorruptTransTable").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Insert a record.
    Insert,
    /// Delete a record.
    Delete,
    /// Update a record in place.
    Update,
}

impl OpKind {
    fn to_u8(self) -> u8 {
        match self {
            OpKind::Insert => 0,
            OpKind::Delete => 1,
            OpKind::Update => 2,
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<OpKind> {
        Ok(match r.u8()? {
            0 => OpKind::Insert,
            1 => OpKind::Delete,
            2 => OpKind::Update,
            b => return Err(r.fail(format_args!("unknown op kind {b}"))),
        })
    }
}

/// Logical undo description, carried in operation commit log records and
/// in the checkpointed ATT (paper §2.1: "a copy of the logical undo
/// description is included in the operation commit log record for use in
/// restart recovery"). `B` holds the saved record image: owned bytes by
/// default, a slice of the frame it was decoded from in
/// [`LogicalUndoRef`], or a range of a transaction's undo arena in
/// [`LocalUndoLog`](crate::LocalUndoLog).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogicalUndo<B = Vec<u8>> {
    /// Undo an insert by deleting the slot.
    HeapInsert { rec: RecId },
    /// Undo a delete by re-inserting the saved image into the slot.
    HeapDelete { rec: RecId, image: B },
    /// Undo an in-place update by writing back the before-image.
    HeapUpdate { rec: RecId, before: B },
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

impl<'a> LogicalUndoRef<'a> {
    /// Copy the borrowed image out (an undo log outlives the segment
    /// buffer its operation-commit records were read from).
    pub fn to_owned(&self) -> LogicalUndo {
        self.map(|b| b.to_vec())
    }

    fn encode(&self, buf: &mut BytesMut) {
        match self {
            LogicalUndo::HeapInsert { .. } => buf.put_u8(0),
            LogicalUndo::HeapDelete { .. } => buf.put_u8(1),
            LogicalUndo::HeapUpdate { .. } => buf.put_u8(2),
        }
        put_rec(buf, self.target());
        if let Some(image) = self.image() {
            put_blob(buf, image);
        }
    }

    fn decode(r: &mut Reader<'a>) -> Result<LogicalUndoRef<'a>> {
        Ok(match r.u8()? {
            0 => LogicalUndo::HeapInsert { rec: r.rec()? },
            1 => LogicalUndo::HeapDelete {
                rec: r.rec()?,
                image: r.blob()?,
            },
            2 => LogicalUndo::HeapUpdate {
                rec: r.rec()?,
                before: r.blob()?,
            },
            tag => return Err(r.fail(format_args!("unknown logical undo tag {tag}"))),
        })
    }
}

/// A record on the system log (or in a local redo log awaiting migration).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction start.
    TxnBegin { txn: TxnId },
    /// A level-1 operation started. Carried to the system log with the
    /// operation's redo records at operation commit.
    OpBegin {
        txn: TxnId,
        op: OpSeq,
        kind: OpKind,
        rec: RecId,
    },
    /// Physical after-image of an in-place update (redo is always physical
    /// in Dali, §2.1).
    PhysicalRedo {
        txn: TxnId,
        op: OpSeq,
        addr: DbAddr,
        data: Vec<u8>,
    },
    /// Read log record (§4.2): the identity of data read — a start point
    /// and a number of bytes, *not the value* — plus, in the CW ReadLog
    /// scheme, the maintained codewords of the overlapped protection
    /// regions (§4.3 extension).
    ReadLog {
        txn: TxnId,
        addr: DbAddr,
        len: u32,
        codewords: Vec<u32>,
    },
    /// Operation commit: the operation's logical undo description.
    OpCommit {
        txn: TxnId,
        op: OpSeq,
        undo: LogicalUndo,
    },
    /// Transaction commit.
    TxnCommit { txn: TxnId },
    /// Transaction abort (all undo already applied and logged as
    /// compensation redo).
    TxnAbort { txn: TxnId },
    /// An audit pass began. `Audit_SN` in §4.3 is the LSN of the last
    /// AuditBegin whose matching AuditEnd reported clean.
    AuditBegin { audit_id: u64 },
    /// An audit pass ended; `clean` is false when corruption was found.
    AuditEnd { audit_id: u64, clean: bool },
    /// A checkpoint completed and was certified; recovery scans start at
    /// the `redo_start` recorded in the checkpoint header, this record is
    /// informational.
    CkptComplete { ckpt_lsn: Lsn },
    /// DDL: a table was created (auto-committed). Recovery replays this to
    /// rebuild catalog entries added after the checkpoint.
    CreateTable {
        table: TableId,
        name: String,
        rec_size: u32,
        capacity: u64,
        bitmap_base: DbAddr,
        data_base: DbAddr,
    },
}

impl LogRecord {
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

    /// Encode the payload (without framing) into `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        match self {
            LogRecord::TxnBegin { txn } => {
                buf.put_u8(0);
                buf.put_u64_le(txn.0);
            }
            LogRecord::OpBegin { txn, op, kind, rec } => {
                buf.put_u8(1);
                buf.put_u64_le(txn.0);
                buf.put_u32_le(op.0);
                buf.put_u8(kind.to_u8());
                put_rec(buf, *rec);
            }
            LogRecord::PhysicalRedo {
                txn,
                op,
                addr,
                data,
            } => encode_physical_redo(buf, *txn, *op, *addr, data),
            LogRecord::ReadLog {
                txn,
                addr,
                len,
                codewords,
            } => {
                buf.put_u8(3);
                buf.put_u64_le(txn.0);
                buf.put_u64_le(addr.0 as u64);
                buf.put_u32_le(*len);
                buf.put_u16_le(codewords.len() as u16);
                for cw in codewords {
                    buf.put_u32_le(*cw);
                }
            }
            LogRecord::OpCommit { txn, op, undo } => {
                encode_op_commit(buf, *txn, *op, undo.map(|b| b.as_slice()))
            }
            LogRecord::TxnCommit { txn } => {
                buf.put_u8(5);
                buf.put_u64_le(txn.0);
            }
            LogRecord::TxnAbort { txn } => {
                buf.put_u8(6);
                buf.put_u64_le(txn.0);
            }
            LogRecord::AuditBegin { audit_id } => {
                buf.put_u8(7);
                buf.put_u64_le(*audit_id);
            }
            LogRecord::AuditEnd { audit_id, clean } => {
                buf.put_u8(8);
                buf.put_u64_le(*audit_id);
                buf.put_u8(*clean as u8);
            }
            LogRecord::CkptComplete { ckpt_lsn } => {
                buf.put_u8(9);
                buf.put_u64_le(ckpt_lsn.0);
            }
            LogRecord::CreateTable {
                table,
                name,
                rec_size,
                capacity,
                bitmap_base,
                data_base,
            } => {
                buf.put_u8(10);
                buf.put_u32_le(table.0);
                put_blob(buf, name.as_bytes());
                buf.put_u32_le(*rec_size);
                buf.put_u64_le(*capacity);
                buf.put_u64_le(bitmap_base.0 as u64);
                buf.put_u64_le(data_base.0 as u64);
            }
        }
    }

    /// Decode a payload produced by [`encode`](Self::encode): the
    /// borrowed decoder, then one copy of whatever it borrowed.
    pub fn decode(buf: &[u8]) -> Result<LogRecord> {
        LogRecordRef::decode(buf).map(|r| r.to_owned())
    }
}

/// Encode a [`LogRecord::PhysicalRedo`] payload whose data is borrowed.
pub fn encode_physical_redo(buf: &mut BytesMut, txn: TxnId, op: OpSeq, addr: DbAddr, data: &[u8]) {
    buf.put_u8(2);
    buf.put_u64_le(txn.0);
    buf.put_u32_le(op.0);
    buf.put_u64_le(addr.0 as u64);
    put_blob(buf, data);
}

/// Encode a [`LogRecord::OpCommit`] payload whose undo image is borrowed.
pub fn encode_op_commit(buf: &mut BytesMut, txn: TxnId, op: OpSeq, undo: LogicalUndoRef<'_>) {
    buf.put_u8(4);
    buf.put_u64_le(txn.0);
    buf.put_u32_le(op.0);
    undo.encode(buf);
}

/// The codewords of a [`LogRecordRef::ReadLog`] as they sit in the
/// frame: packed little-endian `u32`s at no particular alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodewordsRef<'a>(&'a [u8]);

impl CodewordsRef<'_> {
    /// Number of codewords.
    pub fn len(&self) -> usize {
        self.0.len() / 4
    }

    /// True if the read record carries no codewords.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The codewords, in logged order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("chunks_exact(4)")))
    }
}

/// A [`LogRecord`] decoded in place: every variable-length field is a
/// slice of the buffer the record was decoded from, so walking a log
/// segment allocates nothing. This is the only decoder; the owned
/// [`LogRecord::decode`] is this plus [`to_owned`](Self::to_owned).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogRecordRef<'a> {
    /// See [`LogRecord::TxnBegin`].
    TxnBegin { txn: TxnId },
    /// See [`LogRecord::OpBegin`].
    OpBegin {
        txn: TxnId,
        op: OpSeq,
        kind: OpKind,
        rec: RecId,
    },
    /// See [`LogRecord::PhysicalRedo`].
    PhysicalRedo {
        txn: TxnId,
        op: OpSeq,
        addr: DbAddr,
        data: &'a [u8],
    },
    /// See [`LogRecord::ReadLog`].
    ReadLog {
        txn: TxnId,
        addr: DbAddr,
        len: u32,
        codewords: CodewordsRef<'a>,
    },
    /// See [`LogRecord::OpCommit`].
    OpCommit {
        txn: TxnId,
        op: OpSeq,
        undo: LogicalUndoRef<'a>,
    },
    /// See [`LogRecord::TxnCommit`].
    TxnCommit { txn: TxnId },
    /// See [`LogRecord::TxnAbort`].
    TxnAbort { txn: TxnId },
    /// See [`LogRecord::AuditBegin`].
    AuditBegin { audit_id: u64 },
    /// See [`LogRecord::AuditEnd`].
    AuditEnd { audit_id: u64, clean: bool },
    /// See [`LogRecord::CkptComplete`].
    CkptComplete { ckpt_lsn: Lsn },
    /// See [`LogRecord::CreateTable`].
    CreateTable {
        table: TableId,
        name: &'a str,
        rec_size: u32,
        capacity: u64,
        bitmap_base: DbAddr,
        data_base: DbAddr,
    },
}

impl<'a> LogRecordRef<'a> {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecordRef::TxnBegin { txn }
            | LogRecordRef::OpBegin { txn, .. }
            | LogRecordRef::PhysicalRedo { txn, .. }
            | LogRecordRef::ReadLog { txn, .. }
            | LogRecordRef::OpCommit { txn, .. }
            | LogRecordRef::TxnCommit { txn }
            | LogRecordRef::TxnAbort { txn } => Some(*txn),
            _ => None,
        }
    }

    /// Copy everything borrowed into an owned [`LogRecord`].
    pub fn to_owned(&self) -> LogRecord {
        match *self {
            LogRecordRef::TxnBegin { txn } => LogRecord::TxnBegin { txn },
            LogRecordRef::OpBegin { txn, op, kind, rec } => {
                LogRecord::OpBegin { txn, op, kind, rec }
            }
            LogRecordRef::PhysicalRedo {
                txn,
                op,
                addr,
                data,
            } => LogRecord::PhysicalRedo {
                txn,
                op,
                addr,
                data: data.to_vec(),
            },
            LogRecordRef::ReadLog {
                txn,
                addr,
                len,
                codewords,
            } => LogRecord::ReadLog {
                txn,
                addr,
                len,
                codewords: codewords.iter().collect(),
            },
            LogRecordRef::OpCommit { txn, op, undo } => LogRecord::OpCommit {
                txn,
                op,
                undo: undo.to_owned(),
            },
            LogRecordRef::TxnCommit { txn } => LogRecord::TxnCommit { txn },
            LogRecordRef::TxnAbort { txn } => LogRecord::TxnAbort { txn },
            LogRecordRef::AuditBegin { audit_id } => LogRecord::AuditBegin { audit_id },
            LogRecordRef::AuditEnd { audit_id, clean } => LogRecord::AuditEnd { audit_id, clean },
            LogRecordRef::CkptComplete { ckpt_lsn } => LogRecord::CkptComplete { ckpt_lsn },
            LogRecordRef::CreateTable {
                table,
                name,
                rec_size,
                capacity,
                bitmap_base,
                data_base,
            } => LogRecord::CreateTable {
                table,
                name: name.to_string(),
                rec_size,
                capacity,
                bitmap_base,
                data_base,
            },
        }
    }

    /// Decode a payload produced by [`LogRecord::encode`], borrowing
    /// from `buf`. Total: any malformed input returns an error.
    pub fn decode(buf: &'a [u8]) -> Result<LogRecordRef<'a>> {
        let mut r = Reader::new(buf, bad);
        let rec = Self::decode_inner(&mut r)?;
        r.finish()?;
        Ok(rec)
    }

    fn decode_inner(r: &mut Reader<'a>) -> Result<LogRecordRef<'a>> {
        Ok(match r.u8()? {
            0 => LogRecordRef::TxnBegin {
                txn: TxnId(r.u64()?),
            },
            1 => LogRecordRef::OpBegin {
                txn: TxnId(r.u64()?),
                op: OpSeq(r.u32()?),
                kind: OpKind::decode(r)?,
                rec: r.rec()?,
            },
            2 => LogRecordRef::PhysicalRedo {
                txn: TxnId(r.u64()?),
                op: OpSeq(r.u32()?),
                addr: DbAddr(r.u64()? as usize),
                data: r.blob()?,
            },
            3 => LogRecordRef::ReadLog {
                txn: TxnId(r.u64()?),
                addr: DbAddr(r.u64()? as usize),
                len: r.u32()?,
                codewords: {
                    let n = r.u16()? as usize;
                    CodewordsRef(r.take(4 * n)?)
                },
            },
            4 => LogRecordRef::OpCommit {
                txn: TxnId(r.u64()?),
                op: OpSeq(r.u32()?),
                undo: LogicalUndoRef::decode(r)?,
            },
            5 => LogRecordRef::TxnCommit {
                txn: TxnId(r.u64()?),
            },
            6 => LogRecordRef::TxnAbort {
                txn: TxnId(r.u64()?),
            },
            7 => LogRecordRef::AuditBegin { audit_id: r.u64()? },
            8 => LogRecordRef::AuditEnd {
                audit_id: r.u64()?,
                clean: r.bool()?,
            },
            9 => LogRecordRef::CkptComplete {
                ckpt_lsn: Lsn(r.u64()?),
            },
            10 => LogRecordRef::CreateTable {
                table: TableId(r.u32()?),
                name: r.str()?,
                rec_size: r.u32()?,
                capacity: r.u64()?,
                bitmap_base: DbAddr(r.u64()? as usize),
                data_base: DbAddr(r.u64()? as usize),
            },
            tag => return Err(r.fail(format_args!("unknown log record tag {tag}"))),
        })
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

/// One parsed frame off the stable log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// An ordinary log record.
    Record(LogRecord),
    /// A segment seal (clean end-of-segment marker).
    Seal,
}

/// A [`Frame`] whose record borrows from the bytes it was parsed from.
pub(crate) enum FrameRef<'a> {
    /// An ordinary log record.
    Record(LogRecordRef<'a>),
    /// A segment seal (clean end-of-segment marker).
    Seal,
}

/// Fold the frame type into the payload checksum. One extra `combine`
/// under the configured algebra: cheap, and it makes a flipped type byte
/// (Record↔Seal) a checksum failure instead of a stream resequencing.
fn frame_checksum(kind: CodewordAlgebraKind, frame_type: u8, payload: &[u8]) -> u32 {
    kind.combine(checksum_with(kind, payload), frame_type as u32)
}

/// Frame a record: `[len][checksum][type][payload]`. Returns bytes
/// appended. XOR-checksummed — the historical default, kept for callers
/// without an algebra in hand; algebra-aware paths use [`frame_with`].
pub fn frame(rec: &LogRecord, out: &mut BytesMut) -> usize {
    frame_with(CodewordAlgebraKind::XorFold, rec, out)
}

/// Frame a record with the payload checksummed under `kind`.
pub fn frame_with(kind: CodewordAlgebraKind, rec: &LogRecord, out: &mut BytesMut) -> usize {
    frame_encoded(kind, out, |buf| rec.encode(buf))
}

/// Frame the one record payload `encode` appends to `out`, in place:
/// reserve the header, encode, then patch the length and checksum in.
/// Returns bytes appended.
pub(crate) fn frame_encoded(
    kind: CodewordAlgebraKind,
    out: &mut BytesMut,
    encode: impl FnOnce(&mut BytesMut),
) -> usize {
    let start = out.len();
    out.resize(start + FRAME_HDR, FRAME_RECORD);
    encode(out);
    let len = out.len() - start - FRAME_HDR;
    let sum = frame_checksum(kind, FRAME_RECORD, &out[start + FRAME_HDR..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&sum.to_le_bytes());
    FRAME_HDR + len
}

/// Frame a segment seal (empty payload). Returns bytes appended
/// (always [`FRAME_HDR`]).
pub fn frame_seal(kind: CodewordAlgebraKind, out: &mut BytesMut) -> usize {
    out.put_u32_le(0);
    out.put_u32_le(frame_checksum(kind, FRAME_SEAL, &[]));
    out.put_u8(FRAME_SEAL);
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

/// Parse one frame whose checksum was computed under `kind`, copying
/// the record out of `buf`.
pub fn unframe_with(kind: CodewordAlgebraKind, buf: &[u8]) -> Result<(Frame, usize)> {
    let (frame, n) = parse_frame(Some(kind), buf)?;
    let frame = match frame {
        FrameRef::Record(rec) => Frame::Record(rec.to_owned()),
        FrameRef::Seal => Frame::Seal,
    };
    Ok((frame, n))
}

/// Parse the frame at `buf[0]`, borrowing its record from `buf`; returns
/// the frame and its encoded length. The checksum is verified under
/// `verify` — or not at all, for a second walk over frames already
/// accepted. Errors on truncation, checksum mismatch or an undecodable
/// payload.
pub(crate) fn parse_frame(
    verify: Option<CodewordAlgebraKind>,
    buf: &[u8],
) -> Result<(FrameRef<'_>, usize)> {
    let mut r = Reader::new(buf, bad);
    let len = r.u32()? as usize;
    let sum = r.u32()?;
    let frame_type = r.u8()?;
    let payload = r.take(len)?;
    if verify.is_some_and(|kind| frame_checksum(kind, frame_type, payload) != sum) {
        return Err(r.fail("log frame checksum mismatch"));
    }
    let frame = match frame_type {
        FRAME_RECORD => FrameRef::Record(LogRecordRef::decode(payload)?),
        FRAME_SEAL if len == 0 => FrameRef::Seal,
        FRAME_SEAL => return Err(r.fail(format_args!("seal frame with {len}-byte payload"))),
        other => return Err(r.fail(format_args!("unknown frame type {other}"))),
    };
    Ok((frame, FRAME_HDR + len))
}

fn bad(msg: String) -> DaliError {
    DaliError::RecoveryFailed(format!("log record: {msg}"))
}

fn put_rec(buf: &mut BytesMut, rec: RecId) {
    buf.put_u32_le(rec.table.0);
    buf.put_u32_le(rec.slot.0);
}

pub(crate) fn put_blob(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.extend_from_slice(data);
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

    #[test]
    fn round_trip_all_variants() {
        for rec in rec_samples() {
            let mut buf = BytesMut::new();
            rec.encode(&mut buf);
            let back = LogRecord::decode(&buf).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn frame_round_trip_sequence() {
        let mut out = BytesMut::new();
        let recs = rec_samples();
        for r in &recs {
            frame(r, &mut out);
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
            let mut out = BytesMut::new();
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
            let rec = LogRecord::TxnCommit { txn: TxnId(42) };
            let mut out = BytesMut::new();
            frame_with(kind, &rec, &mut out);
            for forged in [FRAME_SEAL, 0u8, 7u8] {
                let mut bytes = out.to_vec();
                bytes[8] = forged;
                assert!(
                    unframe_with(kind, &bytes).is_err(),
                    "{kind:?} accepted forged type {forged}"
                );
            }
            // And a seal forged into a record type.
            let mut out = BytesMut::new();
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
            let mut out = BytesMut::new();
            let recs = rec_samples();
            for r in &recs {
                frame_with(kind, r, &mut out);
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
        let rec = LogRecord::TxnCommit {
            txn: TxnId(0x0000_FFFF_FFFF_FFFF),
        };
        let mut out = BytesMut::new();
        frame_with(CodewordAlgebraKind::Residue, &rec, &mut out);
        assert!(unframe_with(CodewordAlgebraKind::XorFold, &out).is_err());
    }

    #[test]
    fn checksum_detects_flip() {
        let rec = LogRecord::TxnCommit { txn: TxnId(42) };
        let mut out = BytesMut::new();
        frame(&rec, &mut out);
        let mut bytes = out.to_vec();
        bytes[10] ^= 0x10; // flip a payload bit
        assert!(unframe(&bytes).is_err());
    }

    #[test]
    fn truncated_frame_is_error() {
        let rec = LogRecord::TxnCommit { txn: TxnId(42) };
        let mut out = BytesMut::new();
        frame(&rec, &mut out);
        assert!(unframe(&out[..out.len() - 1]).is_err());
        assert!(unframe(&out[..4]).is_err());
    }

    #[test]
    fn trailing_garbage_in_payload_rejected() {
        let rec = LogRecord::TxnCommit { txn: TxnId(1) };
        let mut buf = BytesMut::new();
        rec.encode(&mut buf);
        buf.put_u8(0);
        assert!(LogRecord::decode(&buf).is_err());
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::TxnBegin { txn: TxnId(5) }.txn(), Some(TxnId(5)));
        assert_eq!(LogRecord::AuditBegin { audit_id: 1 }.txn(), None);
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
            let rec = LogRecord::PhysicalRedo {
                txn: TxnId(txn),
                op: OpSeq(op),
                addr: DbAddr(addr),
                data,
            };
            let mut buf = BytesMut::new();
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
            let rec = LogRecord::ReadLog {
                txn: TxnId(txn),
                addr: DbAddr(addr),
                len,
                codewords: cws,
            };
            let mut buf = BytesMut::new();
            rec.encode(&mut buf);
            prop_assert_eq!(LogRecord::decode(&buf).unwrap(), rec);
        }

        #[test]
        fn prop_frame_survives_arbitrary_records(
            which in 0usize..14,
        ) {
            let rec = rec_samples()[which].clone();
            let mut out = BytesMut::new();
            frame(&rec, &mut out);
            let (back, n) = unframe(&out).unwrap();
            prop_assert_eq!(n, out.len());
            prop_assert_eq!(back, Frame::Record(rec));
        }
    }
}
