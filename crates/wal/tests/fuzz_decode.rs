//! Robustness of the log decoder: arbitrary bytes must never panic the
//! unframe/decode path — a corrupted log file must surface as an error,
//! not a crash, because log corruption is exactly the adjacent failure
//! mode this system exists to handle gracefully.

use dali_common::CodewordAlgebraKind::XorFold;
use dali_wal::record::{frame_into, unframe, Frame, LogRecord};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    fn unframe_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = unframe(&bytes); // must not panic
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = <LogRecord>::decode(&bytes); // must not panic
        let _ = LogRecordRef::decode(&bytes);
    }

    #[test]
    fn bitflip_in_frame_is_detected_or_identical(
        txn in any::<u64>(),
        addr in 0usize..1_000_000,
        data in proptest::collection::vec(any::<u8>(), 1..64),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let rec = LogRecord::PhysicalRedo {
            txn: dali_common::TxnId(txn),
            op: dali_common::OpSeq(1),
            addr: dali_common::DbAddr(addr),
            data,
        };
        let mut bytes = Vec::new();
        frame_into(XorFold, &rec, &mut bytes);
        let i = flip_byte % bytes.len();
        bytes[i] ^= 1 << flip_bit;
        match unframe(&bytes) {
            // The flip must be caught by the length prefix, the checksum,
            // or the decoder...
            Err(_) => {}
            // ...UNLESS the flip landed in the checksum field itself and
            // produced... no: flipping any single bit of len/checksum/payload
            // always breaks the XOR parity. A successful parse can only
            // happen if the frame was re-interpreted with a shorter length
            // that still checksums; in that case it must not equal the
            // original record.
            Ok((parsed, _)) => prop_assert_ne!(parsed, Frame::Record(rec)),
        }
    }

    #[test]
    fn truncations_are_errors_not_panics(
        txn in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..100,
    ) {
        let rec: LogRecord = LogRecord::PhysicalRedo {
            txn: dali_common::TxnId(txn),
            op: dali_common::OpSeq(0),
            addr: dali_common::DbAddr(0),
            data,
        };
        let mut buf = Vec::new();
        frame_into(XorFold, &rec, &mut buf);
        let keep = cut.min(buf.len().saturating_sub(1));
        prop_assert!(unframe(&buf[..keep]).is_err());
    }
}

// ---- the declared decoders against the hand-written one they replaced ----

use dali_common::{DbAddr, Lsn, OpSeq, RecId, SlotId, TableId, TxnId};
use dali_wal::record::{Entry, LogRecordRef, LogicalUndo, OpKind};

/// The owned decoder as it stood before `LogRecordRef` (one `Vec` per
/// blob, eager `String`), kept here as the reference the declared
/// decoders must agree with byte for byte and error for error.
fn reference_decode(mut buf: &[u8]) -> Option<LogRecord> {
    fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if buf.len() < n {
            return None;
        }
        let (head, rest) = buf.split_at(n);
        *buf = rest;
        Some(head)
    }
    fn u8_(buf: &mut &[u8]) -> Option<u8> {
        take(buf, 1).map(|b| b[0])
    }
    fn u16_(buf: &mut &[u8]) -> Option<u16> {
        take(buf, 2).map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }
    fn u32_(buf: &mut &[u8]) -> Option<u32> {
        take(buf, 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64_(buf: &mut &[u8]) -> Option<u64> {
        take(buf, 8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn blob(buf: &mut &[u8]) -> Option<Vec<u8>> {
        let n = u32_(buf)? as usize;
        take(buf, n).map(<[u8]>::to_vec)
    }
    fn rec(buf: &mut &[u8]) -> Option<RecId> {
        Some(RecId::new(TableId(u32_(buf)?), SlotId(u32_(buf)?)))
    }
    fn codewords(buf: &mut &[u8]) -> Option<Vec<u32>> {
        let n = u16_(buf)?;
        (0..n).map(|_| u32_(buf)).collect()
    }
    fn entries(buf: &mut &[u8]) -> Option<Vec<Entry>> {
        let n = u32_(buf)?;
        (0..n)
            .map(|_| match u8_(buf)? {
                0 => Some(Entry::Write {
                    addr: DbAddr(u64_(buf)? as usize),
                    data: blob(buf)?,
                }),
                1 => Some(Entry::Read {
                    addr: DbAddr(u64_(buf)? as usize),
                    len: u32_(buf)?,
                    codewords: codewords(buf)?,
                }),
                _ => None,
            })
            .collect()
    }
    let buf = &mut buf;
    let record = match u8_(buf)? {
        0 => LogRecord::TxnBegin {
            txn: TxnId(u64_(buf)?),
        },
        2 => LogRecord::PhysicalRedo {
            txn: TxnId(u64_(buf)?),
            op: OpSeq(u32_(buf)?),
            addr: DbAddr(u64_(buf)? as usize),
            data: blob(buf)?,
        },
        3 => {
            let txn = TxnId(u64_(buf)?);
            let addr = DbAddr(u64_(buf)? as usize);
            let len = u32_(buf)?;
            let codewords = codewords(buf)?;
            LogRecord::ReadLog {
                txn,
                addr,
                len,
                codewords,
            }
        }
        5 => LogRecord::TxnCommit {
            txn: TxnId(u64_(buf)?),
        },
        6 => LogRecord::TxnAbort {
            txn: TxnId(u64_(buf)?),
            entries: entries(buf)?,
        },
        7 => LogRecord::AuditBegin {
            audit_id: u64_(buf)?,
        },
        8 => LogRecord::AuditEnd {
            audit_id: u64_(buf)?,
            clean: u8_(buf)? != 0,
        },
        9 => LogRecord::CkptComplete {
            ckpt_lsn: Lsn(u64_(buf)?),
        },
        10 => LogRecord::CreateTable {
            table: TableId(u32_(buf)?),
            name: String::from_utf8(blob(buf)?).ok()?,
            rec_size: u32_(buf)?,
            capacity: u64_(buf)?,
            bitmap_base: DbAddr(u64_(buf)? as usize),
            data_base: DbAddr(u64_(buf)? as usize),
        },
        11 => LogRecord::Op {
            txn: TxnId(u64_(buf)?),
            op: OpSeq(u32_(buf)?),
            kind: match u8_(buf)? {
                0 => OpKind::Insert,
                1 => OpKind::Delete,
                2 => OpKind::Update,
                _ => return None,
            },
            rec: rec(buf)?,
            entries: entries(buf)?,
            undo: match u8_(buf)? {
                0 => LogicalUndo::HeapInsert { rec: rec(buf)? },
                1 => LogicalUndo::HeapDelete {
                    rec: rec(buf)?,
                    image: blob(buf)?,
                },
                2 => LogicalUndo::HeapUpdate {
                    rec: rec(buf)?,
                    before: blob(buf)?,
                },
                _ => return None,
            },
        },
        _ => return None,
    };
    buf.is_empty().then_some(record)
}

fn arb_rec_id() -> impl Strategy<Value = RecId> {
    (any::<u32>(), any::<u32>()).prop_map(|(t, s)| RecId::new(TableId(t), SlotId(s)))
}

fn arb_blob() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..96)
}

fn arb_undo() -> impl Strategy<Value = LogicalUndo> {
    prop_oneof![
        arb_rec_id().prop_map(|rec| LogicalUndo::HeapInsert { rec }),
        (arb_rec_id(), arb_blob()).prop_map(|(rec, image)| LogicalUndo::HeapDelete { rec, image }),
        (arb_rec_id(), arb_blob())
            .prop_map(|(rec, before)| LogicalUndo::HeapUpdate { rec, before }),
    ]
}

/// An operation's or rollback's entries, writes and reads mixed.
fn arb_entries() -> impl Strategy<Value = Vec<Entry>> {
    let addr = || (0usize..1 << 40).prop_map(DbAddr);
    let entry = prop_oneof![
        (addr(), arb_blob()).prop_map(|(addr, data)| Entry::Write { addr, data }),
        (
            addr(),
            any::<u32>(),
            proptest::collection::vec(any::<u32>(), 0..4)
        )
            .prop_map(|(addr, len, codewords)| Entry::Read {
                addr,
                len,
                codewords
            }),
    ];
    proptest::collection::vec(entry, 0..4)
}

/// Any `LogRecord`, every variant equally likely.
fn arb_record() -> impl Strategy<Value = LogRecord> {
    let txn = || any::<u64>().prop_map(TxnId);
    let op = || any::<u32>().prop_map(OpSeq);
    let addr = || (0usize..1 << 40).prop_map(DbAddr);
    prop_oneof![
        txn().prop_map(|txn| LogRecord::TxnBegin { txn }),
        (txn(), op(), 0u8..3, arb_rec_id(), arb_entries(), arb_undo()).prop_map(
            |(txn, op, kind, rec, entries, undo)| LogRecord::Op {
                txn,
                op,
                kind: [OpKind::Insert, OpKind::Delete, OpKind::Update][kind as usize],
                rec,
                entries,
                undo,
            }
        ),
        (txn(), op(), addr(), arb_blob()).prop_map(|(txn, op, addr, data)| {
            LogRecord::PhysicalRedo {
                txn,
                op,
                addr,
                data,
            }
        }),
        (
            txn(),
            addr(),
            any::<u32>(),
            proptest::collection::vec(any::<u32>(), 0..6)
        )
            .prop_map(|(txn, addr, len, codewords)| LogRecord::ReadLog {
                txn,
                addr,
                len,
                codewords,
            }),
        txn().prop_map(|txn| LogRecord::TxnCommit { txn }),
        (txn(), arb_entries()).prop_map(|(txn, entries)| LogRecord::TxnAbort { txn, entries }),
        any::<u64>().prop_map(|audit_id| LogRecord::AuditBegin { audit_id }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(audit_id, clean)| LogRecord::AuditEnd { audit_id, clean }),
        any::<u64>().prop_map(|l| LogRecord::CkptComplete { ckpt_lsn: Lsn(l) }),
        (
            any::<u32>(),
            proptest::collection::vec(0x20u8..0x7f, 0..24),
            any::<u32>(),
            any::<u64>(),
            addr(),
            addr()
        )
            .prop_map(
                |(table, name, rec_size, capacity, bitmap_base, data_base)| {
                    LogRecord::CreateTable {
                        table: TableId(table),
                        name: String::from_utf8(name).unwrap(),
                        rec_size,
                        capacity,
                        bitmap_base,
                        data_base,
                    }
                }
            ),
    ]
}

fn encoded<'a, B, S, C, E>(rec: &LogRecord<B, S, C, E>) -> Vec<u8>
where
    LogRecord<B, S, C, E>: dali_common::codec::Wire<'a>,
{
    let mut buf = Vec::new();
    rec.encode(&mut buf);
    buf
}

/// Decode `bytes` both ways the record is declared: owned, and borrowed
/// from `bytes`, which must fail together and otherwise hold the same
/// record (the borrowed one re-encodes to the owned one's bytes).
fn declared_decode(bytes: &[u8]) -> Option<LogRecord> {
    let owned = <LogRecord>::decode(bytes).ok();
    let borrowed = LogRecordRef::decode(bytes).ok();
    assert_eq!(
        borrowed.as_ref().map(encoded),
        owned.as_ref().map(encoded),
        "the borrowed decoder disagrees with the owned one"
    );
    owned
}

// Default config on purpose: CI deepens these with PROPTEST_CASES.
proptest! {
    /// encode → decode, owned or borrowed, is the identity on every
    /// variant, and the reference decoder reads the same record.
    #[test]
    fn ref_decoder_round_trips_every_variant(rec in arb_record()) {
        let bytes = encoded(&rec);
        prop_assert_eq!(declared_decode(&bytes), Some(rec.clone()));
        prop_assert_eq!(reference_decode(&bytes), Some(rec));
    }

    /// On damaged encodings — truncated, extended, bit-flipped — the
    /// declared decoders fail exactly when the reference did, read
    /// the same record when both succeed, and never panics.
    #[test]
    fn ref_decoder_agrees_with_owned_on_damaged_records(
        rec in arb_record(),
        cut in 0usize..160,
        flips in proptest::collection::vec((0usize..160, 0u8..8), 0..3),
        tail in proptest::collection::vec(any::<u8>(), 0..3),
    ) {
        let mut bytes = encoded(&rec);
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        if cut < bytes.len() {
            bytes.truncate(cut);
        }
        bytes.extend_from_slice(&tail);
        prop_assert_eq!(declared_decode(&bytes), reference_decode(&bytes));
    }

    /// The same agreement on bytes that never were a record.
    #[test]
    fn ref_decoder_agrees_with_owned_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        prop_assert_eq!(declared_decode(&bytes), reference_decode(&bytes));
    }
}
