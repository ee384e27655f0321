//! Byte-format identity: one literal golden vector per persisted or
//! wire format. Each asserts `encode(value) == golden` and
//! `decode(golden) == value`, so a codec rewrite that moves a single
//! byte — or reads one differently — fails here before it meets an old
//! log, checkpoint or peer.

use bytes::BytesMut;
use dali::common::codec::Reader;
use dali::common::OpSeq;
use dali::common::OsStorage;
use dali::engine::catalog::Catalog;
use dali::engine::ckpt::{self, CkptMeta};
use dali::engine::corruption::{read_marker, write_marker};
use dali::engine::db::Db;
use dali::engine::CorruptionMarker;
use dali::net::protocol::{encode_request, encode_response, frame, parse_frame};
use dali::net::{Request, Response, ServerStats};
use dali::wal::record::{frame_seal, frame_with, unframe_with};
use dali::wal::{segment, Frame, LocalUndoLog, LogRecord, LogicalUndo, OpKind};
use dali::{
    CodewordAlgebraKind, DaliConfig, DaliEngine, DaliError, DbAddr, Lsn, RecId, SlotId, TableId,
    TxnId,
};
use dali_testutil::TempDir;

fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex literal");
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[track_caller]
fn assert_bytes(actual: &[u8], golden: &str) {
    assert_eq!(to_hex(actual), to_hex(&hex(golden)));
}

// [len][checksum] tag rec.table rec.slot data.len data
const UPDATE_FRAME: &str = "14000000 00490404 03 01000000 11000000 07000000 5a010203040506";

#[test]
fn request_update_wire_frame() {
    let value = Request::Update {
        rec: RecId::new(TableId(1), SlotId(17)),
        data: vec![0x5A, 1, 2, 3, 4, 5, 6],
    };
    assert_bytes(&frame(&encode_request(&value)), UPDATE_FRAME);
    let wire = hex(UPDATE_FRAME);
    let (payload, used) = parse_frame(&wire).unwrap().unwrap();
    assert_eq!(used, wire.len());
    assert_eq!(payload, &wire[8..]);
    assert_eq!(Request::decode(&wire[8..]).unwrap(), value);
}

// [len][checksum] tag, then 37 little-endian u64 counters
const STATS_FRAME: &str = "\
    29010000 03280404 07 \
    0100000000000000 0200000000000000 0300000000000000 0400000000000000 \
    0500000000000000 0600000000000000 0700000000000000 0800000000000000 \
    0900000000000000 0a00000000000000 0b00000000000000 0c00000000000000 \
    0d00000000000000 0e00000000000000 0f00000000000000 1000000000000000 \
    1100000000000000 1200000000000000 1300000000000000 1400000000000000 \
    1500000000000000 1600000000000000 1700000000000000 1800000000000000 \
    1900000000000000 1a00000000000000 1b00000000000000 1c00000000000000 \
    1d00000000000000 1e00000000000000 1f00000000000000 2000000000000000 \
    2100000000000000 2200000000000000 2300000000000000 2400000000000000 \
    0807060504030201";

#[test]
fn response_stats_wire_frame() {
    // Every field distinct, so the golden bytes pin the field order.
    let value = Response::Stats(ServerStats {
        commits: 1,
        aborts: 2,
        fsyncs: 3,
        log_flushes: 4,
        durable_commits: 5,
        piggybacked: 6,
        group_followers: 7,
        sessions: 8,
        orphans_rolled_back: 9,
        deferred_drains: 10,
        deferred_coalesced: 11,
        deferred_max_shard_depth: 12,
        deferred_pending: 13,
        audits_run: 14,
        audit_regions: 15,
        audit_bytes_folded: 16,
        audit_ns: 17,
        certify_regions_certified: 18,
        certify_regions_skipped: 19,
        audit_latch_brackets: 20,
        repair_attempted: 21,
        repair_succeeded: 22,
        repair_fell_back: 23,
        repair_bytes_rebuilt: 24,
        certify_parity_groups: 25,
        conns_rejected: 26,
        frames_pipelined: 27,
        read_parks: 28,
        exec_queue_depth: 29,
        exec_queue_max: 30,
        loop_iterations: 31,
        outbound_buffered_max: 32,
        log_segments_active: 33,
        log_segments_retired: 34,
        log_bytes_on_disk: 35,
        redo_threads_used: 36,
        redo_parallel_ns: 0x0102_0304_0506_0708,
    });
    assert_bytes(&frame(&encode_response(&value)), STATS_FRAME);
    let wire = hex(STATS_FRAME);
    let (payload, _) = parse_frame(&wire).unwrap().unwrap();
    assert_eq!(payload, &wire[8..]);
    assert_eq!(Response::decode(&wire[8..]).unwrap(), value);
}

// [len][checksum][type] tag txn op addr data.len data
const REDO_FRAME_XOR: &str =
    "22000000 910c29b4 01 02 f7ffffffffff0000 03000000 7856341200000000 09000000 fffefdfc8081828309";
const REDO_FRAME_RESIDUE: &str =
    "22000000 9504d7b5 01 02 f7ffffffffff0000 03000000 7856341200000000 09000000 fffefdfc8081828309";

#[test]
fn physical_redo_log_frame_under_each_algebra() {
    // 0xFF.. payload words make the residue sum carry, so the two
    // algebras' checksums differ and each golden pins its own kernel.
    let value = LogRecord::PhysicalRedo {
        txn: TxnId(0x0000_FFFF_FFFF_FFF7),
        op: dali::common::OpSeq(3),
        addr: DbAddr(0x1234_5678),
        data: vec![0xFF, 0xFE, 0xFD, 0xFC, 0x80, 0x81, 0x82, 0x83, 9],
    };
    for (kind, golden) in [
        (CodewordAlgebraKind::XorFold, REDO_FRAME_XOR),
        (CodewordAlgebraKind::Residue, REDO_FRAME_RESIDUE),
    ] {
        let mut out = BytesMut::new();
        let n = frame_with(kind, &value, &mut out);
        assert_eq!(n, out.len());
        assert_bytes(&out, golden);
        let (back, used) = unframe_with(kind, &hex(golden)).unwrap();
        assert_eq!(used, n);
        assert_eq!(back, Frame::Record(value.clone()), "{kind:?}");
    }
    assert_ne!(REDO_FRAME_XOR, REDO_FRAME_RESIDUE);
}

fn sample_meta() -> CkptMeta {
    let mut catalog = Catalog::new();
    let t = catalog
        .plan_table("acct", 100, 1000, 4096, 1 << 20)
        .unwrap();
    catalog.register(t).unwrap();
    let t = catalog
        .plan_table_with_layout("hist", 16, 64, 4096, 1 << 20, true)
        .unwrap();
    catalog.register(t).unwrap();
    CkptMeta {
        serial: 3,
        ck_end: Lsn(0x1000),
        next_txn: 8,
        next_audit: 2,
        audit_sn: Some(Lsn(0x900)),
        algebra: CodewordAlgebraKind::Residue,
        parity_group_size: 8,
        catalog,
        // One transaction (id 7, next_op 1) with an empty undo log.
        att_blob: hex("01000000 0700000000000000 01000000 00000000"),
    }
}

// magic algebra parity_group_size serial / ck_end next_txn next_audit
// audit_sn / catalog.len tables / "acct" (separate bitmap) / "hist"
// (page-local) / watermark / att.len att / trailer checksum
const META_FILE: &str = "\
    03cb11da 02 0800000000000000 0300000000000000 \
    0010000000000000 0800000000000000 0200000000000000 0009000000000000 \
    6a000000 02000000 \
    00000000 04000000 61636374 64000000 e803000000000000 0000000000000000 0010000000000000 00 \
    01000000 04000000 68697374 10000000 4000000000000000 00a0010000000000 00a0010000000000 01 fe000000 20000000 00100000 \
    00b0010000000000 \
    14000000 0100000007000000000000000100000000000000 \
    a63e441d";

#[test]
fn ckpt_meta_file() {
    let dir = TempDir::new("golden-meta");
    let value = sample_meta();
    ckpt::write_meta(&OsStorage, dir.path(), 1, &value).unwrap();
    let path = Db::meta_path(dir.path(), 1);
    assert_bytes(&std::fs::read(&path).unwrap(), META_FILE);

    std::fs::write(&path, hex(META_FILE)).unwrap();
    let back = ckpt::read_meta(&OsStorage, dir.path(), 1).unwrap();
    assert_eq!(back.serial, value.serial);
    assert_eq!(back.ck_end, value.ck_end);
    assert_eq!(back.next_txn, value.next_txn);
    assert_eq!(back.next_audit, value.next_audit);
    assert_eq!(back.audit_sn, value.audit_sn);
    assert_eq!(back.algebra, value.algebra);
    assert_eq!(back.parity_group_size, value.parity_group_size);
    assert_eq!(back.att_blob, value.att_blob);
    assert_eq!(back.catalog.watermark(), value.catalog.watermark());
    assert_eq!(
        back.catalog.iter().collect::<Vec<_>>(),
        value.catalog.iter().collect::<Vec<_>>()
    );
}

// magic audit_sn ranges.len (addr len)* trailer checksum
const MARKER_FILE: &str = "\
    d1ba11da 0903000000000000 02000000 \
    4000000000000000 4000000000000000 \
    0010000000000000 8000000000000000 \
    5aa911da";

#[test]
fn corruption_marker_file() {
    let dir = TempDir::new("golden-marker");
    let value = CorruptionMarker {
        audit_sn: Some(Lsn(777)),
        ranges: vec![(DbAddr(64), 64), (DbAddr(4096), 128)],
    };
    write_marker(&OsStorage, dir.path(), &value).unwrap();
    let path = Db::marker_path(dir.path());
    assert_bytes(&std::fs::read(&path).unwrap(), MARKER_FILE);

    std::fs::write(&path, hex(MARKER_FILE)).unwrap();
    assert_eq!(read_marker(&OsStorage, dir.path()).unwrap(), Some(value));
}

// [len][checksum][type] tag txn op undo.tag rec.table rec.slot
// before.len before
const OP_COMMIT_FRAME: &str = "\
    23000000 7a796f7f 01 \
    04 0700000000000000 03000000 02 01000000 11000000 09000000 fffefdfc8081828309";

#[test]
fn op_commit_heap_update_log_frame() {
    let value = LogRecord::OpCommit {
        txn: TxnId(7),
        op: OpSeq(3),
        undo: LogicalUndo::HeapUpdate {
            rec: RecId::new(TableId(1), SlotId(17)),
            before: vec![0xFF, 0xFE, 0xFD, 0xFC, 0x80, 0x81, 0x82, 0x83, 9],
        },
    };
    let kind = CodewordAlgebraKind::XorFold;
    let mut out = BytesMut::new();
    let n = frame_with(kind, &value, &mut out);
    assert_bytes(&out, OP_COMMIT_FRAME);
    let (back, used) = unframe_with(kind, &hex(OP_COMMIT_FRAME)).unwrap();
    assert_eq!(used, n);
    assert_eq!(back, Frame::Record(value));
}

// count / op tag blob.len, then the blob: an OpCommit payload (tag txn=0
// op) holding the logical undo (undo.tag rec.table rec.slot, then
// image.len image for a delete)
const UNDO_LOG: &str = "\
    02000000 \
    01000000 01 1f000000 \
    04 0000000000000000 01000000 01 02000000 03000000 05000000 ababababab \
    02000000 01 16000000 \
    04 0000000000000000 02000000 00 02000000 04000000";

// A logical entry, then a physical one (tag 0: op tag addr before.len
// before), which no checkpointed ATT holds any more.
const UNDO_LOG_WITH_PHYSICAL: &str = "\
    02000000 \
    01000000 01 1f000000 \
    04 0000000000000000 01000000 01 02000000 03000000 05000000 ababababab \
    02000000 00 4000000000000000 08000000 0102030405060708";

#[test]
fn att_undo_log_holds_logical_entries_only() {
    let mut value = LocalUndoLog::new();
    let image = value.copy_in(&[0xAB; 5]);
    let (deleted, inserted) = (
        RecId::new(TableId(2), SlotId(3)),
        RecId::new(TableId(2), SlotId(4)),
    );
    value.commit_op(
        OpSeq(1),
        LogicalUndo::HeapDelete {
            rec: deleted,
            image,
        },
    );
    value.commit_op(OpSeq(2), LogicalUndo::HeapInsert { rec: inserted });
    // The operation in flight's physical undo stays out.
    value.push_physical(OpSeq(3), DbAddr(0x40), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    let mut out = Vec::new();
    value.encode(&mut out);
    assert_bytes(&out, UNDO_LOG);

    let golden = hex(UNDO_LOG);
    let mut r = Reader::new(&golden, DaliError::RecoveryFailed);
    let back = LocalUndoLog::decode(&mut r).unwrap();
    r.finish().unwrap();
    assert!(back.iter().eq(value.iter()));
    let mut again = Vec::new();
    back.encode(&mut again);
    assert_eq!(again, out);

    let old = hex(UNDO_LOG_WITH_PHYSICAL);
    let mut r = Reader::new(&old, DaliError::RecoveryFailed);
    let res = LocalUndoLog::decode(&mut r);
    assert!(matches!(res, Err(DaliError::RecoveryFailed(_))), "{res:?}");
}

/// One transaction's insert, update and delete on a fresh engine: the
/// stable log holds exactly the frames of the records they stand for,
/// in order, under each algebra.
#[test]
fn update_path_log_bytes_under_each_algebra() {
    for kind in CodewordAlgebraKind::ALL {
        let dir = TempDir::new("golden-update-path");
        let mut config = DaliConfig::small(dir.path());
        config.codeword_algebra = kind;
        let (engine, _) = DaliEngine::create(config).unwrap();
        let table = engine.create_table("t", 16, 64).unwrap();
        let db = engine.db();
        let start = db.syslog.current_lsn();
        let (a, b) = ([0x11u8; 16], [0xEEu8; 16]);
        let txn = engine.begin().unwrap();
        let txn_id = txn.id();
        let rec = txn.insert(table, &a).unwrap();
        txn.update(rec, &b).unwrap();
        txn.delete(rec).unwrap();
        txn.commit().unwrap();
        let end = db.syslog.flush(false).unwrap();
        engine.settle().unwrap();

        let (word, bit, slot) = {
            let catalog = db.catalog.read();
            let meta = catalog.get(table).unwrap();
            let (word, bit) = meta.bit_word_addr(rec.slot);
            (word, bit, meta.slot_addr(rec.slot))
        };
        let op_begin = |op, kind| LogRecord::OpBegin {
            txn: txn_id,
            op: OpSeq(op),
            kind,
            rec,
        };
        let redo = |op, addr, data: &[u8]| LogRecord::PhysicalRedo {
            txn: txn_id,
            op: OpSeq(op),
            addr,
            data: data.to_vec(),
        };
        let op_commit = |op, undo| LogRecord::OpCommit {
            txn: txn_id,
            op: OpSeq(op),
            undo,
        };
        let records = [
            LogRecord::TxnBegin { txn: txn_id },
            op_begin(0, OpKind::Insert),
            redo(0, word, &(1u32 << bit).to_le_bytes()),
            redo(0, slot, &a),
            op_commit(0, LogicalUndo::HeapInsert { rec }),
            op_begin(1, OpKind::Update),
            redo(1, slot, &b),
            op_commit(
                1,
                LogicalUndo::HeapUpdate {
                    rec,
                    before: a.to_vec(),
                },
            ),
            op_begin(2, OpKind::Delete),
            redo(2, word, &0u32.to_le_bytes()),
            op_commit(
                2,
                LogicalUndo::HeapDelete {
                    rec,
                    image: b.to_vec(),
                },
            ),
            LogRecord::TxnCommit { txn: txn_id },
        ];
        let mut want = BytesMut::new();
        for r in &records {
            frame_with(kind, r, &mut want);
        }
        let segs = segment::list(db.syslog.path()).unwrap();
        let seg = segs.iter().rfind(|s| s.base <= start).unwrap();
        assert!(
            end.0 <= seg.base.0 + seg.len,
            "{kind:?}: the run left its segment"
        );
        let stable = std::fs::read(segment::path(db.syslog.path(), seg.base)).unwrap();
        let at = |lsn: Lsn| (lsn.0 - seg.base.0) as usize;
        assert_eq!(
            to_hex(&stable[at(start)..at(end)]),
            to_hex(&want),
            "{kind:?}"
        );
    }
}

// [len][checksum][type], then the payload: tag and fields in order.
const RECORD_FRAMES: [(&str, &str); 12] = [
    // tag txn
    ("TxnBegin", "09000000 050c0404 01 00 0807060504030201"),
    // tag txn op kind rec.table rec.slot
    (
        "OpBegin",
        "16000000 00050700 01 01 0700000000000000 03000000 01 02000000 05000000",
    ),
    ("TxnCommit", "09000000 04070000 01 05 0700000000000000"),
    ("TxnAbort", "09000000 07090000 01 06 0900000000000000"),
    // tag txn addr len codewords.len (u16) codewords
    (
        "ReadLog",
        "17000000 02230000 01 03 0700000000000000 4000000000000000 64000000 0000",
    ),
    (
        "ReadLog",
        "1f000000 bf8edfeb 01 03 0700000000000000 4000000000000000 64000000 0200 efbeadde 04030201",
    ),
    // tag txn op undo.tag rec.table rec.slot [image.len image]
    (
        "OpCommit",
        "16000000 05040700 01 04 0700000000000000 03000000 00 02000000 05000000",
    ),
    (
        "OpCommit",
        "1f000000 aea902ab 01 04 0700000000000000 04000000 01 02000000 05000000 05000000 ababababab",
    ),
    // tag audit_id [clean]
    ("AuditBegin", "09000000 064d0000 01 07 4d00000000000000"),
    ("AuditEnd", "0a000000 094c0000 01 08 4d00000000000000 01"),
    // tag ckpt_lsn
    ("CkptComplete", "09000000 08341200 01 09 3412000000000000"),
    // tag table name.len name rec_size capacity bitmap_base data_base
    (
        "CreateTable",
        "29000000 7f3f5973 01 0a 03000000 04000000 68697374 10000000 \
         4000000000000000 0010000000000000 0020000000000000",
    ),
];

#[test]
fn every_other_log_record_frame() {
    let rec = RecId::new(TableId(2), SlotId(5));
    let (txn, addr) = (TxnId(7), DbAddr(0x40));
    let values = [
        LogRecord::TxnBegin {
            txn: TxnId(0x0102_0304_0506_0708),
        },
        LogRecord::OpBegin {
            txn,
            op: OpSeq(3),
            kind: OpKind::Delete,
            rec,
        },
        LogRecord::TxnCommit { txn },
        LogRecord::TxnAbort { txn: TxnId(9) },
        LogRecord::ReadLog {
            txn,
            addr,
            len: 100,
            codewords: vec![],
        },
        LogRecord::ReadLog {
            txn,
            addr,
            len: 100,
            codewords: vec![0xDEAD_BEEF, 0x0102_0304],
        },
        LogRecord::OpCommit {
            txn,
            op: OpSeq(3),
            undo: LogicalUndo::HeapInsert { rec },
        },
        LogRecord::OpCommit {
            txn,
            op: OpSeq(4),
            undo: LogicalUndo::HeapDelete {
                rec,
                image: vec![0xAB; 5],
            },
        },
        LogRecord::AuditBegin { audit_id: 77 },
        LogRecord::AuditEnd {
            audit_id: 77,
            clean: true,
        },
        LogRecord::CkptComplete {
            ckpt_lsn: Lsn(0x1234),
        },
        LogRecord::CreateTable {
            table: TableId(3),
            name: "hist".into(),
            rec_size: 16,
            capacity: 64,
            bitmap_base: DbAddr(0x1000),
            data_base: DbAddr(0x2000),
        },
    ];
    let kind = CodewordAlgebraKind::XorFold;
    for (value, (name, golden)) in values.into_iter().zip(RECORD_FRAMES) {
        assert!(format!("{value:?}").starts_with(name), "{name}");
        let mut out = BytesMut::new();
        let n = frame_with(kind, &value, &mut out);
        assert_bytes(&out, golden);
        let (back, used) = unframe_with(kind, &hex(golden)).unwrap();
        assert_eq!(used, n, "{name}");
        assert_eq!(back, Frame::Record(value), "{name}");
    }
}

// [len = 0][checksum: the frame type folded into an empty payload][type]
const SEAL_FRAME: &str = "00000000 02000000 02";

#[test]
fn seal_log_frame_under_each_algebra() {
    for kind in CodewordAlgebraKind::ALL {
        let mut out = Vec::new();
        assert_eq!(frame_seal(kind, &mut out), out.len());
        assert_bytes(&out, SEAL_FRAME);
        assert_eq!(
            unframe_with(kind, &hex(SEAL_FRAME)).unwrap(),
            (Frame::Seal, 9)
        );
    }
}
