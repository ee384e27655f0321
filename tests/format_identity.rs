//! Byte-format identity: one literal golden vector per persisted or
//! wire format. Each asserts `encode(value) == golden` and
//! `decode(golden) == value`, so a codec rewrite that moves a single
//! byte — or reads one differently — fails here before it meets an old
//! log, checkpoint or peer.

use bytes::BytesMut;
use dali::common::CrashPoints;
use dali::engine::catalog::Catalog;
use dali::engine::ckpt::{self, CkptMeta};
use dali::engine::corruption::{read_marker, write_marker};
use dali::engine::db::Db;
use dali::engine::CorruptionMarker;
use dali::net::protocol::{encode_request, encode_response, frame, parse_frame};
use dali::net::{Request, Response, ServerStats};
use dali::wal::record::{frame_with, unframe_with};
use dali::wal::{Frame, LogRecord};
use dali::{CodewordAlgebraKind, DbAddr, Lsn, RecId, SlotId, TableId, TxnId};
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
    let (payload, used) = parse_frame(&hex(UPDATE_FRAME)).unwrap().unwrap();
    assert_eq!(used, hex(UPDATE_FRAME).len());
    assert_eq!(Request::decode(&payload).unwrap(), value);
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
    let (payload, _) = parse_frame(&hex(STATS_FRAME)).unwrap().unwrap();
    assert_eq!(Response::decode(&payload).unwrap(), value);
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
    ckpt::write_meta(dir.path(), 1, &value, &CrashPoints::default()).unwrap();
    let path = Db::meta_path(dir.path(), 1);
    assert_bytes(&std::fs::read(&path).unwrap(), META_FILE);

    std::fs::write(&path, hex(META_FILE)).unwrap();
    let back = ckpt::read_meta(dir.path(), 1).unwrap();
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
    write_marker(dir.path(), &value, &CrashPoints::default()).unwrap();
    let path = Db::marker_path(dir.path());
    assert_bytes(&std::fs::read(&path).unwrap(), MARKER_FILE);

    std::fs::write(&path, hex(MARKER_FILE)).unwrap();
    assert_eq!(read_marker(dir.path()).unwrap(), Some(value));
}
