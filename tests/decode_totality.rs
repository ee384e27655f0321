//! The recovery files read before anything else at restart
//! (`ckpt_*.meta` with its catalog and ATT, `corrupt.marker`), and the log
//! frames redo reads after them, must decode *totally*: short or
//! over-counted input whose trailer checksum verifies is
//! `RecoveryFailed`, never a panic and never a multi-GiB reservation.
//! Each file is cut at every length and re-sealed, so the decoder gets
//! past the checksum and has to bounds-check every field itself.

use dali::common::OpSeq;
use dali::common::OsStorage;
use dali::engine::att::Att;
use dali::engine::catalog::Catalog;
use dali::engine::ckpt::{self, CkptMeta};
use dali::engine::corruption::{read_marker, write_marker};
use dali::engine::db::Db;
use dali::engine::CorruptionMarker;
use dali::wal::record::checksum;
use dali::wal::{Entry, LogRecord, LogRecordRef, LogicalUndo, OpKind};
use dali::{CodewordAlgebraKind, DaliError, DbAddr, Lsn, RecId, SlotId, TableId, TxnId};
use dali_testutil::TempDir;

/// `body` with the trailer checksum a writer would have appended.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut file = body.to_vec();
    file.extend_from_slice(&checksum(body).to_le_bytes());
    file
}

fn is_recovery_failed<T>(r: dali::Result<T>) -> bool {
    matches!(r, Err(DaliError::RecoveryFailed(_)))
}

/// A valid meta file (two tables, one active transaction) as written.
fn meta_file(dir: &TempDir) -> Vec<u8> {
    let mut catalog = Catalog::new();
    for (name, colocate) in [("acct", false), ("hist", true)] {
        let t = catalog
            .plan_table_with_layout(name, 100, 64, 4096, 1 << 20, colocate)
            .unwrap();
        catalog.register(t).unwrap();
    }
    let att = Att::new();
    att.insert(TxnId(7));
    let meta = CkptMeta {
        serial: 3,
        ck_end: Lsn(0x1000),
        next_txn: 8,
        next_audit: 2,
        audit_sn: None,
        algebra: CodewordAlgebraKind::XorFold,
        parity_group_size: 8,
        catalog,
        att_blob: att.encode_for_ckpt(),
    };
    ckpt::write_meta(&OsStorage, dir.path(), 0, &meta).unwrap();
    std::fs::read(Db::meta_path(dir.path(), 0)).unwrap()
}

/// The 8-byte file `[META_MAGIC][META_MAGIC]`: the second word is the
/// XOR fold of the first, so checksum and magic both pass with 57 bytes
/// of fixed fields still to read.
#[test]
fn magic_magic_meta_file_is_an_error_not_a_panic() {
    let dir = TempDir::new("meta-magic-magic");
    let magic = meta_file(&dir)[..4].to_vec();
    std::fs::write(
        Db::meta_path(dir.path(), 0),
        [&magic[..], &magic[..]].concat(),
    )
    .unwrap();
    assert!(is_recovery_failed(ckpt::read_meta(
        &OsStorage,
        dir.path(),
        0
    )));
}

#[test]
fn every_resealed_truncation_of_a_meta_file_is_an_error() {
    let dir = TempDir::new("meta-truncations");
    let file = meta_file(&dir);
    let body = &file[..file.len() - 4];
    let path = Db::meta_path(dir.path(), 0);
    for cut in 0..body.len() {
        std::fs::write(&path, sealed(&body[..cut])).unwrap();
        assert!(
            is_recovery_failed(ckpt::read_meta(&OsStorage, dir.path(), 0)),
            "body cut to {cut} bytes"
        );
    }
    // Over-counted: a catalog claiming u32::MAX tables (the count sits
    // after magic, algebra, six u64 fields and the catalog length).
    let mut body = body.to_vec();
    let tables_at = 4 + 1 + 6 * 8 + 4;
    body[tables_at..tables_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, sealed(&body)).unwrap();
    assert!(is_recovery_failed(ckpt::read_meta(
        &OsStorage,
        dir.path(),
        0
    )));
}

/// A checksum-valid catalog is not a sane one: a page-local table with
/// zero records per page (a division by zero), a capacity whose data
/// extent overflows the address space or a bitmap base off a word
/// boundary (its bitmap words would be unaligned reads) must be
/// `RecoveryFailed`, not a panic or a wrapped space watermark.
#[test]
fn impossible_catalog_extents_are_errors_not_panics() {
    let dir = TempDir::new("meta-extents");
    let file = meta_file(&dir);
    let body = &file[..file.len() - 4];
    // Table 0 ("acct", separate layout) starts after the table count:
    // id, name length, name, rec_size, then its capacity. Table 1
    // ("hist", page-local) follows table 0's 41 bytes; its
    // records-per-page follows rec_size, three u64s and the layout tag.
    let acct = 4 + 1 + 6 * 8 + 4 + 4;
    let capacity_at = acct + 4 + 4 + 4 + 4;
    let rpp_at = acct + 41 + 4 + 4 + 4 + 4 + 3 * 8 + 1;
    assert_eq!(&body[acct + 8..acct + 12], b"acct");
    assert_eq!(&body[acct + 49..acct + 53], b"hist");
    assert_eq!(body[rpp_at - 1], 1, "page-local layout tag");
    let bitmap_at = capacity_at + 8;
    let huge_capacity = (u64::MAX / 2).to_le_bytes();
    let zero_rpp = 0u32.to_le_bytes();
    let bitmap_base = u64::from_le_bytes(body[bitmap_at..bitmap_at + 8].try_into().unwrap());
    let misaligned_bitmap = (bitmap_base + 2).to_le_bytes();
    for (at, bytes) in [
        (capacity_at, &huge_capacity[..]),
        (rpp_at, &zero_rpp[..]),
        (bitmap_at, &misaligned_bitmap[..]),
    ] {
        let mut bad = body.to_vec();
        bad[at..at + bytes.len()].copy_from_slice(bytes);
        std::fs::write(Db::meta_path(dir.path(), 0), sealed(&bad)).unwrap();
        assert!(
            is_recovery_failed(ckpt::read_meta(&OsStorage, dir.path(), 0)),
            "field at byte {at}"
        );
    }
}

#[test]
fn every_resealed_truncation_of_a_marker_is_an_error() {
    let dir = TempDir::new("marker-truncations");
    let marker = CorruptionMarker {
        audit_sn: Some(Lsn(777)),
        ranges: vec![(DbAddr(64), 64), (DbAddr(4096), 128)],
    };
    write_marker(&OsStorage, dir.path(), &marker).unwrap();
    let path = Db::marker_path(dir.path());
    let file = std::fs::read(&path).unwrap();
    let body = &file[..file.len() - 4];
    for cut in 0..body.len() {
        std::fs::write(&path, sealed(&body[..cut])).unwrap();
        assert!(
            is_recovery_failed(read_marker(&OsStorage, dir.path())),
            "body cut to {cut} bytes"
        );
    }
}

/// An ATT blob or undo log whose leading count is `u32::MAX` must fail
/// on the missing bytes, not reserve `count × size_of::<entry>()` first.
#[test]
fn over_counted_att_and_undo_log_are_errors_not_reservations() {
    let over = u32::MAX.to_le_bytes();
    assert!(is_recovery_failed(Att::decode_for_recovery(
        &over,
        CodewordAlgebraKind::XorFold
    )));
    // One well-formed ATT entry (txn 7, next_op 1) whose undo log
    // over-counts.
    let mut blob = vec![1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0];
    blob.extend_from_slice(&over);
    assert!(is_recovery_failed(Att::decode_for_recovery(
        &blob,
        CodewordAlgebraKind::XorFold
    )));
}

/// An operation's frame and a rollback's, their payload cut at every
/// length, decode to an error, owned or borrowed; so does one whose entry
/// count is `u32::MAX`, on the missing bytes and not after reserving them.
#[test]
fn every_truncation_of_an_operation_or_rollback_frame_is_an_error() {
    let rec = RecId::new(TableId(1), SlotId(2));
    let entries = vec![
        Entry::Read {
            addr: DbAddr(64),
            len: 8,
            codewords: vec![0xDEAD_BEEF],
        },
        Entry::Write {
            addr: DbAddr(72),
            data: vec![7; 8],
        },
    ];
    let op: LogRecord = LogRecord::Op {
        txn: TxnId(7),
        op: OpSeq(3),
        kind: OpKind::Update,
        rec,
        entries: entries.clone(),
        undo: LogicalUndo::HeapUpdate {
            rec,
            before: vec![9; 16],
        },
    };
    let abort: LogRecord = LogRecord::TxnAbort {
        txn: TxnId(7),
        entries,
    };
    // Where each one's entry count sits: after the tag and the fields
    // before it.
    for (value, count_at) in [(op, 1 + 8 + 4 + 1 + 8), (abort, 1 + 8)] {
        let mut payload = Vec::new();
        value.encode(&mut payload);
        assert_eq!(LogRecordRef::decode(&payload).map(|_| ()).ok(), Some(()));
        for cut in 0..payload.len() {
            assert!(is_recovery_failed(<LogRecord>::decode(&payload[..cut])));
            assert!(is_recovery_failed(LogRecordRef::decode(&payload[..cut])));
        }
        payload[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(is_recovery_failed(<LogRecord>::decode(&payload)));
        assert!(is_recovery_failed(LogRecordRef::decode(&payload)));
    }
}
