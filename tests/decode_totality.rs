//! The recovery files read before anything else at restart
//! (`ckpt_*.meta` with its catalog and ATT, `corrupt.marker`) must decode
//! *totally*: short or over-counted input whose trailer checksum verifies
//! is `RecoveryFailed`, never a panic and never a multi-GiB reservation.
//! Each file is cut at every length and re-sealed, so the decoder gets
//! past the checksum and has to bounds-check every field itself.

use dali::common::CrashPoints;
use dali::engine::att::Att;
use dali::engine::catalog::Catalog;
use dali::engine::ckpt::{self, CkptMeta};
use dali::engine::corruption::{read_marker, write_marker};
use dali::engine::db::Db;
use dali::engine::CorruptionMarker;
use dali::wal::record::checksum;
use dali::{CodewordAlgebraKind, DaliError, DbAddr, Lsn, TxnId};
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
        att_blob: att.encode_for_ckpt().unwrap(),
    };
    ckpt::write_meta(dir.path(), 0, &meta, &CrashPoints::default()).unwrap();
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
    assert!(is_recovery_failed(ckpt::read_meta(dir.path(), 0)));
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
            is_recovery_failed(ckpt::read_meta(dir.path(), 0)),
            "body cut to {cut} bytes"
        );
    }
    // Over-counted: a catalog claiming u32::MAX tables (the count sits
    // after magic, algebra, six u64 fields and the catalog length).
    let mut body = body.to_vec();
    let tables_at = 4 + 1 + 6 * 8 + 4;
    body[tables_at..tables_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, sealed(&body)).unwrap();
    assert!(is_recovery_failed(ckpt::read_meta(dir.path(), 0)));
}

#[test]
fn every_resealed_truncation_of_a_marker_is_an_error() {
    let dir = TempDir::new("marker-truncations");
    let marker = CorruptionMarker {
        audit_sn: Some(Lsn(777)),
        ranges: vec![(DbAddr(64), 64), (DbAddr(4096), 128)],
    };
    write_marker(dir.path(), &marker, &CrashPoints::default()).unwrap();
    let path = Db::marker_path(dir.path());
    let file = std::fs::read(&path).unwrap();
    let body = &file[..file.len() - 4];
    for cut in 0..body.len() {
        std::fs::write(&path, sealed(&body[..cut])).unwrap();
        assert!(
            is_recovery_failed(read_marker(dir.path())),
            "body cut to {cut} bytes"
        );
    }
}

/// An ATT blob or undo log whose leading count is `u32::MAX` must fail
/// on the missing bytes, not reserve `count × size_of::<entry>()` first.
#[test]
fn over_counted_att_and_undo_log_are_errors_not_reservations() {
    let over = u32::MAX.to_le_bytes();
    assert!(is_recovery_failed(Att::decode_for_recovery(&over)));
    // One well-formed ATT entry (txn 7, next_op 1) whose undo log
    // over-counts.
    let mut blob = vec![1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0];
    blob.extend_from_slice(&over);
    assert!(is_recovery_failed(Att::decode_for_recovery(&blob)));
}
