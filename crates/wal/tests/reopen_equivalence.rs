//! Restart reopens the log where its redo scan found the end, without
//! walking the last segment again (`SystemLog::reopen_on`). On a log with
//! no damaged byte that end must be the one a fresh `SystemLog::open_on`
//! finds by walking the last segment from its first byte: the same length
//! cut, the same seal decision, and so the same bytes after more appends.
//!
//! The logs cover what a restart meets: a torn final flush, a seal at the
//! end with an adopted empty successor, a sealed last segment whose
//! successor was never created, a scan start (`CK_end`) inside the last
//! segment or exactly at a segment's end, and an empty last segment.

use dali_common::{CodewordAlgebraKind, DbAddr, Lsn, OpSeq, OsStorage, TxnId};
use dali_testutil::{copy_dir, TempDir};
use dali_wal::{segment, LogEnd, LogReader, LogRecord, SegmentBuf, SystemLog};
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::path::Path;

const KIND: CodewordAlgebraKind = CodewordAlgebraKind::XorFold;
/// Small enough that a few dozen records roll several segments.
const SEGMENT: u64 = 256;
const PAGE: usize = 4096;

fn record(i: usize, len: usize) -> LogRecord {
    LogRecord::PhysicalRedo {
        txn: TxnId(i as u64),
        op: OpSeq(i as u32),
        addr: DbAddr(64 * i),
        data: vec![i as u8; len],
    }
}

/// How the log is left before it is reopened.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// As written.
    Intact,
    /// The last segment cut at a seeded length no shorter than the scan
    /// start: a torn final flush.
    Torn,
    /// The last segment replaced by an empty pending successor of the
    /// sealed one before it, which restart adopts.
    EmptySuccessor,
    /// The last segment gone: the sealed one before it ends the log.
    NoSuccessor,
}

/// Write `sizes.len()` records, flushing every `flush_every`; returns
/// every frame start and flushed end, the scan starts a checkpoint could
/// have named.
fn write_log(dir: &Path, sizes: &[usize], flush_every: usize) -> Vec<Lsn> {
    let log = SystemLog::create_with(dir, PAGE, KIND, SEGMENT).unwrap();
    let mut points = vec![Lsn::ZERO];
    for (i, &len) in sizes.iter().enumerate() {
        points.push(log.append(&record(i, len)));
        if (i + 1) % flush_every == 0 {
            points.push(log.flush(false).unwrap());
        }
    }
    points.push(log.flush(false).unwrap());
    log.shutdown();
    points
}

/// Leave the log in `shape`; returns the last scan start it allows.
fn shape(dir: &Path, shape: Shape, cut: usize, from: Lsn) -> Lsn {
    let segments = segment::list(dir).unwrap();
    let last = *segments.last().unwrap();
    let path = segment::path(dir, last.base);
    match (shape, segments.len()) {
        (Shape::Torn, _) => {
            let lo = from.0.saturating_sub(last.base.0).min(last.len);
            let len = lo + cut as u64 % (last.len - lo + 1);
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len).unwrap();
            Lsn(last.base.0 + len)
        }
        (Shape::EmptySuccessor, 2..) => {
            std::fs::remove_file(&path).unwrap();
            std::fs::write(segment::pending_path(dir, last.base), b"").unwrap();
            last.base
        }
        (Shape::NoSuccessor, 2..) => {
            std::fs::remove_file(&path).unwrap();
            // The log's end never directly follows a seal (the seal goes
            // in front of the frame that overflowed), so no scan starts
            // at the sealed end.
            Lsn(last.base.0 - 1)
        }
        _ => last.end(),
    }
}

/// Where restart's redo scan from `from` finds the log to end.
fn scanned_end(dir: &Path, from: Lsn) -> LogEnd {
    segment::adopt_pending(&OsStorage, dir, from, KIND).unwrap();
    let reader = LogReader::open(dir, from, KIND).unwrap();
    let end = reader.for_each_segment(|seg| {
        seg.records().for_each(drop);
        Ok(ControlFlow::Continue(()))
    });
    end.unwrap().expect("the scan reaches the end")
}

/// Every file of the log directory with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// Append the same records to a reopened log and close it.
fn append_after(log: SystemLog, from: usize) {
    for i in from..from + 12 {
        log.append(&record(i, 20 + i % 50));
    }
    log.flush(true).unwrap();
    log.shutdown();
}

/// Reopen the log of `sizes` in `shape_of` both ways, the scan starting
/// `back` scan starts before the log's end, and compare.
fn check(sizes: &[usize], flush_every: usize, shape_of: Shape, back: usize, cut: usize) {
    let written = TempDir::new("reopen-written");
    let points = write_log(written.path(), sizes, flush_every);
    let from = points[points.len() - 1 - back.min(points.len() - 1)];
    let limit = shape(written.path(), shape_of, cut, from);
    let from = points
        .iter()
        .copied()
        .filter(|&p| p <= from.min(limit))
        .max();
    let from = from.expect("zero is always a start");

    let walked = TempDir::new("reopen-walked");
    copy_dir(written.path(), walked.path());
    let scanned = TempDir::new("reopen-scanned");
    copy_dir(written.path(), scanned.path());

    let end = scanned_end(scanned.path(), from);
    let last = segment::list(scanned.path()).unwrap().pop().unwrap();
    let walk = SegmentBuf::load(&OsStorage, scanned.path(), last.base, 0, KIND).unwrap();
    assert_eq!(end, walk.log_end(), "{shape_of:?} from {from}");

    let a = SystemLog::open_with(walked.path(), PAGE, KIND, SEGMENT).unwrap();
    let b =
        SystemLog::reopen_on(OsStorage::store(), scanned.path(), PAGE, KIND, SEGMENT, end).unwrap();
    assert_eq!(a.current_lsn(), b.current_lsn(), "{shape_of:?} from {from}");
    append_after(a, sizes.len());
    append_after(b, sizes.len());
    assert_eq!(
        files(walked.path()),
        files(scanned.path()),
        "{shape_of:?} from {from}"
    );
}

fn shapes() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Intact),
        Just(Shape::Torn),
        Just(Shape::EmptySuccessor),
        Just(Shape::NoSuccessor),
    ]
}

proptest! {
    #[test]
    fn a_reopen_at_the_scanned_end_equals_a_fresh_walk(
        sizes in proptest::collection::vec(1usize..120, 0..40),
        flush_every in 1usize..6,
        shape_of in shapes(),
        back in 0usize..90,
        cut in any::<usize>(),
    ) {
        check(&sizes, flush_every, shape_of, back, cut);
    }
}

/// The named cases, each pinned once.
#[test]
fn named_shapes_reopen_where_a_walk_does() {
    let sizes: Vec<usize> = (0..30).map(|i| 10 + i * 7 % 90).collect();
    // `CK_end` at the log's end, which is the last segment's end.
    check(&sizes, 3, Shape::Intact, 0, 0);
    // `CK_end` at the last record, in the last segment; a torn flush
    // inside that record.
    check(&sizes, 3, Shape::Torn, 2, 7);
    // `CK_end` at a sealed segment's end, an adopted empty successor.
    check(&sizes, 3, Shape::EmptySuccessor, 0, 0);
    // A sealed last segment with no successor.
    check(&sizes, 3, Shape::NoSuccessor, 9, 0);
    // An empty log.
    check(&[], 1, Shape::Intact, 0, 0);
}
