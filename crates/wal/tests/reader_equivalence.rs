//! The streaming reader against the materialising scan it replaced.
//!
//! `reference_scan` is the stable-log scan as it stood before
//! `LogReader`: every segment read whole, every frame decoded into an
//! owned record, the whole log returned as one vector — with one rule
//! added since: a segment with a successor must be whole up to its seal,
//! or the scan fails. The reader must yield exactly that `(Lsn, record)`
//! sequence — and fail exactly where it fails — on every shape of log
//! directory recovery can meet.

use bytes::BytesMut;
use dali_common::{
    CodewordAlgebraKind, DaliError, DbAddr, Lsn, OpSeq, RecId, Result, SlotId, TableId, TxnId,
};
use dali_wal::record::{frame_into, frame_seal, frame_with, seed_frame, unframe_at, FRAME_HDR};
use dali_wal::{
    segment, Entry, Frame, LogReader, LogRecord, LogRecordRef, LogicalUndo, OpKind, SystemLog,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const KIND: CodewordAlgebraKind = CodewordAlgebraKind::XorFold;
/// Small enough that a dozen records roll several segments.
const SEGMENT: u64 = 160;

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "dali-reader-{name}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn reference_scan(dir: &Path, from: Lsn) -> Result<Vec<(Lsn, LogRecord)>> {
    let segments = segment::list(dir)?;
    let Some(&first) = segments.first() else {
        return Err(DaliError::RecoveryFailed("no log segments".into()));
    };
    segment::validate_chain(&segments)?;
    let end = segments.last().expect("non-empty").end();
    if from < first.base || from > end {
        return Err(DaliError::RecoveryFailed("scan start out of range".into()));
    }
    let mut out = Vec::new();
    let scanned: Vec<_> = (segments.iter())
        .filter(|s| s.end() > from || s.len == 0)
        .collect();
    for (i, s) in scanned.iter().enumerate() {
        let bytes = std::fs::read(segment::path(dir, s.base))?;
        let mut pos = from.0.saturating_sub(s.base.0) as usize;
        let mut sealed = false;
        while pos < bytes.len() {
            match unframe_at(KIND, Lsn(s.base.0 + pos as u64), &bytes[pos..]) {
                Ok((Frame::Record(rec), n)) => {
                    out.push((Lsn(s.base.0 + pos as u64), rec));
                    pos += n;
                }
                Ok((Frame::Seal, n)) => {
                    pos += n;
                    sealed = true;
                    break;
                }
                Err(_) => break,
            }
        }
        if i + 1 < scanned.len() && !(sealed && pos == bytes.len()) {
            return Err(DaliError::RecoveryFailed("damaged sealed segment".into()));
        }
    }
    Ok(out)
}

/// A borrowed record as the owned one its bytes decode to.
fn owned(rec: LogRecordRef<'_>) -> LogRecord {
    let mut bytes = Vec::new();
    rec.encode(&mut bytes);
    LogRecord::decode(&bytes).expect("a decoded record decodes again")
}

fn streamed(dir: &Path, from: Lsn) -> Result<Vec<(Lsn, LogRecord)>> {
    let mut out = Vec::new();
    LogReader::open(dir, from, KIND)?.for_each(|lsn, rec| {
        out.push((lsn, owned(rec)));
        Ok(())
    })?;
    Ok(out)
}

/// `for_each`, `for_each_segment` (each segment walked twice: the second
/// walk re-reads frames the first already checked, decoding them owned) and
/// `scan_stable_with` (the reader's `collect()`) all equal the reference
/// from `from`; returns the common sequence, `None` where all of them
/// refuse the scan.
fn assert_same(dir: &Path, from: Lsn) -> Option<Vec<(Lsn, LogRecord)>> {
    let want = reference_scan(dir, from).ok();
    assert_eq!(streamed(dir, from).ok(), want, "for_each from {from}");
    assert_eq!(
        SystemLog::scan_stable_with(dir, from, KIND).ok(),
        want,
        "scan_stable_with from {from}"
    );
    let mut got = Vec::new();
    let scanned = LogReader::open(dir, from, KIND).and_then(|r| {
        r.for_each_segment(|seg| {
            let first: Vec<_> = seg.records().map(|(l, r)| (l, owned(r))).collect();
            let again: Vec<_> = seg.records_as::<LogRecord>().collect();
            assert_eq!(first, again, "second walk of segment {}", seg.base());
            got.extend(first);
            Ok(std::ops::ControlFlow::Continue(()))
        })
    });
    assert_eq!(
        scanned.ok().map(|_| got),
        want,
        "for_each_segment from {from}"
    );
    want
}

/// Record `i`: an operation's frame (a read entry, a write, its undo)
/// for odd `i`, a standalone after-image for even `i`, `len` bytes of
/// image either way.
fn record(i: u64, len: usize) -> LogRecord {
    let (txn, op, addr, data) = (
        TxnId(i),
        OpSeq(i as u32),
        DbAddr(64 * i as usize),
        vec![i as u8; len],
    );
    if i.is_multiple_of(2) {
        return LogRecord::PhysicalRedo {
            txn,
            op,
            addr,
            data,
        };
    }
    let rec = RecId::new(TableId(1), SlotId(i as u32));
    LogRecord::Op {
        txn,
        op,
        kind: OpKind::Update,
        rec,
        entries: vec![
            Entry::Read {
                addr,
                len: len as u32,
                codewords: vec![i as u32],
            },
            Entry::Write { addr, data },
        ],
        undo: LogicalUndo::HeapInsert { rec },
    }
}

/// `frames` (each begins with its header) as the log places them from
/// `lsn` on: each checksum seeded with its own LSN.
fn placed(lsn: Lsn, mut frames: Vec<u8>) -> Vec<u8> {
    let mut at = 0;
    while at < frames.len() {
        let len = FRAME_HDR + u32::from_le_bytes(frames[at..at + 4].try_into().unwrap()) as usize;
        seed_frame(KIND, &mut frames[at..], Lsn(lsn.0 + at as u64));
        at += len;
    }
    frames
}

/// A flushed log of `n` records over several sealed segments; returns
/// the records' LSNs.
fn build(dir: &Path, n: u64, segment_bytes: u64) -> Vec<Lsn> {
    let log = SystemLog::create_with(dir, 4096, KIND, segment_bytes).unwrap();
    let lsns = (0..n)
        .map(|i| log.append(&record(i, 8 + (i as usize * 7) % 40)))
        .collect();
    log.flush(true).unwrap();
    lsns
}

fn append_bytes(path: &Path, bytes: &[u8]) {
    use std::io::Write;
    std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .unwrap()
        .write_all(bytes)
        .unwrap();
}

fn last_segment(dir: &Path) -> PathBuf {
    segment::path(dir, segment::list(dir).unwrap().last().unwrap().base)
}

#[test]
fn intact_multi_segment_log_from_every_record_and_the_end() {
    let scratch = Scratch::new("intact");
    let lsns = build(&scratch.0, 14, SEGMENT);
    let segments = segment::list(&scratch.0).unwrap();
    assert!(segments.len() > 3, "{segments:?}");
    assert_eq!(assert_same(&scratch.0, Lsn::ZERO).unwrap().len(), 14);
    // `from` in the middle of a segment, at every record boundary.
    for (i, &lsn) in lsns.iter().enumerate() {
        assert_eq!(assert_same(&scratch.0, lsn).unwrap().len(), 14 - i);
    }
    // `from` == end of the log: an empty scan, not an error.
    let end = segments.last().unwrap().end();
    assert_eq!(assert_same(&scratch.0, end), Some(vec![]));
    // Past the end, and not on a frame boundary: inside a sealed
    // segment, that reads as damage there.
    assert_eq!(assert_same(&scratch.0, Lsn(end.0 + 1)), None);
    assert_eq!(assert_same(&scratch.0, Lsn(lsns[3].0 + 2)), None);
}

#[test]
fn torn_last_frame_ends_the_scan_before_it() {
    let scratch = Scratch::new("torn");
    build(&scratch.0, 9, SEGMENT);
    // Half a frame of a record that never finished flushing.
    let mut torn = BytesMut::new();
    frame_with(KIND, &record(99, 24), &mut torn);
    append_bytes(&last_segment(&scratch.0), &torn[..torn.len() / 2]);
    assert_eq!(assert_same(&scratch.0, Lsn::ZERO).unwrap().len(), 9);
    // And with the tail cut *into* the last intact record.
    let last = last_segment(&scratch.0);
    let len = std::fs::metadata(&last).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&last).unwrap();
    f.set_len(len - torn.len() as u64 / 2 - 3).unwrap();
    assert_eq!(assert_same(&scratch.0, Lsn::ZERO).unwrap().len(), 8);
}

#[test]
fn mid_file_seal_ends_the_scan_at_the_seal() {
    let scratch = Scratch::new("midseal");
    build(&scratch.0, 9, SEGMENT);
    // A seal in the active segment with a good record after it: bytes
    // after a seal are garbage whatever they checksum to.
    let mut extra = Vec::new();
    frame_seal(KIND, &mut extra);
    frame_into(KIND, &record(77, 16), &mut extra);
    let end = segment::list(&scratch.0).unwrap().last().unwrap().end();
    append_bytes(&last_segment(&scratch.0), &placed(end, extra));
    let got = assert_same(&scratch.0, Lsn::ZERO).unwrap();
    assert_eq!(got.len(), 9);
    assert!(got.iter().all(|(_, r)| *r != record(77, 16)));
}

/// An intact frame copied to a later offset fails its checksum there: the
/// scan stops at it and reads nothing of it, whatever it holds.
#[test]
fn a_frame_copied_to_a_later_offset_stops_the_scan_there() {
    let scratch = Scratch::new("copied");
    let lsns = build(&scratch.0, 9, SEGMENT);
    let last = segment::list(&scratch.0).unwrap().pop().unwrap();
    let frames = assert_same(&scratch.0, last.base).unwrap();
    assert!(!frames.is_empty());
    let bytes = std::fs::read(segment::path(&scratch.0, last.base)).unwrap();
    let first = FRAME_HDR + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    append_bytes(&last_segment(&scratch.0), &bytes[..first]);
    let got = assert_same(&scratch.0, Lsn::ZERO).unwrap();
    assert_eq!(got.len(), lsns.len());
    let log = SystemLog::open_with(&scratch.0, 4096, KIND, SEGMENT).unwrap();
    assert_eq!(
        log.current_lsn(),
        last.end(),
        "the copy reads as a torn flush"
    );
}

#[test]
fn unsealed_interior_segment_refuses_the_scan() {
    // Hand-built: two segments, the first ending on a frame boundary
    // with no seal (what a lost seal write would leave). The chain still
    // validates, but a successor is named only after its predecessor is
    // sealed: the scan refuses to read through. One that starts past it
    // reads the second.
    let scratch = Scratch::new("unsealed");
    std::fs::create_dir_all(&scratch.0).unwrap();
    let mut first = BytesMut::new();
    for i in 0..3 {
        frame_with(KIND, &record(i, 20), &mut first);
    }
    let mut second = BytesMut::new();
    for i in 3..5 {
        frame_with(KIND, &record(i, 20), &mut second);
    }
    let base = Lsn(first.len() as u64);
    std::fs::write(
        segment::path(&scratch.0, Lsn::ZERO),
        placed(Lsn::ZERO, first.to_vec()),
    )
    .unwrap();
    std::fs::write(
        segment::path(&scratch.0, base),
        placed(base, second.to_vec()),
    )
    .unwrap();
    assert_eq!(assert_same(&scratch.0, Lsn::ZERO), None);
    assert_eq!(
        assert_same(&scratch.0, Lsn(first.len() as u64))
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn damaged_interior_segment_refuses_the_scan() {
    let scratch = Scratch::new("interior");
    build(&scratch.0, 14, SEGMENT);
    let segments = segment::list(&scratch.0).unwrap();
    // Flip a payload bit in the second segment's first frame.
    let path = segment::path(&scratch.0, segments[1].base);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[FRAME_HDR + 2] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();
    assert_eq!(assert_same(&scratch.0, Lsn::ZERO), None);
    assert_eq!(assert_same(&scratch.0, segments[1].base), None);
    // Starting past the damage sees the rest.
    assert!(!assert_same(&scratch.0, segments[2].base)
        .unwrap()
        .is_empty());
}

#[test]
fn retired_leading_segments_bound_where_a_scan_may_start() {
    let scratch = Scratch::new("retired");
    let log = SystemLog::create_with(&scratch.0, 4096, KIND, SEGMENT).unwrap();
    let lsns: Vec<Lsn> = (0..14).map(|i| log.append(&record(i, 24))).collect();
    log.flush(true).unwrap();
    log.post_retire(lsns[8]);
    log.settle().unwrap();
    assert!(log.segment_stats().unwrap().retired > 0);
    let first = segment::list(&scratch.0).unwrap()[0].base;
    assert!(first > Lsn::ZERO);
    // History below the first retained segment is gone for both.
    assert_eq!(assert_same(&scratch.0, Lsn::ZERO), None);
    assert_eq!(assert_same(&scratch.0, Lsn(first.0 - 1)), None);
    assert!(!assert_same(&scratch.0, first).unwrap().is_empty());
    assert_eq!(assert_same(&scratch.0, lsns[8]).unwrap().len(), 6);
}

proptest! {
    /// Random logs, random damage, random start: the reader and the
    /// reference agree on the sequence and on refusal.
    #[test]
    fn reader_matches_reference_under_random_damage(
        n in 1u64..24,
        segment_bytes in 96u64..400,
        from_pick in 0usize..32,
        truncate in 0u64..64,
        flip in (0usize..8, 0usize..512, 0u8..8),
        damage in 0u8..4,
    ) {
        let scratch = Scratch::new("prop");
        let lsns = build(&scratch.0, n, segment_bytes);
        let segments = segment::list(&scratch.0).unwrap();
        match damage {
            // Torn tail: cut bytes off the last segment.
            1 => {
                let last = segments.last().unwrap();
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(segment::path(&scratch.0, last.base))
                    .unwrap();
                f.set_len(last.len.saturating_sub(truncate)).unwrap();
            }
            // A bit flip somewhere in some segment.
            2 => {
                let s = segments[flip.0 % segments.len()];
                if s.len > 0 {
                    let path = segment::path(&scratch.0, s.base);
                    let mut bytes = std::fs::read(&path).unwrap();
                    let at = flip.1 % bytes.len();
                    bytes[at] ^= 1 << flip.2;
                    std::fs::write(&path, bytes).unwrap();
                }
            }
            // Garbage after the end.
            3 => append_bytes(&last_segment(&scratch.0), &[0xde, 0xad, 0xbe]),
            _ => {}
        }
        let end = segment::list(&scratch.0).unwrap().last().unwrap().end();
        let from = match lsns.get(from_pick) {
            Some(&lsn) => lsn,
            None => end,
        };
        assert_same(&scratch.0, from);
        assert_same(&scratch.0, Lsn::ZERO);
    }
}
