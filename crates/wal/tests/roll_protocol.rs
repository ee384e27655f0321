//! The roll protocol's crash states, constructed.
//!
//! A roll is two steps on two threads (see `dali_wal::syslog`): the
//! appender creates the successor as `{lsn}.seg.pending` and queues the
//! sealed predecessor; the log worker — or a durable committer that gets
//! there first — fsyncs the predecessor, renames the successor to `.seg`
//! and fsyncs the directory, and only then advances `durable`.
//! `DaliEngine::crash()` joins the worker and so always shows the state
//! *after* both steps; the states in between are built here, with the
//! worker paused so that no scheduling decides what the test sees.
//!
//! Each of the protocol's invariants is pinned by name below:
//!
//! 1. when `flush(false)` returns, every appended byte has been handed
//!    to the kernel;
//! 2. a file named `{lsn}.seg` exists only if its predecessor is sealed
//!    and durable;
//! 3. `durable` advances only over a contiguous, fsynced, named prefix;
//! 4. once `settle()`, `shutdown()` or the log's drop returns, the
//!    directory no longer changes.

use dali_common::{CodewordAlgebraKind, CrashPoints, DbAddr, Lsn, OpSeq, TxnId};
use dali_testutil::{copy_dir, TempDir};
use dali_wal::record::FRAME_HDR;
use dali_wal::{segment, LogRecord, SegmentBuf, SystemLog};
use proptest::prelude::*;
use std::path::Path;
use std::time::Duration;

const KIND: CodewordAlgebraKind = CodewordAlgebraKind::XorFold;
/// Small enough that a dozen records roll several segments.
const SEGMENT: u64 = 160;

fn record(i: u64) -> LogRecord {
    LogRecord::PhysicalRedo {
        txn: TxnId(i),
        op: OpSeq(i as u32),
        addr: DbAddr(64 * i as usize),
        data: vec![i as u8; 8 + (i as usize * 7) % 40],
    }
}

/// Append `records` one flush at a time; returns `(lsn, record)` of each.
fn append_flushed(log: &SystemLog, records: std::ops::Range<u64>) -> Vec<(Lsn, LogRecord)> {
    records
        .map(|i| {
            let lsn = log.append(&record(i));
            log.flush(false).unwrap();
            (lsn, record(i))
        })
        .collect()
}

fn scan(dir: &Path) -> Vec<(Lsn, LogRecord)> {
    SystemLog::scan_stable_with(dir, Lsn::ZERO, KIND).unwrap()
}

/// Every file name in the log directory, sorted.
fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn sealed_intact(dir: &Path, base: Lsn) -> bool {
    let seg = SegmentBuf::load(dir, base, 0, KIND).unwrap();
    seg.ends_with_seal() && seg.torn_bytes() == 0
}

/// Invariant 2, read off a directory: every `.seg` but the first follows
/// a segment that is intact up to a seal ending exactly at its base.
fn assert_named_segments_follow_seals(dir: &Path) {
    let segments = segment::list(dir).unwrap();
    segment::validate_chain(&segments).unwrap();
    for pair in segments.windows(2) {
        assert!(
            sealed_intact(dir, pair[0].base),
            "{} is named but {} is not sealed",
            segment::file_name(pair[1].base),
            segment::file_name(pair[0].base)
        );
    }
}

/// A log whose worker never ran: the first segment named, every later
/// one pending, nothing past the first roll durable.
fn build_paused(dir: &Path, records: u64) -> (SystemLog, Vec<(Lsn, LogRecord)>) {
    let log = SystemLog::create_with(dir, 4096, KIND, SEGMENT).unwrap();
    log.pause_worker();
    let written = append_flushed(&log, 0..records);
    (log, written)
}

// ---- (a) process death ----

#[test]
fn process_death_mid_roll_loses_no_flushed_record() {
    let scratch = TempDir::new("roll-death");
    let dir = scratch.path();
    let (log, written) = build_paused(dir, 14);
    let end = log.end_of_stable();

    let pending = segment::list_pending(dir).unwrap();
    assert!(pending.len() >= 3, "wanted three rolls, got {pending:?}");
    let named = segment::list(dir).unwrap();
    assert_eq!(named.len(), 1, "only the first segment has a name yet");
    // Invariant 1: named or not, the files hold every flushed byte.
    let on_disk: u64 = named.iter().chain(&pending).map(|s| s.len).sum();
    assert_eq!(on_disk, end.0, "flush(false) handed every byte over");
    // Invariant 3: nothing past the first sealed segment is durable, as
    // no one has fsynced it.
    assert!(log.durable_lsn() <= named[0].end());
    // Without its name a segment is invisible to a scan.
    assert!(scan(dir).len() < written.len());

    // The process dies: the worker is gone, its queue with it.
    let before = names(dir);
    drop(log);
    assert_eq!(names(dir), before, "a dying process renames nothing");

    let log = SystemLog::open_with(dir, 4096, KIND, SEGMENT).unwrap();
    assert_eq!(scan(dir), written, "every flushed record, at its LSN");
    assert!(segment::list_pending(dir).unwrap().is_empty());
    assert_named_segments_follow_seals(dir);
    assert_eq!(log.current_lsn(), end);
    let lsn = log.append(&record(99));
    assert_eq!(lsn, end);
    log.flush(true).unwrap();
    assert_eq!(scan(dir).last().unwrap(), &(lsn, record(99)));
}

// ---- (b) power loss ----

/// Sealed segment *k* (the last with a name) and its pending successor,
/// as a process death leaves them; returns the directory's records and
/// segment *k*.
fn build_sealed_then_pending(dir: &Path) -> (Vec<(Lsn, LogRecord)>, segment::SegmentInfo) {
    let log = SystemLog::create_with(dir, 4096, KIND, SEGMENT).unwrap();
    let mut written = append_flushed(&log, 0..9);
    log.flush(true).unwrap();
    // From here on nobody drains: the next roll stays half done.
    log.pause_worker();
    let mut i = 9;
    while segment::list_pending(dir).unwrap().is_empty() {
        written.extend(append_flushed(&log, i..i + 1));
        i += 1;
    }
    written.extend(append_flushed(&log, i..i + 2));
    drop(log);
    let k = *segment::list(dir).unwrap().last().unwrap();
    assert!(sealed_intact(dir, k.base));
    assert_eq!(segment::list_pending(dir).unwrap()[0].base, k.end());
    (written, k)
}

proptest! {
    /// Power fails before segment *k*'s writeback finished: *k* keeps an
    /// arbitrary prefix, *k+1* is still pending. Whatever the cut,
    /// restart yields exactly *k*'s intact frames, unlinks the pending
    /// file (nothing in it was ever durable) and resumes at that LSN.
    #[test]
    fn power_loss_in_the_sealed_segment_discards_the_pending_successor(cut_pick in 0u64..10_000) {
        let scratch = TempDir::new("roll-power");
        let (written, k) = build_sealed_then_pending(scratch.path());
        let case = TempDir::new("roll-power-case");
        copy_dir(scratch.path(), case.path());
        let dir = case.path();

        let cut = cut_pick % k.len; // strictly short of the whole segment
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(segment::path(dir, k.base))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        // A frame survives iff it ends at or before the cut; frames are
        // back to back, so the next record's LSN (or the seal's) is
        // where one ends.
        let seal_start = k.end().0 - FRAME_HDR as u64;
        let in_k: Vec<&(Lsn, LogRecord)> =
            written.iter().filter(|(l, _)| *l >= k.base && *l < k.end()).collect();
        let frame_end = |i: usize| in_k.get(i + 1).map_or(seal_start, |(l, _)| l.0);
        let kept = (0..in_k.len()).take_while(|&i| frame_end(i) <= k.base.0 + cut).count();
        let resume = if kept == 0 { k.base } else { Lsn(frame_end(kept - 1)) };
        let expected: Vec<(Lsn, LogRecord)> = written
            .iter()
            .filter(|(l, _)| *l < resume)
            .cloned()
            .collect();

        let log = SystemLog::open_with(dir, 4096, KIND, SEGMENT).unwrap();
        prop_assert_eq!(scan(dir), expected, "cut {} of {}", cut, k.len);
        prop_assert!(segment::list_pending(dir).unwrap().is_empty());
        prop_assert_eq!(segment::list(dir).unwrap().last().map(|s| s.base), Some(k.base));
        prop_assert_eq!(log.current_lsn(), resume);
        // (The record itself may open a new segment: `resume` can sit
        // right where segment k's torn seal was.)
        let lsn = log.append(&record(77));
        log.flush(true).unwrap();
        prop_assert!(lsn == resume || lsn.0 == resume.0 + FRAME_HDR as u64);
        prop_assert_eq!(scan(dir).pop(), Some((lsn, record(77))));
    }
}

#[test]
fn pending_file_without_a_predecessor_is_unlinked() {
    // The sealed predecessor is gone altogether: the pending file chains
    // to nothing and must not be promoted into a gap.
    let scratch = TempDir::new("roll-orphan");
    let dir = scratch.path();
    let (written, k) = build_sealed_then_pending(dir);
    std::fs::remove_file(segment::path(dir, k.base)).unwrap();
    let log = SystemLog::open_with(dir, 4096, KIND, SEGMENT).unwrap();
    assert!(segment::list_pending(dir).unwrap().is_empty());
    assert_eq!(log.current_lsn(), k.base);
    let first = segment::list(dir).unwrap()[0].base;
    let kept: Vec<_> = written
        .iter()
        .filter(|(l, _)| *l < k.base)
        .cloned()
        .collect();
    assert_eq!(SystemLog::scan_stable_with(dir, first, KIND).unwrap(), kept);
}

// ---- (c) a durable commit past an undrained roll ----

#[test]
fn durable_commit_in_the_successor_first_makes_the_predecessor_durable() {
    for window in [Duration::ZERO, Duration::from_millis(2)] {
        let scratch = TempDir::new("roll-commit");
        let dir = scratch.path();
        let log = SystemLog::create_with(dir, 4096, KIND, SEGMENT).unwrap();
        log.pause_worker();
        let mut i = 0;
        while segment::list_pending(dir).unwrap().is_empty() {
            append_flushed(&log, i..i + 1);
            i += 1;
        }
        let successor = segment::list_pending(dir).unwrap()[0].base;
        assert!(
            log.durable_lsn() < successor,
            "segment k is not durable yet"
        );
        let before = log.sync_stats();

        // A commit whose record lies in segment k+1.
        let (first, end) = log.append_batch(&[LogRecord::TxnCommit { txn: TxnId(50) }]);
        assert!(first >= successor);
        assert!(end.0 - successor.0 < SEGMENT, "and does not roll again");
        let durable = log.commit_durable(end, window).unwrap();

        assert!(durable >= end);
        assert!(log.durable_lsn() >= end);
        assert!(
            segment::list_pending(dir).unwrap().is_empty(),
            "k+1 carries its name"
        );
        assert!(segment::path(dir, successor).exists());
        assert_named_segments_follow_seals(dir);
        let after = log.sync_stats();
        // One fsync for sealed k, one for the active k+1 — both the
        // committer's own, and counted as a foreground stall.
        assert_eq!(after.fsyncs - before.fsyncs, 2, "{after:?}");
        assert_eq!(after.background_fsyncs, 0, "{after:?}");
        assert_eq!(after.settle_waits - before.settle_waits, 1, "{after:?}");
    }
}

#[test]
fn worker_drains_rolls_in_the_background_and_settle_leaves_the_directory_at_rest() {
    let scratch = TempDir::new("roll-settle");
    let dir = scratch.path();
    let log = SystemLog::create_with(dir, 4096, KIND, SEGMENT).unwrap();
    let written = append_flushed(&log, 0..14);
    log.settle().unwrap();
    // Every roll was the worker's: no commit asked for durability.
    let rolls = segment::list(dir).unwrap().len() as u64 - 1;
    assert!(rolls >= 3);
    let stats = log.sync_stats();
    assert_eq!(stats.background_fsyncs, rolls, "{stats:?}");
    assert_eq!(stats.fsyncs, rolls, "{stats:?}");
    assert_eq!(stats.durable_commits, 0);
    assert!(segment::list_pending(dir).unwrap().is_empty());
    assert_named_segments_follow_seals(dir);
    assert_eq!(scan(dir), written);
    // Invariant 3: durable stops at the last sealed segment's end — the
    // active segment has not been fsynced by anyone.
    assert_eq!(
        log.durable_lsn(),
        segment::list(dir).unwrap().last().unwrap().base
    );
    // Invariant 4: at rest after settle(), and still so after shutdown
    // and drop.
    let at_rest = names(dir);
    log.settle().unwrap();
    assert_eq!(names(dir), at_rest);
    log.shutdown();
    assert_eq!(names(dir), at_rest);
    log.append(&record(1));
    assert!(log.flush(false).is_err(), "a shut-down log refuses writes");
    drop(log);
    assert_eq!(names(dir), at_rest);
}

#[test]
fn drop_finishes_queued_rolls() {
    // No settle, no durable commit: the drop itself joins the worker
    // after it has drained, so the directory a later scan sees is whole.
    let scratch = TempDir::new("roll-drop");
    let dir = scratch.path();
    let log = SystemLog::create_with(dir, 4096, KIND, SEGMENT).unwrap();
    let written = append_flushed(&log, 0..14);
    drop(log);
    assert!(segment::list_pending(dir).unwrap().is_empty());
    assert_eq!(scan(dir), written);
}

// ---- (d) a named segment gets no leniency ----

#[test]
fn damaged_frame_inside_a_named_segment_is_treated_as_before() {
    let scratch = TempDir::new("roll-damage");
    let dir = scratch.path();
    let log = SystemLog::create_with(dir, 4096, KIND, SEGMENT).unwrap();
    let written = append_flushed(&log, 0..14);
    log.flush(true).unwrap();
    drop(log);
    let segments = segment::list(dir).unwrap();
    assert!(segments.len() > 3);

    // Flip a payload bit in the first frame of the second segment — a
    // sealed, named, interior file.
    let victim = segments[1];
    let path = segment::path(dir, victim.base);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[FRAME_HDR + 2] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();
    let before = names(dir);

    // Reopening inspects only the last segment, exactly as it did before
    // pending names existed: it succeeds, renames and unlinks nothing,
    // and a scan still ends at the damage.
    let log = SystemLog::open_with(dir, 4096, KIND, SEGMENT).unwrap();
    assert_eq!(log.current_lsn(), segments.last().unwrap().end());
    drop(log);
    assert_eq!(names(dir), before);
    let visible: Vec<_> = written
        .iter()
        .filter(|(l, _)| *l < victim.base)
        .cloned()
        .collect();
    assert_eq!(scan(dir), visible);

    // And damage in the *last* named segment, with a pending successor
    // behind it: the successor is not adopted over a predecessor that is
    // not intact up to its seal, and the damaged segment is cut at the
    // damage like any torn tail.
    let scratch = TempDir::new("roll-damage-last");
    let dir = scratch.path();
    let (written, k) = build_sealed_then_pending(dir);
    let path = segment::path(dir, k.base);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[FRAME_HDR + 2] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();
    let log = SystemLog::open_with(dir, 4096, KIND, SEGMENT).unwrap();
    assert!(segment::list_pending(dir).unwrap().is_empty());
    assert_eq!(log.current_lsn(), k.base, "cut at the damaged first frame");
    let visible: Vec<_> = written
        .iter()
        .filter(|(l, _)| *l < k.base)
        .cloned()
        .collect();
    assert_eq!(scan(dir), visible);
}

// ---- a failed background job is not forgotten ----

#[test]
fn background_failure_is_returned_by_every_later_durability_request() {
    let scratch = TempDir::new("roll-failure");
    let dir = scratch.path();
    let log = SystemLog::create_with(dir, 4096, KIND, SEGMENT).unwrap();
    let written = append_flushed(&log, 0..14);
    log.flush(true).unwrap();

    let crash_points = CrashPoints::default();
    crash_points.arm("segment.retire.post_unlink");
    log.post_retire(written[8].0, crash_points.clone());
    let err = log.settle().unwrap_err().to_string();
    assert!(err.contains("crash point tripped"), "{err}");
    assert!(!crash_points.is_armed("segment.retire.post_unlink"));

    // Kept, not consumed: nothing durable is acknowledged from here on.
    let (_, end) = log.append_batch(&[record(60)]);
    for refused in [
        log.settle().map(drop),
        log.flush(true).map(drop),
        log.commit_durable(end, Duration::ZERO).map(drop),
        log.commit_durable(end, Duration::from_millis(1)).map(drop),
        log.wait_durable(end),
    ] {
        let err = refused.unwrap_err().to_string();
        assert!(err.contains("crash point tripped"), "{err}");
    }
    // Writing without a durability promise still works.
    log.flush(false).unwrap();
}
