//! The system log: in-memory tail plus a directory of stable segment
//! files (paper §2.1).
//!
//! Appends go to the tail under the *system log latch* (a mutex, as in
//! Dali). [`SystemLog::flush`] writes the tail to the stable segments —
//! on transaction commit and during checkpoints. `end_of_stable_log` is
//! the LSN up to which records are known durable. While appending
//! physical redo records, the pages they touch are noted in the dirty
//! page table ([`crate::dpt::DualDirtySet`]).
//!
//! The stable log is *segmented* (see [`crate::segment`]): a directory
//! of fixed-capacity files, each named by the global LSN of its first
//! byte. When an append would overflow the active segment, a
//! [`crate::record::FRAME_SEAL`] frame is written in its place and the
//! record goes to a fresh segment; the roll itself happens in
//! [`SystemLog::flush`]'s tail write, which fsyncs the sealed file,
//! creates the successor, and fsyncs the directory before any byte lands
//! in it. Sealed segments are immutable, which is what lets a certified
//! checkpoint *retire* them ([`SystemLog::retire_covered`]) and bound
//! the log directory by checkpoint cadence. Records never span segments,
//! and LSNs stay global byte offsets, so no caller of the log had to
//! renumber anything.
//!
//! A *simulated crash* simply drops the `SystemLog` object: the unflushed
//! tail is lost, exactly as Dali loses its in-memory tail. Recovery scans
//! the stable segments with a [`LogReader`];
//! [`SystemLog::open`] truncates a torn trailing frame (a partially
//! completed flush) in the last segment before resuming appends.

use crate::dpt::DualDirtySet;
use crate::record::{frame_payload_with, frame_seal, LogRecord, FRAME_HDR};
use crate::segment::{self, LogReader, SegmentBuf};
use bytes::BytesMut;
use dali_common::{CodewordAlgebraKind, CrashPoints, DaliError, Lsn, PageId, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Segment capacity used by the algebra-less convenience constructors
/// ([`SystemLog::create`] / [`SystemLog::open`]); large enough that unit
/// tests exercising only the append/flush protocol never roll.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

struct Inner {
    /// Unflushed frames.
    tail: BytesMut,
    /// LSN of the first byte of the tail (== bytes written to segments).
    tail_base: Lsn,
    /// The active (last, unsealed) segment file.
    file: File,
    /// Base LSN of the active segment *file*.
    seg_base: Lsn,
    /// Start LSN of the segment the next appended byte belongs to. Runs
    /// ahead of `seg_base` while sealed-but-unflushed bytes sit in the
    /// tail.
    cur_seg_start: Lsn,
    /// LSNs at which the tail must be split into a new segment (the LSN
    /// just past each seal frame in the tail), oldest first. Fully
    /// drained by every tail write.
    seg_splits: VecDeque<Lsn>,
}

/// fsync state, deliberately on its own mutex: syncing must not hold the
/// append latch, or every concurrent committer serializes behind each
/// fsync (~hundreds of microseconds each).
struct SyncState {
    /// Second handle to the active segment, used only for `sync_data`.
    /// Swapped on every roll — by then the sealed predecessor has
    /// already been fsynced and `durable` advanced past it, so this
    /// handle only ever needs to cover the active segment's bytes.
    file: File,
    /// Everything below this LSN is known to be on disk.
    durable: Lsn,
    /// A group-commit leader is currently collecting a batch (waiting
    /// out its commit window) or fsyncing on the batch's behalf.
    leader: bool,
    /// Committers blocked waiting for the current leader's fsync. The
    /// leader compares this against `pending` to close its batch early.
    waiters: u64,
}

/// Snapshot of the log's flush/fsync counters, the measurable side of
/// group-commit amortization: `fsyncs / durable_commits` is the ledger's
/// `wal.fsyncs_per_txn`, and piggybacks count commits that rode a
/// neighbour's fsync without waiting for one of their own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// `sync_data` calls actually issued (including one per segment
    /// roll, which makes the seal durable before its successor exists).
    pub fsyncs: u64,
    /// Tail→file writes (buffered flushes, durable or not).
    pub flushes: u64,
    /// Durable-commit requests served (`flush(true)` / `commit_durable`).
    pub durable_commits: u64,
    /// Durable commits satisfied by an fsync some other committer issued.
    pub piggybacked: u64,
    /// Durable commits that waited out a group-commit window as batch
    /// followers (their records covered by the leader's single fsync).
    pub group_followers: u64,
}

/// Gauges for the segmented layout: what is on disk right now, plus how
/// much retirement has reclaimed over this process's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment files currently retained in the log directory.
    pub segments: u64,
    /// Segments unlinked by [`SystemLog::retire_covered`] since open.
    pub retired: u64,
    /// Total bytes across the retained segment files.
    pub bytes_on_disk: u64,
}

#[derive(Default)]
struct Counters {
    fsyncs: AtomicU64,
    flushes: AtomicU64,
    durable_commits: AtomicU64,
    piggybacked: AtomicU64,
    group_followers: AtomicU64,
    segments_retired: AtomicU64,
}

/// The system log.
pub struct SystemLog {
    /// The log *directory* (segments live inside it).
    dir: PathBuf,
    page_size: usize,
    /// Algebra used for frame checksums — must match between writer and
    /// scanner (the engine derives both from `DaliConfig::codeword_algebra`
    /// and the checkpoint meta pins it across restarts).
    kind: CodewordAlgebraKind,
    /// Capacity at which the active segment is sealed and rolled.
    segment_bytes: u64,
    inner: Mutex<Inner>,
    sync: Mutex<SyncState>,
    /// Signalled whenever `durable` advances, a leader steps down, or a
    /// follower joins a collecting leader's batch.
    sync_cv: Condvar,
    /// Threads currently inside a windowed `commit_durable` call. Every
    /// one of them has already appended the records it needs durable, so
    /// once a batch contains them all there is nothing to wait for.
    pending: AtomicU64,
    counters: Counters,
    dirty: DualDirtySet,
}

impl SystemLog {
    /// Create a fresh, empty log directory at `path` (removing any
    /// existing segments), with XOR-checksummed frames and the default
    /// segment capacity.
    pub fn create(path: impl AsRef<Path>, page_size: usize) -> Result<SystemLog> {
        Self::create_with(
            path,
            page_size,
            CodewordAlgebraKind::XorFold,
            DEFAULT_SEGMENT_BYTES,
        )
    }

    /// Create a fresh, empty log whose frame checksums use `kind` and
    /// whose segments roll at `segment_bytes`.
    pub fn create_with(
        path: impl AsRef<Path>,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
    ) -> Result<SystemLog> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for s in segment::list(&dir)? {
            std::fs::remove_file(segment::path(&dir, s.base))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(segment::path(&dir, Lsn::ZERO))?;
        segment::sync_dir(&dir)?;
        let sync_file = file.try_clone()?;
        Ok(Self::assemble(
            dir,
            page_size,
            kind,
            segment_bytes,
            file,
            sync_file,
            Lsn::ZERO,
            Lsn::ZERO,
        ))
    }

    /// Open an existing XOR-checksummed log for appending, with the
    /// default segment capacity.
    pub fn open(path: impl AsRef<Path>, page_size: usize) -> Result<SystemLog> {
        Self::open_with(
            path,
            page_size,
            CodewordAlgebraKind::XorFold,
            DEFAULT_SEGMENT_BYTES,
        )
    }

    /// Open an existing log whose frame checksums use `kind`. Scans the
    /// last segment to find the end of its last intact frame and
    /// truncates anything after it (a torn flush); if the last segment
    /// ends with a seal (the crash hit between sealing and creating the
    /// successor), a fresh segment is created at the sealed end.
    pub fn open_with(
        path: impl AsRef<Path>,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
    ) -> Result<SystemLog> {
        let dir = path.as_ref().to_path_buf();
        let segments = segment::list(&dir)?;
        let Some(&last) = segments.last() else {
            return Err(DaliError::RecoveryFailed(format!(
                "no log segments in {}",
                dir.display()
            )));
        };
        segment::validate_chain(&segments)?;
        // One borrowed walk over the last segment's frames: nothing is
        // decoded into owned records just to find where they end.
        let tail = SegmentBuf::load(&dir, last.base, 0, kind)?;
        let (sealed, torn) = (tail.ends_with_seal(), tail.torn_bytes());
        let valid = tail.len() - torn;
        let end = Lsn(last.base.0 + valid as u64);
        let (file, seg_base) = if sealed {
            // The sealed file is immutable from here on; truncate any
            // torn bytes after the seal and start its successor.
            if torn > 0 {
                let f = OpenOptions::new()
                    .write(true)
                    .open(segment::path(&dir, last.base))?;
                f.set_len(valid as u64)?;
                f.sync_data()?;
            }
            let file = OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(segment::path(&dir, end))?;
            segment::sync_dir(&dir)?;
            (file, end)
        } else {
            let mut file = OpenOptions::new()
                .write(true)
                .open(segment::path(&dir, last.base))?;
            file.set_len(valid as u64)?;
            file.seek(SeekFrom::End(0))?;
            (file, last.base)
        };
        let sync_file = file.try_clone()?;
        Ok(Self::assemble(
            dir,
            page_size,
            kind,
            segment_bytes,
            file,
            sync_file,
            seg_base,
            end,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dir: PathBuf,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
        file: File,
        sync_file: File,
        seg_base: Lsn,
        end: Lsn,
    ) -> SystemLog {
        SystemLog {
            dir,
            page_size,
            kind,
            // A segment must hold at least one seal and one small frame.
            segment_bytes: segment_bytes.max(4 * FRAME_HDR as u64),
            inner: Mutex::new(Inner {
                tail: BytesMut::with_capacity(1 << 20),
                tail_base: end,
                file,
                seg_base,
                cur_seg_start: seg_base,
                seg_splits: VecDeque::new(),
            }),
            sync: Mutex::new(SyncState {
                file: sync_file,
                durable: end,
                leader: false,
                waiters: 0,
            }),
            sync_cv: Condvar::new(),
            pending: AtomicU64::new(0),
            counters: Counters::default(),
            dirty: DualDirtySet::new(),
        }
    }

    /// Path of the stable log directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Dirty page table fed by physical-redo appends.
    pub fn dirty(&self) -> &DualDirtySet {
        &self.dirty
    }

    /// Append one record; returns its LSN.
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        let mut inner = self.inner.lock();
        self.append_locked(&mut inner, rec)
    }

    /// Append a batch of records atomically with respect to other
    /// appenders (one lock acquisition — this is how an operation commit
    /// migrates its local redo log). Returns the LSN of the first record
    /// and of the next byte after the last.
    pub fn append_batch(&self, recs: &[LogRecord]) -> (Lsn, Lsn) {
        let mut inner = self.inner.lock();
        let mut first = None;
        for rec in recs {
            let lsn = self.append_locked(&mut inner, rec);
            first.get_or_insert(lsn);
        }
        let end = Lsn(inner.tail_base.0 + inner.tail.len() as u64);
        (first.unwrap_or(end), end)
    }

    fn append_locked(&self, inner: &mut Inner, rec: &LogRecord) -> Lsn {
        let mut payload = BytesMut::with_capacity(64);
        rec.encode(&mut payload);
        let frame_len = (FRAME_HDR + payload.len()) as u64;
        let mut lsn = Lsn(inner.tail_base.0 + inner.tail.len() as u64);
        // Roll decision, made while the record's bytes are still in
        // hand: if this frame would push the active segment past its
        // capacity (reserving room for the seal that must always fit),
        // seal here and let the record open the next segment. A frame
        // larger than a whole segment gets a segment to itself — records
        // never span segments.
        let seg_used = lsn.0 - inner.cur_seg_start.0;
        if seg_used > 0 && seg_used + frame_len > self.segment_bytes - FRAME_HDR as u64 {
            frame_seal(self.kind, &mut inner.tail);
            let split = Lsn(lsn.0 + FRAME_HDR as u64);
            inner.cur_seg_start = split;
            inner.seg_splits.push_back(split);
            lsn = split;
        }
        frame_payload_with(self.kind, &payload, &mut inner.tail);
        if let LogRecord::PhysicalRedo { addr, data, .. } = rec {
            let pages = dali_common::align::split_by_chunks(addr.0, data.len(), self.page_size)
                .map(|(ci, _, _)| PageId(ci as u32));
            self.dirty.note_all(pages);
        }
        lsn
    }

    /// LSN one past the last appended record.
    pub fn current_lsn(&self) -> Lsn {
        let inner = self.inner.lock();
        Lsn(inner.tail_base.0 + inner.tail.len() as u64)
    }

    /// LSN up to which the log is on stable storage.
    pub fn end_of_stable(&self) -> Lsn {
        self.inner.lock().tail_base
    }

    /// Flush the tail to the stable segments. The file writes happen
    /// under the system log latch; with `sync`, the fsync happens
    /// *outside* it, so concurrent appenders and committers are not
    /// serialized behind the disk. A committer whose bytes a neighbour's
    /// fsync already covered skips its own (commit piggybacking).
    /// Returns the new end of stable log.
    pub fn flush(&self, sync: bool) -> Result<Lsn> {
        let end = self.write_tail()?;
        if sync {
            self.counters
                .durable_commits
                .fetch_add(1, Ordering::Relaxed);
            self.sync_upto(end)?;
        }
        Ok(end)
    }

    /// Write the in-memory tail to the stable segments (no fsync of the
    /// active segment); returns the new end of the written log. Rolls
    /// happen here: the tail is cut at each pending seal, the sealed
    /// file is fsynced (so the seal cannot be torn by a later crash
    /// while its successor already exists), the successor is created and
    /// the directory fsynced before any byte lands in it.
    fn write_tail(&self) -> Result<Lsn> {
        let mut inner = self.inner.lock();
        if inner.tail.is_empty() {
            return Ok(inner.tail_base);
        }
        let tail = std::mem::take(&mut inner.tail);
        let base = inner.tail_base;
        let mut cursor = 0usize;
        while let Some(&split) = inner.seg_splits.front() {
            let off = (split.0 - base.0) as usize;
            debug_assert!(cursor < off && off <= tail.len());
            inner.file.write_all(&tail[cursor..off])?;
            cursor = off;
            inner.seg_splits.pop_front();
            self.roll_locked(&mut inner, split)?;
        }
        inner.file.write_all(&tail[cursor..])?;
        inner.tail_base = Lsn(base.0 + tail.len() as u64);
        // Reuse the buffer's capacity.
        let mut tail = tail;
        tail.clear();
        inner.tail = tail;
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(inner.tail_base)
    }

    /// Seal the active segment at `split` (its bytes, ending in a seal
    /// frame, are already written) and open its successor. Called with
    /// the append latch held; takes the sync lock briefly twice, which
    /// is safe because no path acquires the append latch while holding
    /// the sync lock.
    fn roll_locked(&self, inner: &mut Inner, split: Lsn) -> Result<()> {
        // 1. Make the sealed segment durable and publish that fact —
        // durable must cover the seal *before* the sync handle is
        // swapped, so a concurrent `sync_upto` for old-segment bytes
        // piggybacks instead of fsyncing the wrong file.
        inner.file.sync_data()?;
        {
            let mut s = self.sync.lock();
            if s.durable < split {
                s.durable = split;
                self.sync_cv.notify_all();
            }
        }
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        // 2. Create the successor and make its directory entry durable
        // before anything is written to it.
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment::path(&self.dir, split))?;
        segment::sync_dir(&self.dir)?;
        let sync_file = file.try_clone()?;
        inner.file = file;
        inner.seg_base = split;
        self.sync.lock().file = sync_file;
        Ok(())
    }

    /// fsync so that everything below `upto` is durable, unless a
    /// neighbour's fsync already covered it (commit piggybacking).
    fn sync_upto(&self, upto: Lsn) -> Result<Lsn> {
        let mut s = self.sync.lock();
        if s.durable < upto {
            s.file.sync_data()?;
            s.durable = upto;
            self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.sync_cv.notify_all();
        } else {
            self.counters.piggybacked.fetch_add(1, Ordering::Relaxed);
        }
        Ok(s.durable)
    }

    /// Make the log durable up to `upto`, batching with concurrent
    /// committers under a group-commit `window` (the ROADMAP group-commit
    /// item).
    ///
    /// * `window == 0` behaves exactly like `flush(true)`: write the
    ///   tail, fsync unless a neighbour's fsync already covered `upto`.
    /// * `window > 0`: the first committer to arrive becomes the batch
    ///   *leader*; committers arriving while it collects become
    ///   *followers* and block until the leader's single fsync covers
    ///   their LSN (or, if they appended after the leader's tail
    ///   snapshot, take over as the next leader). The window is a
    ///   *maximum* delay, not a fixed one: every thread inside a
    ///   windowed `commit_durable` has already appended what it needs
    ///   durable, so once the batch holds every in-flight committer the
    ///   leader fires immediately — waiting longer could only help
    ///   commits that have not started yet. An uncontended commit
    ///   therefore pays no window delay at all, and the full window is
    ///   waited only when stragglers are still on their way.
    ///
    /// Callers must have already appended the records they need durable
    /// (`upto` is typically the end LSN returned by
    /// [`append_batch`](Self::append_batch)).
    pub fn commit_durable(&self, upto: Lsn, window: Duration) -> Result<Lsn> {
        self.counters
            .durable_commits
            .fetch_add(1, Ordering::Relaxed);
        if window.is_zero() {
            let end = self.write_tail()?;
            return self.sync_upto(end.max(upto));
        }
        self.pending.fetch_add(1, Ordering::SeqCst);
        let res = self.commit_durable_windowed(upto, window);
        self.pending.fetch_sub(1, Ordering::SeqCst);
        res
    }

    fn commit_durable_windowed(&self, upto: Lsn, window: Duration) -> Result<Lsn> {
        let mut followed = false;
        {
            let mut s = self.sync.lock();
            loop {
                if s.durable >= upto {
                    self.counters.piggybacked.fetch_add(1, Ordering::Relaxed);
                    if followed {
                        self.counters
                            .group_followers
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(s.durable);
                }
                if !s.leader {
                    s.leader = true;
                    break;
                }
                // A leader is collecting a batch: join it (the notify
                // lets the leader close the batch early once everyone
                // in flight is aboard) and wait for its fsync. The
                // deadline is defensive only (a leader always steps
                // down, even on error): it bounds the wait if this
                // follower raced a leader whose fsync failed.
                followed = true;
                s.waiters += 1;
                self.sync_cv.notify_all();
                self.sync_cv
                    .wait_until(&mut s, Instant::now() + window + Duration::from_millis(100));
                s.waiters -= 1;
            }
        }
        // Leader: collect until the window closes or every in-flight
        // committer has joined, then flush the batch with one fsync.
        let deadline = Instant::now() + window;
        {
            let mut s = self.sync.lock();
            while s.waiters + 1 < self.pending.load(Ordering::SeqCst) {
                if self.sync_cv.wait_until(&mut s, deadline).timed_out() {
                    break;
                }
            }
        }
        let res = self.write_tail().and_then(|end| {
            let mut s = self.sync.lock();
            let r = if s.durable < end {
                match s.file.sync_data() {
                    Ok(()) => {
                        s.durable = end;
                        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
                        Ok(s.durable)
                    }
                    Err(e) => Err(DaliError::Io(e)),
                }
            } else {
                self.counters.piggybacked.fetch_add(1, Ordering::Relaxed);
                Ok(s.durable)
            };
            s.leader = false;
            self.sync_cv.notify_all();
            r
        });
        // On the error path the leader flag must still be cleared.
        if res.is_err() {
            let mut s = self.sync.lock();
            if s.leader {
                s.leader = false;
                self.sync_cv.notify_all();
            }
        }
        res
    }

    /// Retire (unlink) sealed segments every byte of which is below
    /// `horizon` — called by the checkpointer with the oldest `CK_end`
    /// that any retained checkpoint image might replay from. The active
    /// segment is never retired. Returns how many segments were
    /// unlinked. Holding the append latch across the unlinks pins the
    /// active segment and keeps rolls out of the race window.
    /// `crash_points` is the owning engine's (`segment.retire.post_unlink`).
    pub fn retire_covered(&self, horizon: Lsn, crash_points: &CrashPoints) -> Result<u64> {
        let inner = self.inner.lock();
        let keep_from = inner.seg_base;
        let retired = segment::retire_covered(&self.dir, horizon, keep_from, crash_points)?;
        self.counters
            .segments_retired
            .fetch_add(retired, Ordering::Relaxed);
        Ok(retired)
    }

    /// Gauges for the segmented layout (directory listing + lifetime
    /// retirement counter).
    pub fn segment_stats(&self) -> Result<SegmentStats> {
        let segments = segment::list(&self.dir)?;
        Ok(SegmentStats {
            segments: segments.len() as u64,
            retired: self.counters.segments_retired.load(Ordering::Relaxed),
            bytes_on_disk: segments.iter().map(|s| s.len).sum(),
        })
    }

    /// Snapshot of the flush/fsync counters.
    pub fn sync_stats(&self) -> SyncStats {
        SyncStats {
            fsyncs: self.counters.fsyncs.load(Ordering::Relaxed),
            flushes: self.counters.flushes.load(Ordering::Relaxed),
            durable_commits: self.counters.durable_commits.load(Ordering::Relaxed),
            piggybacked: self.counters.piggybacked.load(Ordering::Relaxed),
            group_followers: self.counters.group_followers.load(Ordering::Relaxed),
        }
    }

    /// Scan every intact record in an XOR-checksummed stable log
    /// directory from `from` onward. (The in-memory tail is *not*
    /// visible: after a crash it is gone.)
    pub fn scan_stable(path: impl AsRef<Path>, from: Lsn) -> Result<Vec<(Lsn, LogRecord)>> {
        Self::scan_stable_with(path, from, CodewordAlgebraKind::XorFold)
    }

    /// Scan a stable log directory whose frame checksums use `kind`
    /// into owned records: [`LogReader`] collected. Callers that can work
    /// on borrowed records should drive the reader themselves and keep
    /// one segment in memory instead of the whole log.
    pub fn scan_stable_with(
        path: impl AsRef<Path>,
        from: Lsn,
        kind: CodewordAlgebraKind,
    ) -> Result<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        LogReader::open(path, from, kind)?.for_each(|lsn, rec| {
            out.push((lsn, rec.to_owned()));
            Ok(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::{DbAddr, OpSeq, TxnId};
    use dali_testutil::TempDir;

    fn last_segment_path(dir: &Path) -> PathBuf {
        let segs = segment::list(dir).unwrap();
        segment::path(dir, segs.last().unwrap().base)
    }

    #[test]
    fn append_flush_scan_round_trip() {
        let scratch = TempDir::new("syslog-round");
        let path = scratch.path().join("system.log");
        let log = SystemLog::create(&path, 4096).unwrap();
        let l0 = log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        let l1 = log.append(&LogRecord::TxnCommit { txn: TxnId(1) });
        assert_eq!(l0, Lsn::ZERO);
        assert!(l1 > l0);
        assert_eq!(log.end_of_stable(), Lsn::ZERO);
        let stable = log.flush(false).unwrap();
        assert_eq!(stable, log.current_lsn());

        let recs = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, l0);
        assert_eq!(recs[1].0, l1);
        assert_eq!(recs[1].1, LogRecord::TxnCommit { txn: TxnId(1) });
    }

    #[test]
    fn unflushed_tail_is_lost_on_crash() {
        let scratch = TempDir::new("syslog-crashtail");
        let path = scratch.path().join("system.log");
        let log = SystemLog::create(&path, 4096).unwrap();
        log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        log.flush(false).unwrap();
        log.append(&LogRecord::TxnCommit { txn: TxnId(1) });
        drop(log); // crash: tail never flushed
        let recs = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn physical_redo_dirties_pages() {
        let scratch = TempDir::new("syslog-dirty");
        let path = scratch.path().join("system.log");
        let log = SystemLog::create(&path, 4096).unwrap();
        log.append(&LogRecord::PhysicalRedo {
            txn: TxnId(1),
            op: OpSeq(0),
            addr: DbAddr(4090),
            data: vec![0; 12], // spans pages 0 and 1
        });
        let d = log.dirty().take(0);
        assert_eq!(d, vec![PageId(0), PageId(1)]);
    }

    #[test]
    fn batch_append_is_contiguous() {
        let scratch = TempDir::new("syslog-batch");
        let path = scratch.path().join("system.log");
        let log = SystemLog::create(&path, 4096).unwrap();
        let recs = vec![
            LogRecord::TxnBegin { txn: TxnId(1) },
            LogRecord::TxnCommit { txn: TxnId(1) },
        ];
        let (first, end) = log.append_batch(&recs);
        assert_eq!(first, Lsn::ZERO);
        assert_eq!(end, log.current_lsn());
        log.flush(false).unwrap();
        let scanned = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(scanned.len(), 2);
    }

    #[test]
    fn scan_from_mid_lsn() {
        let scratch = TempDir::new("syslog-mid");
        let path = scratch.path().join("system.log");
        let log = SystemLog::create(&path, 4096).unwrap();
        log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        let l1 = log.append(&LogRecord::TxnBegin { txn: TxnId(2) });
        log.flush(false).unwrap();
        let recs = SystemLog::scan_stable(&path, l1).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, LogRecord::TxnBegin { txn: TxnId(2) });
    }

    #[test]
    fn open_truncates_torn_frame_and_resumes() {
        let scratch = TempDir::new("syslog-torn");
        let path = scratch.path().join("system.log");
        {
            let log = SystemLog::create(&path, 4096).unwrap();
            log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
            log.flush(false).unwrap();
        }
        // Simulate a torn flush: append garbage bytes to the active
        // segment.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(last_segment_path(&path))
                .unwrap();
            f.write_all(&[0xff, 0x13, 0x22]).unwrap();
        }
        let log = SystemLog::open(&path, 4096).unwrap();
        let resume = log.current_lsn();
        log.append(&LogRecord::TxnCommit { txn: TxnId(1) });
        log.flush(false).unwrap();
        let recs = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].0, resume);
    }

    #[test]
    fn flush_with_sync() {
        let scratch = TempDir::new("syslog-sync");
        let path = scratch.path().join("system.log");
        let log = SystemLog::create(&path, 4096).unwrap();
        log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        log.flush(true).unwrap();
        assert_eq!(SystemLog::scan_stable(&path, Lsn::ZERO).unwrap().len(), 1);
    }

    #[test]
    fn concurrent_synced_flushes_keep_every_record() {
        // Many threads each append-then-flush(sync); the fsync runs
        // outside the append latch and piggybacks, but every record a
        // flush(true) returned for must be in the stable file.
        let scratch = TempDir::new("syslog-concsync");
        let path = scratch.path().join("system.log");
        let log = std::sync::Arc::new(SystemLog::create(&path, 4096).unwrap());
        let mut handles = vec![];
        for t in 0..4u64 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let lsn = log.append(&LogRecord::TxnBegin {
                        txn: TxnId(t * 1000 + i),
                    });
                    let stable = log.flush(true).unwrap();
                    assert!(stable > lsn, "flush end {stable:?} <= appended {lsn:?}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let recs = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(recs.len(), 400);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        // 4 committers, 2 ms window: every record must be durable when
        // its commit_durable returns, and every commit is served by
        // exactly one fsync — its own or a neighbour's. (How many share
        // one is scheduling; the next test forces that.)
        let scratch = TempDir::new("syslog-group");
        let path = scratch.path().join("system.log");
        let log = std::sync::Arc::new(SystemLog::create(&path, 4096).unwrap());
        let window = Duration::from_millis(2);
        let mut handles = vec![];
        for t in 0..4u64 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    let (_, end) = log.append_batch(&[LogRecord::TxnCommit {
                        txn: TxnId(t * 1000 + i),
                    }]);
                    let durable = log.commit_durable(end, window).unwrap();
                    assert!(durable >= end, "commit returned before durability");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let recs = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(recs.len(), 100);
        let stats = log.sync_stats();
        assert_eq!(stats.durable_commits, 100);
        assert_eq!(stats.fsyncs + stats.piggybacked, stats.durable_commits);
    }

    #[test]
    fn one_fsync_serves_every_commit_appended_before_it() {
        // The sharing claim of group commit, with the interleaving forced
        // instead of hoped for: all eight committers append, *then* a
        // barrier releases them into commit_durable together. Whichever
        // becomes leader writes a tail that already holds all eight
        // records, so its one fsync covers everyone: the other seven
        // return on that fsync (as followers or piggybackers, depending
        // on when they arrive) and none can lead a second one.
        const COMMITTERS: u64 = 8;
        let scratch = TempDir::new("syslog-groupbarrier");
        let path = scratch.path().join("system.log");
        let log = std::sync::Arc::new(SystemLog::create(&path, 4096).unwrap());
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(COMMITTERS as usize));
        let handles: Vec<_> = (0..COMMITTERS)
            .map(|t| {
                let (log, barrier) = (log.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let (_, end) = log.append_batch(&[LogRecord::TxnCommit { txn: TxnId(t) }]);
                    barrier.wait();
                    let durable = log.commit_durable(end, Duration::from_millis(50)).unwrap();
                    assert!(durable >= end, "commit returned before durability");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = log.sync_stats();
        assert_eq!(stats.durable_commits, COMMITTERS);
        assert_eq!(stats.fsyncs, 1, "{stats:?}");
        assert_eq!(stats.piggybacked, COMMITTERS - 1, "{stats:?}");
        assert_eq!(
            SystemLog::scan_stable(&path, Lsn::ZERO).unwrap().len(),
            COMMITTERS as usize
        );
    }

    #[test]
    fn zero_window_commit_matches_flush_true() {
        let scratch = TempDir::new("syslog-zerowin");
        let path = scratch.path().join("system.log");
        let log = SystemLog::create(&path, 4096).unwrap();
        let (_, end) = log.append_batch(&[LogRecord::TxnCommit { txn: TxnId(1) }]);
        let durable = log.commit_durable(end, Duration::ZERO).unwrap();
        assert_eq!(durable, end);
        assert_eq!(SystemLog::scan_stable(&path, Lsn::ZERO).unwrap().len(), 1);
        let stats = log.sync_stats();
        assert_eq!(stats.fsyncs, 1);
        assert_eq!(stats.durable_commits, 1);
    }

    #[test]
    fn sync_stats_count_flushes_and_piggybacks() {
        let scratch = TempDir::new("syslog-stats");
        let path = scratch.path().join("system.log");
        let log = SystemLog::create(&path, 4096).unwrap();
        log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        log.flush(true).unwrap();
        // Nothing new appended: a second durable flush piggybacks.
        log.flush(true).unwrap();
        let stats = log.sync_stats();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.fsyncs, 1);
        assert_eq!(stats.durable_commits, 2);
        assert_eq!(stats.piggybacked, 1);
    }

    #[test]
    fn residue_framed_log_round_trips_and_rejects_wrong_kind() {
        use dali_common::CodewordAlgebraKind;
        let scratch = TempDir::new("syslog-residue");
        let path = scratch.path().join("system.log");
        let r = CodewordAlgebraKind::Residue;
        {
            let log = SystemLog::create_with(&path, 4096, r, DEFAULT_SEGMENT_BYTES).unwrap();
            // Overlapping bit columns so the XOR and residue folds differ.
            log.append(&LogRecord::TxnBegin {
                txn: TxnId(0x0000_FFFF_FFFF_FFFF),
            });
            log.append(&LogRecord::TxnCommit {
                txn: TxnId(0x0000_FFFF_FFFF_FFFF),
            });
            log.flush(false).unwrap();
        }
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, r).unwrap();
        assert_eq!(recs.len(), 2);
        // Scanned under the wrong algebra, the first frame fails its
        // checksum and the scan stops at LSN 0 — a mismatched scanner
        // sees a torn log, never silently different records.
        let recs = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(recs.len(), 0);
        // Reopening with the right kind resumes after the intact frames.
        let log = SystemLog::open_with(&path, 4096, r, DEFAULT_SEGMENT_BYTES).unwrap();
        assert!(log.current_lsn() > Lsn::ZERO);
        log.append(&LogRecord::TxnAbort { txn: TxnId(3) });
        log.flush(false).unwrap();
        assert_eq!(
            SystemLog::scan_stable_with(&path, Lsn::ZERO, r)
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn concurrent_appends_do_not_interleave_frames() {
        let scratch = TempDir::new("syslog-conc");
        let path = scratch.path().join("system.log");
        let log = std::sync::Arc::new(SystemLog::create(&path, 4096).unwrap());
        let mut handles = vec![];
        for t in 0..4u64 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    log.append(&LogRecord::TxnBegin {
                        txn: TxnId(t * 1000 + i),
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        log.flush(false).unwrap();
        let recs = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(recs.len(), 2000);
    }

    // ---- segmented-layout tests ----

    /// Tiny capacity so a handful of records rolls several segments.
    const TINY_SEG: u64 = 128;

    fn fill(log: &SystemLog, n: u64) -> Vec<Lsn> {
        (0..n)
            .map(|i| {
                log.append(&LogRecord::PhysicalRedo {
                    txn: TxnId(i),
                    op: OpSeq(0),
                    addr: DbAddr(64 * i as usize),
                    data: vec![i as u8; 40],
                })
            })
            .collect()
    }

    #[test]
    fn appends_roll_into_multiple_sealed_segments() {
        let scratch = TempDir::new("syslog-roll");
        let path = scratch.path().join("system.log");
        let log =
            SystemLog::create_with(&path, 4096, CodewordAlgebraKind::XorFold, TINY_SEG).unwrap();
        let lsns = fill(&log, 12);
        log.flush(true).unwrap();
        let segs = segment::list(&path).unwrap();
        assert!(segs.len() > 2, "expected rolls, got {segs:?}");
        segment::validate_chain(&segs).unwrap();
        // Every sealed (non-last) segment stays within capacity and ends
        // with a seal frame.
        for s in &segs[..segs.len() - 1] {
            assert!(s.len <= TINY_SEG, "{s:?} over capacity");
            let seg = SegmentBuf::load(&path, s.base, 0, CodewordAlgebraKind::XorFold).unwrap();
            assert_eq!(seg.torn_bytes(), 0);
            assert!(seg.ends_with_seal(), "{s:?} not sealed");
        }
        // The scan sees every record at its append LSN, across segments.
        let recs = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(recs.len(), 12);
        for (got, want) in recs.iter().map(|(l, _)| *l).zip(lsns) {
            assert_eq!(got, want);
        }
        // And a scan from a mid-log record LSN works too.
        let recs = SystemLog::scan_stable(&path, recs[7].0).unwrap();
        assert_eq!(recs.len(), 5);
    }

    #[test]
    fn reopen_after_rolls_resumes_at_end() {
        let scratch = TempDir::new("syslog-rollreopen");
        let path = scratch.path().join("system.log");
        let end = {
            let log = SystemLog::create_with(&path, 4096, CodewordAlgebraKind::XorFold, TINY_SEG)
                .unwrap();
            fill(&log, 9);
            log.flush(true).unwrap()
        };
        let log =
            SystemLog::open_with(&path, 4096, CodewordAlgebraKind::XorFold, TINY_SEG).unwrap();
        assert_eq!(log.current_lsn(), end);
        let l = log.append(&LogRecord::TxnCommit { txn: TxnId(99) });
        log.flush(false).unwrap();
        let recs = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(recs.len(), 10);
        assert_eq!(recs.last().unwrap().0, l);
    }

    #[test]
    fn oversized_record_gets_its_own_segment() {
        let scratch = TempDir::new("syslog-oversz");
        let path = scratch.path().join("system.log");
        let log =
            SystemLog::create_with(&path, 4096, CodewordAlgebraKind::XorFold, TINY_SEG).unwrap();
        log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        let big = log.append(&LogRecord::PhysicalRedo {
            txn: TxnId(1),
            op: OpSeq(0),
            addr: DbAddr(0),
            data: vec![7u8; 3 * TINY_SEG as usize],
        });
        let after = log.append(&LogRecord::TxnCommit { txn: TxnId(1) });
        log.flush(false).unwrap();
        let recs = SystemLog::scan_stable(&path, Lsn::ZERO).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].0, big);
        assert_eq!(recs[2].0, after);
        // The oversized frame must not span segments: one segment holds
        // the whole frame.
        let segs = segment::list(&path).unwrap();
        let holder = segs.iter().find(|s| s.base == big).unwrap();
        assert!(holder.len > 3 * TINY_SEG);
    }

    #[test]
    fn torn_seal_at_segment_boundary_is_truncated() {
        // A flush tears mid-seal: the segment's records survive, the
        // partial seal is cut, and appends resume *in that segment*.
        let scratch = TempDir::new("syslog-tornseal");
        let path = scratch.path().join("system.log");
        let kind = CodewordAlgebraKind::XorFold;
        let (lsns, seal_lsn) = {
            let log = SystemLog::create_with(&path, 4096, kind, TINY_SEG).unwrap();
            let lsns = fill(&log, 3);
            log.flush(true).unwrap();
            let segs = segment::list(&path).unwrap();
            assert!(segs.len() >= 2, "{segs:?}");
            (lsns, segs[1].base)
        };
        // Records that landed before the first seal.
        let seal_start = seal_lsn.0 - FRAME_HDR as u64;
        let survivors: Vec<Lsn> = lsns.iter().copied().filter(|l| l.0 < seal_start).collect();
        assert!(!survivors.is_empty());
        // Reconstruct the pre-roll torn state: successor segments gone,
        // first segment cut mid-seal (header half written).
        let segs = segment::list(&path).unwrap();
        for s in &segs[1..] {
            std::fs::remove_file(segment::path(&path, s.base)).unwrap();
        }
        let first = segment::path(&path, Lsn::ZERO);
        let f = OpenOptions::new().write(true).open(&first).unwrap();
        f.set_len(seal_start + 4).unwrap();
        drop(f);

        let log = SystemLog::open_with(&path, 4096, kind, TINY_SEG).unwrap();
        assert_eq!(log.current_lsn(), Lsn(seal_start));
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, kind).unwrap();
        assert_eq!(recs.len(), survivors.len());
        assert_eq!(recs.last().unwrap().0, *survivors.last().unwrap());
        // Appends resume and roll normally afterwards.
        fill(&log, 3);
        log.flush(true).unwrap();
        assert_eq!(
            SystemLog::scan_stable_with(&path, Lsn::ZERO, kind)
                .unwrap()
                .len(),
            survivors.len() + 3
        );
    }

    #[test]
    fn sealed_last_segment_reopens_with_fresh_successor() {
        // The other half of the boundary tear: the seal made it to disk
        // but the crash hit before (or during) the successor's first
        // flush. Reopen must start a fresh segment at the sealed end.
        let scratch = TempDir::new("syslog-sealedlast");
        let path = scratch.path().join("system.log");
        let kind = CodewordAlgebraKind::XorFold;
        let end = {
            let log = SystemLog::create_with(&path, 4096, kind, TINY_SEG).unwrap();
            fill(&log, 3);
            log.flush(true).unwrap()
        };
        let segs = segment::list(&path).unwrap();
        let last = *segs.last().unwrap();
        // Simulate a torn first flush of the successor: garbage bytes.
        std::fs::write(
            segment::path(&path, last.base),
            [
                &std::fs::read(segment::path(&path, last.base)).unwrap()[..],
                &[0xde, 0xad],
            ]
            .concat(),
        )
        .unwrap();
        let log = SystemLog::open_with(&path, 4096, kind, TINY_SEG).unwrap();
        // Garbage cut; resume exactly at the stable end.
        let segs2 = segment::list(&path).unwrap();
        segment::validate_chain(&segs2).unwrap();
        assert!(log.current_lsn() <= end);
        let l = log.append(&LogRecord::TxnCommit { txn: TxnId(5) });
        log.flush(false).unwrap();
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, kind).unwrap();
        assert_eq!(recs.last().unwrap().0, l);
    }

    #[test]
    fn retire_covered_unlinks_only_below_horizon_and_scan_still_works() {
        let scratch = TempDir::new("syslog-retirelog");
        let path = scratch.path().join("system.log");
        let log =
            SystemLog::create_with(&path, 4096, CodewordAlgebraKind::XorFold, TINY_SEG).unwrap();
        let lsns = fill(&log, 12);
        log.flush(true).unwrap();
        let before = segment::list(&path).unwrap();
        assert!(before.len() > 2);
        let horizon = lsns[7];
        let retired = log
            .retire_covered(horizon, &CrashPoints::default())
            .unwrap();
        assert!(retired > 0);
        let after = segment::list(&path).unwrap();
        assert_eq!(before.len() as u64 - retired, after.len() as u64);
        segment::validate_chain(&after).unwrap();
        // Every surviving segment still has bytes at or after the horizon.
        assert!(after
            .iter()
            .all(|s| s.end() > horizon || s == after.last().unwrap()));
        // A scan from the horizon (what recovery would do) still works...
        let recs = SystemLog::scan_stable(&path, horizon).unwrap();
        assert_eq!(recs.len(), 5);
        // ...while a scan from before the first retained segment errors.
        let err = SystemLog::scan_stable(&path, Lsn::ZERO)
            .unwrap_err()
            .to_string();
        assert!(err.contains("predates"), "{err}");
        let stats = log.segment_stats().unwrap();
        assert_eq!(stats.segments, after.len() as u64);
        assert_eq!(stats.retired, retired);
        assert_eq!(
            stats.bytes_on_disk,
            after.iter().map(|s| s.len).sum::<u64>()
        );
    }
}
