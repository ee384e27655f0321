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
//! record goes to a fresh segment. Sealed segments are immutable, which
//! is what lets a certified checkpoint *retire* them
//! ([`SystemLog::post_retire`]) and bound the log directory by checkpoint
//! cadence. Records never span segments, and LSNs stay global byte
//! offsets, so no caller of the log had to renumber anything.
//!
//! # The roll protocol
//!
//! The updater's thread pays for a roll with one `create_new`; the
//! file-system calls that make a roll *durable* belong to whoever next
//! needs them done — normally the **log worker**, a background thread
//! every `SystemLog` owns:
//!
//! 1. *Appender, under the latch* ([`SystemLog::flush`]'s tail write):
//!    the sealed segment's last bytes are written, its successor is
//!    created as `{lsn}.seg.pending`, the sealed handle is queued, and
//!    appends carry on into the pending file.
//! 2. *Drainer* — the worker, or a durable committer / checkpoint / scan
//!    that cannot wait for it, through the same `drain_sealed` — takes
//!    the queue oldest first: `sync_data(sealed)`, `rename(.pending →
//!    .seg)`, `sync_dir`, and only then advances `durable` to the sealed
//!    segment's end.
//!
//! So `durable` only ever covers a contiguous, fsynced, `.seg`-named
//! prefix of the log, and a `.seg` name exists only once everything
//! before it is sealed and on disk. A crash between the two steps
//! leaves a pending file, which [`segment::adopt_pending`] settles at
//! restart. Retirement is the worker's other job: the unlinks (about
//! 2 ms each on ext4) run outside the latch.
//!
//! A background job's first error is kept and returned by
//! [`SystemLog::settle`], every durable flush or commit and
//! [`SystemLog::wait_durable`] from then on: a failed fsync is never
//! acknowledged over.
//!
//! A *simulated crash* shuts the log down ([`SystemLog::shutdown`], also
//! what dropping it does): the unflushed tail is lost, exactly as Dali
//! loses its in-memory tail, while the worker finishes what was already
//! written and is joined, so the directory is in one deterministic state
//! and no longer changes. Recovery scans the stable segments with a
//! [`LogReader`]; [`SystemLog::open`] truncates a torn trailing frame (a
//! partially completed flush) in the last segment before resuming
//! appends.

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
use std::sync::Arc;
use std::thread::JoinHandle;
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
    /// The active (last, unsealed) segment file; [`SyncState::file`] is
    /// the same handle.
    file: Arc<File>,
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
    /// Set by [`SystemLog::shutdown`]: nothing is written any more.
    closed: bool,
}

/// A sealed segment whose bytes are all written but not yet known to be
/// on disk; its successor still carries the pending name.
struct Sealed {
    file: Arc<File>,
    /// One past the seal frame: the successor's base.
    end: Lsn,
}

/// fsync state, deliberately on its own mutex: syncing must not hold the
/// append latch, or every concurrent committer serializes behind each
/// fsync (~hundreds of microseconds each).
struct SyncState {
    /// The active segment, for `sync_data`. Swapped on every roll.
    file: Arc<File>,
    /// Base of the active segment: everything below it lies in sealed
    /// segments, so `durable >= active_base` says none of them still
    /// waits for its fsync and the active segment has its `.seg` name.
    active_base: Lsn,
    /// Everything below this LSN is known to be on disk.
    durable: Lsn,
    /// Sealed segments waiting for `drain_sealed`, oldest first.
    sealed: VecDeque<Sealed>,
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
    /// `sync_data` calls actually issued on segment files (including one
    /// per segment roll, which makes the seal durable before its
    /// successor gets its name), on whichever thread.
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
    /// The share of `fsyncs` the log worker issued: sealed segments made
    /// durable with no foreground thread waiting.
    pub background_fsyncs: u64,
    /// Times a durable commit, checkpoint or online scan had to perform
    /// or wait for a sealed segment's sync itself — the foreground
    /// stalls that background work did not absorb.
    pub settle_waits: u64,
}

/// Gauges for the segmented layout: what is on disk right now, plus how
/// much retirement has reclaimed over this process's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment files currently retained in the log directory.
    pub segments: u64,
    /// Segments unlinked by retirement since open.
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
    background_fsyncs: AtomicU64,
    settle_waits: AtomicU64,
    segments_retired: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// What the log worker does, in the order it was asked.
enum Job {
    /// Drain the sealed-segment queue.
    Sync,
    /// Unlink the segments a certified checkpoint has passed. The crash
    /// points are the posting engine's (`segment.retire.post_unlink`).
    Retire {
        horizon: Lsn,
        crash_points: CrashPoints,
    },
}

#[derive(Default)]
struct Jobs {
    queue: VecDeque<Job>,
    /// The worker is running a job it took off the queue.
    busy: bool,
    /// Finish the queue and exit.
    stop: bool,
    /// Test hook ([`SystemLog::pause_worker`]): take no job, and on
    /// `stop` leave the queue as a process death would.
    paused: bool,
    /// The first error of any background job.
    error: Option<String>,
}

/// The stable side of the log: what the worker shares with the threads
/// that append, commit and checkpoint.
struct Core {
    /// The log *directory* (segments live inside it).
    dir: PathBuf,
    inner: Mutex<Inner>,
    sync: Mutex<SyncState>,
    /// Signalled whenever `durable` advances, a leader steps down, or a
    /// follower joins a collecting leader's batch.
    sync_cv: Condvar,
    /// Held across `drain_sealed`'s file-system calls, so sealed segments
    /// become durable one at a time and in order whoever drains. Taken
    /// before `sync`, never under it or under the append latch.
    drain: Mutex<()>,
    jobs: Mutex<Jobs>,
    /// Signalled when a job is posted, the worker goes idle, or `stop` /
    /// `paused` change.
    jobs_cv: Condvar,
    counters: Counters,
}

impl Core {
    fn post(&self, job: Job) {
        let mut jobs = self.jobs.lock();
        if !jobs.stop {
            jobs.queue.push_back(job);
            self.jobs_cv.notify_all();
        }
    }

    /// The kept error of a background job, if one has failed.
    fn worker_error(&self) -> Result<()> {
        match &self.jobs.lock().error {
            None => Ok(()),
            Some(e) => Err(DaliError::Io(std::io::Error::other(format!(
                "log worker failed: {e}"
            )))),
        }
    }

    fn run_worker(&self) {
        let mut jobs = self.jobs.lock();
        loop {
            jobs.busy = false;
            self.jobs_cv.notify_all();
            let job = loop {
                if jobs.stop && (jobs.paused || jobs.queue.is_empty()) {
                    jobs.queue.clear();
                    self.jobs_cv.notify_all();
                    return;
                }
                if !jobs.paused {
                    if let Some(job) = jobs.queue.pop_front() {
                        break job;
                    }
                }
                self.jobs_cv.wait(&mut jobs);
            };
            jobs.busy = true;
            drop(jobs);
            let done = match job {
                Job::Sync => self.drain_sealed(true),
                Job::Retire {
                    horizon,
                    crash_points,
                } => self.retire_covered(horizon, &crash_points).map(drop),
            };
            jobs = self.jobs.lock();
            if let Err(e) = done {
                jobs.error.get_or_insert_with(|| e.to_string());
            }
        }
    }

    /// Make every queued sealed segment durable, oldest first, and give
    /// its successor its name: `sync_data(sealed)` → `rename(.pending →
    /// .seg)` → `sync_dir`, then advance `durable` over it. A segment
    /// whose step fails goes back to the head of the queue.
    fn drain_sealed(&self, background: bool) -> Result<()> {
        let _one_at_a_time = self.drain.lock();
        loop {
            let Some(sealed) = self.sync.lock().sealed.pop_front() else {
                return Ok(());
            };
            let done = sealed
                .file
                .sync_data()
                .map_err(DaliError::Io)
                .and_then(|()| {
                    bump(&self.counters.fsyncs);
                    if background {
                        bump(&self.counters.background_fsyncs);
                    }
                    std::fs::rename(
                        segment::pending_path(&self.dir, sealed.end),
                        segment::path(&self.dir, sealed.end),
                    )?;
                    segment::sync_dir(&self.dir)
                });
            let mut s = self.sync.lock();
            if let Err(e) = done {
                s.sealed.push_front(sealed);
                return Err(e);
            }
            s.durable = s.durable.max(sealed.end);
            self.sync_cv.notify_all();
        }
    }

    /// Retire (unlink) sealed segments every byte of which is below
    /// `horizon`. The active segment is pinned under the append latch,
    /// the unlinks run outside it: later rolls only add segments above
    /// the pin. Nothing at or past `durable` goes, whatever the horizon
    /// says, so a segment is never unlinked while its successor still
    /// waits for its name.
    fn retire_covered(&self, horizon: Lsn, crash_points: &CrashPoints) -> Result<u64> {
        let keep_from = self.inner.lock().seg_base;
        let horizon = horizon.min(self.sync.lock().durable);
        let retired = segment::retire_covered(&self.dir, horizon, keep_from, crash_points)?;
        self.counters
            .segments_retired
            .fetch_add(retired, Ordering::Relaxed);
        Ok(retired)
    }
}

/// The system log.
pub struct SystemLog {
    core: Arc<Core>,
    /// The log worker, until [`shutdown`](Self::shutdown) joins it.
    worker: Mutex<Option<JoinHandle<()>>>,
    page_size: usize,
    /// Algebra used for frame checksums — must match between writer and
    /// scanner (the engine derives both from `DaliConfig::codeword_algebra`
    /// and the checkpoint meta pins it across restarts).
    kind: CodewordAlgebraKind,
    /// Capacity at which the active segment is sealed and rolled.
    segment_bytes: u64,
    /// Threads currently inside a windowed `commit_durable` call. Every
    /// one of them has already appended the records it needs durable, so
    /// once a batch contains them all there is nothing to wait for.
    pending: AtomicU64,
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
        for s in segment::list_pending(&dir)? {
            std::fs::remove_file(segment::pending_path(&dir, s.base))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(segment::path(&dir, Lsn::ZERO))?;
        segment::sync_dir(&dir)?;
        Self::assemble(
            dir,
            page_size,
            kind,
            segment_bytes,
            file,
            Lsn::ZERO,
            Lsn::ZERO,
        )
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

    /// Open an existing log whose frame checksums use `kind`. Settles
    /// what an interrupted roll left pending
    /// ([`segment::adopt_pending`]), scans the last segment to find the
    /// end of its last intact frame and truncates anything after it (a
    /// torn flush); if the last segment ends with a seal (the crash hit
    /// between sealing and creating the successor), a fresh segment is
    /// created at the sealed end.
    pub fn open_with(
        path: impl AsRef<Path>,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
    ) -> Result<SystemLog> {
        let dir = path.as_ref().to_path_buf();
        segment::adopt_pending(&dir, kind)?;
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
            // torn bytes after the seal, make it durable (the roll that
            // sealed it may never have got that far) and start its
            // successor.
            let f = OpenOptions::new()
                .write(true)
                .open(segment::path(&dir, last.base))?;
            f.set_len(valid as u64)?;
            f.sync_data()?;
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
        Self::assemble(dir, page_size, kind, segment_bytes, file, seg_base, end)
    }

    fn assemble(
        dir: PathBuf,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
        file: File,
        seg_base: Lsn,
        end: Lsn,
    ) -> Result<SystemLog> {
        let file = Arc::new(file);
        let core = Arc::new(Core {
            dir,
            inner: Mutex::new(Inner {
                tail: BytesMut::with_capacity(1 << 20),
                tail_base: end,
                file: Arc::clone(&file),
                seg_base,
                cur_seg_start: seg_base,
                seg_splits: VecDeque::new(),
                closed: false,
            }),
            sync: Mutex::new(SyncState {
                file,
                active_base: seg_base,
                durable: end,
                sealed: VecDeque::new(),
                leader: false,
                waiters: 0,
            }),
            sync_cv: Condvar::new(),
            drain: Mutex::new(()),
            jobs: Mutex::new(Jobs::default()),
            jobs_cv: Condvar::new(),
            counters: Counters::default(),
        });
        let worker = std::thread::Builder::new()
            .name("dali-log-worker".into())
            .spawn({
                let core = Arc::clone(&core);
                move || core.run_worker()
            })?;
        Ok(SystemLog {
            core,
            worker: Mutex::new(Some(worker)),
            page_size,
            kind,
            // A segment must hold at least one seal and one small frame.
            segment_bytes: segment_bytes.max(4 * FRAME_HDR as u64),
            pending: AtomicU64::new(0),
            dirty: DualDirtySet::new(),
        })
    }

    /// Path of the stable log directory.
    pub fn path(&self) -> &Path {
        &self.core.dir
    }

    /// Dirty page table fed by physical-redo appends.
    pub fn dirty(&self) -> &DualDirtySet {
        &self.dirty
    }

    /// Append one record; returns its LSN.
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        let mut inner = self.core.inner.lock();
        self.append_locked(&mut inner, rec)
    }

    /// Append a batch of records atomically with respect to other
    /// appenders (one lock acquisition — this is how an operation commit
    /// migrates its local redo log). Returns the LSN of the first record
    /// and of the next byte after the last.
    pub fn append_batch(&self, recs: &[LogRecord]) -> (Lsn, Lsn) {
        let mut inner = self.core.inner.lock();
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
        let inner = self.core.inner.lock();
        Lsn(inner.tail_base.0 + inner.tail.len() as u64)
    }

    /// LSN up to which the log has been written to the stable segments.
    pub fn end_of_stable(&self) -> Lsn {
        self.core.inner.lock().tail_base
    }

    /// LSN below which the log is known to be on disk: a contiguous,
    /// fsynced prefix of `.seg`-named segments.
    pub fn durable_lsn(&self) -> Lsn {
        self.core.sync.lock().durable
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
            bump(&self.core.counters.durable_commits);
            self.sync_upto(end)?;
        }
        Ok(end)
    }

    /// Write the in-memory tail to the stable segments (no fsync);
    /// returns the new end of the written log. When it returns, every
    /// appended byte has been handed to the kernel. Rolls happen here:
    /// the tail is cut at each pending seal and the rest goes to a
    /// successor born under the pending name (step 1 of the roll
    /// protocol in the module docs).
    fn write_tail(&self) -> Result<Lsn> {
        let mut inner = self.core.inner.lock();
        if inner.closed {
            return Err(DaliError::Crashed);
        }
        if inner.tail.is_empty() {
            return Ok(inner.tail_base);
        }
        let tail = std::mem::take(&mut inner.tail);
        let base = inner.tail_base;
        let mut cursor = 0usize;
        while let Some(&split) = inner.seg_splits.front() {
            let off = (split.0 - base.0) as usize;
            debug_assert!(cursor < off && off <= tail.len());
            (&*inner.file).write_all(&tail[cursor..off])?;
            cursor = off;
            inner.seg_splits.pop_front();
            self.roll_locked(&mut inner, split)?;
        }
        (&*inner.file).write_all(&tail[cursor..])?;
        inner.tail_base = Lsn(base.0 + tail.len() as u64);
        // Reuse the buffer's capacity.
        let mut tail = tail;
        tail.clear();
        inner.tail = tail;
        bump(&self.core.counters.flushes);
        Ok(inner.tail_base)
    }

    /// Seal the active segment at `split` (its bytes, ending in a seal
    /// frame, are already written): create the successor under its
    /// pending name, queue the sealed handle for whoever drains next and
    /// wake the worker. Called with the append latch held; takes the
    /// sync lock briefly, which is safe because no path acquires the
    /// append latch while holding the sync lock.
    fn roll_locked(&self, inner: &mut Inner, split: Lsn) -> Result<()> {
        let file = Arc::new(
            OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(segment::pending_path(&self.core.dir, split))?,
        );
        let sealed = std::mem::replace(&mut inner.file, Arc::clone(&file));
        inner.seg_base = split;
        {
            let mut s = self.core.sync.lock();
            s.sealed.push_back(Sealed {
                file: sealed,
                end: split,
            });
            s.file = file;
            s.active_base = split;
        }
        self.core.post(Job::Sync);
        Ok(())
    }

    /// Make everything below `upto` (already written) durable. Sealed
    /// segments come first — drained here if the worker has not got to
    /// them — then one `sync_data` of the active segment. Returns
    /// whether that fsync was needed, or a neighbour's (or the drain)
    /// had already covered `upto`.
    fn ensure_durable(&self, upto: Lsn) -> Result<bool> {
        self.core.worker_error()?;
        loop {
            let mut s = self.core.sync.lock();
            if s.durable >= upto {
                return Ok(false);
            }
            if s.durable < s.active_base {
                drop(s);
                bump(&self.core.counters.settle_waits);
                self.core.drain_sealed(false)?;
                continue;
            }
            s.file.sync_data()?;
            s.durable = upto;
            bump(&self.core.counters.fsyncs);
            self.core.sync_cv.notify_all();
            return Ok(true);
        }
    }

    /// fsync so that everything below `upto` is durable, unless a
    /// neighbour's fsync already covered it (commit piggybacking).
    fn sync_upto(&self, upto: Lsn) -> Result<Lsn> {
        if !self.ensure_durable(upto)? {
            bump(&self.core.counters.piggybacked);
        }
        Ok(self.durable_lsn())
    }

    /// Block until everything below `upto` — which the caller has
    /// already flushed — is on disk. What a checkpoint waits for before
    /// it toggles the anchor to an image consistent with `upto`; not a
    /// commit, so it leaves the durable-commit counters alone.
    pub fn wait_durable(&self, upto: Lsn) -> Result<()> {
        self.ensure_durable(upto).map(drop)
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
        bump(&self.core.counters.durable_commits);
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
        // A follower or piggybacker returns without passing through
        // `ensure_durable`, which is where the other paths check this.
        self.core.worker_error()?;
        let (sync, sync_cv) = (&self.core.sync, &self.core.sync_cv);
        let mut followed = false;
        {
            let mut s = sync.lock();
            loop {
                if s.durable >= upto {
                    bump(&self.core.counters.piggybacked);
                    if followed {
                        bump(&self.core.counters.group_followers);
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
                sync_cv.notify_all();
                sync_cv.wait_until(&mut s, Instant::now() + window + Duration::from_millis(100));
                s.waiters -= 1;
            }
        }
        // Leader: collect until the window closes or every in-flight
        // committer has joined, then flush the batch with one fsync.
        let deadline = Instant::now() + window;
        {
            let mut s = sync.lock();
            while s.waiters + 1 < self.pending.load(Ordering::SeqCst) {
                if sync_cv.wait_until(&mut s, deadline).timed_out() {
                    break;
                }
            }
        }
        let res = self.write_tail().and_then(|end| self.sync_upto(end));
        // Step down on the error path too.
        sync.lock().leader = false;
        sync_cv.notify_all();
        res
    }

    /// Retire (unlink) sealed segments every byte of which is below
    /// `horizon` — the oldest `CK_end` that any retained checkpoint
    /// image might replay from — on the caller's thread. The active
    /// segment is never retired. Returns how many segments were
    /// unlinked. This is the routine the worker runs for
    /// [`post_retire`](Self::post_retire).
    /// `crash_points` is the owning engine's (`segment.retire.post_unlink`).
    pub fn retire_covered(&self, horizon: Lsn, crash_points: &CrashPoints) -> Result<u64> {
        self.core.retire_covered(horizon, crash_points)
    }

    /// Hand [`retire_covered`](Self::retire_covered) to the log worker:
    /// what the checkpointer calls, so the unlinks are off its path. An
    /// error (or a tripped crash point) surfaces at the next
    /// [`settle`](Self::settle) or durable commit.
    pub fn post_retire(&self, horizon: Lsn, crash_points: CrashPoints) {
        self.core.post(Job::Retire {
            horizon,
            crash_points,
        });
    }

    /// Wait until the log worker has nothing left to do, and return the
    /// first error any background job met. Afterwards every written
    /// segment carries its `.seg` name and — until the next roll or
    /// posted retirement — the directory no longer changes: what an
    /// online scan of the directory needs before it lists the chain.
    pub fn settle(&self) -> Result<()> {
        let mut jobs = self.core.jobs.lock();
        if jobs.busy || !jobs.queue.is_empty() {
            bump(&self.core.counters.settle_waits);
        }
        while jobs.busy || !jobs.queue.is_empty() {
            self.core.jobs_cv.wait(&mut jobs);
        }
        drop(jobs);
        self.core.worker_error()
    }

    /// Stop the log: refuse further writes, let the worker finish what
    /// is queued, and join it. When this returns the log directory no
    /// longer changes. Idempotent; dropping the log does the same.
    pub fn shutdown(&self) {
        self.core.inner.lock().closed = true;
        {
            let mut jobs = self.core.jobs.lock();
            jobs.stop = true;
            self.core.jobs_cv.notify_all();
        }
        let worker = self.worker.lock().take();
        if let Some(worker) = worker {
            // A panicked worker has nothing more to report than the
            // error it could not record.
            let _ = worker.join();
        }
    }

    /// Test hook: the worker finishes the job it is running and takes no
    /// other, and a later drop or [`shutdown`](Self::shutdown) leaves
    /// the queue — pending names and unsynced sealed segments — exactly
    /// as the death of the process would. Foreground drains (durable
    /// commits) still work; [`settle`](Self::settle) would not return.
    #[doc(hidden)]
    pub fn pause_worker(&self) {
        let mut jobs = self.core.jobs.lock();
        jobs.paused = true;
        while jobs.busy {
            self.core.jobs_cv.wait(&mut jobs);
        }
    }

    /// Gauges for the segmented layout (directory listing + lifetime
    /// retirement counter).
    pub fn segment_stats(&self) -> Result<SegmentStats> {
        let segments = segment::list(&self.core.dir)?;
        Ok(SegmentStats {
            segments: segments.len() as u64,
            retired: self.core.counters.segments_retired.load(Ordering::Relaxed),
            bytes_on_disk: segments.iter().map(|s| s.len).sum(),
        })
    }

    /// Snapshot of the flush/fsync counters.
    pub fn sync_stats(&self) -> SyncStats {
        let c = &self.core.counters;
        SyncStats {
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            durable_commits: c.durable_commits.load(Ordering::Relaxed),
            piggybacked: c.piggybacked.load(Ordering::Relaxed),
            group_followers: c.group_followers.load(Ordering::Relaxed),
            background_fsyncs: c.background_fsyncs.load(Ordering::Relaxed),
            settle_waits: c.settle_waits.load(Ordering::Relaxed),
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

impl Drop for SystemLog {
    fn drop(&mut self) {
        self.shutdown();
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
        log.settle().unwrap();
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
        // The scan below lists a live log's directory: the segments the
        // flush rolled into must have their names first.
        log.settle().unwrap();
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
        log.settle().unwrap();
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
