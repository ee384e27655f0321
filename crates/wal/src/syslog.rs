//! The system log: in-memory tail plus a directory of stable segment
//! files (paper §2.1).
//!
//! Appends go to the tail under the *system log latch* (a mutex, as in
//! Dali). [`SystemLog::flush`] writes the tail to the stable segments —
//! on transaction commit and during checkpoints. [`SystemLog::durable_lsn`]
//! is the LSN up to which records are known durable. While appending
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
//! # Group commit
//!
//! Every fsync belongs to the **log worker**, a background thread every
//! `SystemLog` owns. A durable commit writes the tail and raises one
//! *durable watermark* ([`SystemLog::request_durable`]); the worker
//! serves it ahead of its jobs with one fsync, which covers every byte
//! written before it starts. [`SystemLog::wait_durable`] blocks for it; a
//! caller that must not block registers a
//! [notification](SystemLog::set_durable_notify) instead.
//!
//! # The roll protocol
//!
//! The appender pays for a roll with one `create_new` of the successor
//! as `{lsn}.seg.pending`, under the latch. Making the roll durable —
//! [`segment::name_successor`]: fsync the sealed segment, rename the
//! successor to `.seg`, sync the directory, and only then advance
//! `durable` — is the worker's too, queued as a job, or done first when
//! the watermark is past the seal. So `durable` covers a contiguous,
//! fsynced, named prefix of the log; a crash in between leaves a pending
//! file, which [`segment::adopt_pending`] settles at restart.
//! Retirement's unlinks are the worker's other job. A store that runs no
//! background threads
//! ([`Storage::background_threads`](dali_common::Storage::background_threads))
//! gets no worker: its jobs queue until [`SystemLog::settle`] runs them on
//! the caller, and a durability request is served on the caller that
//! makes it, so when a sync or unlink lands is the caller's choice.
//!
//! Every file operation goes through the log's
//! [`Storage`](dali_common::Storage). The first failure on the
//! durability path — a background job's or a commit's fsync — is kept
//! and returned by [`SystemLog::settle`], every durable flush or commit
//! and [`SystemLog::wait_durable`] from then on: a failed fsync is never
//! acknowledged over. A failed tail write also closes the log to writes,
//! since what reached the file is unknown.
//!
//! A *simulated crash* shuts the log down ([`SystemLog::shutdown`], also
//! what dropping it does): the unflushed tail is lost, exactly as Dali
//! loses its in-memory tail, while the worker finishes what was already
//! written and is joined, so the directory is in one deterministic state
//! and no longer changes. Recovery scans the stable segments with a
//! [`LogReader`], which reports where the last segment's intact frames
//! end; [`SystemLog::reopen_on`] truncates a torn trailing frame (a
//! partially completed flush) there before resuming appends.
//! [`SystemLog::open_on`] finds that end by walking the last segment
//! itself.

use crate::dpt::DualDirtySet;
use crate::locallog::LocalRedoLog;
use crate::record::{frame_into, frame_len, frame_seal, LogRecord, FRAME_HDR};
use crate::segment::{self, LogEnd, LogReader, SegmentBuf};
use dali_common::storage::{Open, StorageFile};
use dali_common::{CodewordAlgebraKind, DaliError, Lsn, OsStorage, PageId, Result, Store};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

struct Inner {
    /// Unflushed frames.
    tail: Vec<u8>,
    /// LSN of the first byte of the tail (== bytes written to segments).
    tail_base: Lsn,
    /// The active (last, unsealed) segment file; [`SyncState::file`] is
    /// the same handle.
    file: Arc<dyn StorageFile>,
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
    /// Set by [`SystemLog::shutdown`] or a failed tail write: nothing is
    /// written any more.
    closed: bool,
}

/// A sealed segment whose bytes are all written but not yet known to be
/// on disk; its successor still carries the pending name.
struct Sealed {
    file: Arc<dyn StorageFile>,
    /// One past the seal frame: the successor's base.
    end: Lsn,
}

/// What an fsync needs, on its own mutex, which no fsync holds: syncing
/// must not hold the append latch, or every concurrent committer
/// serializes behind each fsync (~hundreds of microseconds each).
struct SyncState {
    /// The active segment, for `fsync`. Swapped on every roll.
    file: Arc<dyn StorageFile>,
    /// Base of the active segment: everything below it lies in sealed
    /// segments, so `durable >= active_base` says none of them still
    /// waits for its fsync and the active segment has its `.seg` name.
    active_base: Lsn,
    /// Sealed segments waiting for `drain_sealed`, oldest first.
    sealed: VecDeque<Sealed>,
}

/// Snapshot of the log's flush/fsync counters, the measurable side of
/// group-commit amortization: `fsyncs / durable_commits` is the ledger's
/// `wal.fsyncs_per_txn`, and piggybacks count commits that rode a
/// neighbour's fsync without waiting for one of their own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// `fsync` calls actually issued on segment files (including one
    /// per segment roll, which makes the seal durable before its
    /// successor gets its name), on whichever thread.
    pub fsyncs: u64,
    /// Tail→file writes (buffered flushes, durable or not).
    pub flushes: u64,
    /// Durable commits requested ([`SystemLog::request_durable`], also
    /// made by `flush(true)` and `commit_durable`).
    pub durable_commits: u64,
    /// Durable commits that needed no fsync of their own:
    /// `durable_commits` less the worker fsyncs made for commits, each of
    /// which counts one commit it covered as its own. A commit whose
    /// fsync is still under way counts here meanwhile.
    pub piggybacked: u64,
    /// The share of `fsyncs` the worker issued for sealed segments with
    /// no durability request waiting on them.
    pub background_fsyncs: u64,
    /// Times a durable commit, checkpoint or online scan had to wait for
    /// a sealed segment's sync, or a [`SystemLog::settle`] for the worker
    /// — the foreground stalls that background work did not absorb.
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
    commit_fsyncs: AtomicU64,
    background_fsyncs: AtomicU64,
    settle_waits: AtomicU64,
    segments_retired: AtomicU64,
}

/// A durability notification ([`SystemLog::set_durable_notify`]).
pub type DurableNotify = Box<dyn Fn() + Send + Sync>;

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// What the log worker does, in the order it was asked.
enum Job {
    /// Drain the sealed-segment queue.
    Sync,
    /// Unlink the segments a certified checkpoint has passed.
    Retire(Lsn),
}

#[derive(Default)]
struct Jobs {
    queue: VecDeque<Job>,
    /// The durable watermark, served ahead of `queue`.
    want: Lsn,
    /// A durable commit asked past `durable` since `want` was last
    /// taken up, so the next fsync served is a commit's.
    asked: bool,
    /// The worker is running a job or serving `want`.
    busy: bool,
    /// Finish the queue and exit.
    stop: bool,
    /// The first failure on the durability path (see the module docs).
    error: Option<String>,
}

impl Jobs {
    /// The kept failure, if the durability path has failed.
    fn failed(&self) -> Result<()> {
        match &self.error {
            None => Ok(()),
            Some(e) => Err(DaliError::Io(std::io::Error::other(format!(
                "log failed: {e}"
            )))),
        }
    }
}

/// The stable side of the log: what the worker shares with the threads
/// that append, commit and checkpoint.
struct Core {
    store: Store,
    /// The log *directory* (segments live inside it).
    dir: PathBuf,
    inner: Mutex<Inner>,
    sync: Mutex<SyncState>,
    /// Held across `drain_sealed`'s file-system calls, so sealed segments
    /// become durable one at a time and in order whoever drains. Taken
    /// before `sync`, never under it or under the append latch.
    drain: Mutex<()>,
    jobs: Mutex<Jobs>,
    /// Signalled when a job is posted, `want` rises, the worker goes
    /// idle, `durable` advances, a failure is kept, or `stop` is set.
    jobs_cv: Condvar,
    /// Everything below this LSN is known to be on disk.
    durable: AtomicU64,
    notify: Mutex<Option<DurableNotify>>,
    counters: Counters,
    /// End of the bytes handed to the kernel, stored under the append
    /// latch. An fsync begun after reading it under the sync lock (which
    /// a roll needs to swap the active file) covers everything below it.
    written: AtomicU64,
}

impl Core {
    fn post(&self, job: Job) {
        let mut jobs = self.jobs.lock();
        if !jobs.stop {
            jobs.queue.push_back(job);
            self.jobs_cv.notify_all();
        }
    }

    fn durable(&self) -> Lsn {
        Lsn(self.durable.load(Ordering::Acquire))
    }

    /// Keep `e` unless an earlier failure is kept already; returns it.
    fn keep(&self, e: DaliError) -> DaliError {
        self.jobs.lock().error.get_or_insert_with(|| e.to_string());
        self.wake_waiters();
        e
    }

    fn wake_waiters(&self) {
        self.jobs_cv.notify_all();
        if let Some(notify) = &*self.notify.lock() {
            notify();
        }
    }

    /// Whether the worker has the watermark to serve.
    fn wants_sync(&self, jobs: &Jobs) -> bool {
        jobs.error.is_none() && jobs.want > self.durable()
    }

    /// Ask for everything below `upto` to be made durable, counted as a
    /// durable commit if `commit`; served here if there is no worker.
    fn request(&self, upto: Lsn, commit: bool) {
        if commit {
            bump(&self.counters.durable_commits);
        }
        let mut jobs = self.jobs.lock();
        if self.durable() >= upto || jobs.stop {
            return;
        }
        jobs.asked |= commit;
        if upto > jobs.want {
            jobs.want = upto;
            self.jobs_cv.notify_all();
        }
        drop(jobs);
        if !self.store.background_threads() {
            self.serve_durable();
        }
    }

    /// Wait until everything below `upto` is durable; the kept failure
    /// comes first, as nothing is acknowledged over it.
    fn await_durable(&self, upto: Lsn) -> Result<()> {
        let mut jobs = self.jobs.lock();
        loop {
            jobs.failed()?;
            if self.durable() >= upto {
                return Ok(());
            }
            if jobs.stop {
                return Err(DaliError::Crashed);
            }
            self.jobs_cv.wait(&mut jobs);
        }
    }

    /// Serve the watermark and wake the waiters; `false` if there was
    /// nothing to serve.
    fn serve_durable(&self) -> bool {
        let want = {
            let mut jobs = self.jobs.lock();
            if !self.wants_sync(&jobs) {
                return false;
            }
            jobs.busy = true;
            if std::mem::take(&mut jobs.asked) {
                bump(&self.counters.commit_fsyncs);
            }
            jobs.want
        };
        // A failure is kept, and so reaches every waiter.
        let _ = self.sync_upto(want);
        self.jobs.lock().busy = false;
        self.wake_waiters();
        true
    }

    /// Make everything below `want` durable: the sealed segments first,
    /// then one fsync of the active segment, which covers every byte
    /// written before it starts.
    fn sync_upto(&self, want: Lsn) -> Result<()> {
        loop {
            self.drain_sealed(false)?;
            if self.durable() >= want {
                return Ok(());
            }
            // Under the sync lock, which a roll takes: every byte below
            // `written` is in `file` or in a drained segment.
            let s = self.sync.lock();
            if self.durable() < s.active_base {
                continue;
            }
            let (file, written) = (Arc::clone(&s.file), self.written.load(Ordering::Acquire));
            drop(s);
            file.fsync().map_err(|e| self.keep(e.into()))?;
            bump(&self.counters.fsyncs);
            self.durable
                .fetch_max(written.max(want.0), Ordering::AcqRel);
            return Ok(());
        }
    }

    /// Take the oldest job off the queue, run it and keep its failure;
    /// `false` if the queue was empty. The log worker's loop body, and
    /// what [`SystemLog::settle`] runs on the caller when the store has no
    /// worker thread.
    fn run_next(&self) -> bool {
        let job = {
            let mut jobs = self.jobs.lock();
            let Some(job) = jobs.queue.pop_front() else {
                return false;
            };
            jobs.busy = true;
            job
        };
        if let Err(e) = match job {
            Job::Sync => self.drain_sealed(true),
            Job::Retire(horizon) => self.retire_covered(horizon),
        } {
            self.keep(e);
        }
        self.jobs.lock().busy = false;
        // A drain may have made a requested commit durable.
        self.wake_waiters();
        true
    }

    fn run_worker(&self) {
        loop {
            if self.serve_durable() || self.run_next() {
                continue;
            }
            let mut jobs = self.jobs.lock();
            while jobs.queue.is_empty() && !self.wants_sync(&jobs) {
                if jobs.stop {
                    return;
                }
                self.jobs_cv.wait(&mut jobs);
            }
        }
    }

    /// Make every queued sealed segment durable, oldest first, and give
    /// its successor its name ([`segment::name_successor`]), then advance
    /// `durable` over it. A segment whose step fails goes back to the
    /// head of the queue, and the failure is kept.
    fn drain_sealed(&self, background: bool) -> Result<()> {
        let _one_at_a_time = self.drain.lock();
        loop {
            let Some(sealed) = self.sync.lock().sealed.pop_front() else {
                return Ok(());
            };
            let done = segment::name_successor(&*self.store, &self.dir, &*sealed.file, sealed.end);
            let mut s = self.sync.lock();
            if let Err(e) = done {
                s.sealed.push_front(sealed);
                drop(s);
                return Err(self.keep(e));
            }
            bump(&self.counters.fsyncs);
            if background {
                bump(&self.counters.background_fsyncs);
            } else {
                bump(&self.counters.settle_waits);
            }
            self.durable.fetch_max(sealed.end.0, Ordering::AcqRel);
        }
    }

    /// Retire (unlink) sealed segments every byte of which is below
    /// `horizon`. The active segment is pinned under the append latch,
    /// the unlinks run outside it. Nothing at or past `durable` goes, so
    /// a segment is never unlinked while its successor waits for a name.
    fn retire_covered(&self, horizon: Lsn) -> Result<()> {
        let keep_from = self.inner.lock().seg_base;
        let horizon = horizon.min(self.durable());
        let retired = segment::retire_covered(&*self.store, &self.dir, horizon, keep_from)?;
        self.counters
            .segments_retired
            .fetch_add(retired, Ordering::Relaxed);
        Ok(())
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
    dirty: DualDirtySet,
}

impl SystemLog {
    /// Create a fresh, empty log whose frame checksums use `kind` and
    /// whose segments roll at `segment_bytes`, on the OS file system.
    pub fn create_with(
        path: impl AsRef<Path>,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
    ) -> Result<SystemLog> {
        Self::create_on(OsStorage::store(), path, page_size, kind, segment_bytes)
    }

    /// [`create_with`](Self::create_with) through `store`.
    pub fn create_on(
        store: Store,
        path: impl AsRef<Path>,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
    ) -> Result<SystemLog> {
        let dir = path.as_ref().to_path_buf();
        store.create_dir_all(&dir)?;
        for s in segment::list_on(&*store, &dir)? {
            store.remove(&segment::path(&dir, s.base))?;
        }
        for s in segment::list_pending(&*store, &dir)? {
            store.remove(&segment::pending_path(&dir, s.base))?;
        }
        let file = store.open(&segment::path(&dir, Lsn::ZERO), Open::Truncate)?;
        store.sync_dir(&dir)?;
        Self::assemble(
            store,
            dir,
            page_size,
            kind,
            segment_bytes,
            file,
            Lsn::ZERO,
            Lsn::ZERO,
        )
    }

    /// Open an existing log on the OS file system whose frame checksums
    /// use `kind`; see [`open_on`](Self::open_on).
    pub fn open_with(
        path: impl AsRef<Path>,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
    ) -> Result<SystemLog> {
        Self::open_on(OsStorage::store(), path, page_size, kind, segment_bytes)
    }

    /// Open an existing log through `store`: settle what a crash left
    /// pending ([`segment::adopt_pending`]), walk the last segment from
    /// its first byte to find where its intact frames end, and
    /// [`reopen_on`](Self::reopen_on) there.
    pub fn open_on(
        store: Store,
        path: impl AsRef<Path>,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
    ) -> Result<SystemLog> {
        let dir = path.as_ref().to_path_buf();
        segment::adopt_pending(&*store, &dir, Lsn::ZERO, kind)?;
        let end = match segment::list_on(&*store, &dir)?.last() {
            // One borrowed walk over the last segment's frames: nothing is
            // decoded into owned records just to find where they end.
            Some(last) => SegmentBuf::load(&*store, &dir, last.base, 0, kind)?.log_end(),
            None => return Err(no_segments(&dir)),
        };
        Self::reopen_on(store, dir, page_size, kind, segment_bytes, end)
    }

    /// Reopen a log at `end`, where a scan of it (after
    /// [`segment::adopt_pending`]) found the last segment's intact frames
    /// to end — restart's redo scan, which has just walked them: unlink
    /// what a crash left stranded ([`segment::unlink_stranded`]), cut the
    /// last segment at `end` and fsync it and the directory; after a
    /// seal, start a fresh segment at the sealed end.
    ///
    /// Only the scan's start bounds what it saw: a damaged frame before
    /// it (below a checkpoint's `CK_end`) does not end the log.
    pub fn reopen_on(
        store: Store,
        path: impl AsRef<Path>,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
        end: LogEnd,
    ) -> Result<SystemLog> {
        let dir = path.as_ref().to_path_buf();
        let Some(last) = segment::unlink_stranded(&*store, &dir)?.pop() else {
            return Err(no_segments(&dir));
        };
        if last.base != end.base || end.end > last.end() {
            return Err(DaliError::RecoveryFailed(format!(
                "log end {end:?} is not inside the last segment {}",
                segment::file_name(last.base)
            )));
        }
        let (sealed, end) = (end.sealed, end.end);
        // What a process death left unsynced — the last segment's bytes,
        // a roll's rename — is durable from here on, as `durable` will
        // claim: a checkpoint may name `end` at once.
        let f = store.open(&segment::path(&dir, last.base), Open::Write)?;
        f.set_len(end.0 - last.base.0)?;
        f.fsync()?;
        let (file, seg_base) = if sealed {
            // The sealed file is immutable from here on; start its
            // successor.
            let file = store.open(&segment::path(&dir, end), Open::CreateNew)?;
            (file, end)
        } else {
            (f, last.base)
        };
        store.sync_dir(&dir)?;
        Self::assemble(
            store,
            dir,
            page_size,
            kind,
            segment_bytes,
            file,
            seg_base,
            end,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        store: Store,
        dir: PathBuf,
        page_size: usize,
        kind: CodewordAlgebraKind,
        segment_bytes: u64,
        file: Box<dyn StorageFile>,
        seg_base: Lsn,
        end: Lsn,
    ) -> Result<SystemLog> {
        let file: Arc<dyn StorageFile> = Arc::from(file);
        let core = Arc::new(Core {
            store,
            dir,
            inner: Mutex::new(Inner {
                tail: Vec::with_capacity(1 << 20),
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
                sealed: VecDeque::new(),
            }),
            drain: Mutex::new(()),
            jobs: Mutex::new(Jobs::default()),
            jobs_cv: Condvar::new(),
            durable: AtomicU64::new(end.0),
            notify: Mutex::new(None),
            counters: Counters::default(),
            written: AtomicU64::new(end.0),
        });
        let worker = if core.store.background_threads() {
            let core = Arc::clone(&core);
            let spawned = std::thread::Builder::new()
                .name("dali-log-worker".into())
                .spawn(move || core.run_worker())?;
            Some(spawned)
        } else {
            None
        };
        Ok(SystemLog {
            core,
            worker: Mutex::new(worker),
            page_size,
            kind,
            // A segment must hold at least one seal and one small frame.
            segment_bytes: segment_bytes.max(4 * FRAME_HDR as u64),
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

    /// Append one record, encoded in place in the tail; returns its LSN.
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        let mut inner = self.core.inner.lock();
        self.append_locked(&mut inner, rec)
    }

    /// Migrate a local redo log's frames — an operation's records, or a
    /// transaction's last ones — atomically with respect to other
    /// appenders: one copy into the tail under one lock acquisition, and
    /// the pages of its physical redo records noted dirty. Only a run
    /// that would overflow the active segment is walked frame by frame,
    /// so seals land exactly where one-record appends put them. Returns
    /// the LSN of the next byte after the run.
    pub fn append_frames(&self, run: &LocalRedoLog) -> Lsn {
        let frames = run.bytes();
        let mut inner = self.core.inner.lock();
        let seg_used = inner.tail_base.0 + inner.tail.len() as u64 - inner.cur_seg_start.0;
        // A run that fits is placed whole, as if it were one frame.
        let fits = seg_used + frames.len() as u64 <= self.segment_bytes - FRAME_HDR as u64;
        let mut at = 0;
        while at < frames.len() {
            let len = if fits {
                frames.len()
            } else {
                frame_len(&frames[at..])
            };
            let start = inner.tail.len();
            inner.tail.extend_from_slice(&frames[at..at + len]);
            self.place(&mut inner, start, len);
            at += len;
        }
        for &(addr, len) in run.writes() {
            self.note_dirty(addr.0, len);
        }
        Lsn(inner.tail_base.0 + inner.tail.len() as u64)
    }

    fn append_locked(&self, inner: &mut Inner, rec: &LogRecord) -> Lsn {
        let start = inner.tail.len();
        let len = frame_into(self.kind, rec, &mut inner.tail);
        if let LogRecord::PhysicalRedo { addr, data, .. } = rec {
            self.note_dirty(addr.0, data.len());
        }
        self.place(inner, start, len)
    }

    /// Roll decision for the `len`-byte frame just appended at tail
    /// offset `start`: if it pushes the active segment past its capacity
    /// (reserving room for the seal that must always fit), move it past
    /// a seal so that it opens the next segment. A frame larger than a
    /// whole segment gets a segment to itself — records never span
    /// segments. Returns the frame's LSN.
    fn place(&self, inner: &mut Inner, start: usize, len: usize) -> Lsn {
        let lsn = Lsn(inner.tail_base.0 + start as u64);
        let seg_used = lsn.0 - inner.cur_seg_start.0;
        if seg_used == 0 || seg_used + len as u64 <= self.segment_bytes - FRAME_HDR as u64 {
            return lsn;
        }
        frame_seal(self.kind, &mut inner.tail);
        inner.tail[start..].rotate_right(FRAME_HDR);
        let split = Lsn(lsn.0 + FRAME_HDR as u64);
        inner.cur_seg_start = split;
        inner.seg_splits.push_back(split);
        split
    }

    /// Note the pages of a `len`-byte write at `addr` dirty. Called under
    /// the append latch, so a checkpoint's dirty-set toggle orders it
    /// with the record's LSN.
    fn note_dirty(&self, addr: usize, len: usize) {
        let pages = dali_common::align::split_by_chunks(addr, len, self.page_size)
            .map(|(ci, _, _)| PageId(ci as u32));
        self.dirty.note_all(pages);
    }

    /// LSN one past the last appended record.
    pub fn current_lsn(&self) -> Lsn {
        let inner = self.core.inner.lock();
        Lsn(inner.tail_base.0 + inner.tail.len() as u64)
    }

    /// LSN below which the log is known to be on disk: a contiguous,
    /// fsynced prefix of `.seg`-named segments.
    pub fn durable_lsn(&self) -> Lsn {
        self.core.durable()
    }

    /// Flush the tail to the stable segments. The file writes happen
    /// under the system log latch; with `sync`, this is a durable commit:
    /// [`request_durable`](Self::request_durable) and
    /// [`wait_durable`](Self::wait_durable).
    /// Returns the new end of stable log.
    pub fn flush(&self, sync: bool) -> Result<Lsn> {
        let end = self.write_tail()?;
        if sync {
            self.request_durable(end);
            self.wait_durable(end)?;
        }
        Ok(end)
    }

    /// Write the in-memory tail to the stable segments (no fsync);
    /// returns the new end of the written log. When it returns, every
    /// appended byte has been handed to the kernel. Rolls happen here:
    /// the tail is cut at each pending seal and the rest goes to a
    /// successor born under the pending name (step 1 of the roll
    /// protocol in the module docs). A failure closes the log.
    fn write_tail(&self) -> Result<Lsn> {
        let mut inner = self.core.inner.lock();
        if inner.closed {
            return Err(DaliError::Crashed);
        }
        if inner.tail.is_empty() {
            return Ok(inner.tail_base);
        }
        let mut tail = std::mem::take(&mut inner.tail);
        if let Err(e) = self.write_locked(&mut inner, &tail) {
            // The bytes stay in the tail so later LSNs stay consistent;
            // they are never written.
            inner.tail = tail;
            inner.closed = true;
            return Err(self.core.keep(e));
        }
        inner.tail_base = Lsn(inner.tail_base.0 + tail.len() as u64);
        self.core
            .written
            .store(inner.tail_base.0, Ordering::Release);
        // Reuse the buffer's capacity.
        tail.clear();
        inner.tail = tail;
        bump(&self.core.counters.flushes);
        Ok(inner.tail_base)
    }

    /// Write `tail`, which starts at `inner.tail_base`, rolling at each
    /// split.
    fn write_locked(&self, inner: &mut Inner, tail: &[u8]) -> Result<()> {
        let base = inner.tail_base;
        let mut cursor = 0usize;
        loop {
            let split = inner.seg_splits.front().copied();
            let off = split.map_or(tail.len(), |split| (split.0 - base.0) as usize);
            debug_assert!(cursor <= off && off <= tail.len());
            let at = base.0 + cursor as u64 - inner.seg_base.0;
            inner.file.write_at(&tail[cursor..off], at)?;
            let Some(split) = split else {
                return Ok(());
            };
            cursor = off;
            inner.seg_splits.pop_front();
            self.roll_locked(inner, split)?;
        }
    }

    /// Seal the active segment at `split` (its bytes, ending in a seal
    /// frame, are already written): create the successor under its
    /// pending name, queue the sealed handle for whoever drains next and
    /// wake the worker. Called with the append latch held; takes the
    /// sync lock briefly, which is safe because no path acquires the
    /// append latch while holding the sync lock.
    fn roll_locked(&self, inner: &mut Inner, split: Lsn) -> Result<()> {
        let file: Arc<dyn StorageFile> = Arc::from(self.core.store.open(
            &segment::pending_path(&self.core.dir, split),
            Open::CreateNew,
        )?);
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

    /// A durable commit whose records, already written, end at `upto`:
    /// raise the worker's durable watermark to `upto` and return at once
    /// (on a store without background threads, after serving it here).
    pub fn request_durable(&self, upto: Lsn) {
        self.core.request(upto, true);
    }

    /// Block until everything below `upto` — which the caller has
    /// already flushed — is on disk: what a durable commit and a
    /// checkpoint wait for. Raises the watermark, counting no commit.
    pub fn wait_durable(&self, upto: Lsn) -> Result<()> {
        self.core.request(upto, false);
        self.core.await_durable(upto)
    }

    /// Make the log durable up to `upto`: [`flush(true)`](Self::flush).
    /// One fsync covers every byte written before it, so concurrent
    /// committers share it without waiting for one another. Callers must
    /// have already appended the records they need durable (`upto` is
    /// typically the end LSN returned by
    /// [`append_frames`](Self::append_frames)).
    pub fn commit_durable(&self, upto: Lsn) -> Result<Lsn> {
        Ok(self.flush(true)?.max(upto))
    }

    /// Call `notify` whenever [`durable_lsn`](Self::durable_lsn) may have
    /// advanced or a failure was kept: a waker, quick and lock-free.
    pub fn set_durable_notify(&self, notify: Option<DurableNotify>) {
        *self.core.notify.lock() = notify;
    }

    /// Have the log worker retire (unlink) sealed segments every byte of
    /// which is below `horizon` — the oldest `CK_end` that any retained
    /// checkpoint image might replay from — so the unlinks are off the
    /// checkpointer's path. The active segment is never retired. An
    /// error surfaces at the next [`settle`](Self::settle) or durable
    /// commit.
    pub fn post_retire(&self, horizon: Lsn) {
        self.core.post(Job::Retire(horizon));
    }

    /// Wait until the log worker has nothing left to do, and return the
    /// first error any background job met. Afterwards every written
    /// segment carries its `.seg` name and — until the next roll or
    /// posted retirement — the directory no longer changes: what an
    /// online scan of the directory needs before it lists the chain.
    ///
    /// On a store without background threads
    /// ([`Storage::background_threads`](dali_common::Storage::background_threads))
    /// there is no worker: jobs only queue, and this is where they run,
    /// on the caller, oldest first.
    pub fn settle(&self) -> Result<()> {
        if !self.core.store.background_threads() {
            while self.core.run_next() {}
        }
        let mut jobs = self.core.jobs.lock();
        let working =
            |jobs: &Jobs| jobs.busy || !jobs.queue.is_empty() || self.core.wants_sync(jobs);
        if working(&jobs) {
            bump(&self.core.counters.settle_waits);
        }
        while working(&jobs) {
            self.core.jobs_cv.wait(&mut jobs);
        }
        jobs.failed()
    }

    /// Stop the log: refuse further writes, let the worker finish what
    /// is queued, and join it. When this returns the log directory no
    /// longer changes. Idempotent; dropping the log does the same.
    /// Without a worker thread, jobs still queued are never run, as a
    /// crash would leave them.
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

    /// The failure the durability path kept, if any: a failed write,
    /// fsync, roll or retirement. Waits for no I/O.
    pub fn failed(&self) -> Result<()> {
        self.core.jobs.lock().failed()
    }

    /// Gauges for the segmented layout (directory listing + lifetime
    /// retirement counter).
    pub fn segment_stats(&self) -> Result<SegmentStats> {
        let segments = segment::list_on(&*self.core.store, &self.core.dir)?;
        Ok(SegmentStats {
            segments: segments.len() as u64,
            retired: self.core.counters.segments_retired.load(Ordering::Relaxed),
            bytes_on_disk: segments.iter().map(|s| s.len).sum(),
        })
    }

    /// Snapshot of the flush/fsync counters.
    pub fn sync_stats(&self) -> SyncStats {
        let c = &self.core.counters;
        // Read first: it trails the commits it is subtracted from.
        let commit_fsyncs = c.commit_fsyncs.load(Ordering::Relaxed);
        let durable_commits = c.durable_commits.load(Ordering::Relaxed);
        SyncStats {
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            durable_commits,
            piggybacked: durable_commits.saturating_sub(commit_fsyncs),
            background_fsyncs: c.background_fsyncs.load(Ordering::Relaxed),
            settle_waits: c.settle_waits.load(Ordering::Relaxed),
        }
    }

    /// Scan every intact record of a stable log directory whose frame
    /// checksums use `kind`, from `from` onward, into owned records:
    /// [`LogReader`] collected. (The in-memory tail is *not* visible:
    /// after a crash it is gone.) Callers that can work on borrowed
    /// records should drive the reader themselves and keep one segment in
    /// memory instead of the whole log.
    pub fn scan_stable_with(
        path: impl AsRef<Path>,
        from: Lsn,
        kind: CodewordAlgebraKind,
    ) -> Result<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        LogReader::open(path, from, kind)?.for_each_segment(|seg| {
            out.extend(seg.records_as::<LogRecord>());
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(out)
    }
}

impl Drop for SystemLog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn no_segments(dir: &Path) -> DaliError {
    DaliError::RecoveryFailed(format!("no log segments in {}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::CodewordAlgebraKind::XorFold;
    use dali_common::{DbAddr, OpSeq, TxnId};
    use dali_testutil::TempDir;
    use std::fs::OpenOptions;
    use std::io::Write;

    /// Large enough that tests of the append/flush protocol never roll.
    const BIG: u64 = 8 << 20;

    fn create(path: &Path) -> SystemLog {
        SystemLog::create_with(path, 4096, XorFold, BIG).unwrap()
    }

    /// Append `recs` as one framed run, the way an operation or
    /// transaction commit migrates its local redo log; returns the end
    /// LSN.
    fn commit_run(log: &SystemLog, recs: &[LogRecord]) -> Lsn {
        let mut run = LocalRedoLog::new();
        for rec in recs {
            run.push(rec.clone());
        }
        log.append_frames(&run)
    }

    fn last_segment_path(dir: &Path) -> PathBuf {
        let segs = segment::list(dir).unwrap();
        segment::path(dir, segs.last().unwrap().base)
    }

    #[test]
    fn append_flush_scan_round_trip() {
        let scratch = TempDir::new("syslog-round");
        let path = scratch.path().join("system.log");
        let log = create(&path);
        let l0 = log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        let l1 = log.append(&LogRecord::TxnCommit { txn: TxnId(1) });
        assert_eq!(l0, Lsn::ZERO);
        assert!(l1 > l0);
        assert_eq!(log.durable_lsn(), Lsn::ZERO);
        let stable = log.flush(false).unwrap();
        assert_eq!(stable, log.current_lsn());

        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, l0);
        assert_eq!(recs[1].0, l1);
        assert_eq!(recs[1].1, LogRecord::TxnCommit { txn: TxnId(1) });
    }

    #[test]
    fn unflushed_tail_is_lost_on_crash() {
        let scratch = TempDir::new("syslog-crashtail");
        let path = scratch.path().join("system.log");
        let log = create(&path);
        log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        log.flush(false).unwrap();
        log.append(&LogRecord::TxnCommit { txn: TxnId(1) });
        drop(log); // crash: tail never flushed
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn physical_redo_dirties_pages() {
        let scratch = TempDir::new("syslog-dirty");
        let path = scratch.path().join("system.log");
        let log = create(&path);
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
        let log = create(&path);
        let recs = vec![
            LogRecord::TxnBegin { txn: TxnId(1) },
            LogRecord::TxnCommit { txn: TxnId(1) },
        ];
        let end = commit_run(&log, &recs);
        assert_eq!(end, log.current_lsn());
        log.flush(false).unwrap();
        let scanned = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
        assert_eq!(scanned.len(), 2);
    }

    #[test]
    fn scan_from_mid_lsn() {
        let scratch = TempDir::new("syslog-mid");
        let path = scratch.path().join("system.log");
        let log = create(&path);
        log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        let l1 = log.append(&LogRecord::TxnBegin { txn: TxnId(2) });
        log.flush(false).unwrap();
        let recs = SystemLog::scan_stable_with(&path, l1, XorFold).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, LogRecord::TxnBegin { txn: TxnId(2) });
    }

    #[test]
    fn open_truncates_torn_frame_and_resumes() {
        let scratch = TempDir::new("syslog-torn");
        let path = scratch.path().join("system.log");
        {
            let log = create(&path);
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
        let log = SystemLog::open_with(&path, 4096, XorFold, BIG).unwrap();
        let resume = log.current_lsn();
        log.append(&LogRecord::TxnCommit { txn: TxnId(1) });
        log.flush(false).unwrap();
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].0, resume);
    }

    #[test]
    fn flush_with_sync() {
        let scratch = TempDir::new("syslog-sync");
        let path = scratch.path().join("system.log");
        let log = create(&path);
        log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        log.flush(true).unwrap();
        assert_eq!(
            SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        // 4 committers: every record must be durable when its
        // commit_durable returns, and every commit is served by exactly
        // one fsync — its own or a neighbour's. (How many share one is
        // scheduling; the next test forces that.)
        let scratch = TempDir::new("syslog-group");
        let path = scratch.path().join("system.log");
        let log = std::sync::Arc::new(create(&path));
        let mut handles = vec![];
        for t in 0..4u64 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    let end = commit_run(
                        &log,
                        &[LogRecord::TxnCommit {
                            txn: TxnId(t * 1000 + i),
                        }],
                    );
                    let durable = log.commit_durable(end).unwrap();
                    assert!(durable >= end, "commit returned before durability");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
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
        // reaches the sync lock first fsyncs a file that already holds
        // all eight records, so its one fsync covers everyone: the other
        // seven find `durable` past their records and piggyback.
        const COMMITTERS: u64 = 8;
        let scratch = TempDir::new("syslog-groupbarrier");
        let path = scratch.path().join("system.log");
        let log = std::sync::Arc::new(create(&path));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(COMMITTERS as usize));
        let handles: Vec<_> = (0..COMMITTERS)
            .map(|t| {
                let (log, barrier) = (log.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let end = commit_run(&log, &[LogRecord::TxnCommit { txn: TxnId(t) }]);
                    barrier.wait();
                    let durable = log.commit_durable(end).unwrap();
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
            SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold)
                .unwrap()
                .len(),
            COMMITTERS as usize
        );
    }

    #[test]
    fn sync_stats_count_flushes_and_piggybacks() {
        let scratch = TempDir::new("syslog-stats");
        let path = scratch.path().join("system.log");
        let log = create(&path);
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
    fn fsync_covers_every_byte_written_before_it() {
        // Two committers' records are both written before the first one
        // asks for its fsync: that one fsync makes both durable, so the
        // second committer piggybacks instead of syncing again.
        let scratch = TempDir::new("syslog-fsync-coverage");
        let log = create(&scratch.path().join("system.log"));
        log.append(&LogRecord::TxnBegin { txn: TxnId(1) });
        let first = log.flush(false).unwrap();
        log.append(&LogRecord::TxnBegin { txn: TxnId(2) });
        let second = log.flush(false).unwrap();
        assert!(first < second);
        log.wait_durable(first).unwrap();
        assert_eq!(log.durable_lsn(), second);
        assert_eq!(log.commit_durable(second).unwrap(), second);
        let stats = log.sync_stats();
        assert_eq!(stats.fsyncs, 1, "{stats:?}");
        assert_eq!(stats.piggybacked, 1, "{stats:?}");
    }

    /// The OS store, except that once `armed` the next segment fsync
    /// parks until `open`, and that it runs background threads only if
    /// `threads`.
    #[derive(Default)]
    struct GatedFsync {
        threads: bool,
        armed: std::sync::atomic::AtomicBool,
        /// (an fsync is parked, it may go on)
        state: std::sync::Mutex<(bool, bool)>,
        cv: std::sync::Condvar,
    }

    impl GatedFsync {
        fn set(&self, f: impl FnOnce(&mut (bool, bool))) {
            f(&mut self.state.lock().unwrap());
            self.cv.notify_all();
        }

        fn wait(&self, until: impl Fn(&(bool, bool)) -> bool) {
            let state = self.state.lock().unwrap();
            drop(self.cv.wait_while(state, |s| !until(s)).unwrap());
        }
    }

    struct GatedFile(Box<dyn StorageFile>, Arc<GatedFsync>);

    impl StorageFile for GatedFile {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
            self.0.read_at(buf, offset)
        }
        fn write_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
            self.0.write_at(buf, offset)
        }
        fn size(&self) -> std::io::Result<u64> {
            self.0.size()
        }
        fn set_len(&self, len: u64) -> std::io::Result<()> {
            self.0.set_len(len)
        }
        fn fsync(&self) -> std::io::Result<()> {
            if self.1.armed.swap(false, Ordering::SeqCst) {
                self.1.set(|s| s.0 = true);
                self.1.wait(|s| s.1);
            }
            self.0.fsync()
        }
    }

    struct GatedStore(Arc<GatedFsync>);

    impl dali_common::Storage for GatedStore {
        fn open(&self, path: &Path, how: Open) -> std::io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(GatedFile(
                OsStorage.open(path, how)?,
                Arc::clone(&self.0),
            )))
        }
        fn read(&self, path: &Path, into: &mut Vec<u8>) -> std::io::Result<()> {
            OsStorage.read(path, into)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            OsStorage.rename(from, to)
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            OsStorage.remove(path)
        }
        fn list(&self, dir: &Path) -> std::io::Result<Vec<(String, u64)>> {
            OsStorage.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            OsStorage.create_dir_all(dir)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            OsStorage.sync_dir(dir)
        }
        fn background_threads(&self) -> bool {
            self.0.threads
        }
    }

    fn create_gated(path: &Path, threads: bool) -> (SystemLog, Arc<GatedFsync>) {
        let gate = Arc::new(GatedFsync {
            threads,
            ..GatedFsync::default()
        });
        let store: Store = Arc::new(GatedStore(Arc::clone(&gate)));
        let log = SystemLog::create_on(store, path, 4096, XorFold, BIG).unwrap();
        (log, gate)
    }

    /// Commit `txn` durably without waiting: append, write, request.
    fn request_commit(log: &SystemLog, txn: u64) -> Lsn {
        commit_run(log, &[LogRecord::TxnCommit { txn: TxnId(txn) }]);
        let end = log.flush(false).unwrap();
        log.request_durable(end);
        end
    }

    /// Durable requests posted while the worker's fsync is parked return
    /// at once, and the one fsync the worker makes next covers them all:
    /// of the K, one is counted as served by it and the rest piggyback.
    #[test]
    fn requests_posted_during_a_parked_fsync_share_the_next_one() {
        const K: u64 = 5;
        let scratch = TempDir::new("syslog-watermark");
        let (log, gate) = create_gated(&scratch.path().join("system.log"), true);
        gate.armed.store(true, Ordering::SeqCst);
        let first = request_commit(&log, 0);
        gate.wait(|s| s.0);
        let ends: Vec<Lsn> = (1..=K).map(|t| request_commit(&log, t)).collect();
        assert!(log.durable_lsn() < first, "the parked fsync returned");
        let before = log.sync_stats();
        assert_eq!(before.fsyncs, 0, "{before:?}");

        gate.set(|s| s.1 = true);
        log.wait_durable(*ends.last().unwrap()).unwrap();
        let stats = log.sync_stats();
        assert_eq!(stats.fsyncs, 2, "the parked fsync and one more: {stats:?}");
        assert_eq!(stats.durable_commits, K + 1);
        assert_eq!(stats.piggybacked, K - 1, "{stats:?}");
        assert_eq!(stats.fsyncs + stats.piggybacked, stats.durable_commits);
    }

    /// Without background threads a durability request is served on the
    /// caller: durable when it returns, with its own fsync, and one more
    /// request past nothing new piggybacks.
    #[test]
    fn a_request_without_background_threads_runs_on_the_caller() {
        let scratch = TempDir::new("syslog-watermark-caller");
        let (log, _gate) = create_gated(&scratch.path().join("system.log"), false);
        assert!(log.worker.lock().is_none());
        let end = request_commit(&log, 1);
        assert_eq!(log.durable_lsn(), end);
        log.request_durable(end);
        let stats = log.sync_stats();
        assert_eq!(
            (stats.fsyncs, stats.durable_commits, stats.piggybacked),
            (1, 2, 1)
        );
        log.wait_durable(end).unwrap();
    }

    #[test]
    fn residue_framed_log_round_trips_and_rejects_wrong_kind() {
        use dali_common::CodewordAlgebraKind;
        let scratch = TempDir::new("syslog-residue");
        let path = scratch.path().join("system.log");
        let r = CodewordAlgebraKind::Residue;
        {
            let log = SystemLog::create_with(&path, 4096, r, BIG).unwrap();
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
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
        assert_eq!(recs.len(), 0);
        // Reopening with the right kind resumes after the intact frames.
        let log = SystemLog::open_with(&path, 4096, r, BIG).unwrap();
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
        let log = std::sync::Arc::new(create(&path));
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
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
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
            let seg = SegmentBuf::load(&OsStorage, &path, s.base, 0, XorFold).unwrap();
            assert_eq!(seg.torn_bytes(), 0);
            assert!(seg.ends_with_seal(), "{s:?} not sealed");
        }
        // The scan sees every record at its append LSN, across segments.
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
        assert_eq!(recs.len(), 12);
        for (got, want) in recs.iter().map(|(l, _)| *l).zip(lsns) {
            assert_eq!(got, want);
        }
        // And a scan from a mid-log record LSN works too.
        let recs = SystemLog::scan_stable_with(&path, recs[7].0, XorFold).unwrap();
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
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
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
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].0, big);
        assert_eq!(recs[2].0, after);
        // The oversized frame must not span segments: one segment holds
        // the whole frame.
        let segs = segment::list(&path).unwrap();
        let holder = segs.iter().find(|s| s.base == big).unwrap();
        assert!(holder.len > 3 * TINY_SEG);
    }

    /// A framed run lands in the tail exactly as its records appended one
    /// by one would — the same bytes, the same seals at the same offsets,
    /// whether the run fits the active segment, crosses it or outgrows a
    /// whole segment — and dirties the same pages.
    #[test]
    fn append_frames_matches_one_record_appends_across_rolls() {
        let scratch = TempDir::new("syslog-frames");
        let recs: Vec<LogRecord> = (0..40u64)
            .map(|i| LogRecord::PhysicalRedo {
                txn: TxnId(i),
                op: OpSeq(0),
                addr: DbAddr(3000 * i as usize),
                data: vec![i as u8; if i == 20 { 300 } else { (7 * i as usize) % 50 }],
            })
            .collect();
        let (one, runs) = (scratch.path().join("one"), scratch.path().join("runs"));
        let a = SystemLog::create_with(&one, 4096, XorFold, TINY_SEG).unwrap();
        let b = SystemLog::create_with(&runs, 4096, XorFold, TINY_SEG).unwrap();
        for rec in &recs {
            a.append(rec);
        }
        let mut rest = &recs[..];
        for n in [1, 2, 5, 3].into_iter().cycle() {
            let (run, tail) = rest.split_at(n.min(rest.len()));
            commit_run(&b, run);
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        assert_eq!(a.current_lsn(), b.current_lsn());
        assert_eq!(a.dirty().take(0), b.dirty().take(0));
        for log in [&a, &b] {
            log.flush(false).unwrap();
            log.settle().unwrap();
        }
        let segs = segment::list(&one).unwrap();
        assert!(segs.len() > 10, "{segs:?}");
        assert_eq!(segs, segment::list(&runs).unwrap());
        for s in &segs {
            let read = |dir: &Path| std::fs::read(segment::path(dir, s.base)).unwrap();
            assert_eq!(read(&one), read(&runs), "segment {:?}", s.base);
        }
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
        log.post_retire(horizon);
        log.settle().unwrap();
        let retired = log.segment_stats().unwrap().retired;
        assert!(retired > 0);
        let after = segment::list(&path).unwrap();
        assert_eq!(before.len() as u64 - retired, after.len() as u64);
        segment::validate_chain(&after).unwrap();
        // Every surviving segment still has bytes at or after the horizon.
        assert!(after
            .iter()
            .all(|s| s.end() > horizon || s == after.last().unwrap()));
        // A scan from the horizon (what recovery would do) still works...
        let recs = SystemLog::scan_stable_with(&path, horizon, XorFold).unwrap();
        assert_eq!(recs.len(), 5);
        // ...while a scan from before the first retained segment errors.
        let err = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold)
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

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn worker_drains_rolls_in_the_background_and_settle_leaves_the_directory_at_rest() {
        let scratch = TempDir::new("syslog-settle");
        let path = scratch.path().join("system.log");
        let log = SystemLog::create_with(&path, 4096, XorFold, TINY_SEG).unwrap();
        fill(&log, 12);
        log.flush(false).unwrap();
        log.settle().unwrap();
        // Every roll was the worker's: no commit asked for durability.
        let segs = segment::list(&path).unwrap();
        let rolls = segs.len() as u64 - 1;
        assert!(rolls >= 3);
        let stats = log.sync_stats();
        assert_eq!(stats.background_fsyncs, rolls, "{stats:?}");
        assert_eq!(stats.fsyncs, rolls, "{stats:?}");
        assert!(segment::list_pending(&OsStorage, &path).unwrap().is_empty());
        // `durable` stops at the last sealed segment's end: nobody has
        // fsynced the active segment.
        assert_eq!(log.durable_lsn(), segs.last().unwrap().base);
        // At rest after settle(), and still so after shutdown and drop.
        let at_rest = names(&path);
        log.shutdown();
        assert_eq!(names(&path), at_rest);
        fill(&log, 1);
        assert!(log.flush(false).is_err(), "a shut-down log refuses writes");
        drop(log);
        assert_eq!(names(&path), at_rest);
    }

    #[test]
    fn drop_finishes_queued_rolls() {
        // No settle, no durable commit: the drop joins the worker after
        // it has drained, so a later scan sees a whole directory.
        let scratch = TempDir::new("syslog-drop");
        let path = scratch.path().join("system.log");
        let log = SystemLog::create_with(&path, 4096, XorFold, TINY_SEG).unwrap();
        let lsns = fill(&log, 12);
        log.flush(false).unwrap();
        drop(log);
        assert!(segment::list_pending(&OsStorage, &path).unwrap().is_empty());
        let recs = SystemLog::scan_stable_with(&path, Lsn::ZERO, XorFold).unwrap();
        assert_eq!(recs.iter().map(|(l, _)| *l).collect::<Vec<_>>(), lsns);
    }
}
