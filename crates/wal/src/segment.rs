//! Segment files of the system log.
//!
//! The stable log is a *directory* of fixed-capacity segment files, each
//! named by the global LSN of its first byte (`{base:020}.seg`), so the
//! chain invariant is visible in an `ls`: each segment's base equals the
//! previous segment's base plus its length. LSNs remain global byte
//! offsets — segmentation partitions the offset space without
//! renumbering it, so every LSN recorded in checkpoint metas and audit
//! records stays valid across the layout change.
//!
//! Sealed segments (every one but the last) are immutable: they end with
//! a [`crate::record::FRAME_SEAL`] frame and are never written again.
//! That is what makes bitcask-style *retirement* safe: once a certified
//! checkpoint's `CK_end` is past a sealed segment's last byte, restart
//! recovery will never read it, and it can be unlinked. Retirement
//! unlinks a run of segments under one directory sync, so a power loss
//! can keep any subset of the unlinks: an old segment may come back
//! while a newer one does not. A scan therefore checks only the
//! segments it reads, and [`unlink_stranded`] removes what lies before
//! such a gap when the log is opened.
//!
//! A segment is *born* under the name `{base:020}.seg.pending` and gets
//! its `.seg` name only once its sealed predecessor is durable (see the
//! roll protocol in [`crate::syslog`]). Nothing in this module but
//! [`adopt_pending`] and [`list_pending`] ever looks at a pending file:
//! to [`list`], [`validate_chain`] and the [`LogReader`] the
//! log is exactly its `*.seg` files, so a name in the chain still means
//! "everything before this is sealed and on disk".
//!
//! Reading goes through [`LogReader`]: one segment file in memory at a
//! time, each frame checked once — against its own LSN — as it is first
//! walked over, its records
//! handed out as [`LogRecordRef`]s that borrow from the segment's
//! buffer. Every consumer of the stable log — restart, prior-state and
//! corruption recovery, online repair, taint tracing — walks it this
//! way, so a scan's memory is one segment, not the log.

use crate::record::{parse_frame, Frame, LogRecordRef};
use dali_common::codec::Wire;
use dali_common::storage::{self, Open, Storage, StorageFile};
use dali_common::{CodewordAlgebraKind, DaliError, Lsn, OsStorage, Result};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// File-name suffix of a log segment.
pub const SEGMENT_SUFFIX: &str = "seg";

/// A segment on disk: base LSN (== first byte's global offset) and
/// current file length in bytes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Global LSN of the segment's first byte.
    pub base: Lsn,
    /// Bytes currently in the file.
    pub len: u64,
}

impl SegmentInfo {
    /// Global LSN one past the segment's last byte.
    pub fn end(&self) -> Lsn {
        Lsn(self.base.0 + self.len)
    }
}

/// What a segment file's name carries until its predecessor is durable.
const PENDING_SUFFIX: &str = "pending";

/// File name for the segment whose first byte is `base`.
pub fn file_name(base: Lsn) -> String {
    format!("{:020}.{SEGMENT_SUFFIX}", base.0)
}

/// Path of the segment whose first byte is `base`.
pub fn path(dir: &Path, base: Lsn) -> PathBuf {
    dir.join(file_name(base))
}

/// Path of the not-yet-named segment whose first byte is `base`.
pub fn pending_path(dir: &Path, base: Lsn) -> PathBuf {
    dir.join(format!("{}.{PENDING_SUFFIX}", file_name(base)))
}

/// Parse a segment file name back to its base LSN.
pub fn parse_file_name(name: &str) -> Option<Lsn> {
    let stem = name.strip_suffix(&format!(".{SEGMENT_SUFFIX}"))?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse::<u64>().ok().map(Lsn)
}

fn parse_pending_name(name: &str) -> Option<Lsn> {
    parse_file_name(name.strip_suffix(&format!(".{PENDING_SUFFIX}"))?)
}

/// The files under `dir` whose names `parse` accepts, sorted by base
/// LSN.
fn list_named(
    store: &dyn Storage,
    dir: &Path,
    parse: fn(&str) -> Option<Lsn>,
) -> Result<Vec<SegmentInfo>> {
    let mut out: Vec<SegmentInfo> = store
        .list(dir)?
        .into_iter()
        .filter_map(|(name, len)| parse(&name).map(|base| SegmentInfo { base, len }))
        .collect();
    out.sort_unstable_by_key(|s| s.base);
    Ok(out)
}

/// List the segments under `dir` on the OS file system, sorted by base
/// LSN. Non-segment files (pending segments among them) are ignored.
/// Errors if the directory cannot be read.
pub fn list(dir: &Path) -> Result<Vec<SegmentInfo>> {
    list_on(&OsStorage, dir)
}

/// [`list`] through `store`.
pub fn list_on(store: &dyn Storage, dir: &Path) -> Result<Vec<SegmentInfo>> {
    list_named(store, dir, parse_file_name)
}

/// List the `*.seg.pending` files under `dir`, sorted by base LSN.
pub fn list_pending(store: &dyn Storage, dir: &Path) -> Result<Vec<SegmentInfo>> {
    list_named(store, dir, parse_pending_name)
}

/// Name the successor born pending at `base`: `fsync(sealed)` →
/// `rename(.pending → .seg)` → `sync_dir`. The roll and restart's
/// adoption both name successors here.
pub fn name_successor(
    store: &dyn Storage,
    dir: &Path,
    sealed: &dyn StorageFile,
    base: Lsn,
) -> Result<()> {
    sealed.fsync()?;
    store.rename(&pending_path(dir, base), &path(dir, base))?;
    store.sync_dir(dir)?;
    Ok(())
}

/// Restart's first step on a log directory, before the chain is listed:
/// give every pending segment its `.seg` name or remove it.
///
/// A pending file joins the chain iff the chain's last segment is intact
/// from `from` (restart's `CK_end`, when it lies in that segment; its
/// first byte otherwise) to a seal frame that ends exactly at the pending
/// file's base — the state a process death leaves while the log worker
/// still owed the predecessor its fsync. Damage below `from` is never
/// scanned, so it does not end the log. Any other pending file (its
/// predecessor lost part of its writeback to a power failure, or is
/// gone) is unlinked: nothing in it was ever acknowledged durable, and
/// appends resume at the end of the intact chain.
pub fn adopt_pending(
    store: &dyn Storage,
    dir: &Path,
    from: Lsn,
    kind: CodewordAlgebraKind,
) -> Result<()> {
    let pending = list_pending(store, dir)?;
    if pending.is_empty() {
        return Ok(());
    }
    let mut last = list_on(store, dir)?.last().copied();
    for p in pending {
        let predecessor = match last {
            Some(prev) if prev.end() == p.base => {
                let start = if from > prev.base && from < p.base {
                    (from.0 - prev.base.0) as usize
                } else {
                    0
                };
                let seg = SegmentBuf::load(store, dir, prev.base, start, kind)?;
                (seg.ends_with_seal() && seg.torn_bytes() == 0).then_some(prev)
            }
            _ => None,
        };
        match predecessor {
            Some(prev) => {
                let sealed = store.open(&path(dir, prev.base), Open::Read)?;
                name_successor(store, dir, &*sealed, p.base)?;
                last = Some(p);
            }
            None => storage::remove_durably(store, &pending_path(dir, p.base))?,
        }
    }
    Ok(())
}

/// Unlink the *stranded prefix* — every segment before the chain's last
/// gap, which only a power loss mid-retirement leaves, below both
/// images' `CK_end` — and return the chain that is left.
pub fn unlink_stranded(store: &dyn Storage, dir: &Path) -> Result<Vec<SegmentInfo>> {
    let mut segments = list_on(store, dir)?;
    let start = segments
        .windows(2)
        .rposition(|w| w[1].base != w[0].end())
        .map_or(0, |gap| gap + 1);
    for s in segments.drain(..start) {
        store.remove(&path(dir, s.base))?;
    }
    if start > 0 {
        store.sync_dir(dir)?;
    }
    Ok(segments)
}

/// Check the chain invariant: each segment begins exactly where the
/// previous one ends. A gap means a segment was lost (or an unlink was
/// torn mid-retirement in a way that removed the wrong file) and the log
/// cannot be trusted past it.
pub fn validate_chain(segments: &[SegmentInfo]) -> Result<()> {
    for w in segments.windows(2) {
        if w[1].base != w[0].end() {
            return Err(DaliError::RecoveryFailed(format!(
                "segment chain broken: {} ends at {} but next segment starts at {}",
                file_name(w[0].base),
                w[0].end(),
                w[1].base
            )));
        }
    }
    Ok(())
}

/// Truncate the log on the OS file system so that nothing at or past
/// `upto` remains; see [`truncate_at_on`].
pub fn truncate_at(dir: &Path, upto: Lsn) -> Result<()> {
    truncate_at_on(&OsStorage, dir, upto)
}

/// Truncate the log so that nothing at or past `upto` remains (for
/// prior-state recovery): unlink later segments newest first, each
/// durably, then cut and fsync the containing one, so a crash at any
/// point leaves a contiguous chain. A cut past the end is a no-op.
pub fn truncate_at_on(store: &dyn Storage, dir: &Path, upto: Lsn) -> Result<()> {
    let segments = list_on(store, dir)?;
    let Some(first) = segments.first() else {
        return Ok(());
    };
    if upto < first.base {
        return Err(DaliError::RecoveryFailed(format!(
            "cannot truncate to {upto}: predates first retained segment {}",
            file_name(first.base)
        )));
    }
    // The first segment is never unlinked, so the log stays openable even
    // for a cut at its base (it is truncated to zero length instead).
    let keep = segments.iter().take_while(|s| s.base < upto).count().max(1);
    for s in segments[keep..].iter().rev() {
        storage::remove_durably(store, &path(dir, s.base))?;
    }
    let containing = segments[keep - 1];
    if upto < containing.end() {
        let f = store.open(&path(dir, containing.base), Open::Write)?;
        f.set_len(upto.0 - containing.base.0)?;
        f.fsync()?;
    }
    Ok(())
}

/// Retire (unlink) sealed segments whose every byte is below `horizon`
/// — i.e. fully covered by a certified checkpoint. The segment based at
/// `keep_from` (the active segment) and anything after it is never
/// touched, whatever the horizon says. Returns how many segments were
/// unlinked.
///
/// The unlinks share one directory sync; a crash before it may keep any
/// subset of them, which recovers (see the module docs).
pub fn retire_covered(
    store: &dyn Storage,
    dir: &Path,
    horizon: Lsn,
    keep_from: Lsn,
) -> Result<u64> {
    let mut retired = 0u64;
    for s in list_on(store, dir)? {
        if s.base >= keep_from || s.end() > horizon {
            continue;
        }
        store.remove(&path(dir, s.base))?;
        retired += 1;
    }
    if retired > 0 {
        store.sync_dir(dir)?;
    }
    Ok(retired)
}

/// One segment file in memory: the unit the streaming reader hands out,
/// and the buffer its [`LogRecordRef`]s borrow from.
///
/// Frames are checked — checksum under the log's algebra, payload
/// through the decoder — as [`records`](Self::records) first walks over
/// them, so a scan touches each frame once. Where the intact frames end
/// (a seal, a torn flush, mid-file damage, or simply the end of the
/// file) is known once a walk has got there; the accessors that report
/// it finish the walk themselves if no caller has.
pub struct SegmentBuf {
    base: Lsn,
    kind: CodewordAlgebraKind,
    bytes: Vec<u8>,
    /// Offset of the first frame to hand out.
    start: usize,
    /// Every frame in `start..checked` has passed checksum and decode.
    checked: Cell<usize>,
    /// Set once a walk has reached the end of the intact frames (which
    /// is then `checked`): whether they end with a seal.
    sealed: Cell<Option<bool>>,
}

impl SegmentBuf {
    /// Read the segment based at `base`, to be walked from byte offset
    /// `start`, its frames checksummed under `kind`.
    pub fn load(
        store: &dyn Storage,
        dir: &Path,
        base: Lsn,
        start: usize,
        kind: CodewordAlgebraKind,
    ) -> Result<SegmentBuf> {
        Self::load_into(Vec::new(), store, dir, base, start, kind)
    }

    /// [`load`](Self::load) into a buffer whose allocation is reused.
    fn load_into(
        mut bytes: Vec<u8>,
        store: &dyn Storage,
        dir: &Path,
        base: Lsn,
        start: usize,
        kind: CodewordAlgebraKind,
    ) -> Result<SegmentBuf> {
        bytes.clear();
        store.read(&path(dir, base), &mut bytes)?;
        let start = start.min(bytes.len());
        Ok(SegmentBuf {
            base,
            kind,
            bytes,
            start,
            checked: Cell::new(start),
            sealed: Cell::new(None),
        })
    }

    /// Global LSN of the segment's first byte.
    pub fn base(&self) -> Lsn {
        self.base
    }

    /// Bytes in the segment file.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the segment file is empty (a freshly rolled successor).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The segment's intact records from `start` on, in log order, each
    /// with its global LSN. Seal frames carry no record; the walk ends at
    /// one, or at the first byte that is not an intact frame.
    pub fn records(&self) -> SegmentRecords<'_> {
        self.records_as()
    }

    /// [`records`](Self::records), each decoded as `R` — an owned
    /// [`LogRecord`](crate::LogRecord) for a caller that keeps it.
    pub fn records_as<'a, R: Wire<'a>>(&'a self) -> SegmentRecords<'a, R> {
        SegmentRecords {
            seg: self,
            pos: self.start,
            holder: PhantomData,
        }
    }

    /// Whether the intact frames end with a seal frame.
    pub fn ends_with_seal(&self) -> bool {
        self.sealed.get().unwrap_or_else(|| {
            let mut rest = self.records();
            rest.pos = self.checked.get();
            while rest.next().is_some() {}
            self.sealed.get().expect("a finished walk records its end")
        })
    }

    /// Bytes after the last intact frame: a torn final flush, mid-file
    /// damage, or garbage after a seal. Zero means the stream continues
    /// in the next segment.
    pub fn torn_bytes(&self) -> usize {
        self.ends_with_seal();
        self.bytes.len() - self.checked.get()
    }

    /// Global LSN one past the last intact frame (the seal included).
    pub fn intact_end(&self) -> Lsn {
        Lsn(self.base.0 + (self.bytes.len() - self.torn_bytes()) as u64)
    }

    /// Where this segment's intact frames end, as the log's end if it is
    /// the last segment.
    ///
    /// A walk from `start` sees only the frames from there on, so one
    /// that starts at the file's end reports no seal. That is the truth
    /// for a scan from a checkpoint's `CK_end`: the writer puts a seal
    /// only in front of the frame that overflowed, so the log's end never
    /// directly follows one — except after a reopen at a seal, which
    /// creates the successor durably, and a scan from its base reads the
    /// successor.
    pub fn log_end(&self) -> LogEnd {
        LogEnd {
            base: self.base,
            end: self.intact_end(),
            sealed: self.ends_with_seal(),
        }
    }
}

/// Where a scan found the stable log's end: the last segment, the end of
/// its intact frames, and whether they end with a seal.
/// [`SystemLog::reopen_on`](crate::SystemLog::reopen_on) resumes
/// appending there. Only a walk of a segment makes one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LogEnd {
    /// Base LSN of the last segment.
    pub(crate) base: Lsn,
    /// One past its last intact frame.
    pub(crate) end: Lsn,
    /// Whether that frame is a seal.
    pub(crate) sealed: bool,
}

/// Iterator over a [`SegmentBuf`]'s records, each held as `R`.
pub struct SegmentRecords<'a, R = LogRecordRef<'a>> {
    seg: &'a SegmentBuf,
    pos: usize,
    holder: PhantomData<R>,
}

impl<R> SegmentRecords<'_, R> {
    /// LSN of the next frame: one past the last record handed out.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.seg.base.0 + self.pos as u64)
    }
}

impl<'a, R: Wire<'a>> Iterator for SegmentRecords<'a, R> {
    type Item = (Lsn, R);

    fn next(&mut self) -> Option<Self::Item> {
        let seg = self.seg;
        loop {
            let checked = seg.checked.get();
            if self.pos == checked && seg.sealed.get().is_some() {
                return None;
            }
            // Frames an earlier walk accepted are only decoded again.
            let verify = (self.pos == checked).then_some(seg.kind);
            let lsn = self.next_lsn();
            match parse_frame(verify, lsn, &seg.bytes[self.pos..]) {
                Ok((frame, n)) => {
                    self.pos += n;
                    seg.checked.set(checked.max(self.pos));
                    match frame {
                        Frame::Record(rec) => return Some((lsn, rec)),
                        Frame::Seal => seg.sealed.set(Some(true)),
                    }
                }
                // Not a frame (or nothing left): the intact prefix ends.
                Err(_) => seg.sealed.set(Some(false)),
            }
        }
    }
}

/// Streaming reader over a stable log directory from `from` onward, one
/// [`SegmentBuf`] at a time. (The in-memory tail of a live log is *not*
/// visible: after a crash it is gone.) The scan crosses segment
/// boundaries transparently; bytes after the last segment's intact
/// frames are a torn final flush. Every other segment must end with its
/// seal, or the scan fails with [`DaliError::RecoveryFailed`], naming
/// where the intact log ends.
pub struct LogReader<'s> {
    store: &'s dyn Storage,
    dir: PathBuf,
    kind: CodewordAlgebraKind,
    from: Lsn,
    segments: Vec<SegmentInfo>,
}

impl LogReader<'static> {
    /// [`open_on`](LogReader::open_on) the OS file system.
    pub fn open(dir: impl AsRef<Path>, from: Lsn, kind: CodewordAlgebraKind) -> Result<Self> {
        LogReader::open_on(&OsStorage, dir, from, kind)
    }
}

impl<'s> LogReader<'s> {
    /// Open the directory for a scan whose frame checksums use `kind`.
    /// Errors if `from` predates the first retained segment (history the
    /// caller wants was retired) or lies past the end of the log, or if
    /// the segments from the one holding `from` on do not chain. (A gap
    /// below them is a stranded prefix the scan does not need.)
    pub fn open_on(
        store: &'s dyn Storage,
        dir: impl AsRef<Path>,
        from: Lsn,
        kind: CodewordAlgebraKind,
    ) -> Result<LogReader<'s>> {
        let dir = dir.as_ref().to_path_buf();
        let mut segments = list_on(store, &dir)?;
        let Some(&first) = segments.first() else {
            return Err(DaliError::RecoveryFailed(format!(
                "no log segments in {}",
                dir.display()
            )));
        };
        let end = segments.last().expect("non-empty").end();
        if from < first.base {
            return Err(DaliError::RecoveryFailed(format!(
                "scan start {from} predates first retained segment {}",
                file_name(first.base)
            )));
        }
        if from > end {
            return Err(DaliError::RecoveryFailed(format!(
                "scan start {from} beyond stable log ({end})"
            )));
        }
        // The last segment is always read, if only to say where the log
        // ends.
        let last = segments.pop().expect("non-empty");
        segments.retain(|s| s.end() > from || s.len == 0);
        segments.push(last);
        validate_chain(&segments)?;
        if segments.first().is_some_and(|s| from < s.base) {
            return Err(DaliError::RecoveryFailed(format!(
                "segment chain broken: no segment holds scan start {from}"
            )));
        }
        Ok(LogReader {
            store,
            dir,
            kind,
            from,
            segments,
        })
    }

    /// Run `f` over each segment of the scan in turn, until it breaks or
    /// the log ends. One segment is in memory at a time, in one buffer
    /// reused for the next; what `f` keeps of a segment it must copy. A
    /// damaged sealed segment fails the scan only after `f` has seen its
    /// intact records, so a caller that needs no more breaks out first.
    /// Returns where the log ends ([`SegmentBuf::log_end`] of the last
    /// segment) if the scan got there, `None` if `f` broke out.
    pub fn for_each_segment(
        self,
        mut f: impl FnMut(&SegmentBuf) -> Result<ControlFlow<()>>,
    ) -> Result<Option<LogEnd>> {
        let (mut buf, mut end) = (Vec::new(), None);
        let mut segments = self.segments.into_iter().peekable();
        while let Some(info) = segments.next() {
            let start = self.from.0.saturating_sub(info.base.0) as usize;
            let seg =
                SegmentBuf::load_into(buf, self.store, &self.dir, info.base, start, self.kind)?;
            if f(&seg)?.is_break() {
                return Ok(None);
            }
            if segments.peek().is_none() {
                end = Some(seg.log_end());
                break;
            }
            // A successor is named only once its predecessor is sealed and
            // synced: a sealed segment that is not whole is damaged.
            if seg.torn_bytes() > 0 || !seg.ends_with_seal() {
                let end = seg.intact_end();
                return Err(DaliError::RecoveryFailed(format!(
                    "sealed log segment {} is damaged at offset {}: the intact log ends at \
                     {end}; open_prior_state at {end} recovers everything logged before it",
                    file_name(info.base),
                    end.0 - info.base.0,
                )));
            }
            buf = seg.bytes;
        }
        Ok(end)
    }

    /// Run `f` over every record of the scan, in log order.
    pub fn for_each(self, mut f: impl FnMut(Lsn, LogRecordRef<'_>) -> Result<()>) -> Result<()> {
        self.for_each_segment(|seg| {
            for (lsn, rec) in seg.records() {
                f(lsn, rec)?;
            }
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(())
    }
}

/// Total bytes currently on disk across all retained segments.
pub fn bytes_on_disk(store: &dyn Storage, dir: &Path) -> Result<u64> {
    Ok(list_on(store, dir)?.iter().map(|s| s.len).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_testutil::TempDir;

    fn mk(dir: &Path, base: u64, len: usize) {
        std::fs::write(path(dir, Lsn(base)), vec![0u8; len]).unwrap();
    }

    #[test]
    fn names_round_trip() {
        for base in [0u64, 1, 4096, u64::MAX / 2] {
            let name = file_name(Lsn(base));
            assert_eq!(parse_file_name(&name), Some(Lsn(base)));
        }
        assert_eq!(parse_file_name("foo.seg"), None);
        assert_eq!(parse_file_name("00000000000000000000.log"), None);
        assert_eq!(parse_file_name("0.seg"), None);
    }

    #[test]
    fn list_sorts_and_ignores_strangers() {
        let scratch = TempDir::new("segment-list");
        let dir = scratch.path();
        mk(dir, 100, 50);
        mk(dir, 0, 100);
        std::fs::write(dir.join("anchor"), b"x").unwrap();
        let segs = list(dir).unwrap();
        assert_eq!(
            segs,
            vec![
                SegmentInfo {
                    base: Lsn(0),
                    len: 100
                },
                SegmentInfo {
                    base: Lsn(100),
                    len: 50
                },
            ]
        );
        validate_chain(&segs).unwrap();
    }

    #[test]
    fn chain_gap_is_detected() {
        let scratch = TempDir::new("segment-gap");
        let dir = scratch.path();
        mk(dir, 0, 100);
        mk(dir, 150, 10); // gap: should start at 100
        let segs = list(dir).unwrap();
        assert!(validate_chain(&segs).is_err());
    }

    #[test]
    fn truncate_drops_later_segments_and_cuts_containing() {
        let scratch = TempDir::new("segment-trunc");
        let dir = scratch.path();
        mk(dir, 0, 100);
        mk(dir, 100, 50);
        mk(dir, 150, 30);
        truncate_at(dir, Lsn(120)).unwrap();
        let segs = list(dir).unwrap();
        assert_eq!(
            segs,
            vec![
                SegmentInfo {
                    base: Lsn(0),
                    len: 100
                },
                SegmentInfo {
                    base: Lsn(100),
                    len: 20
                },
            ]
        );
        // Cut past the end: no-op.
        truncate_at(dir, Lsn(10_000)).unwrap();
        assert_eq!(list(dir).unwrap(), segs);
    }

    #[test]
    fn truncate_to_zero_keeps_one_empty_segment() {
        let scratch = TempDir::new("segment-trunczero");
        let dir = scratch.path();
        mk(dir, 0, 100);
        mk(dir, 100, 50);
        truncate_at(dir, Lsn::ZERO).unwrap();
        let segs = list(dir).unwrap();
        assert_eq!(
            segs,
            vec![SegmentInfo {
                base: Lsn(0),
                len: 0
            }]
        );
    }

    #[test]
    fn retire_unlinks_only_fully_covered_sealed_segments() {
        let scratch = TempDir::new("segment-retire");
        let dir = scratch.path();
        mk(dir, 0, 100);
        mk(dir, 100, 50);
        mk(dir, 150, 30); // active
        let store = &OsStorage;
        // Horizon mid-segment-2: only segment 1 is fully covered.
        let n = retire_covered(store, dir, Lsn(120), Lsn(150)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(list(dir).unwrap().first().unwrap().base, Lsn(100));
        // Horizon past everything, but the active segment is kept.
        let n = retire_covered(store, dir, Lsn(10_000), Lsn(150)).unwrap();
        assert_eq!(n, 1);
        let segs = list(dir).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].base, Lsn(150));
        assert_eq!(bytes_on_disk(store, dir).unwrap(), 30);
    }

    /// Retirement of 0 and 100 under one directory sync, and a power loss
    /// that kept only the second unlink: the scan from past the gap still
    /// works and opening unlinks what the gap stranded.
    #[test]
    fn a_gap_left_by_retirement_strands_only_what_no_scan_needs() {
        let scratch = TempDir::new("segment-stranded");
        let dir = scratch.path();
        mk(dir, 0, 100);
        mk(dir, 150, 30);
        mk(dir, 180, 20);
        let err = LogReader::open(dir, Lsn(120), CodewordAlgebraKind::XorFold)
            .err()
            .unwrap()
            .to_string();
        assert!(err.contains("no segment holds"), "{err}");
        assert!(LogReader::open(dir, Lsn(150), CodewordAlgebraKind::XorFold).is_ok());
        let chain = unlink_stranded(&OsStorage, dir).unwrap();
        assert_eq!(list(dir).unwrap(), chain);
        assert_eq!(chain[0].base, Lsn(150));
        validate_chain(&chain).unwrap();
    }
}
