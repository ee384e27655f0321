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
//! recovery will never read it, and it can be unlinked. Retirement is
//! crash-safe the same way `atomic_write`'s rename is: the unlink is
//! only durable after the parent directory is fsynced, and a crash point
//! between the two (`segment.retire.post_unlink`) lets tests prove both
//! post-crash states recover.
//!
//! A segment is *born* under the name `{base:020}.seg.pending` and gets
//! its `.seg` name only once its sealed predecessor is durable (see the
//! roll protocol in [`crate::syslog`]). Nothing in this module but
//! [`adopt_pending`] and [`list_pending`] ever looks at a pending file:
//! to [`list`], [`validate_chain`], [`locate`] and the [`LogReader`] the
//! log is exactly its `*.seg` files, so a name in the chain still means
//! "everything before this is sealed and on disk".
//!
//! Reading goes through [`LogReader`]: one segment file in memory at a
//! time, each frame checked once as it is first walked over, its records
//! handed out as [`LogRecordRef`]s that borrow from the segment's
//! buffer. Every consumer of the stable log — restart, prior-state and
//! corruption recovery, cache repair, taint tracing, the fault
//! campaigns, `logdump` — walks it this way, so a scan's memory is one
//! segment, not the log.

use crate::record::{parse_frame, FrameRef, LogRecordRef};
use dali_common::{CodewordAlgebraKind, CrashPoints, DaliError, Lsn, Result};
use std::cell::Cell;
use std::io::Read;
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
/// LSN. A file unlinked between being listed and being sized (the log
/// worker retiring it) is skipped: it is not there.
fn list_named(dir: &Path, parse: fn(&str) -> Option<Lsn>) -> Result<Vec<SegmentInfo>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(base) = name.to_str().and_then(parse) else {
            continue;
        };
        match entry.metadata() {
            Ok(meta) => out.push(SegmentInfo {
                base,
                len: meta.len(),
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    out.sort_unstable_by_key(|s| s.base);
    Ok(out)
}

/// List the segments under `dir`, sorted by base LSN. Non-segment files
/// (pending segments among them) are ignored. Errors if the directory
/// cannot be read.
pub fn list(dir: &Path) -> Result<Vec<SegmentInfo>> {
    list_named(dir, parse_file_name)
}

/// List the `*.seg.pending` files under `dir`, sorted by base LSN.
pub fn list_pending(dir: &Path) -> Result<Vec<SegmentInfo>> {
    list_named(dir, parse_pending_name)
}

/// Restart's first step on a log directory, before the chain is listed:
/// give every pending segment its `.seg` name or remove it.
///
/// A pending file joins the chain iff the chain's last segment is intact
/// from its first byte to a seal frame that ends exactly at the pending
/// file's base — the state a process death leaves while the log worker
/// still owed the predecessor its fsync. The predecessor is fsynced
/// before the rename, so a `.seg` name keeps meaning "everything before
/// me is sealed and durable". Any other pending file (its predecessor
/// lost part of its writeback to a power failure, or is gone) is
/// unlinked: nothing in it was ever acknowledged durable, and appends
/// resume at the end of the intact chain.
pub fn adopt_pending(dir: &Path, kind: CodewordAlgebraKind) -> Result<()> {
    let pending = list_pending(dir)?;
    if pending.is_empty() {
        return Ok(());
    }
    let mut last = list(dir)?.last().copied();
    for p in pending {
        let predecessor = match last {
            Some(prev) if prev.end() == p.base => {
                let seg = SegmentBuf::load(dir, prev.base, 0, kind)?;
                (seg.ends_with_seal() && seg.torn_bytes() == 0).then_some(prev)
            }
            _ => None,
        };
        match predecessor {
            Some(prev) => {
                std::fs::File::open(path(dir, prev.base))?.sync_data()?;
                std::fs::rename(pending_path(dir, p.base), path(dir, p.base))?;
                last = Some(p);
            }
            None => std::fs::remove_file(pending_path(dir, p.base))?,
        }
        sync_dir(dir)?;
    }
    Ok(())
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

/// The segment containing global byte offset `lsn` (or, for the log's
/// end LSN, the last segment). Errors if `lsn` predates the first
/// retained segment or lies past the end of the log.
pub fn locate(dir: &Path, lsn: Lsn) -> Result<SegmentInfo> {
    let segments = list(dir)?;
    let Some(first) = segments.first() else {
        return Err(DaliError::RecoveryFailed(format!(
            "no log segments in {}",
            dir.display()
        )));
    };
    if lsn < first.base {
        return Err(DaliError::RecoveryFailed(format!(
            "LSN {lsn} predates first retained segment {}",
            file_name(first.base)
        )));
    }
    validate_chain(&segments)?;
    let last = *segments.last().expect("non-empty");
    if lsn > last.end() {
        return Err(DaliError::RecoveryFailed(format!(
            "LSN {lsn} beyond end of log ({})",
            last.end()
        )));
    }
    // The chain is contiguous, so the segment with the greatest base at
    // or below `lsn` contains it (for the end-of-log LSN: the last one).
    Ok(*segments
        .iter()
        .rev()
        .find(|s| s.base <= lsn)
        .expect("bounds checked"))
}

/// fsync a directory so renames/unlinks/creates inside it are durable.
pub fn sync_dir(dir: &Path) -> Result<()> {
    std::fs::File::open(dir)?.sync_data()?;
    Ok(())
}

/// Truncate the log so that nothing at or past `upto` remains: unlink
/// segments based at or after `upto`, cut the containing segment, fsync
/// it and the directory. Used by prior-state recovery, which must make a
/// byte-level cut of history. A cut past the end of the log is a no-op
/// (matching `set_len(len.min(upto))` on the old single-file layout).
pub fn truncate_at(dir: &Path, upto: Lsn) -> Result<()> {
    let segments = list(dir)?;
    validate_chain(&segments)?;
    let Some(first) = segments.first() else {
        return Ok(());
    };
    if upto < first.base {
        return Err(DaliError::RecoveryFailed(format!(
            "cannot truncate to {upto}: predates first retained segment {}",
            file_name(first.base)
        )));
    }
    let mut changed = false;
    for s in &segments {
        if s.base >= upto && s.base > first.base {
            // Whole segment past the cut. The first segment is never
            // unlinked, so the log stays openable even for a cut at its
            // base (it is truncated to zero length below instead).
            std::fs::remove_file(path(dir, s.base))?;
            changed = true;
        } else if upto < s.end() {
            // Containing segment: cut it at the boundary.
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(path(dir, s.base))?;
            f.set_len(upto.0 - s.base.0)?;
            f.sync_data()?;
            changed = true;
        }
    }
    if changed {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Retire (unlink) sealed segments whose every byte is below `horizon`
/// — i.e. fully covered by a certified checkpoint. The segment based at
/// `keep_from` (the active segment) and anything after it is never
/// touched, whatever the horizon says. Returns how many segments were
/// unlinked.
///
/// Crash safety: each unlink is followed by the crash point
/// `segment.retire.post_unlink`, and the parent directory is fsynced
/// after the batch. A crash between unlink and dir-fsync can leave the
/// unlink *undone* (the file reappears) or *done*; both are benign —
/// recovery never reads below the checkpoint horizon, and a reappeared
/// segment is simply retired again next checkpoint. What the dir-fsync
/// rules out is the unlink becoming durable while a *later* rename or
/// create in the same directory is not.
pub fn retire_covered(
    dir: &Path,
    horizon: Lsn,
    keep_from: Lsn,
    crash_points: &CrashPoints,
) -> Result<u64> {
    let segments = list(dir)?;
    let mut retired = 0u64;
    for s in &segments {
        if s.base >= keep_from || s.end() > horizon {
            continue;
        }
        std::fs::remove_file(path(dir, s.base))?;
        crash_points.check("segment.retire.post_unlink")?;
        retired += 1;
    }
    if retired > 0 {
        sync_dir(dir)?;
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
        dir: &Path,
        base: Lsn,
        start: usize,
        kind: CodewordAlgebraKind,
    ) -> Result<SegmentBuf> {
        Self::load_into(Vec::new(), dir, base, start, kind)
    }

    /// [`load`](Self::load) into a buffer whose allocation is reused.
    fn load_into(
        mut bytes: Vec<u8>,
        dir: &Path,
        base: Lsn,
        start: usize,
        kind: CodewordAlgebraKind,
    ) -> Result<SegmentBuf> {
        bytes.clear();
        std::fs::File::open(path(dir, base))?.read_to_end(&mut bytes)?;
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
        SegmentRecords {
            seg: self,
            pos: self.start,
        }
    }

    /// Whether the intact frames end with a seal frame.
    pub fn ends_with_seal(&self) -> bool {
        self.sealed.get().unwrap_or_else(|| {
            let mut rest = SegmentRecords {
                seg: self,
                pos: self.checked.get(),
            };
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
}

/// Iterator over a [`SegmentBuf`]'s records.
pub struct SegmentRecords<'a> {
    seg: &'a SegmentBuf,
    pos: usize,
}

impl<'a> Iterator for SegmentRecords<'a> {
    type Item = (Lsn, LogRecordRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let seg = self.seg;
        loop {
            let checked = seg.checked.get();
            if self.pos == checked && seg.sealed.get().is_some() {
                return None;
            }
            // Frames an earlier walk accepted are only decoded again.
            let verify = (self.pos == checked).then_some(seg.kind);
            match parse_frame(verify, &seg.bytes[self.pos..]) {
                Ok((frame, n)) => {
                    let lsn = Lsn(seg.base.0 + self.pos as u64);
                    self.pos += n;
                    seg.checked.set(checked.max(self.pos));
                    match frame {
                        FrameRef::Record(rec) => return Some((lsn, rec)),
                        FrameRef::Seal => seg.sealed.set(Some(true)),
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
/// boundaries transparently and ends after the first segment with
/// [`torn_bytes`](SegmentBuf::torn_bytes): nothing past a torn frame can
/// be trusted to be in sequence.
pub struct LogReader {
    dir: PathBuf,
    kind: CodewordAlgebraKind,
    from: Lsn,
    segments: Vec<SegmentInfo>,
}

impl LogReader {
    /// Open the directory for a scan whose frame checksums use `kind`.
    /// Errors if `from` predates the first retained segment (history the
    /// caller wants was retired) or lies past the end of the log.
    pub fn open(dir: impl AsRef<Path>, from: Lsn, kind: CodewordAlgebraKind) -> Result<LogReader> {
        let dir = dir.as_ref().to_path_buf();
        let mut segments = list(&dir)?;
        let Some(&first) = segments.first() else {
            return Err(DaliError::RecoveryFailed(format!(
                "no log segments in {}",
                dir.display()
            )));
        };
        validate_chain(&segments)?;
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
        segments.retain(|s| s.end() > from || s.len == 0);
        Ok(LogReader {
            dir,
            kind,
            from,
            segments,
        })
    }

    /// Run `f` over each segment of the scan in turn, until it breaks or
    /// the log ends. One segment is in memory at a time, in one buffer
    /// reused for the next; what `f` keeps of a segment it must copy.
    pub fn for_each_segment(
        self,
        mut f: impl FnMut(&SegmentBuf) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        let mut buf = Vec::new();
        for info in self.segments {
            let start = self.from.0.saturating_sub(info.base.0) as usize;
            let seg = SegmentBuf::load_into(buf, &self.dir, info.base, start, self.kind)?;
            if f(&seg)?.is_break() || seg.torn_bytes() > 0 {
                break;
            }
            buf = seg.bytes;
        }
        Ok(())
    }

    /// Run `f` over every record of the scan, in log order.
    pub fn for_each(self, mut f: impl FnMut(Lsn, LogRecordRef<'_>) -> Result<()>) -> Result<()> {
        self.for_each_segment(|seg| {
            for (lsn, rec) in seg.records() {
                f(lsn, rec)?;
            }
            Ok(ControlFlow::Continue(()))
        })
    }
}

/// Total bytes currently on disk across all retained segments.
pub fn bytes_on_disk(dir: &Path) -> Result<u64> {
    Ok(list(dir)?.iter().map(|s| s.len).sum())
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
    fn locate_finds_containing_segment() {
        let scratch = TempDir::new("segment-locate");
        let dir = scratch.path();
        mk(dir, 0, 100);
        mk(dir, 100, 50);
        assert_eq!(locate(dir, Lsn(0)).unwrap().base, Lsn(0));
        assert_eq!(locate(dir, Lsn(99)).unwrap().base, Lsn(0));
        assert_eq!(locate(dir, Lsn(100)).unwrap().base, Lsn(100));
        // End-of-log LSN resolves to the last (active) segment.
        assert_eq!(locate(dir, Lsn(150)).unwrap().base, Lsn(100));
        assert!(locate(dir, Lsn(151)).is_err());
    }

    #[test]
    fn locate_rejects_retired_lsn() {
        let scratch = TempDir::new("segment-retired");
        let dir = scratch.path();
        mk(dir, 100, 50);
        let err = locate(dir, Lsn(10)).unwrap_err().to_string();
        assert!(err.contains("predates"), "{err}");
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
                          // Horizon mid-segment-2: only segment 1 is fully covered.
        let unarmed = CrashPoints::default();
        let n = retire_covered(dir, Lsn(120), Lsn(150), &unarmed).unwrap();
        assert_eq!(n, 1);
        assert_eq!(list(dir).unwrap().first().unwrap().base, Lsn(100));
        // Horizon past everything, but the active segment is kept.
        let n = retire_covered(dir, Lsn(10_000), Lsn(150), &unarmed).unwrap();
        assert_eq!(n, 1);
        let segs = list(dir).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].base, Lsn(150));
        assert_eq!(bytes_on_disk(dir).unwrap(), 30);
    }

    #[test]
    fn retire_crash_point_interrupts_between_unlink_and_dir_fsync() {
        let scratch = TempDir::new("segment-retirecrash");
        let dir = scratch.path();
        mk(dir, 0, 100);
        mk(dir, 100, 50);
        let crash_points = CrashPoints::default();
        crash_points.arm("segment.retire.post_unlink");
        let err = retire_covered(dir, Lsn(10_000), Lsn(100), &crash_points)
            .unwrap_err()
            .to_string();
        assert!(err.contains("crash point tripped"), "{err}");
        // The unlink itself happened; the chain now starts at 100 and
        // still validates — exactly the state recovery must tolerate.
        let segs = list(dir).unwrap();
        assert_eq!(segs.len(), 1);
        validate_chain(&segs).unwrap();
    }
}
