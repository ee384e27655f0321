//! Ping-pong checkpointing with audit certification (paper §2.1, §4.2).
//!
//! Two checkpoint images, `Ckpt_A` and `Ckpt_B`, alternate; the anchor
//! file `cur_ckpt` names the most recent *certified* image. A checkpoint:
//!
//! 1. quiesces physical updates (and log migration) and snapshots — at a
//!    single log position `CK_end` — the dirty pages, the ATT with local
//!    undo logs, and the catalog;
//! 2. writes the pages and metadata to the non-current image;
//! 3. audits **every region of the database** (§4.2: auditing only the
//!    written pages is insufficient because a transaction may have carried
//!    corruption from an unwritten page); and
//! 4. only if the audit is clean, toggles the anchor — the checkpoint is
//!    *certified free of corruption*.
//!
//! Step 2 first durably unlinks the target image's meta, so a
//! half-rewritten image is never taken for the checkpoint it used to
//! hold. A checkpoint that fails before the anchor moves hands its
//! drained pages back to the dirty set; a failure *writing* the anchor
//! poisons the engine, since which image it names is then unknown.
//!
//! A failed audit leaves the previous certified checkpoint in place,
//! records the corrupt regions in a marker file, and poisons the engine so
//! the caller restarts into corruption recovery.
//!
//! Dali itself writes fuzzy checkpoints and patches them consistent with a
//! redo-log prefix; our quiescent snapshot obtains the same
//! update-consistent-at-`CK_end` property directly (noted in DESIGN.md).

use crate::catalog::Catalog;
use crate::db::{CkptState, Db, EngineStats};
use dali_codeword::AuditReport;
use dali_common::codec::{self, Reader, Wire};
use dali_common::storage::{self, Open, StorageFile};
use dali_common::{CodewordAlgebraKind, DaliError, Lsn, PageId, Result, Storage};
use dali_mem::DbImage;
use dali_wal::record::LogRecord;
use std::path::Path;
use std::sync::Arc;

// CB01 had no algebra tag; CB02 appends the codeword-algebra byte right
// after the magic so recovery can reject an image certified under a
// different algebra than the one configured. CB03 adds a `u64` slot that
// held a parity-stripe layout; no stripe is kept any more, and it is
// written as 0. CB04 marks the log format of one frame per operation,
// its checksum folding in its LSN, and the ATT's undo blobs holding the
// logical undo alone; its fields are CB03's.
const META_MAGIC: u32 = 0xDA11_CB04;
const OLD_LOG_META_MAGIC: u32 = 0xDA11_CB03;
const ANCHOR_MAGIC: u32 = 0xDA11_A0C1;

/// Outcome of a checkpoint attempt.
#[derive(Debug)]
pub enum CheckpointOutcome {
    /// Checkpoint written, audited clean, anchor toggled.
    Certified {
        /// The log position the checkpoint is consistent with.
        ck_end: Lsn,
        /// Pages written to the image file.
        pages_written: usize,
    },
    /// The post-checkpoint audit found corruption; the anchor was *not*
    /// toggled, a corruption marker was written, and the engine is
    /// poisoned. Reopen the database to run corruption recovery.
    CorruptionDetected(AuditReport),
    /// The certification audit found corruption but online repair healed
    /// it from the anchored checkpoint plus the log, and the damaged
    /// regions re-audited clean. The anchor was
    /// *not* toggled and the engine stays up; the repaired pages are
    /// re-noted dirty and the next certification sweeps everything, so a
    /// retried checkpoint covers the healed state.
    CorruptionRepaired {
        report: AuditReport,
        outcome: crate::repair::RepairOutcome,
    },
}

/// Checkpoint metadata (one per image file).
#[derive(Clone, Debug)]
pub struct CkptMeta {
    pub serial: u64,
    /// Redo scans start here; the image is update-consistent with this
    /// log position.
    pub ck_end: Lsn,
    pub next_txn: u64,
    pub next_audit: u64,
    /// `Audit_SN`: LSN of the begin record of the last clean audit at the
    /// time the checkpoint was taken.
    pub audit_sn: Option<Lsn>,
    /// The codeword algebra the certifying audit ran under. Recovery
    /// refuses an image whose algebra differs from the configured one.
    pub algebra: CodewordAlgebraKind,
    /// The CB03 slot a parity-stripe layout used; written as 0 and
    /// ignored on read.
    pub parity_group_size: u64,
    pub catalog: Catalog,
    /// Serialized ATT (decoded lazily by recovery).
    pub att_blob: Vec<u8>,
}

fn bad_meta(msg: String) -> DaliError {
    DaliError::RecoveryFailed(format!("ckpt meta: {msg}"))
}

impl CkptMeta {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        META_MAGIC.put(&mut buf);
        self.algebra.tag().put(&mut buf);
        self.parity_group_size.put(&mut buf);
        self.serial.put(&mut buf);
        self.ck_end.put(&mut buf);
        self.next_txn.put(&mut buf);
        self.next_audit.put(&mut buf);
        self.audit_sn.put(&mut buf);
        codec::put_blob_with(&mut buf, |buf| self.catalog.encode(buf));
        self.att_blob.put(&mut buf);
        codec::seal(&mut buf);
        buf
    }

    fn decode(bytes: &[u8]) -> Result<CkptMeta> {
        let mut r = codec::unseal(bytes, bad_meta)?;
        match r.u32()? {
            META_MAGIC => {}
            OLD_LOG_META_MAGIC => {
                return Err(r.fail(
                    "the CB03 format of an older release, whose log frames this release \
                     cannot read",
                ))
            }
            _ => return Err(r.fail("bad magic")),
        }
        let algebra = CodewordAlgebraKind::from_tag(r.u8()?)
            .ok_or_else(|| r.fail("unknown codeword algebra tag"))?;
        let meta = CkptMeta {
            algebra,
            parity_group_size: r.u64()?,
            serial: r.u64()?,
            ck_end: Lsn::get(&mut r)?,
            next_txn: r.u64()?,
            next_audit: r.u64()?,
            audit_sn: Wire::get(&mut r)?,
            catalog: {
                let mut cat = Reader::new(r.blob()?, bad_meta);
                let catalog = Catalog::decode(&mut cat)?;
                cat.finish()?;
                catalog
            },
            att_blob: r.blob()?.to_vec(),
        };
        r.finish()?;
        Ok(meta)
    }
}

/// Write the checkpoint anchor.
pub fn write_anchor(store: &dyn Storage, dir: &Path, image: usize, serial: u64) -> Result<()> {
    let mut buf = Vec::with_capacity(13);
    ANCHOR_MAGIC.put(&mut buf);
    (image as u8).put(&mut buf);
    serial.put(&mut buf);
    Ok(storage::atomic_write(store, &Db::anchor_path(dir), &buf)?)
}

/// Read the checkpoint anchor: (image index, serial).
pub fn read_anchor(store: &dyn Storage, dir: &Path) -> Result<(usize, u64)> {
    let mut bytes = Vec::new();
    store.read(&Db::anchor_path(dir), &mut bytes)?;
    let mut r = Reader::new(&bytes, |msg| {
        DaliError::RecoveryFailed(format!("anchor: {msg}"))
    });
    if r.u32()? != ANCHOR_MAGIC {
        return Err(r.fail("bad magic"));
    }
    let (image, serial) = (r.u8()? as usize, r.u64()?);
    r.finish()?;
    if image > 1 {
        return Err(r.fail(format_args!("image {image}")));
    }
    Ok((image, serial))
}

/// Persist checkpoint metadata for an image.
pub fn write_meta(store: &dyn Storage, dir: &Path, image: usize, meta: &CkptMeta) -> Result<()> {
    Ok(storage::atomic_write(
        store,
        &Db::meta_path(dir, image),
        &meta.encode(),
    )?)
}

/// Load checkpoint metadata for an image.
pub fn read_meta(store: &dyn Storage, dir: &Path, image: usize) -> Result<CkptMeta> {
    let mut bytes = Vec::new();
    store.read(&Db::meta_path(dir, image), &mut bytes)?;
    CkptMeta::decode(&bytes)
}

/// Write the snapshot of `pages` — `snapshot` holds their bytes back to
/// back, in `pages` order (sorted, as the dirty set drains them) — into
/// an image file: one positioned write per maximal run of adjacent
/// pages. Returns the file, not yet synced.
fn write_pages(
    store: &dyn Storage,
    dir: &Path,
    image: usize,
    page_size: usize,
    db_bytes: usize,
    pages: &[PageId],
    snapshot: &[u8],
) -> Result<Box<dyn StorageFile>> {
    debug_assert_eq!(snapshot.len(), pages.len() * page_size);
    // A partial page set: the untouched pages are kept.
    let f = store.open(&Db::img_path(dir, image), Open::Create)?;
    f.set_len(db_bytes as u64)?;
    let mut rest = snapshot;
    for run in pages.chunk_by(|a, b| b.0 == a.0 + 1) {
        let (bytes, later) = rest.split_at(run.len() * page_size);
        f.write_at(bytes, run[0].0 as u64 * page_size as u64)?;
        rest = later;
    }
    Ok(f)
}

/// Pages drained from the dirty set for an image the anchor does not
/// name yet: dropped unpublished, they go back to the dirty set.
struct Drained<'a> {
    db: &'a Db,
    pages: Vec<PageId>,
    published: bool,
}

impl Drop for Drained<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.db.syslog.dirty().note_all(self.pages.iter().copied());
        }
    }
}

/// Run an audit sweep — of the whole database, or of exactly `regions`
/// (sorted, deduplicated: a delta certification, see [`certify`] for how
/// the list is derived and why the restriction is sound) — and record its
/// region count, bytes folded, latch brackets and wall-clock time in
/// [`EngineStats`]. The sweep runs under the protection latches,
/// concurrently with updaters (no global quiesce), striped across
/// [`DaliConfig::audit_threads`](dali_common::DaliConfig) workers.
fn sweep_audit(db: &Arc<Db>, regions: Option<&[dali_codeword::RegionId]>) -> Result<AuditReport> {
    use std::sync::atomic::Ordering::Relaxed;
    let start = std::time::Instant::now();
    let report = match regions {
        None => db.prot.audit(&db.image)?,
        Some(regions) => db.prot.audit_regions(&db.image, regions)?,
    };
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let region_size = db.prot.geometry().region_size() as u64;
    let stats = &db.stats;
    stats
        .regions_audited
        .fetch_add(report.regions_checked as u64, Relaxed);
    stats
        .bytes_folded
        .fetch_add(report.regions_checked as u64 * region_size, Relaxed);
    stats
        .audit_latch_brackets
        .fetch_add(report.latch_brackets as u64, Relaxed);
    stats.audit_ns.fetch_add(elapsed_ns, Relaxed);
    Ok(report)
}

/// Take a checkpoint (paper §2.1 + §4.2 certification). See module docs.
pub fn checkpoint(db: &Arc<Db>) -> Result<CheckpointOutcome> {
    db.check_alive()?;
    let (store, dir) = (&*db.store, &db.config.dir);
    let page_size = db.config.page_size;
    let mut state = db.ckpt_state.lock();
    let image = state.next_image;

    // ---- quiescent snapshot ----
    // Updaters wait out this section, so it allocates nothing per page:
    // the dirty pages are copied back to back into one buffer that
    // outlives the checkpoint.
    let (ck_end, att_blob, catalog, mut drained) = {
        let _q = db.quiesce.write();
        db.syslog.flush(false)?;
        let ck_end = db.syslog.current_lsn();
        let att_blob = db.att.encode_for_ckpt();
        let catalog = db.catalog.read().clone();
        let drained = Drained {
            db,
            pages: db.syslog.dirty().take(image),
            published: false,
        };
        let bytes = drained.pages.len() * page_size;
        // Keep the allocation from one checkpoint to the next, but not
        // the whole-database buffer the first one needed.
        state.snapshot.truncate(bytes);
        state.snapshot.shrink_to(2 * bytes);
        state.snapshot.resize(bytes, 0);
        for (p, buf) in drained
            .pages
            .iter()
            .zip(state.snapshot.chunks_exact_mut(page_size))
        {
            db.image.read_page(*p, buf)?;
        }
        (ck_end, att_blob, catalog, drained)
    };

    // ---- write the image ----
    storage::remove_durably(store, &Db::meta_path(dir, image))?;
    let pages_written = drained.pages.len();
    let image_file = write_pages(
        store,
        dir,
        image,
        page_size,
        db.config.db_bytes(),
        &drained.pages,
        &state.snapshot,
    )?;

    // ---- make image and log durable, and certify meanwhile ----
    // The anchor may only name this image once the image is on disk and
    // the log is durable up to `ck_end`: an image ahead of the stable log
    // would, after a power failure, let new appends reuse LSNs the image
    // already reflects. Both waits are the disk's; the certification
    // sweep is the CPU's, so they overlap — unless the store runs no
    // background threads, and then they run in that order.
    let io = || -> Result<()> {
        image_file.fsync()?;
        db.syslog.wait_durable(ck_end)
    };
    let (durable, verdict) = if store.background_threads() {
        std::thread::scope(|s| {
            let io = s.spawn(io);
            let verdict = certify(db, &mut state, &drained.pages);
            (io.join(), verdict)
        })
    } else {
        (Ok(io()), certify(db, &mut state, &drained.pages))
    };
    if let Some(refused) = verdict? {
        return Ok(refused);
    }
    durable
        .map_err(|_| DaliError::Io(std::io::Error::other("checkpoint I/O thread panicked")))??;

    // ---- publish ----
    state.serial += 1;
    let meta = CkptMeta {
        serial: state.serial,
        ck_end,
        next_txn: db.txn_counter.load(std::sync::atomic::Ordering::Relaxed),
        next_audit: db.audit_counter.load(std::sync::atomic::Ordering::Relaxed),
        audit_sn: *db.last_clean_audit.lock(),
        algebra: db.prot.kind(),
        parity_group_size: 0,
        catalog,
        att_blob,
    };
    write_meta(store, dir, image, &meta)?;
    if let Err(e) = write_anchor(store, dir, image, state.serial) {
        db.poison();
        return Err(e);
    }
    drained.published = true;
    state.next_image = 1 - image;
    {
        let _q = db.quiesce.read();
        db.syslog
            .append(&LogRecord::CkptComplete { ckpt_lsn: ck_end });
    }
    db.syslog.flush(false)?;

    // ---- bitcask-style retention: retire fully-covered segments ----
    // A sealed segment may go only when BOTH ping-pong images could
    // replay without it — `restore_prior_state` can fall back to the
    // older image — so the horizon is the minimum of the two metas'
    // `CK_end`. Before the second-ever checkpoint the other meta does
    // not exist yet and nothing is retired. The unlinks are the log
    // worker's; a failure there surfaces at the next `settle()`, durable
    // commit or checkpoint.
    if db.config.log_retire {
        if let Ok(other) = read_meta(store, dir, 1 - image) {
            db.syslog.post_retire(Lsn(ck_end.0.min(other.ck_end.0)));
        }
    }
    EngineStats::bump(&db.stats.checkpoints);
    Ok(CheckpointOutcome::Certified {
        ck_end,
        pages_written,
    })
}

/// Certify the checkpoint being taken: audit the database (full sweep or
/// dirty delta). `None` means
/// certified (or a scheme with nothing to certify); otherwise the outcome
/// [`checkpoint`] must return without toggling the anchor.
fn certify(
    db: &Arc<Db>,
    state: &mut CkptState,
    dirty_pages: &[PageId],
) -> Result<Option<CheckpointOutcome>> {
    // The paper's §4.2 certification audits every region. With the
    // `full_certify_every` cadence, intermediate checkpoints instead
    // delta-certify: they audit only the regions overlapped by the dirty
    // pages just drained (a safe superset of everything written through
    // the interface since this image's previous checkpoint — pages are
    // noted to both images). Corruption *inside* that footprint is caught exactly as a
    // full sweep would catch it; a wild write to an untouched region is
    // invisible to the maintained codewords' drift (nothing legitimate
    // changed them) and is caught by the next full sweep — at most
    // `full_certify_every - 1` checkpoints later. Because of that bound,
    // `Audit_SN` (`last_clean_audit`, the corruption-recovery horizon)
    // only advances on full sweeps, and the cadence is overridden to
    // full after recovery or any failed certification (`force_full`).
    if !db.config.scheme.maintains_codewords() {
        return Ok(None);
    }
    // A delta certification would also anchor the next restart's scan
    // past read records of pages it skipped, so the read-logging schemes
    // certify fully: their restarts must still see every carrier (§4.3).
    let every = db.config.full_certify_every;
    let full = every == 0
        || state.force_full
        || state.ckpts_since_full >= every.saturating_sub(1)
        || db.config.scheme.logs_reads();
    let audit_id = db.next_audit_id();
    let begin_lsn = {
        let _q = db.quiesce.read();
        db.syslog.append(&LogRecord::AuditBegin { audit_id })
    };
    let report = if full {
        sweep_audit(db, None)?
    } else {
        let regions = dali_wal::pages_to_regions(
            dirty_pages,
            db.config.page_size,
            db.prot.geometry().region_size(),
        );
        let skipped = db.prot.geometry().num_regions() - regions.len();
        db.stats
            .certify_regions_skipped
            .fetch_add(skipped as u64, std::sync::atomic::Ordering::Relaxed);
        sweep_audit(db, Some(&regions))?
    };
    db.stats.certify_regions_certified.fetch_add(
        report.regions_checked as u64,
        std::sync::atomic::Ordering::Relaxed,
    );
    let clean = report.clean();
    {
        let _q = db.quiesce.read();
        db.syslog.append(&LogRecord::AuditEnd { audit_id, clean });
    }
    db.syslog.flush(false)?;
    EngineStats::bump(&db.stats.audits);
    EngineStats::bump(if full {
        &db.stats.certify_full
    } else {
        &db.stats.certify_delta
    });
    if !clean {
        // Keep the previous certified checkpoint (the drained pages go
        // back to the dirty set when the caller returns), and sweep
        // everything next time — the failed certification proves the
        // footprint no longer bounds the damage.
        state.force_full = true;
        // Try to repair online before bringing the database down: the
        // ckpt_state lock is held across the repair, so no competing
        // checkpoint interleaves with the rebuild.
        if let Some(outcome) = crate::repair::auto_repair(db, &report)? {
            return Ok(Some(CheckpointOutcome::CorruptionRepaired {
                report,
                outcome,
            }));
        }
        crate::corruption::report_corruption(db, &report.corrupt_ranges())?;
        return Ok(Some(CheckpointOutcome::CorruptionDetected(report)));
    }
    if full {
        state.ckpts_since_full = 0;
        state.force_full = false;
        *db.last_clean_audit.lock() = Some(begin_lsn);
    } else {
        state.ckpts_since_full += 1;
    }
    Ok(None)
}

/// Standalone audit of the whole database, logged with AuditBegin/End
/// (paper §3.2's asynchronous audit). On failure, writes the corruption
/// marker and poisons the engine.
pub fn audit(db: &Arc<Db>) -> Result<AuditReport> {
    db.check_alive()?;
    let audit_id = db.next_audit_id();
    let begin_lsn = {
        let _q = db.quiesce.read();
        db.syslog.append(&LogRecord::AuditBegin { audit_id })
    };
    let report = sweep_audit(db, None)?;
    let clean = report.clean();
    {
        let _q = db.quiesce.read();
        db.syslog.append(&LogRecord::AuditEnd { audit_id, clean });
    }
    db.syslog.flush(false)?;
    EngineStats::bump(&db.stats.audits);
    if clean {
        *db.last_clean_audit.lock() = Some(begin_lsn);
    } else {
        // Self-healing hook: repair before bringing the database down.
        // Only a clean re-audit of the damaged regions counts as healed;
        // otherwise the detect-and-crash path runs unchanged.
        db.ckpt_state.lock().force_full = true;
        if crate::repair::auto_repair(db, &report)?.is_none() {
            crate::corruption::report_corruption(db, &report.corrupt_ranges())?;
        }
    }
    Ok(report)
}

/// Open checkpoint image file `image`, refusing one that is not exactly
/// the database's size.
fn open_image(
    store: &dyn Storage,
    dir: &Path,
    image: usize,
    db_bytes: usize,
) -> Result<Box<dyn StorageFile>> {
    let f = store.open(&Db::img_path(dir, image), Open::Read)?;
    let len = f.size()?;
    if len != db_bytes as u64 {
        return Err(DaliError::RecoveryFailed(format!(
            "checkpoint image is {len} bytes, expected {db_bytes}"
        )));
    }
    Ok(f)
}

/// Load checkpoint image `image` straight into a database image that
/// recovery has just allocated and not yet shared: one read, no staging
/// buffer.
pub fn load_image(store: &dyn Storage, dir: &Path, image: usize, into: &mut DbImage) -> Result<()> {
    let dst = into.bytes_mut();
    open_image(store, dir, image, dst.len())?.read_at(dst, 0)?;
    Ok(())
}

/// Load checkpoint image `image` into a fresh byte vector of the full
/// database size (the offline scrub, which compares it *against* the
/// live image).
pub fn load_image_bytes(
    store: &dyn Storage,
    dir: &Path,
    image: usize,
    db_bytes: usize,
) -> Result<Vec<u8>> {
    let mut bytes = vec![0u8; db_bytes];
    open_image(store, dir, image, db_bytes)?.read_at(&mut bytes, 0)?;
    Ok(bytes)
}

/// Initialize checkpoint bookkeeping for a fresh database.
pub fn initial_state() -> CkptState {
    CkptState {
        next_image: 0,
        serial: 0,
        ckpts_since_full: 0,
        // A fresh database has never been fully certified: the first
        // checkpoint sweeps everything before any delta cadence starts.
        force_full: true,
        snapshot: Vec::new(),
    }
}

/// Scrub the *anchored* checkpoint image file against the live codeword
/// table: load the certified image from disk, fold each protection region
/// with the table's algebra, and report every region whose on-disk fold
/// disagrees with the maintained codeword.
///
/// The checkpoint holds the quiesce lock only across its snapshot, so no
/// whole-image codeword is persisted with the image; this scrub is the
/// offline complement — it detects bit rot (or fault injection) that hit
/// the image *file* after certification. The caller must ensure no
/// updates run during the scrub (the codewords must describe the bytes
/// the image was written from); tests and offline verification tools
/// satisfy this trivially.
pub fn scrub_anchored_image(db: &Arc<Db>) -> Result<AuditReport> {
    let (store, dir) = (&*db.store, &db.config.dir);
    let (image_idx, _serial) = read_anchor(store, dir)?;
    let bytes = load_image_bytes(store, dir, image_idx, db.config.db_bytes())?;
    let geom = db.prot.geometry();
    let kind = db.prot.kind();
    let mut report = AuditReport::default();
    for r in 0..geom.num_regions() {
        let base = geom.region_base(r);
        let len = geom.region_size();
        let actual = dali_codeword::algebra::fold(kind, &bytes[base.0..base.0 + len]);
        let expected = db.prot.table().get(r);
        if actual != expected {
            report.corrupt.push(dali_codeword::CorruptRegion {
                region: r,
                addr: base,
                len,
                expected,
                actual,
            });
        }
        report.regions_checked += 1;
    }
    Ok(report)
}

/// Read selected pages straight from a checkpoint image file (cache
/// recovery repairs regions from the certified checkpoint).
pub fn read_ckpt_pages(
    store: &dyn Storage,
    dir: &Path,
    image: usize,
    page_size: usize,
    pages: &[PageId],
) -> Result<Vec<(PageId, Vec<u8>)>> {
    let f = store.open(&Db::img_path(dir, image), Open::Read)?;
    let mut out = Vec::with_capacity(pages.len());
    for &p in pages {
        let mut buf = vec![0u8; page_size];
        f.read_at(&mut buf, p.0 as u64 * page_size as u64)?;
        out.push((p, buf));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::att::Att;
    use dali_common::OsStorage;
    use dali_testutil::TempDir;
    use std::fs::OpenOptions;
    use std::io::{Seek, SeekFrom, Write};

    #[test]
    fn anchor_round_trip() {
        let scratch = TempDir::new("ckpt-anchor");
        let d = scratch.path();
        write_anchor(&OsStorage, d, 1, 42).unwrap();
        assert_eq!(read_anchor(&OsStorage, d).unwrap(), (1, 42));
        write_anchor(&OsStorage, d, 0, 43).unwrap();
        assert_eq!(read_anchor(&OsStorage, d).unwrap(), (0, 43));
    }

    #[test]
    fn meta_round_trip() {
        let scratch = TempDir::new("ckpt-meta");
        let d = scratch.path();
        let mut catalog = Catalog::new();
        let m = catalog.plan_table("t", 8, 100, 4096, 1 << 20).unwrap();
        catalog.register(m).unwrap();
        let att = Att::new();
        att.insert(dali_common::TxnId(7));
        let meta = CkptMeta {
            serial: 3,
            ck_end: Lsn(1000),
            next_txn: 8,
            next_audit: 2,
            audit_sn: Some(Lsn(900)),
            algebra: CodewordAlgebraKind::XorFold,
            parity_group_size: 8,
            catalog,
            att_blob: att.encode_for_ckpt(),
        };
        write_meta(&OsStorage, d, 0, &meta).unwrap();
        let back = read_meta(&OsStorage, d, 0).unwrap();
        assert_eq!(back.serial, 3);
        assert_eq!(back.ck_end, Lsn(1000));
        assert_eq!(back.audit_sn, Some(Lsn(900)));
        assert_eq!(back.catalog.len(), 1);
        let states =
            Att::decode_for_recovery(&back.att_blob, CodewordAlgebraKind::XorFold).unwrap();
        assert_eq!(states.len(), 1);
    }

    #[test]
    fn meta_none_audit_sn() {
        let scratch = TempDir::new("ckpt-meta2");
        let d = scratch.path();
        let meta = CkptMeta {
            serial: 1,
            ck_end: Lsn(0),
            next_txn: 0,
            next_audit: 0,
            audit_sn: None,
            algebra: CodewordAlgebraKind::Residue,
            parity_group_size: 0,
            catalog: Catalog::new(),
            att_blob: Att::new().encode_for_ckpt(),
        };
        write_meta(&OsStorage, d, 1, &meta).unwrap();
        assert_eq!(read_meta(&OsStorage, d, 1).unwrap().audit_sn, None);
    }

    #[test]
    fn meta_corruption_detected() {
        let scratch = TempDir::new("ckpt-meta3");
        let d = scratch.path();
        let meta = CkptMeta {
            serial: 1,
            ck_end: Lsn(0),
            next_txn: 0,
            next_audit: 0,
            audit_sn: None,
            algebra: CodewordAlgebraKind::XorFold,
            parity_group_size: 0,
            catalog: Catalog::new(),
            att_blob: vec![0, 0, 0, 0],
        };
        write_meta(&OsStorage, d, 0, &meta).unwrap();
        let p = Db::meta_path(d, 0);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[6] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        assert!(read_meta(&OsStorage, d, 0).is_err());
    }

    /// The snapshot `write_pages` takes: the pages' bytes back to back.
    fn snapshot_of(pages: &[(PageId, Vec<u8>)]) -> (Vec<PageId>, Vec<u8>) {
        (
            pages.iter().map(|(p, _)| *p).collect(),
            pages.iter().flat_map(|(_, d)| d.iter().copied()).collect(),
        )
    }

    fn write_and_sync(
        d: &Path,
        image: usize,
        ps: usize,
        db_bytes: usize,
        pages: &[(PageId, Vec<u8>)],
    ) {
        let (ids, snapshot) = snapshot_of(pages);
        write_pages(&OsStorage, d, image, ps, db_bytes, &ids, &snapshot)
            .unwrap()
            .fsync()
            .unwrap();
    }

    #[test]
    fn pages_round_trip() {
        let scratch = TempDir::new("ckpt-pages");
        let d = scratch.path();
        let ps = 4096;
        let pages = vec![(PageId(0), vec![1u8; ps]), (PageId(3), vec![3u8; ps])];
        write_and_sync(d, 0, ps, ps * 8, &pages);
        let bytes = load_image_bytes(&OsStorage, d, 0, ps * 8).unwrap();
        assert!(bytes[..ps].iter().all(|&b| b == 1));
        assert!(bytes[ps..2 * ps].iter().all(|&b| b == 0));
        assert!(bytes[3 * ps..4 * ps].iter().all(|&b| b == 3));

        let read = read_ckpt_pages(&OsStorage, d, 0, ps, &[PageId(3), PageId(1)]).unwrap();
        assert_eq!(read[0].1, vec![3u8; ps]);
        assert_eq!(read[1].1, vec![0u8; ps]);
    }

    #[test]
    fn write_pages_updates_in_place() {
        let scratch = TempDir::new("ckpt-inplace");
        let d = scratch.path();
        let ps = 4096;
        write_and_sync(d, 0, ps, ps * 4, &[(PageId(1), vec![7u8; ps])]);
        write_and_sync(d, 0, ps, ps * 4, &[(PageId(2), vec![9u8; ps])]);
        let bytes = load_image_bytes(&OsStorage, d, 0, ps * 4).unwrap();
        assert!(
            bytes[ps..2 * ps].iter().all(|&b| b == 7),
            "page 1 preserved"
        );
        assert!(bytes[2 * ps..3 * ps].iter().all(|&b| b == 9));
    }

    /// The writer `write_pages` replaced: one seek and one write per
    /// page. Kept as the reference the coalescing writer must equal.
    fn write_per_page(path: &Path, ps: usize, db_bytes: usize, pages: &[(PageId, Vec<u8>)]) {
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)
            .unwrap();
        f.set_len(db_bytes as u64).unwrap();
        for (page, data) in pages {
            f.seek(SeekFrom::Start(page.0 as u64 * ps as u64)).unwrap();
            f.write_all(data).unwrap();
        }
    }

    #[test]
    fn coalesced_runs_write_the_bytes_the_per_page_writer_did() {
        let ps = 512;
        let image_pages = 16u32;
        let db_bytes = ps * image_pages as usize;
        // Distinct bytes per page and per round, so a run written at the
        // wrong offset or cut short cannot go unnoticed.
        let page = |p: u32, round: u8| (PageId(p), vec![p as u8 * 8 + round + 1; ps]);
        let rounds: [&[u32]; 5] = [
            &[0, 1, 2, 5, 9, 10], // runs with gaps between them
            &[7],                 // a single page
            &[14, 15],            // a run ending on the image's last page
            &[15],                // the last page alone
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15], // everything
        ];
        let scratch = TempDir::new("ckpt-runs");
        let d = scratch.path();
        let reference = d.join("reference.img");
        for (round, ids) in rounds.iter().enumerate() {
            let pages: Vec<_> = ids.iter().map(|&p| page(p, round as u8)).collect();
            write_and_sync(d, 0, ps, db_bytes, &pages);
            write_per_page(&reference, ps, db_bytes, &pages);
            assert_eq!(
                load_image_bytes(&OsStorage, d, 0, db_bytes).unwrap(),
                std::fs::read(&reference).unwrap(),
                "after round {round}"
            );
        }
    }

    /// The anchor never names a `ck_end` the disk has not seen: with
    /// commits that only write (`sync_commit = false`), the log is still
    /// durable up to every certified checkpoint's `ck_end` when
    /// `checkpoint()` returns.
    #[test]
    fn log_is_durable_to_ck_end_before_the_anchor_moves() {
        let scratch = TempDir::new("ckpt-durable");
        let mut config = dali_common::DaliConfig::small(scratch.path())
            .with_scheme(dali_common::ProtectionScheme::DataCodeword)
            .with_log_segment_bytes(2048);
        config.sync_commit = false;
        let (db, _) = crate::DaliEngine::create(config).unwrap();
        let t = db.create_table("t", 64, 32).unwrap();
        let setup = db.begin().unwrap();
        let recs: Vec<_> = (0..16u8)
            .map(|i| setup.insert(t, &[i; 64]).unwrap())
            .collect();
        setup.commit().unwrap();
        for round in 0..6u8 {
            let txn = db.begin().unwrap();
            for &rec in &recs {
                txn.update(rec, &[round; 64]).unwrap();
            }
            txn.commit().unwrap();
            let CheckpointOutcome::Certified { ck_end, .. } = db.checkpoint().unwrap() else {
                panic!("checkpoint {round} was not certified");
            };
            let durable = db.db().syslog.durable_lsn();
            assert!(durable >= ck_end, "round {round}: {durable} < {ck_end}");
            let (image, _) = read_anchor(&OsStorage, scratch.path()).unwrap();
            assert_eq!(
                read_meta(&OsStorage, scratch.path(), image).unwrap().ck_end,
                ck_end
            );
        }
        assert!(
            db.log_stats().fsyncs > 0 && db.log_stats().durable_commits == 0,
            "the waits are the checkpoints', not commits': {:?}",
            db.log_stats()
        );
    }
}
