//! Restart recovery (paper §2.1) and delete-transaction corruption
//! recovery (paper §4.3).
//!
//! Restart recovery loads the certified checkpoint image, replays the
//! system log from `CK_end` (repeating history physically), and rolls
//! back incomplete transactions level by level using logical undo from the
//! checkpointed ATT and operation commit records.
//!
//! When a corruption marker is present (a failed audit brought the system
//! down) — or unconditionally under the CW ReadLog scheme — the redo scan
//! runs in *corruption mode*, maintaining the `CorruptTransTable` and
//! `CorruptDataTable` of §4.3:
//!
//! * a read or write record touching corrupt data puts its transaction in
//!   the CorruptTransTable (with region codewords in read records, the
//!   test is instead a codeword comparison against the recovering image —
//!   the view-consistent variant);
//! * writes of corrupt transactions are suppressed and their target
//!   ranges become corrupt;
//! * a begin-operation record of a clean transaction that conflicts with
//!   an operation in a corrupt transaction's undo log quarantines that
//!   transaction too (so the corrupt transaction can still be rolled
//!   back);
//! * logical records of corrupt transactions are ignored, leaving them
//!   incomplete so the undo phase rolls back their pre-corruption prefix;
//! * when the scan passes `Audit_SN` (the last clean audit), the failing
//!   audit's regions join the CorruptDataTable.
//!
//! Recovery ends with the mandatory certified checkpoint; only then is
//! the corruption marker cleared, so a crash during recovery simply
//! repeats it.

use crate::att::{Att, TxnState};
use crate::catalog::{Catalog, HeapMeta};
use crate::ckpt;
use crate::corruption::{self, CorruptionMarker, RangeSet};
use crate::db::{CkptState, Db, EngineStats};
use crate::heap::HeapRuntime;
use crate::lock::LockManager;
use crate::txn::rollback_direct;
use dali_codeword::CodewordProtection;
use dali_common::align::split_by_chunks;
use dali_common::{
    CodewordAlgebraKind, CrashPoints, DaliConfig, DaliError, DbAddr, Lsn, OpSeq, Result, TxnId,
};
use dali_mem::{DbImage, PageProtector};
use dali_wal::record::{CodewordsRef, LogRecord, LogRecordRef};
use dali_wal::{LogReader, SystemLog, UndoKind};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One buffered physical write. Its bytes are borrowed from the log
/// segment being scanned; only a write that must outlive that segment
/// (its operation's batch straddles a segment roll) is ever copied.
type Write<'s> = (DbAddr, Cow<'s, [u8]>);

/// Physical redo buffered per (transaction, operation) until the
/// operation's commit record arrives.
///
/// An operation's records reach the log as one contiguous batch, so the
/// entry a record belongs to is almost always the newest: a vector
/// searched from the back finds it without hashing every record. What
/// can sit in front of it is small — the compensation writes of
/// transactions in mid-abort (until their TxnAbort) and the partial batch
/// of one torn flush; every recovery ends in a checkpoint, so a scan
/// never crosses two of those.
struct PendingWrites<'s> {
    ops: Vec<((TxnId, OpSeq), Vec<Write<'s>>)>,
    /// The emptied buffer of the last released operation, for the next.
    spare: Vec<Write<'s>>,
}

impl<'s> PendingWrites<'s> {
    fn push(&mut self, op: (TxnId, OpSeq), write: Write<'s>) {
        match self.ops.iter_mut().rev().find(|(k, _)| *k == op) {
            Some((_, writes)) => writes.push(write),
            None => {
                let mut writes = std::mem::take(&mut self.spare);
                writes.push(write);
                self.ops.push((op, writes));
            }
        }
    }

    /// Remove and return the writes buffered for `op`, oldest first.
    fn take(&mut self, op: (TxnId, OpSeq)) -> Option<Vec<Write<'s>>> {
        let at = self.ops.iter().rposition(|(k, _)| *k == op)?;
        Some(self.ops.remove(at).1)
    }

    /// Remove and return everything buffered for `txn`, in operation
    /// order.
    fn take_txn(&mut self, txn: TxnId) -> Vec<Vec<Write<'s>>> {
        let mut taken = Vec::new();
        self.ops.retain_mut(|((t, op), writes)| {
            if *t == txn {
                taken.push((*op, std::mem::take(writes)));
            }
            *t != txn
        });
        taken.sort_by_key(|(op, _)| op.0);
        taken.into_iter().map(|(_, writes)| writes).collect()
    }

    /// What is still buffered when the segment ends, copied out of its
    /// buffer: operations whose batch straddles the segment roll.
    fn into_carried(self) -> Vec<((TxnId, OpSeq), Vec<Write<'static>>)> {
        let own = |(addr, data): Write<'s>| (addr, Cow::Owned(data.into_owned()));
        self.ops
            .into_iter()
            .map(|(op, writes)| (op, writes.into_iter().map(own).collect()))
            .collect()
    }
}

/// One segment's released physical redo, partitioned by `page % threads`
/// for the parallel apply that ends the segment.
///
/// The serial scan pushes writes here in the order they are released
/// (operation-commit order, which is history order). A write spanning
/// several pages is split at page boundaries so every buffered chunk
/// lands in the bucket that owns its page. Two facts make the parallel
/// apply byte-identical to a serial replay:
///
/// * all writes to one page sit in one bucket, in release order, so
///   same-page history replays in order (and segments apply one after
///   another, so that order holds across segments too);
/// * different buckets own disjoint page sets, so their writes touch
///   disjoint bytes and commute.
///
/// Corruption-mode recovery never uses this path: its scan reads the
/// image mid-stream (`codewords_match`), so redo must stay inline.
struct RedoBuckets<'s> {
    page_size: usize,
    buckets: Vec<Vec<Write<'s>>>,
}

impl<'s> RedoBuckets<'s> {
    fn new(threads: usize, page_size: usize) -> RedoBuckets<'s> {
        RedoBuckets {
            page_size,
            buckets: vec![Vec::new(); threads.max(1)],
        }
    }

    fn push(&mut self, addr: DbAddr, data: Cow<'s, [u8]>) {
        let n = self.buckets.len();
        let first = addr.0 / self.page_size;
        let last = if data.is_empty() {
            first
        } else {
            (addr.0 + data.len() - 1) / self.page_size
        };
        if n == 1 || first == last {
            self.buckets[first % n].push((addr, data));
            return;
        }
        for (page, start, len) in split_by_chunks(addr.0, data.len(), self.page_size) {
            let off = start - addr.0;
            let chunk = match &data {
                Cow::Borrowed(d) => Cow::Borrowed(&d[off..off + len]),
                Cow::Owned(d) => Cow::Owned(d[off..off + len].to_vec()),
            };
            self.buckets[page % n].push((DbAddr(start), chunk));
        }
    }

    /// Apply every bucket to `image` on a scoped worker pool. Returns the
    /// worker count actually used and the wall-clock nanoseconds spent.
    fn apply(self, image: &DbImage) -> Result<(usize, u64)> {
        let start = std::time::Instant::now();
        let live: Vec<&Vec<Write<'s>>> = self.buckets.iter().filter(|b| !b.is_empty()).collect();
        if live.len() <= 1 {
            for (addr, data) in live.into_iter().flatten() {
                image.write(*addr, data)?;
            }
            return Ok((1, start.elapsed().as_nanos() as u64));
        }
        let used = live.len();
        std::thread::scope(|s| -> Result<()> {
            let handles: Vec<_> = live
                .into_iter()
                .map(|bucket| {
                    s.spawn(move || -> Result<()> {
                        for (addr, data) in bucket.iter() {
                            image.write(*addr, data)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            for h in handles {
                h.join()
                    .map_err(|_| DaliError::RecoveryFailed("redo worker panicked".into()))??;
            }
            Ok(())
        })?;
        Ok((used, start.elapsed().as_nanos() as u64))
    }
}

/// How the database was brought up.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Fresh database, nothing to recover.
    Fresh,
    /// Normal restart recovery (redo + undo).
    Normal,
    /// A corruption marker was present but the scheme keeps no read log:
    /// rebuild from the certified checkpoint and clean redo (the
    /// cache-recovery model — direct corruption vanishes, indirect
    /// corruption is assumed absent).
    CacheRecovery,
    /// Delete-transaction corruption recovery ran (§4.3).
    DeleteTxn,
    /// Prior-state recovery (§4.1's second model): the database was
    /// returned to a transaction-consistent state at a chosen log
    /// position, discarding everything after it.
    PriorState,
}

/// What recovery did.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    pub mode: RecoveryMode,
    /// Transactions deleted from history (the CorruptTransTable). Returned
    /// to the user for manual compensation (§4.1).
    pub deleted_txns: Vec<TxnId>,
    /// Clean transactions that were simply incomplete at the crash and
    /// rolled back.
    pub rolled_back_txns: Vec<TxnId>,
    /// Final contents of the CorruptDataTable.
    pub corrupt_ranges: Vec<(DbAddr, usize)>,
    /// Log records processed by the redo scan.
    pub records_scanned: usize,
}

impl RecoveryOutcome {
    fn fresh() -> RecoveryOutcome {
        RecoveryOutcome {
            mode: RecoveryMode::Fresh,
            deleted_txns: Vec::new(),
            rolled_back_txns: Vec::new(),
            corrupt_ranges: Vec::new(),
            records_scanned: 0,
        }
    }
}

/// Assemble a `Db` from its parts (shared by create and restart).
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_db(
    config: DaliConfig,
    image: Arc<DbImage>,
    syslog: SystemLog,
    catalog: Catalog,
    ckpt_state: CkptState,
    next_txn: u64,
    next_audit: u64,
    last_clean_audit: Option<Lsn>,
) -> Result<Arc<Db>> {
    let mut prot = CodewordProtection::with_config(
        &image,
        config.scheme,
        config.region_size,
        config.regions_per_latch,
        dali_codeword::DeferredConfig {
            shards: config.resolved_deferred_shards(),
            watermark: config.deferred_shard_watermark,
        },
        config.resolved_audit_threads(),
        config.codeword_algebra,
    )?;
    prot.enable_parity(
        &image,
        config.resolved_parity_group_size(),
        config.resolved_deferred_shards(),
        config.deferred_shard_watermark,
    )?;
    let protector = PageProtector::new(Arc::clone(&image), true);
    let heaps: Vec<Arc<HeapRuntime>> = catalog
        .iter()
        .map(|m| Arc::new(HeapRuntime::new(m.clone())))
        .collect();
    let locks = LockManager::with_config(
        config.lock_timeout,
        config.resolved_lock_shards(),
        config.deadlock_detect_interval,
    );
    let db = Arc::new(Db {
        config,
        image,
        prot,
        protector,
        syslog,
        att: Att::new(),
        locks,
        catalog: RwLock::new(catalog),
        heaps: RwLock::new(heaps),
        quiesce: RwLock::new(()),
        ckpt_state: Mutex::new(ckpt_state),
        txn_counter: AtomicU64::new(next_txn),
        audit_counter: AtomicU64::new(next_audit),
        last_clean_audit: Mutex::new(last_clean_audit),
        crashed: AtomicBool::new(false),
        stats: EngineStats::default(),
        crash_points: CrashPoints::default(),
    });
    for h in db.heaps.read().iter() {
        h.rebuild_from_image(&db.image)?;
    }
    db.refresh_log_gauges()?;
    crate::maintenance::spawn_drainer(&db);
    Ok(db)
}

/// Create a fresh database in `config.dir`.
pub fn create(config: DaliConfig) -> Result<(Arc<Db>, RecoveryOutcome)> {
    config.validate().map_err(DaliError::InvalidArg)?;
    std::fs::create_dir_all(&config.dir)?;
    let image = Arc::new(DbImage::new(config.db_pages, config.page_size)?);
    let syslog = SystemLog::create_with(
        Db::log_path(&config.dir),
        config.page_size,
        config.codeword_algebra,
        config.log_segment_bytes,
    )?;
    // The whole (zeroed) image is dirty with respect to both checkpoint
    // images.
    syslog.dirty().note_range(config.db_pages);
    let db = build_db(
        config,
        image,
        syslog,
        Catalog::new(),
        ckpt::initial_state(),
        0,
        0,
        None,
    )?;
    // Initial certified checkpoint so a crash right after create recovers.
    ckpt::checkpoint(&db)?;
    if db.config.scheme.uses_mprotect() {
        db.protector.enable()?;
    }
    Ok((db, RecoveryOutcome::fresh()))
}

/// The CorruptTransTable and CorruptDataTable of a corruption-mode redo
/// scan (§4.3), and the rules that grow them.
struct Taint<'m> {
    /// Read records carry region codewords (CW ReadLog): a read is
    /// judged by comparing them against the recovering image instead of
    /// by overlap with the CorruptDataTable.
    use_codewords: bool,
    ctt: HashSet<TxnId>,
    cdt: RangeSet,
    /// Byte ranges targeted by operations in corrupt transactions' undo
    /// logs: their rollback will change these bytes, so any *access* to
    /// them after the owning transaction was tainted would observe values
    /// the delete history does not contain. The paper quarantines
    /// conflicting begin-operation records (§4.3); tracking the ranges
    /// also catches plain reads and physical writes, which our engine does
    /// not wrap in operations.
    undo_ranges: RangeSet,
    /// The failing audit's range list, until it has entered the CDT: at
    /// `Audit_SN` if that is inside the scan, otherwise right at the
    /// start.
    marker_ranges: Option<&'m CorruptionMarker>,
}

impl<'m> Taint<'m> {
    fn new(
        use_codewords: bool,
        marker: Option<&'m CorruptionMarker>,
        scan_start: Lsn,
    ) -> Taint<'m> {
        let mut t = Taint {
            use_codewords,
            ctt: HashSet::new(),
            cdt: RangeSet::new(),
            undo_ranges: RangeSet::new(),
            marker_ranges: marker.filter(|_| !use_codewords),
        };
        if t.marker_ranges
            .is_some_and(|m| m.audit_sn.is_none_or(|sn| sn <= scan_start))
        {
            t.seed_marker_ranges();
        }
        t
    }

    fn seed_marker_ranges(&mut self) {
        if let Some(m) = self.marker_ranges.take() {
            for &(a, l) in &m.ranges {
                self.cdt.insert(a, l);
            }
        }
    }

    /// Taint a transaction: freeze its undo log (subsequent logical
    /// records are ignored) and protect its undo targets from later
    /// interference.
    fn taint(&mut self, txn: TxnId, att: &HashMap<TxnId, TxnState>, catalog: &Catalog) {
        if !self.ctt.insert(txn) {
            return;
        }
        let Some(st) = att.get(&txn) else { return };
        for entry in st.undo.iter() {
            match &entry.kind {
                UndoKind::Logical(u) => {
                    let target = u.target();
                    if let Ok(meta) = catalog.get(target.table) {
                        self.undo_ranges
                            .insert(meta.slot_addr(target.slot), meta.rec_size);
                    }
                }
                // Physical undo (an operation in flight at the
                // checkpoint) restores these exact bytes.
                UndoKind::Physical { addr, before, .. } => {
                    self.undo_ranges.insert(*addr, before.len());
                }
            }
        }
    }
}

/// An operation committed: send its buffered writes to this segment's
/// buckets, or — without buckets (corruption mode) — straight to `image`.
fn release<'s>(
    buckets: &mut Option<RedoBuckets<'s>>,
    image: &DbImage,
    writes: &mut Vec<Write<'s>>,
) -> Result<()> {
    for (addr, data) in writes.drain(..) {
        match buckets {
            Some(b) => b.push(addr, data),
            None => image.write(addr, &data)?,
        }
    }
    Ok(())
}

/// What the redo pass leaves for the rest of recovery.
struct Redone {
    /// The reconstructed ATT: every transaction still incomplete at the
    /// end of the scan, with the undo log its rollback needs.
    att: HashMap<TxnId, TxnState>,
    catalog: Catalog,
    /// Log records the scan processed.
    records_scanned: usize,
    next_txn: u64,
    next_audit: u64,
    redo_threads_used: usize,
    redo_parallel_ns: u64,
}

/// The redo pass of every recovery mode: stream the stable log from the
/// checkpoint's `CK_end` (stopping before `upto`, if given), rebuild the
/// ATT and catalog, and repeat history on `image`.
///
/// The pipeline is reader → classify → per-segment apply. The reader
/// ([`LogReader`]) holds one segment in memory and checks each frame as
/// it is first walked over; classification works on records *borrowed*
/// from it, so a physical write is a `(DbAddr, &[u8])` into the segment
/// buffer until it lands in the image.
/// What outlives the segment is copied exactly once: operation-commit
/// undo images (a loser's undo log is needed after the whole scan) and
/// the writes of an operation whose batch straddles a segment roll.
///
/// Physical redo is buffered per operation and released when the
/// operation's commit record arrives. Operation commit migrates its
/// records to the system log as one batch, so in an intact log every
/// physical record is followed by its OpCommit; the exception is a *torn
/// final flush* (or a prior-state cut), whose trailing partial batch must
/// be discarded — applying it would write bytes that no undo information
/// covers. (Compensation records of an abort are terminated by the
/// TxnAbort record of the same batch instead.)
///
/// Released writes are bucketed by page and applied on the redo pool when
/// their segment ends, before its buffer is dropped. With `taint` (the
/// §4.3 corruption-mode scan) they are applied inline and serially
/// instead, because that scan reads the image mid-stream.
fn redo_pass(
    config: &DaliConfig,
    meta: &ckpt::CkptMeta,
    image: &DbImage,
    upto: Option<Lsn>,
    mut taint: Option<&mut Taint<'_>>,
) -> Result<Redone> {
    let mut catalog = meta.catalog.clone();
    let mut att: HashMap<TxnId, TxnState> = Att::decode_for_recovery(&meta.att_blob)?
        .into_iter()
        .map(|s| (s.id, s))
        .collect();
    let redo_threads = config.resolved_redo_threads();
    let mut out_threads_used = 1;
    let mut out_parallel_ns = 0u64;
    let mut records_scanned = 0usize;
    let mut max_txn_seen = 0u64;
    let mut max_audit_seen = 0u64;
    // The transaction last seen to have an ATT entry: consecutive records
    // of one transaction need not look it up again to know it is there.
    let mut in_att: Option<TxnId> = None;
    // Writes of operations still uncommitted when their segment ended.
    let mut carried = Vec::new();

    // A roll the crash interrupted may have left its successor pending.
    let log_dir = Db::log_path(&config.dir);
    dali_wal::segment::adopt_pending(&log_dir, config.codeword_algebra)?;
    let reader = LogReader::open(log_dir, meta.ck_end, config.codeword_algebra)?;
    reader.for_each_segment(|seg| {
        let mut cut = false;
        let mut pending = PendingWrites {
            ops: std::mem::take(&mut carried),
            spare: Vec::new(),
        };
        let mut buckets = taint
            .is_none()
            .then(|| RedoBuckets::new(redo_threads, config.page_size));
        for (lsn, rec) in seg.records() {
            if upto.is_some_and(|upto| lsn >= upto) {
                cut = true;
                break;
            }
            records_scanned += 1;
            if let Some(t) = rec.txn() {
                max_txn_seen = max_txn_seen.max(t.0 + 1);
            }
            match rec {
                LogRecordRef::TxnBegin { txn } => {
                    att.entry(txn)
                        .or_insert_with(|| TxnState::new_for_recovery(txn));
                    in_att = Some(txn);
                }
                LogRecordRef::OpBegin { txn, rec, .. } => {
                    if in_att != Some(txn) {
                        att.entry(txn)
                            .or_insert_with(|| TxnState::new_for_recovery(txn));
                        in_att = Some(txn);
                    }
                    if let Some(t) = taint.as_mut().filter(|t| !t.ctt.contains(&txn)) {
                        // §4.3: quarantine transactions whose new
                        // operation conflicts with an operation in a
                        // corrupt transaction's undo log.
                        let conflicts = t.ctt.iter().any(|ct| {
                            att.get(ct)
                                .is_some_and(|s| s.undo.logical_targets().any(|t| t == rec))
                        });
                        if conflicts {
                            t.taint(txn, &att, &catalog);
                        }
                    }
                }
                LogRecordRef::PhysicalRedo {
                    txn,
                    op,
                    addr,
                    data,
                } => {
                    if let Some(t) = taint.as_mut() {
                        if t.ctt.contains(&txn) {
                            // Suppress the write; what it would have
                            // written is now (conservatively) corrupt.
                            t.cdt.insert(addr, data.len());
                            continue;
                        }
                        if (!t.use_codewords && t.cdt.overlaps(addr, data.len()))
                            || t.undo_ranges.overlaps(addr, data.len())
                        {
                            // Write record of a transaction touching
                            // corrupt data (or data a corrupt
                            // transaction's rollback will restore): the
                            // transaction is corrupt and the write is
                            // suppressed.
                            t.taint(txn, &att, &catalog);
                            t.cdt.insert(addr, data.len());
                            continue;
                        }
                    }
                    pending.push((txn, op), (addr, Cow::Borrowed(data)));
                }
                LogRecordRef::ReadLog {
                    txn,
                    addr,
                    len,
                    codewords,
                } => {
                    let len = len as usize;
                    if let Some(t) = taint.as_mut().filter(|t| !t.ctt.contains(&txn)) {
                        let tainted = if !codewords.is_empty() {
                            !codewords_match(image, config, addr, len, codewords)?
                        } else {
                            t.cdt.overlaps(addr, len)
                        };
                        // A read of data that a corrupt transaction's
                        // rollback will restore observes a value absent
                        // from the delete history — the reader must be
                        // deleted too, even under the codeword variant
                        // (the recovering image at this scan position
                        // still matches what the reader saw; the
                        // divergence only appears at the undo phase).
                        if tainted || t.undo_ranges.overlaps(addr, len) {
                            t.taint(txn, &att, &catalog);
                        }
                    }
                }
                LogRecordRef::OpCommit { txn, op, undo } => {
                    if taint.as_ref().is_some_and(|t| t.ctt.contains(&txn)) {
                        pending.take((txn, op));
                        continue; // logical records of corrupt txns are ignored
                    }
                    // The operation committed: its buffered physical
                    // writes are covered by the logical undo below.
                    if let Some(mut writes) = pending.take((txn, op)) {
                        release(&mut buckets, image, &mut writes)?;
                        pending.spare = writes;
                    }
                    let st = att
                        .entry(txn)
                        .or_insert_with(|| TxnState::new_for_recovery(txn));
                    st.undo.commit_op(op, undo.to_owned());
                    st.next_op = st.next_op.max(op.0 + 1);
                    in_att = Some(txn);
                }
                LogRecordRef::TxnCommit { txn } | LogRecordRef::TxnAbort { txn } => {
                    let ops = pending.take_txn(txn);
                    if taint.as_ref().is_some_and(|t| t.ctt.contains(&txn)) {
                        continue; // stays incomplete; undone in the undo phase
                    }
                    // An abort's compensation records are terminated by
                    // the TxnAbort record of the same batch: apply them
                    // now (in op, then insertion order — compensations
                    // of one rollback share an op only with themselves).
                    for mut writes in ops {
                        release(&mut buckets, image, &mut writes)?;
                    }
                    att.remove(&txn);
                    in_att = in_att.filter(|t| *t != txn);
                }
                LogRecordRef::AuditBegin { audit_id } => {
                    max_audit_seen = max_audit_seen.max(audit_id + 1);
                    if let Some(t) = taint.as_mut() {
                        if t.marker_ranges.is_some_and(|m| m.audit_sn == Some(lsn)) {
                            t.seed_marker_ranges();
                        }
                    }
                }
                LogRecordRef::AuditEnd { .. } | LogRecordRef::CkptComplete { .. } => {}
                LogRecordRef::CreateTable {
                    table,
                    name,
                    rec_size,
                    capacity,
                    bitmap_base,
                    data_base,
                } => {
                    catalog.register(replayed_meta(
                        table,
                        name.to_string(),
                        rec_size,
                        capacity,
                        bitmap_base,
                        data_base,
                        config.page_size,
                    )?)?;
                }
            }
        }

        // ---- end of segment: apply what it released, keep what it owes ----
        if let Some(buckets) = buckets {
            let (used, ns) = buckets.apply(image)?;
            out_threads_used = out_threads_used.max(used);
            out_parallel_ns += ns;
        }
        if cut {
            return Ok(ControlFlow::Break(()));
        }
        carried = pending.into_carried();
        Ok(ControlFlow::Continue(()))
    })?;
    // If Audit_SN was never passed (e.g. its record sat in a lost tail),
    // seed the ranges anyway: better to over-taint than to miss.
    if let Some(t) = taint {
        t.seed_marker_ranges();
    }

    Ok(Redone {
        att,
        catalog,
        records_scanned,
        next_txn: meta.next_txn.max(max_txn_seen),
        next_audit: meta.next_audit.max(max_audit_seen),
        redo_threads_used: out_threads_used,
        redo_parallel_ns: out_parallel_ns,
    })
}

/// Allocate the database image and load certified checkpoint image
/// `image_idx` straight into it.
fn load_checkpoint(config: &DaliConfig, image_idx: usize) -> Result<Arc<DbImage>> {
    let mut image = DbImage::new(config.db_pages, config.page_size)?;
    ckpt::load_image(&config.dir, image_idx, &mut image)?;
    Ok(Arc::new(image))
}

/// Reopen the log for append and assemble the engine around the redone
/// image (heaps are needed for logical undo). Returns the reconstructed
/// ATT for the undo phase.
fn build_recovered(
    config: DaliConfig,
    image: Arc<DbImage>,
    image_idx: usize,
    serial: u64,
    redone: Redone,
) -> Result<(Arc<Db>, HashMap<TxnId, TxnState>)> {
    let syslog = SystemLog::open_with(
        Db::log_path(&config.dir),
        config.page_size,
        config.codeword_algebra,
        config.log_segment_bytes,
    )?;
    let db = build_db(
        config,
        image,
        syslog,
        redone.catalog,
        CkptState {
            next_image: 1 - image_idx,
            serial,
            ckpts_since_full: 0,
            // The dirty-page footprint describes interface writes, not
            // what the crash (or the repair we just did) touched: the
            // first post-recovery certification must sweep everything.
            force_full: true,
            snapshot: Vec::new(),
        },
        redone.next_txn,
        redone.next_audit,
        None,
    )?;
    db.stats
        .redo_threads_used
        .store(redone.redo_threads_used as u64, Ordering::Relaxed);
    db.stats
        .redo_parallel_ns
        .store(redone.redo_parallel_ns, Ordering::Relaxed);
    Ok((db, redone.att))
}

/// Undo phase and wrap-up: roll back every incomplete transaction level
/// by level, log the aborts, rebuild runtime state, and take the
/// mandatory certified checkpoint (only then is the corruption marker
/// cleared). Returns the rolled-back ids, ascending, split into those in
/// `ctt` (deleted from history) and the merely incomplete.
fn undo_and_finish(
    db: &Arc<Db>,
    mut att: HashMap<TxnId, TxnState>,
    ctt: &HashSet<TxnId>,
) -> Result<(Vec<TxnId>, Vec<TxnId>)> {
    let mut incomplete: Vec<TxnId> = att.keys().copied().collect();
    incomplete.sort_unstable();
    // Roll back in reverse id order (newest first) so that a quarantined
    // transaction's writes are removed before the corrupt transaction it
    // conflicted with is rolled back.
    for id in incomplete.iter().rev() {
        let st = att.get_mut(id).expect("present");
        rollback_direct(db, &mut st.undo)?;
    }
    let (deleted, rolled_back): (Vec<TxnId>, Vec<TxnId>) =
        incomplete.into_iter().partition(|id| ctt.contains(id));
    // Record the aborts so the history reflects the rollback.
    let aborts: Vec<LogRecord> = deleted
        .iter()
        .chain(rolled_back.iter())
        .map(|&txn| LogRecord::TxnAbort { txn })
        .collect();
    db.syslog.append_batch(&aborts);
    db.syslog.flush(false)?;

    for h in db.heaps.read().iter() {
        h.rebuild_from_image(&db.image)?;
    }
    db.prot.resync(&db.image)?;
    // Every page may differ from both checkpoint images now.
    db.syslog.dirty().note_range(db.config.db_pages);
    ckpt::checkpoint(db)?;
    // `open` hands back a directory at rest: whoever opened it may copy
    // or replace it without racing the exit checkpoint's retirement.
    db.settle()?;
    corruption::clear_marker(&db.config.dir)?;
    if db.config.scheme.uses_mprotect() {
        db.protector.enable()?;
    }
    Ok((deleted, rolled_back))
}

/// Open an existing database: restart recovery (normal or corruption
/// mode).
pub fn restart(config: DaliConfig) -> Result<(Arc<Db>, RecoveryOutcome)> {
    config.validate().map_err(DaliError::InvalidArg)?;
    let dir = config.dir.clone();
    let (image_idx, serial) = ckpt::read_anchor(&dir)?;
    let meta = ckpt::read_meta(&dir, image_idx)?;
    check_ckpt_algebra(&meta, config.codeword_algebra)?;
    let marker = corruption::read_marker(&dir)?;

    // Decide the mode. The CW ReadLog scheme runs corruption recovery on
    // every restart (§4.3: codewords in read records detect corruption
    // that occurred after the last audit but before a true crash).
    let mode = match (&marker, config.scheme) {
        (Some(_), s) if s.supports_delete_txn_recovery() => RecoveryMode::DeleteTxn,
        (None, s) if s.logs_read_codewords() => RecoveryMode::DeleteTxn,
        (Some(_), _) => RecoveryMode::CacheRecovery,
        (None, _) => RecoveryMode::Normal,
    };
    let mut taint = (mode == RecoveryMode::DeleteTxn).then(|| {
        Taint::new(
            config.scheme.logs_read_codewords(),
            marker.as_ref(),
            meta.ck_end,
        )
    });

    let image = load_checkpoint(&config, image_idx)?;
    let redone = redo_pass(&config, &meta, &image, None, taint.as_mut())?;
    let records_scanned = redone.records_scanned;
    let (db, att) = build_recovered(config, image, image_idx, serial, redone)?;
    let (ctt, cdt) = taint.map(|t| (t.ctt, t.cdt)).unwrap_or_default();
    let (deleted, rolled_back) = undo_and_finish(&db, att, &ctt)?;
    Ok((
        db,
        RecoveryOutcome {
            mode,
            deleted_txns: deleted,
            rolled_back_txns: rolled_back,
            corrupt_ranges: cdt.ranges(),
            records_scanned,
        },
    ))
}

/// Prior-state recovery (paper §4.1's second model, "supported by most
/// commercial systems"): return the database to a transaction-consistent
/// state as of log position `upto`, discarding all later work.
///
/// The user is responsible for compensating *every* transaction after
/// `upto` — the paper contrasts this with the delete-transaction model,
/// which only removes the transactions actually affected.
///
/// Requires a certified checkpoint with `ck_end <= upto`; the stable log
/// is truncated at `upto` afterwards, so the discarded future cannot
/// resurface in a later recovery.
pub fn restore_prior_state(config: DaliConfig, upto: Lsn) -> Result<(Arc<Db>, RecoveryOutcome)> {
    config.validate().map_err(DaliError::InvalidArg)?;
    let dir = config.dir.clone();
    let (anchored, serial) = ckpt::read_anchor(&dir)?;
    // Prefer the anchored image; fall back to the other image when the
    // anchored checkpoint is too new.
    let (image_idx, meta) = match ckpt::read_meta(&dir, anchored) {
        Ok(m) if m.ck_end <= upto => (anchored, m),
        _ => {
            let other = 1 - anchored;
            let m = ckpt::read_meta(&dir, other)?;
            if m.ck_end > upto {
                return Err(DaliError::RecoveryFailed(format!(
                    "no checkpoint is old enough to recover to {upto} \
                     (oldest usable checkpoint is at {})",
                    m.ck_end
                )));
            }
            (other, m)
        }
    };
    check_ckpt_algebra(&meta, config.codeword_algebra)?;

    // Redo up to (not beyond) `upto`; a prefix cut can split an
    // operation's batch, whose unmatched physical records are discarded.
    let image = load_checkpoint(&config, image_idx)?;
    let redone = redo_pass(&config, &meta, &image, Some(upto), None)?;
    let records_scanned = redone.records_scanned;
    // Truncate the discarded future before reopening the log for append.
    dali_wal::segment::truncate_at(&Db::log_path(&dir), upto)?;
    let (db, att) = build_recovered(config, image, image_idx, serial, redone)?;
    // Transactions in flight at `upto` are rolled back: the prior state
    // is transaction-consistent.
    let (_, rolled_back) = undo_and_finish(&db, att, &HashSet::new())?;

    Ok((
        db,
        RecoveryOutcome {
            mode: RecoveryMode::PriorState,
            deleted_txns: Vec::new(),
            rolled_back_txns: rolled_back,
            corrupt_ranges: Vec::new(),
            records_scanned,
        },
    ))
}

/// Rebuild a `HeapMeta` from a replayed CreateTable record. The layout is
/// inferred: equal bitmap and data bases mean the page-local layout (its
/// parameters are a pure function of record and page size).
fn replayed_meta(
    table: dali_common::TableId,
    name: String,
    rec_size: u32,
    capacity: u64,
    bitmap_base: DbAddr,
    data_base: DbAddr,
    page_size: usize,
) -> Result<HeapMeta> {
    let layout = if bitmap_base == data_base {
        crate::catalog::HeapLayout::page_local(rec_size as usize, page_size)?
    } else {
        crate::catalog::HeapLayout::Separate
    };
    Ok(HeapMeta {
        table,
        name,
        rec_size: rec_size as usize,
        capacity: capacity as usize,
        bitmap_base,
        data_base,
        layout,
    })
}

/// Reject a checkpoint certified under a different codeword algebra: its
/// image may hide exactly the corruption class the configured algebra
/// exists to catch, so silently adopting it would launder an uncertified
/// image into a certified one.
fn check_ckpt_algebra(meta: &ckpt::CkptMeta, configured: CodewordAlgebraKind) -> Result<()> {
    if meta.algebra != configured {
        return Err(DaliError::RecoveryFailed(format!(
            "checkpoint was certified under the {} algebra but the engine \
             is configured for {}; re-certify with the original algebra \
             before switching",
            meta.algebra.label(),
            configured.label()
        )));
    }
    Ok(())
}

/// Compare logged read codewords against the recovering image: the read
/// record covers `[addr, addr+len)` and carries one codeword per
/// overlapped protection region.
fn codewords_match(
    image: &DbImage,
    config: &DaliConfig,
    addr: DbAddr,
    len: usize,
    logged: CodewordsRef<'_>,
) -> Result<bool> {
    let region_size = config.region_size;
    let first = addr.0 / region_size;
    let last = if len == 0 {
        first
    } else {
        (addr.0 + len - 1) / region_size
    };
    if logged.len() != last - first + 1 {
        // Geometry changed between runs; treat as mismatch (conservative).
        return Ok(false);
    }
    for (r, cw) in (first..=last).zip(logged.iter()) {
        if image.fold(
            config.codeword_algebra,
            DbAddr(r * region_size),
            region_size,
        )? != cw
        {
            return Ok(false);
        }
    }
    Ok(true)
}
