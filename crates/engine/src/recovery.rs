//! Restart recovery (paper §2.1) and delete-transaction corruption
//! recovery (paper §4.3).
//!
//! Restart recovery loads the certified checkpoint image, replays the
//! system log from `CK_end` (repeating history physically, one segment
//! at a time: the writes of the operations that committed in a segment
//! go into the image together when it ends), and rolls back incomplete
//! transactions level by level using logical undo from the checkpointed
//! ATT and operation commit records.
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
//! Restart rolls back with the routine an online abort uses
//! (`txn::rollback`), and a normal restart logs it the same way: each
//! incomplete transaction's restores as physical redo records under one
//! fresh operation, ended by its `TxnAbort`, in one batch. It takes no
//! checkpoint, since the log now holds the state it recovered. The other
//! modes end with a certified checkpoint, because their image is not the
//! log's history; only then do they log the aborts and clear the
//! corruption marker, so a crash during them repeats them.

use crate::att::{Att, TxnState};
use crate::catalog::{Catalog, HeapMeta};
use crate::ckpt;
use crate::corruption::{self, CorruptionMarker, RangeSet};
use crate::db::{CkptState, Db, EngineStats};
use crate::heap::HeapRuntime;
use crate::lock::LockManager;
use crate::txn::rollback;
use dali_codeword::CodewordProtection;
use dali_common::codec::CodewordsRef;
use dali_common::{
    CodewordAlgebraKind, DaliConfig, DaliError, DbAddr, Lsn, OpSeq, Result, Store, TxnId,
};
use dali_mem::{DbImage, PageProtector};
use dali_wal::record::{LogRecord, LogRecordRef, LogicalUndoRef};
use dali_wal::{LogReader, SystemLog};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One buffered physical write. Its bytes are borrowed from the log
/// segment being scanned; only a write that must outlive that segment
/// (its operation's batch straddles a segment roll) is ever copied.
type Write<'s> = (DbAddr, Cow<'s, [u8]>);

/// What the scan holds borrowed from one log segment: physical redo
/// buffered per (transaction, operation) until the operation's commit
/// record arrives, committed writes not yet in the image, and operation
/// commits' logical undo not yet copied into the ATT.
///
/// An operation's records reach the log as one contiguous batch, so the
/// entry a record belongs to is almost always the newest: a vector
/// searched from the back finds it without hashing every record. What
/// can sit in front of it is small — the partial batch of each torn flush
/// since the checkpoint, which stays until the restart after it logs its
/// transaction's abort.
#[derive(Default)]
struct Pending<'s> {
    ops: Vec<((TxnId, OpSeq), Vec<Write<'s>>)>,
    /// The emptied buffer of the last released operation, for the next.
    spare: Vec<Write<'s>>,
    /// Released writes, in commit order: the image is history up to the
    /// last commit scanned once these are applied.
    ready: Vec<Write<'s>>,
    /// The logical undo of each operation commit whose transaction has
    /// not ended, in log order. Most end within the segment and are
    /// dropped; the rest are copied into the ATT by `own_undo`.
    undo: Vec<((TxnId, OpSeq), LogicalUndoRef<'s>)>,
}

impl<'s> Pending<'s> {
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

    /// `op` committed: its writes are covered by its logical undo.
    fn commit(&mut self, op: (TxnId, OpSeq), undo: LogicalUndoRef<'s>) {
        if let Some(mut writes) = self.take(op) {
            self.ready.append(&mut writes);
            self.spare = writes;
        }
        self.undo.push((op, undo));
    }

    /// `txn` ended: release what it buffered (an abort batch's restores,
    /// terminated by its TxnAbort) in operation order — a rollback's
    /// restores share one fresh op, numbered after every op its
    /// transaction logged before, torn ones included — or drop it, and
    /// drop its undo.
    fn end(&mut self, txn: TxnId, release: bool) {
        let mut ended: Vec<_> = self.ops.extract_if(.., |((t, _), _)| *t == txn).collect();
        ended.sort_by_key(|((_, op), _)| op.0);
        if release {
            self.ready
                .extend(ended.into_iter().flat_map(|(_, writes)| writes));
        }
        self.undo.retain(|((t, _), _)| *t != txn);
    }

    /// The writes buffered for `txn`, oldest first: what its reads saw
    /// on top of the image.
    fn writes_of(&self, txn: TxnId) -> impl Iterator<Item = &Write<'s>> + Clone {
        self.ops
            .iter()
            .filter(move |((t, _), _)| *t == txn)
            .flat_map(|(_, writes)| writes)
    }

    /// Write the released writes into `image`, oldest first.
    fn apply(&mut self, image: &DbImage) -> Result<()> {
        for (addr, data) in self.ready.drain(..) {
            image.write(addr, &data)?;
        }
        Ok(())
    }

    /// Copy the held undo into its transactions' ATT entries (`kind`
    /// frames a new entry's redo) and return the ATT, now complete.
    fn own_undo<'a>(
        &mut self,
        att: &'a mut HashMap<TxnId, TxnState>,
        kind: CodewordAlgebraKind,
    ) -> &'a HashMap<TxnId, TxnState> {
        for ((txn, op), undo) in self.undo.drain(..) {
            let st = att.entry(txn).or_insert_with(|| TxnState::new(txn, kind));
            let undo = undo.map(|image| st.undo.copy_in(image));
            st.undo.commit_op(op, undo);
            st.next_op = st.next_op.max(op.0 + 1);
        }
        att
    }

    /// What is still buffered when the segment ends, copied out of its
    /// buffer: operations whose batch straddles the segment roll.
    fn into_carried(self) -> Pending<'static> {
        debug_assert!(self.ready.is_empty() && self.undo.is_empty());
        let own = |(addr, data): Write<'s>| (addr, Cow::Owned(data.into_owned()));
        let own_op = |(op, writes): (_, Vec<_>)| (op, writes.into_iter().map(own).collect());
        Pending {
            ops: self.ops.into_iter().map(own_op).collect(),
            ..Pending::default()
        }
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
    /// The log the redo scan read: from the checkpoint's `CK_end` to where
    /// the scan stopped.
    pub scanned: std::ops::Range<Lsn>,
    /// Where the time went.
    pub phases: RecoveryPhases,
}

/// Wall time of each phase of a recovery.
#[derive(Clone, Debug, Default)]
pub struct RecoveryPhases {
    /// Loading the anchored checkpoint image.
    pub load: Duration,
    /// The redo scan.
    pub redo: Duration,
    /// Reopening the log and building the codeword table.
    pub build: Duration,
    /// Rolling back (on a normal restart, logging) the incomplete
    /// transactions, rebuilding the heaps' allocation mirrors, and the
    /// rest of the wrap-up but the checkpoint.
    pub undo: Duration,
    /// The exit checkpoint; `None` when none ran (a normal restart).
    pub exit_checkpoint: Option<Duration>,
}

impl RecoveryOutcome {
    fn fresh() -> RecoveryOutcome {
        RecoveryOutcome {
            mode: RecoveryMode::Fresh,
            deleted_txns: Vec::new(),
            rolled_back_txns: Vec::new(),
            corrupt_ranges: Vec::new(),
            records_scanned: 0,
            scanned: Lsn::ZERO..Lsn::ZERO,
            phases: RecoveryPhases::default(),
        }
    }
}

/// Assemble a `Db` from its parts (shared by create and restart); a
/// restart rebuilds the heaps' allocation mirrors after its undo phase.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_db(
    config: DaliConfig,
    store: Store,
    image: Arc<DbImage>,
    syslog: SystemLog,
    catalog: Catalog,
    ckpt_state: CkptState,
    next_txn: u64,
    next_audit: u64,
    last_clean_audit: Option<Lsn>,
) -> Result<Arc<Db>> {
    let prot = CodewordProtection::with_config(
        &image,
        config.scheme,
        config.region_size,
        config.regions_per_latch,
        dali_codeword::DeferredConfig::default(),
        config.resolved_audit_threads(),
        config.codeword_algebra,
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
        att: Att::with_algebra(config.codeword_algebra),
        config,
        image,
        prot,
        protector,
        syslog,
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
        store,
    });
    db.refresh_log_gauges()?;
    Ok(db)
}

/// Create a fresh database in `config.dir` on `store`.
pub fn create(config: DaliConfig, store: Store) -> Result<(Arc<Db>, RecoveryOutcome)> {
    config.validate().map_err(DaliError::InvalidArg)?;
    store.create_dir_all(&config.dir)?;
    let image = Arc::new(DbImage::new(config.db_pages, config.page_size)?);
    let syslog = SystemLog::create_on(
        Arc::clone(&store),
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
        store,
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
        for target in st.undo.logical_targets() {
            if let Ok(meta) = catalog.get(target.table) {
                self.undo_ranges
                    .insert(meta.slot_addr(target.slot), meta.rec_size);
            }
        }
    }
}

/// What the redo pass leaves for the rest of recovery.
struct Redone {
    /// The reconstructed ATT: every transaction still incomplete at the
    /// end of the scan, with the undo log its rollback needs.
    att: HashMap<TxnId, TxnState>,
    catalog: Catalog,
    /// Log records the scan processed.
    records_scanned: usize,
    /// `(txn, addr, len)` of each write whose operation's commit never
    /// reached the log (a torn final batch): redo left it out.
    torn: Vec<(TxnId, DbAddr, usize)>,
    /// Starts at `CK_end`; the end is where the log is reopened.
    scanned: std::ops::Range<Lsn>,
    phases: RecoveryPhases,
    next_txn: u64,
    next_audit: u64,
}

/// The redo pass of every recovery mode: stream the stable log from the
/// checkpoint's `CK_end` (stopping before `upto`, if given), rebuild the
/// ATT and catalog, and repeat history on `image`.
///
/// The reader ([`LogReader`]) holds one segment in memory and checks
/// each frame as it is first walked over; the scan works on records
/// *borrowed* from it, so a physical write is a `(DbAddr, &[u8])` into
/// the segment buffer until it lands in the image, and an operation
/// commit's undo image a slice of it until its transaction ends. What
/// outlives the segment is copied exactly once: the undo of the
/// transactions still open when it ends (a loser's undo log is needed
/// after the whole scan) and the writes of an operation whose batch
/// straddles a segment roll.
///
/// Physical redo is buffered per operation until the operation's commit
/// record arrives, which releases it to a list in commit order; the list
/// is written into `image` on the scanning thread when the segment ends,
/// and before anything reads the image mid-scan (the §4.3 scan's
/// `codewords_match`), so whatever looks at the image sees the history
/// up to the last commit scanned. Operation commit migrates its records
/// to the system log as one batch, so in an intact log every physical
/// record is followed by its OpCommit; the exception is a *torn final
/// flush* (or a prior-state cut), whose trailing partial batch must be
/// discarded — applying it would write bytes that no undo information
/// covers. (The restores of an abort are released by the TxnAbort record
/// of the same batch instead.)
fn redo_pass(
    config: &DaliConfig,
    store: &Store,
    meta: &ckpt::CkptMeta,
    image: &DbImage,
    upto: Option<Lsn>,
    mut taint: Option<&mut Taint<'_>>,
) -> Result<Redone> {
    let kind = config.codeword_algebra;
    let mut catalog = meta.catalog.clone();
    let mut att: HashMap<TxnId, TxnState> = Att::decode_for_recovery(&meta.att_blob, kind)?
        .into_iter()
        .map(|s| (s.id, s))
        .collect();
    let mut records_scanned = 0usize;
    let mut max_txn_seen = 0u64;
    let mut max_audit_seen = 0u64;
    // The transaction last seen to have an ATT entry: consecutive records
    // of one transaction need not look it up again to know it is there.
    let mut in_att: Option<TxnId> = None;
    // Writes of operations still uncommitted when their segment ended.
    let mut carried = Pending::default();

    // A roll the crash interrupted may have left its successor pending.
    let log_dir = Db::log_path(&config.dir);
    dali_wal::segment::adopt_pending(&**store, &log_dir, kind)?;
    let reader = LogReader::open_on(&**store, log_dir, meta.ck_end, kind)?;
    reader.for_each_segment(|seg| {
        let mut cut = false;
        let mut pending: Pending = std::mem::take(&mut carried);
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
                    att.entry(txn).or_insert_with(|| TxnState::new(txn, kind));
                    in_att = Some(txn);
                }
                LogRecordRef::OpBegin { txn, rec, .. } => {
                    if in_att != Some(txn) {
                        att.entry(txn).or_insert_with(|| TxnState::new(txn, kind));
                        in_att = Some(txn);
                    }
                    if let Some(t) = taint.as_mut().filter(|t| !t.ctt.contains(&txn)) {
                        // §4.3: quarantine transactions whose new
                        // operation conflicts with an operation in a
                        // corrupt transaction's undo log. That log was
                        // owned when its transaction was tainted, and
                        // the scan ignores its later operation commits.
                        let conflicts = t.ctt.iter().any(|ct| {
                            att.get(ct)
                                .is_some_and(|s| s.undo.logical_targets().any(|t| t == rec))
                        });
                        if conflicts {
                            t.taint(txn, pending.own_undo(&mut att, kind), &catalog);
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
                            t.taint(txn, pending.own_undo(&mut att, kind), &catalog);
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
                            pending.apply(image)?;
                            let own = pending.writes_of(txn);
                            !codewords_match(image, config, addr, len, codewords, own)?
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
                            t.taint(txn, pending.own_undo(&mut att, kind), &catalog);
                        }
                    }
                }
                LogRecordRef::OpCommit { txn, op, undo } => {
                    if taint.as_ref().is_some_and(|t| t.ctt.contains(&txn)) {
                        pending.take((txn, op));
                        continue; // logical records of corrupt txns are ignored
                    }
                    pending.commit((txn, op), undo);
                }
                LogRecordRef::TxnCommit { txn } | LogRecordRef::TxnAbort { txn } => {
                    // A corrupt transaction stays incomplete; it is
                    // undone in the undo phase.
                    let corrupt = taint.as_ref().is_some_and(|t| t.ctt.contains(&txn));
                    pending.end(txn, !corrupt);
                    if !corrupt {
                        att.remove(&txn);
                        in_att = in_att.filter(|t| *t != txn);
                    }
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

        // ---- end of segment: apply, own, and keep what it owes the next ----
        pending.apply(image)?;
        pending.own_undo(&mut att, kind);
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
    // A torn operation's number is taken: fresh ones must sort after it.
    let mut torn = Vec::new();
    for ((txn, op), writes) in carried.ops {
        if let Some(st) = att.get_mut(&txn) {
            st.next_op = st.next_op.max(op.0 + 1);
        }
        torn.extend(writes.iter().map(|(addr, data)| (txn, *addr, data.len())));
    }

    Ok(Redone {
        att,
        catalog,
        records_scanned,
        torn,
        scanned: meta.ck_end..meta.ck_end,
        phases: RecoveryPhases::default(),
        next_txn: meta.next_txn.max(max_txn_seen),
        next_audit: meta.next_audit.max(max_audit_seen),
    })
}

/// Allocate the database image, load certified checkpoint image
/// `image_idx` straight into it, and redo the log on it (stopping before
/// `upto`, if given).
fn load_and_redo(
    config: &DaliConfig,
    store: &Store,
    meta: &ckpt::CkptMeta,
    image_idx: usize,
    upto: Option<Lsn>,
    taint: Option<&mut Taint<'_>>,
) -> Result<(Arc<DbImage>, Redone)> {
    let start = Instant::now();
    let mut image = DbImage::new(config.db_pages, config.page_size)?;
    ckpt::load_image(&**store, &config.dir, image_idx, &mut image)?;
    let load = start.elapsed();
    let mut redone = redo_pass(config, store, meta, &image, upto, taint)?;
    (redone.phases.load, redone.phases.redo) = (load, start.elapsed() - load);
    Ok((Arc::new(image), redone))
}

/// Everything after the redo pass: reopen the log for append, assemble
/// the engine around the redone image (heaps are needed for logical
/// undo), roll back, and report.
fn finish(
    config: DaliConfig,
    store: Store,
    image: Arc<DbImage>,
    (image_idx, serial): (usize, u64),
    mut redone: Redone,
    mode: RecoveryMode,
    ctt: &HashSet<TxnId>,
) -> Result<(Arc<Db>, RecoveryOutcome)> {
    let start = Instant::now();
    let syslog = SystemLog::open_on(
        Arc::clone(&store),
        Db::log_path(&config.dir),
        config.page_size,
        config.codeword_algebra,
        config.log_segment_bytes,
    )?;
    let db = build_db(
        config,
        store,
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
    let phases = &mut redone.phases;
    (phases.build, redone.scanned.end) = (start.elapsed(), db.syslog.current_lsn());
    let logged = mode == RecoveryMode::Normal;
    let (deleted, rolled_back, ckpt) = undo_and_finish(&db, redone.att, &redone.torn, ctt, logged)?;
    phases.undo = start.elapsed() - phases.build - ckpt.unwrap_or_default();
    phases.exit_checkpoint = ckpt;
    let outcome = RecoveryOutcome {
        mode,
        deleted_txns: deleted,
        rolled_back_txns: rolled_back,
        corrupt_ranges: Vec::new(),
        records_scanned: redone.records_scanned,
        scanned: redone.scanned,
        phases: redone.phases,
    };
    Ok((db, outcome))
}

/// Undo phase and wrap-up: roll back every incomplete transaction, newest
/// first, with the online abort's `rollback`, and make the rollback part
/// of the history.
///
/// A normal restart (`logged`) appends each one's redo and `TxnAbort` as
/// one batch, as an online abort does, and takes no checkpoint. The batch
/// starts with the bytes now at each write of the transaction's torn
/// final batch, under an operation of their own, numbered before the
/// rollback's: the log keeps those writes unapplied, and a later restart
/// applies them at that `TxnAbort` (cutting the log instead fails when
/// the batch straddles a sealed segment). The other modes' image is not
/// the log's history (the §4.3 scan suppresses writes, prior-state
/// recovery drops a future), so they discard the redo, take the exit
/// checkpoint and only then log the aborts and clear the corruption
/// marker.
///
/// Returns the rolled-back ids, ascending, split into those in `ctt`
/// (deleted from history) and the merely incomplete, and the exit
/// checkpoint's wall time if one ran.
fn undo_and_finish(
    db: &Arc<Db>,
    mut att: HashMap<TxnId, TxnState>,
    torn: &[(TxnId, DbAddr, usize)],
    ctt: &HashSet<TxnId>,
    logged: bool,
) -> Result<(Vec<TxnId>, Vec<TxnId>, Option<Duration>)> {
    let mut incomplete: Vec<TxnId> = att.keys().copied().collect();
    incomplete.sort_unstable();
    // Roll back in reverse id order (newest first) so that a quarantined
    // transaction's writes are removed before the corrupt transaction it
    // conflicted with is rolled back.
    for &txn in incomplete.iter().rev() {
        let st = att.get_mut(&txn).expect("present");
        let torn_op = st.next_op_seq();
        for &(_, addr, len) in torn.iter().filter(|w| logged && w.0 == txn) {
            let mut data = vec![0u8; len];
            db.image.read(addr, &mut data)?;
            st.redo.push_redo(txn, torn_op, addr, &data);
        }
        rollback(db, st, txn)?;
        if logged {
            st.redo.push(LogRecord::TxnAbort { txn });
            db.syslog.append_frames(&st.redo);
        }
    }
    let (deleted, rolled_back): (Vec<TxnId>, Vec<TxnId>) =
        incomplete.into_iter().partition(|id| ctt.contains(id));

    for h in db.heaps.read().iter() {
        h.rebuild_from_image(&db.image)?;
    }
    // Every page may differ from both checkpoint images now.
    db.syslog.dirty().note_range(db.config.db_pages);
    let ckpt = if logged {
        None
    } else {
        db.prot.resync(&db.image)?;
        let start = Instant::now();
        ckpt::checkpoint(db)?;
        let took = start.elapsed();
        for &txn in deleted.iter().chain(&rolled_back) {
            db.syslog.append(&LogRecord::TxnAbort { txn });
        }
        Some(took)
    };
    db.syslog.flush(false)?;
    // `open` hands back a directory at rest: whoever opened it may copy
    // or replace it without racing a roll's rename or a retirement.
    db.settle()?;
    if ckpt.is_some() {
        corruption::clear_marker(&*db.store, &db.config.dir)?;
    }
    if db.config.scheme.uses_mprotect() {
        db.protector.enable()?;
    }
    Ok((deleted, rolled_back, ckpt))
}

/// Open an existing database on `store`: restart recovery (normal or
/// corruption mode).
pub fn restart(config: DaliConfig, store: Store) -> Result<(Arc<Db>, RecoveryOutcome)> {
    config.validate().map_err(DaliError::InvalidArg)?;
    let dir = config.dir.clone();
    let (image_idx, serial) = ckpt::read_anchor(&*store, &dir)?;
    let meta = ckpt::read_meta(&*store, &dir, image_idx)?;
    check_ckpt_algebra(&meta, config.codeword_algebra)?;
    let marker = corruption::read_marker(&*store, &dir)?;

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

    let (image, redone) = load_and_redo(&config, &store, &meta, image_idx, None, taint.as_mut())?;
    let (ctt, cdt) = taint.map(|t| (t.ctt, t.cdt)).unwrap_or_default();
    let idx = (image_idx, serial);
    let (db, mut outcome) = finish(config, store, image, idx, redone, mode, &ctt)?;
    outcome.corrupt_ranges = cdt.ranges();
    Ok((db, outcome))
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
pub fn restore_prior_state(
    config: DaliConfig,
    upto: Lsn,
    store: Store,
) -> Result<(Arc<Db>, RecoveryOutcome)> {
    config.validate().map_err(DaliError::InvalidArg)?;
    let dir = config.dir.clone();
    let (anchored, serial) = ckpt::read_anchor(&*store, &dir)?;
    // Prefer the anchored image; fall back to the other image when the
    // anchored checkpoint is too new. The other image qualifies only if
    // its meta exists: a checkpoint unlinks it before it overwrites the
    // image's first page.
    let (image_idx, meta) = match ckpt::read_meta(&*store, &dir, anchored) {
        Ok(m) if m.ck_end <= upto => (anchored, m),
        _ => match ckpt::read_meta(&*store, &dir, 1 - anchored) {
            Ok(m) if m.ck_end <= upto => (1 - anchored, m),
            _ => {
                return Err(DaliError::RecoveryFailed(format!(
                    "no checkpoint is old enough to recover to {upto}"
                )))
            }
        },
    };
    check_ckpt_algebra(&meta, config.codeword_algebra)?;

    // Redo up to (not beyond) `upto`; a prefix cut can split an
    // operation's batch, whose unmatched physical records are discarded.
    let (image, redone) = load_and_redo(&config, &store, &meta, image_idx, Some(upto), None)?;
    // Anchor the image this recovery starts from before the log is cut
    // below the other one's `CK_end`, so a crash from here on restarts
    // from it; then truncate the discarded future before reopening the
    // log for append.
    if image_idx != anchored {
        ckpt::write_anchor(&*store, &dir, image_idx, serial)?;
    }
    dali_wal::segment::truncate_at_on(&*store, &Db::log_path(&dir), upto)?;
    // Transactions in flight at `upto` are rolled back: the prior state
    // is transaction-consistent.
    let (mode, idx) = (RecoveryMode::PriorState, (image_idx, serial));
    finish(config, store, image, idx, redone, mode, &HashSet::new())
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

/// Compare logged read codewords against the recovering image, with the
/// reader's own writes not yet applied (`own`: an operation or a rollback
/// whose commit or abort record is still ahead) laid over it, as the
/// reader saw them: the read record covers `[addr, addr+len)` and carries
/// one codeword per overlapped protection region.
fn codewords_match<'a, 's: 'a>(
    image: &DbImage,
    config: &DaliConfig,
    addr: DbAddr,
    len: usize,
    logged: CodewordsRef<'_>,
    own: impl Iterator<Item = &'a Write<'s>> + Clone,
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
    let mut region = vec![0u8; region_size];
    for (r, cw) in (first..=last).zip(logged.iter()) {
        let base = r * region_size;
        image.read(DbAddr(base), &mut region)?;
        for (at, data) in own.clone() {
            let (start, end) = (at.0.max(base), (at.0 + data.len()).min(base + region_size));
            if start < end {
                region[start - base..end - base].copy_from_slice(&data[start - at.0..end - at.0]);
            }
        }
        if dali_common::fold::fold(config.codeword_algebra, &region) != cw {
            return Ok(false);
        }
    }
    Ok(true)
}
