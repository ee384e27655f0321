//! Transactions: the prescribed update interface and multi-level
//! operations.
//!
//! Every write to the database image goes through
//! [`physical_update`](TxnHandle) — the beginUpdate/endUpdate bracket of
//! the paper (§2): capture a word-widened undo image, write in place,
//! publish the codeword delta, emit a physical redo record. Heap
//! operations (insert/update/delete) are level-1 operations: they begin
//! with an `OpBegin` record, perform physical updates, and commit by
//! migrating their redo records plus an `OpCommit` record (carrying the
//! logical undo description) to the system log — Dali's local logging
//! discipline. Images go into the transaction's undo arena and records
//! are framed into its redo buffer as they are produced, so the update
//! path allocates nothing and an operation reaches the log as one copy.
//!
//! A rewrite of a whole record (an update, the compensating update of a
//! rollback, recovery's record restore) compares the record's current
//! bytes with the new ones a `u64` at a time and brackets only the span
//! from the first to the last 8-byte chunk that differs, or nothing if
//! none does; the logical undo keeps the whole before-image. A TPC-B
//! update, which changes one balance, thus writes, folds and logs 8
//! bytes instead of its record.
//!
//! Reads dispatch per scheme: plain copy, precheck (§3.1), or read
//! logging (§4.2, with codewords per the §4.3 extension).
//!
//! Lock ordering throughout the engine: `quiesce` (shared) → transaction
//! state mutex → heap alloc mutex → protection latches (ascending
//! stripes) → parity group-buffer mutex. The checkpointer takes
//! `quiesce` exclusively and then transaction state mutexes, which is
//! consistent with this order; online repair takes `quiesce` exclusively
//! and no state mutex. The group-buffer mutex is a leaf: updaters take it
//! inside their bracket, repair and resync under the group's exclusive
//! latches, certification's `verify_group` under no latch, and nothing
//! else is acquired while it is held.
//!
//! Only [`TxnHandle::abort`] and the handle's drop roll a live
//! transaction back. Online repair leaves it alone: an operation's redo
//! reaches the system log in the same shared `quiesce` span as its
//! writes, so a repair — which holds `quiesce` exclusively and rebuilds
//! from the log — keeps every completed operation. Reads still take
//! `quiesce`, because a repair rewrites whole pages.

use crate::att::{OpState, TxnState, TxnStatus};
use crate::db::{Db, EngineStats};
use crate::lock::LockMode;
use dali_common::{DaliError, DbAddr, RecId, Result, TableId, TxnId};
use dali_wal::record::{LogRecord, LogicalUndo, LogicalUndoRef, OpKind};
use dali_wal::{LocalUndoLog, Span, UndoKind};
use parking_lot::Mutex;
use std::sync::Arc;

/// Handle to an active transaction.
///
/// Dropping an unfinished handle aborts the transaction (best effort).
pub struct TxnHandle {
    db: Arc<Db>,
    id: TxnId,
    state: Arc<Mutex<TxnState>>,
}

impl TxnHandle {
    /// Begin a new transaction on `db`.
    pub(crate) fn begin(db: Arc<Db>) -> Result<TxnHandle> {
        db.check_alive()?;
        let id = db.next_txn_id();
        let state = db.att.insert(id);
        state.lock().redo.push(LogRecord::TxnBegin { txn: id });
        Ok(TxnHandle { db, id, state })
    }

    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    // ---------------------------------------------------------------
    // Reads
    // ---------------------------------------------------------------

    /// Read a record into `buf` (must be exactly the table's record size).
    ///
    /// Takes a shared record lock (strict 2PL). The read path depends on
    /// the protection scheme; under Read Prechecking a codeword mismatch
    /// surfaces as [`DaliError::CorruptionDetected`] *and* poisons the
    /// database so that the caller reopens it (cache recovery).
    pub fn read(&self, rec: RecId, buf: &mut [u8]) -> Result<()> {
        self.db.check_alive()?;
        let heap = self.db.heap(rec.table)?;
        if buf.len() != heap.meta().rec_size {
            return Err(DaliError::InvalidArg(format!(
                "read buffer is {} bytes, record size is {}",
                buf.len(),
                heap.meta().rec_size
            )));
        }
        self.db.locks.lock(self.id, rec, LockMode::Shared)?;
        let _q = self.db.quiesce.read();
        if !heap.is_allocated_in_image(&self.db.image, rec.slot)? {
            return Err(DaliError::NotFound(format!("record {rec}")));
        }
        let addr = heap.meta().slot_addr(rec.slot);
        let scheme = self.db.config.scheme;
        if scheme.prechecks_reads() {
            match self.db.prot.checked_read(&self.db.image, addr, buf) {
                Ok(()) => {}
                Err(DaliError::CorruptionDetected {
                    addr: caddr,
                    len,
                    expected,
                    actual,
                }) => {
                    // Prevention: the corrupt value never reaches the
                    // caller. Note the region and force a restart (cache
                    // recovery), paper §4.2.
                    crate::corruption::report_corruption(&self.db, &[(caddr, len)])?;
                    return Err(DaliError::CorruptionDetected {
                        addr: caddr,
                        len,
                        expected,
                        actual,
                    });
                }
                Err(e) => return Err(e),
            }
        } else if scheme.logs_read_codewords() {
            let cws = self
                .db
                .prot
                .read_with_codewords(&self.db.image, addr, buf)?;
            self.state.lock().redo.push(LogRecord::ReadLog {
                txn: self.id,
                addr,
                len: buf.len() as u32,
                codewords: cws,
            });
            EngineStats::bump(&self.db.stats.read_log_records);
        } else if scheme.logs_reads() {
            self.db.image.read(addr, buf)?;
            self.state.lock().redo.push(LogRecord::ReadLog {
                txn: self.id,
                addr,
                len: buf.len() as u32,
                codewords: Vec::new(),
            });
            EngineStats::bump(&self.db.stats.read_log_records);
        } else {
            self.db.image.read(addr, buf)?;
        }
        EngineStats::bump(&self.db.stats.reads);
        Ok(())
    }

    /// Read a record into a fresh vector.
    pub fn read_vec(&self, rec: RecId) -> Result<Vec<u8>> {
        let heap = self.db.heap(rec.table)?;
        let mut buf = vec![0u8; heap.meta().rec_size];
        self.read(rec, &mut buf)?;
        Ok(buf)
    }

    // ---------------------------------------------------------------
    // Heap operations (level-1)
    // ---------------------------------------------------------------

    /// Insert a record; returns its id.
    pub fn insert(&self, table: TableId, data: &[u8]) -> Result<RecId> {
        self.db.check_alive()?;
        let heap = self.db.heap(table)?;
        if data.len() != heap.meta().rec_size {
            return Err(DaliError::InvalidArg(format!(
                "insert data is {} bytes, record size is {}",
                data.len(),
                heap.meta().rec_size
            )));
        }
        let slot = heap.reserve()?;
        let rec = RecId::new(table, slot);
        if let Err(e) = self.db.locks.lock(self.id, rec, LockMode::Exclusive) {
            heap.release(slot);
            return Err(e);
        }
        let _q = self.db.quiesce.read();
        let mut st = self.state.lock();
        let op = begin_op(&mut st, self.id, OpKind::Insert, rec);

        // Physical update 1: set the allocation bit (control information
        // on its own pages — serialized per heap so concurrent word RMWs
        // don't race).
        let (word_addr, bit) = heap.meta().bit_word_addr(slot);
        heap.with_alloc_locked(|| -> Result<()> {
            let word = read_bitmap_word(&self.db, word_addr)?;
            physical_update(
                &self.db,
                &mut st,
                self.id,
                op,
                word_addr,
                &(word | (1 << bit)).to_le_bytes(),
            )
        })?;

        // Physical update 2: the record data.
        let addr = heap.meta().slot_addr(slot);
        physical_update(&self.db, &mut st, self.id, op, addr, data)?;

        commit_op(
            &self.db,
            &mut st,
            self.id,
            op,
            LogicalUndo::HeapInsert { rec },
        )?;
        EngineStats::bump(&self.db.stats.inserts);
        Ok(rec)
    }

    /// Take the exclusive record lock without reading or writing —
    /// update intent, the read-for-update idiom.
    ///
    /// A read-modify-write that starts with [`read`](Self::read) takes a
    /// shared lock and must upgrade inside [`update`](Self::update);
    /// two transactions interleaving that on the same record deadlock
    /// every time (both hold shared, neither upgrade can be granted).
    /// Locking exclusively up front makes the sequence deadlock-free
    /// with respect to that record.
    pub fn lock_exclusive(&self, rec: RecId) -> Result<()> {
        self.db.check_alive()?;
        self.db.locks.lock(self.id, rec, LockMode::Exclusive)
    }

    /// Update a record in place.
    pub fn update(&self, rec: RecId, data: &[u8]) -> Result<()> {
        self.db.check_alive()?;
        let heap = self.db.heap(rec.table)?;
        if data.len() != heap.meta().rec_size {
            return Err(DaliError::InvalidArg(format!(
                "update data is {} bytes, record size is {}",
                data.len(),
                heap.meta().rec_size
            )));
        }
        self.db.locks.lock(self.id, rec, LockMode::Exclusive)?;
        let _q = self.db.quiesce.read();
        let mut st = self.state.lock();
        if !heap.is_allocated_in_image(&self.db.image, rec.slot)? {
            return Err(DaliError::NotFound(format!("record {rec}")));
        }
        let addr = heap.meta().slot_addr(rec.slot);
        let op = begin_op(&mut st, self.id, OpKind::Update, rec);
        let before = st
            .undo
            .stage(data.len(), |b| read_persistent(&self.db, addr, b))?;
        rewrite_record(&self.db, &mut st, self.id, op, addr, before, data)?;
        commit_op(
            &self.db,
            &mut st,
            self.id,
            op,
            LogicalUndo::HeapUpdate { rec, before },
        )?;
        EngineStats::bump(&self.db.stats.updates);
        Ok(())
    }

    /// Delete a record.
    pub fn delete(&self, rec: RecId) -> Result<()> {
        self.db.check_alive()?;
        let heap = self.db.heap(rec.table)?;
        self.db.locks.lock(self.id, rec, LockMode::Exclusive)?;
        let _q = self.db.quiesce.read();
        let mut st = self.state.lock();
        if !heap.is_allocated_in_image(&self.db.image, rec.slot)? {
            return Err(DaliError::NotFound(format!("record {rec}")));
        }
        let addr = heap.meta().slot_addr(rec.slot);
        let op = begin_op(&mut st, self.id, OpKind::Delete, rec);
        let image = st
            .undo
            .stage(heap.meta().rec_size, |b| read_persistent(&self.db, addr, b))?;
        let (word_addr, bit) = heap.meta().bit_word_addr(rec.slot);
        heap.with_alloc_locked(|| -> Result<()> {
            let word = read_bitmap_word(&self.db, word_addr)?;
            physical_update(
                &self.db,
                &mut st,
                self.id,
                op,
                word_addr,
                &(word & !(1 << bit)).to_le_bytes(),
            )
        })?;
        commit_op(
            &self.db,
            &mut st,
            self.id,
            op,
            LogicalUndo::HeapDelete { rec, image },
        )?;
        // The slot becomes reusable only when this transaction finishes.
        st.deferred_frees.push(rec);
        EngineStats::bump(&self.db.stats.deletes);
        Ok(())
    }

    // ---------------------------------------------------------------
    // Commit / abort
    // ---------------------------------------------------------------

    /// Commit: migrate leftover local records plus the commit record to
    /// the system log, flush it (durably when `sync_commit` is set),
    /// release locks.
    pub fn commit(self) -> Result<()> {
        self.db.check_alive()?;
        let commit_end;
        {
            let _q = self.db.quiesce.read();
            let mut st = self.state.lock();
            if st.cur_op.is_some() {
                return Err(DaliError::InvalidArg(
                    "commit with an operation in progress".into(),
                ));
            }
            st.redo.push(LogRecord::TxnCommit { txn: self.id });
            commit_end = self.db.syslog.append_frames(&st.redo);
            st.redo.discard();
            st.status = TxnStatus::Committed;
            for rec in std::mem::take(&mut st.deferred_frees) {
                if let Ok(h) = self.db.heap(rec.table) {
                    h.release(rec.slot);
                }
            }
        }
        if self.db.config.sync_commit {
            self.db.syslog.commit_durable(commit_end)?;
        } else {
            self.db.syslog.flush(false)?;
        }
        self.db.locks.unlock_all(self.id);
        self.db.att.remove(self.id);
        EngineStats::bump(&self.db.stats.commits);
        Ok(())
    }

    /// Abort: roll back level by level (physical restores, then logical
    /// compensations), log the compensations and the abort record.
    pub fn abort(self) -> Result<()> {
        self.abort_inner()
    }

    fn abort_inner(&self) -> Result<()> {
        self.db.check_alive()?;
        {
            let _q = self.db.quiesce.read();
            let mut st = self.state.lock();
            rollback_txn(&self.db, &mut st, self.id)?;
            st.redo.push(LogRecord::TxnAbort { txn: self.id });
            self.db.syslog.append_frames(&st.redo);
            st.redo.discard();
            st.status = TxnStatus::Aborted;
            for rec in std::mem::take(&mut st.deferred_frees) {
                if let Ok(h) = self.db.heap(rec.table) {
                    h.release(rec.slot);
                }
            }
        }
        self.db.locks.unlock_all(self.id);
        self.db.att.remove(self.id);
        EngineStats::bump(&self.db.stats.aborts);
        self.db.syslog.flush(false)?;
        Ok(())
    }
}

impl Drop for TxnHandle {
    fn drop(&mut self) {
        let active = self.state.lock().status == TxnStatus::Active;
        if active && !self.db.crashed.load(std::sync::atomic::Ordering::Acquire) {
            let _ = self.abort_inner();
        }
    }
}

// -------------------------------------------------------------------
// Operation machinery (free functions so rollback can reuse them)
// -------------------------------------------------------------------

/// Read persistent data on behalf of an operation's internals (an
/// update's before-image, a delete's record image, an insert's bitmap
/// word). Under Read Prechecking *every* read of persistent data is
/// checked against its codeword (§3.1), including these; a mismatch
/// brings the database down for cache recovery like any other failed
/// precheck.
fn read_persistent(db: &Db, addr: DbAddr, buf: &mut [u8]) -> Result<()> {
    if db.config.scheme.prechecks_reads() {
        match db.prot.checked_read(&db.image, addr, buf) {
            Ok(()) => Ok(()),
            Err(DaliError::CorruptionDetected {
                addr: caddr,
                len,
                expected,
                actual,
            }) => {
                crate::corruption::report_corruption(db, &[(caddr, len)])?;
                Err(DaliError::CorruptionDetected {
                    addr: caddr,
                    len,
                    expected,
                    actual,
                })
            }
            Err(e) => Err(e),
        }
    } else {
        db.image.read(addr, buf)
    }
}

/// Read a bitmap word through the persistent-read path.
fn read_bitmap_word(db: &Db, word_addr: DbAddr) -> Result<u32> {
    let mut w = [0u8; 4];
    read_persistent(db, word_addr, &mut w)?;
    Ok(u32::from_le_bytes(w))
}

/// Begin a level-1 operation: allocate its sequence number and emit the
/// OpBegin record into the local redo log.
fn begin_op(st: &mut TxnState, txn: TxnId, kind: OpKind, rec: RecId) -> dali_common::OpSeq {
    debug_assert!(st.cur_op.is_none(), "nested level-1 operations");
    let seq = st.next_op_seq();
    st.cur_op = Some(OpState { seq, kind, rec });
    st.redo.push(LogRecord::OpBegin {
        txn,
        op: seq,
        kind,
        rec,
    });
    seq
}

/// Commit a level-1 operation: migrate its redo records plus the OpCommit
/// record to the system log (one copy of its frames), and replace its
/// physical undo with the logical undo description, whose image the
/// operation staged in the undo arena.
fn commit_op(
    db: &Db,
    st: &mut TxnState,
    txn: TxnId,
    op: dali_common::OpSeq,
    undo: LogicalUndo<Span>,
) -> Result<()> {
    st.redo.push_op_commit(txn, op, st.undo.logical(&undo));
    db.syslog.append_frames(&st.redo);
    st.redo.discard();
    st.undo.commit_op(op, undo);
    st.cur_op = None;
    reprotect_op_exposures(db, st)?;
    Ok(())
}

/// Reprotect every page the finished operation exposed (Hardware
/// Protection). Exposure is operation-scoped rather than update-scoped:
/// repeated updates on the same page within one operation pay a single
/// protect/unprotect syscall pair, which is how a page-based system with
/// on-page control information gets its lower mprotect cost (§5.3).
fn reprotect_op_exposures(db: &Db, st: &mut TxnState) -> Result<()> {
    // Drained, not taken: the next operation pushes into the same
    // allocation.
    for (addr, len) in st.op_exposures.drain(..) {
        db.protector.reprotect(addr, len)?;
    }
    Ok(())
}

/// One complete physical update: the beginUpdate/endUpdate bracket.
///
/// Caller must hold the quiesce lock (shared) and, for bitmap words, the
/// heap's alloc mutex.
fn physical_update(
    db: &Db,
    st: &mut TxnState,
    txn: TxnId,
    op: dali_common::OpSeq,
    addr: DbAddr,
    data: &[u8],
) -> Result<()> {
    let len = data.len();
    // --- beginUpdate ---
    // Only a scheme that write-protects pages (fixed when the database is
    // built) exposes them and remembers what to reprotect.
    if db.config.scheme.uses_mprotect() {
        db.protector.expose(addr, len)?;
        st.op_exposures.push((addr, len));
    }
    let (ws, wl) = dali_common::align::widen_to_words(addr.0, len);
    let waddr = DbAddr(ws);
    let mode = db.prot.update_latch_mode();
    let (first, last) = db.prot.geometry().region_span(waddr, wl);
    db.prot.latches().lock_span(first, last, mode);
    // Every fallible step runs inside this closure so the latch span is
    // released on the error paths too.
    let res = (|| -> Result<()> {
        // Capture the before-image into the undo arena *inside* the latch
        // span: under exclusive update latching a concurrent updater
        // could otherwise slip a write between our read and our span
        // acquisition, and the stale before-image would corrupt the
        // codeword delta at endUpdate.
        let before = st.undo.stage(wl, |b| db.image.read(waddr, b))?;
        st.undo.push_physical_at(op, waddr, before);
        st.update_in_flight = true;

        // CW ReadLog treats a write as a read followed by a write (§4.3):
        // log the pre-update region codewords, computed from the contents
        // the updater saw. We hold the (exclusive) latch span, so the
        // unlatched compute variant is required — the latches are not
        // reentrant.
        if db.config.scheme.logs_read_codewords() {
            let cws = db.prot.compute_region_codewords(&db.image, waddr, wl)?;
            st.redo.push(LogRecord::ReadLog {
                txn,
                addr: waddr,
                len: wl as u32,
                codewords: cws,
            });
            EngineStats::bump(&db.stats.read_log_records);
        }

        // --- the in-place write ---
        db.image.write(addr, data)?;
        // --- endUpdate ---
        db.prot
            .apply_update(&db.image, waddr, st.undo.bytes(before))?;
        st.undo.seal_top_physical(op)?;
        st.redo.push_redo(txn, op, addr, data);
        Ok(())
    })();
    db.prot.latches().unlock_span(first, last, mode);
    // Reprotection is deferred to the end of the operation (see
    // reprotect_op_exposures).
    st.update_in_flight = false;
    res
}

/// Rewrite the record at `addr`, whose current bytes `old` were staged in
/// the undo arena, as `new`: one [`physical_update`] over the changed span
/// only, or none if nothing changed. Bytes outside the span already hold
/// `new`, so the image, codewords and parity end as a whole-record write
/// leaves them, while the undo image, the delta and the redo shrink to
/// the span.
fn rewrite_record(
    db: &Db,
    st: &mut TxnState,
    txn: TxnId,
    op: dali_common::OpSeq,
    addr: DbAddr,
    old: Span,
    new: &[u8],
) -> Result<()> {
    match changed_span(st.undo.bytes(old), new) {
        Some(span) => physical_update(db, st, txn, op, DbAddr(addr.0 + span.start), &new[span]),
        None => Ok(()),
    }
}

/// The span of `new` that differs from `old` (of the same length), in
/// whole 8-byte chunks from the start, the last one cut at the end:
/// `None` when the two are equal. Compared one `u64` at a time.
fn changed_span(old: &[u8], new: &[u8]) -> Option<std::ops::Range<usize>> {
    debug_assert_eq!(old.len(), new.len());
    let word = |c: &[u8]| u64::from_ne_bytes(c.try_into().expect("8-byte chunk"));
    let (a, b) = (old.chunks_exact(8), new.chunks_exact(8));
    // Chunks are numbered from 0; the tail is chunk `len / 8`.
    let tail = (a.remainder() != b.remainder()).then_some(old.len() / 8);
    let mut differs = a.zip(b).map(|(a, b)| word(a) != word(b));
    let first = differs.position(|d| d).or(tail)?;
    let last = tail.or_else(|| differs.rposition(|d| d).map(|i| first + 1 + i));
    Some(first * 8..((last.unwrap_or(first) + 1) * 8).min(old.len()))
}

/// Roll back everything in the transaction's undo log, level by level:
/// physical restores first (they are always on top of the stack), then
/// logical compensations executed as fresh operations.
fn rollback_txn(db: &Db, st: &mut TxnState, txn: TxnId) -> Result<()> {
    // Close the failed operation's exposure window first.
    reprotect_op_exposures(db, st)?;
    // If an operation is in progress, its unmigrated redo records must not
    // reach the system log — but keep the transaction's read log records:
    // the reads really happened, and corruption tracing may only
    // overestimate reads, never underestimate (§4.2).
    if let Some(op) = st.cur_op.take() {
        st.redo.cut_op(op.seq);
    }

    // Take the undo stack before compensating: the compensating
    // operations themselves push fresh logical-undo entries (needed on the
    // *log* so a crash mid-rollback resumes correctly), but processing
    // those in this same loop would undo the compensations just made —
    // an infinite regress. The in-memory entries they leave behind are
    // discarded at the end; the transaction is over.
    let undo = std::mem::take(&mut st.undo);
    for entry in undo.iter().rev() {
        match &entry.kind {
            &UndoKind::Physical {
                addr,
                before,
                codeword_pending,
            } => {
                let before = undo.bytes(before);
                rollback_physical(db, st, txn, entry.op, addr, before, codeword_pending)?;
            }
            UndoKind::Logical(u) => compensate_logical(db, st, txn, undo.logical(u))?,
        }
    }
    st.undo = LocalUndoLog::new();
    Ok(())
}

/// Restore a physical before-image. If the codeword had already absorbed
/// the update (flag clear), un-apply it and log a compensation redo record
/// so recovery repeats the restore; if the update was still in its window
/// (flag set), restore bytes only (§3.1: "the undo image for this update
/// should be applied without updating the codeword").
fn rollback_physical(
    db: &Db,
    st: &mut TxnState,
    txn: TxnId,
    op: dali_common::OpSeq,
    addr: DbAddr,
    before: &[u8],
    codeword_pending: bool,
) -> Result<()> {
    let mode = db.prot.update_latch_mode();
    let (first, last) = db.prot.geometry().region_span(addr, before.len());
    db.protector.expose(addr, before.len())?;
    db.prot.latches().lock_span(first, last, mode);
    let res = (|| -> Result<()> {
        if codeword_pending {
            db.image.write(addr, before)?;
        } else {
            let mut cur = vec![0u8; before.len()];
            db.image.read(addr, &mut cur)?;
            db.image.write(addr, before)?;
            // The restore is itself a directed update (current bytes →
            // before-image), so publishing its delta inverts the original
            // one under every algebra.
            db.prot.apply_update(&db.image, addr, &cur)?;
            st.redo.push_redo(txn, op, addr, before);
        }
        Ok(())
    })();
    db.prot.latches().unlock_span(first, last, mode);
    db.protector.reprotect(addr, before.len())?;
    res
}

/// Execute the compensating operation for a committed operation's logical
/// undo. The compensation is itself a level-1 operation: it logs redo and
/// an OpCommit with *its own* logical undo, so a crash mid-rollback
/// resumes correctly (undoing the compensation re-establishes the original
/// operation, which is then undone again).
fn compensate_logical(db: &Db, st: &mut TxnState, txn: TxnId, undo: LogicalUndoRef) -> Result<()> {
    match undo {
        LogicalUndo::HeapInsert { rec } => {
            // Compensating delete.
            let heap = db.heap(rec.table)?;
            let addr = heap.meta().slot_addr(rec.slot);
            let op = begin_op(st, txn, OpKind::Delete, rec);
            let image = st
                .undo
                .stage(heap.meta().rec_size, |b| db.image.read(addr, b))?;
            let (word_addr, bit) = heap.meta().bit_word_addr(rec.slot);
            heap.with_alloc_locked(|| -> Result<()> {
                let word = db.image.arena().read_u32(word_addr.0)?;
                physical_update(
                    db,
                    st,
                    txn,
                    op,
                    word_addr,
                    &(word & !(1 << bit)).to_le_bytes(),
                )
            })?;
            commit_op(db, st, txn, op, LogicalUndo::HeapDelete { rec, image })?;
            st.deferred_frees.push(rec);
        }
        LogicalUndo::HeapDelete { rec, image } => {
            // Compensating insert into the same slot (still reserved: the
            // delete's free is deferred to end of transaction).
            let heap = db.heap(rec.table)?;
            let addr = heap.meta().slot_addr(rec.slot);
            let op = begin_op(st, txn, OpKind::Insert, rec);
            let (word_addr, bit) = heap.meta().bit_word_addr(rec.slot);
            heap.with_alloc_locked(|| -> Result<()> {
                let word = db.image.arena().read_u32(word_addr.0)?;
                physical_update(
                    db,
                    st,
                    txn,
                    op,
                    word_addr,
                    &(word | (1 << bit)).to_le_bytes(),
                )
            })?;
            physical_update(db, st, txn, op, addr, image)?;
            commit_op(db, st, txn, op, LogicalUndo::HeapInsert { rec })?;
            st.deferred_frees.retain(|r| *r != rec);
        }
        LogicalUndo::HeapUpdate { rec, before } => {
            // Compensating update writing the before-image back.
            let heap = db.heap(rec.table)?;
            let addr = heap.meta().slot_addr(rec.slot);
            let op = begin_op(st, txn, OpKind::Update, rec);
            let cur = st.undo.stage(before.len(), |b| db.image.read(addr, b))?;
            rewrite_record(db, st, txn, op, addr, cur, before)?;
            commit_op(
                db,
                st,
                txn,
                op,
                LogicalUndo::HeapUpdate { rec, before: cur },
            )?;
        }
    }
    Ok(())
}

/// Recovery-time rollback of one transaction: its undo entries applied
/// directly in reverse (physical first — they are on top of the stack —
/// then logical compensations), without locks or logging. Each restore
/// is a directed update like any other, so the codewords and the parity
/// stripe stay current, and like [`rewrite_record`] it writes only the
/// span that changes. Returns the `(addr, bytes)` written, in order, for
/// the caller to log.
pub(crate) fn rollback_direct(db: &Db, undo: &LocalUndoLog) -> Result<Vec<(DbAddr, Vec<u8>)>> {
    let mut written = Vec::new();
    let mut restore = |addr: DbAddr, bytes: &[u8]| -> Result<()> {
        let (ws, wl) = dali_common::align::widen_to_words(addr.0, bytes.len());
        let mut old = vec![0u8; wl];
        db.image.read(DbAddr(ws), &mut old)?;
        let Some(span) = changed_span(&old[addr.0 - ws..][..bytes.len()], bytes) else {
            return Ok(());
        };
        let (addr, bytes) = (DbAddr(addr.0 + span.start), &bytes[span]);
        db.image.write(addr, bytes)?;
        db.prot.apply_update(&db.image, DbAddr(ws), &old)?;
        written.push((addr, bytes.to_vec()));
        Ok(())
    };
    for e in undo.iter().rev() {
        // A logical entry restores a record's bytes, its allocation bit,
        // or both.
        let (rec, data, allocated) = match &e.kind {
            UndoKind::Physical { addr, before, .. } => {
                restore(*addr, undo.bytes(*before))?;
                continue;
            }
            UndoKind::Logical(u) => match undo.logical(u) {
                LogicalUndo::HeapInsert { rec } => (rec, None, Some(false)),
                LogicalUndo::HeapDelete { rec, image } => (rec, Some(image), Some(true)),
                LogicalUndo::HeapUpdate { rec, before } => (rec, Some(before), None),
            },
        };
        let heap = db.heap(rec.table)?;
        if let Some(allocated) = allocated {
            let (word_addr, bit) = heap.meta().bit_word_addr(rec.slot);
            let word = db.image.arena().read_u32(word_addr.0)? & !(1 << bit);
            restore(
                word_addr,
                &(word | u32::from(allocated) << bit).to_le_bytes(),
            )?;
        }
        if let Some(data) = data {
            restore(heap.meta().slot_addr(rec.slot), data)?;
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DaliEngine;
    use dali_common::{DaliConfig, Lsn, ProtectionScheme};
    use dali_testutil::TempDir;
    use dali_wal::SystemLog;
    use proptest::collection::vec;
    use proptest::prelude::any;

    proptest::proptest! {
        /// The changed span covers every differing byte, starts and ends
        /// on an 8-byte boundary or at the end, begins and ends with a
        /// chunk that differs, is `None` exactly when the two are equal,
        /// and patching `old` with `new`'s span gives `new`.
        #[test]
        fn changed_span_covers_exactly_the_differing_chunks(
            old in vec(any::<u8>(), 0..300),
            flips in vec((any::<usize>(), 1u8..=255), 0..4),
        ) {
            let mut new = old.clone();
            for &(at, by) in flips.iter().filter(|_| !old.is_empty()) {
                new[at % old.len()] ^= by;
            }
            let differs = |i: usize| old[i] != new[i];
            let Some(span) = changed_span(&old, &new) else {
                proptest::prop_assert_eq!(&old, &new);
                return Ok(());
            };
            proptest::prop_assert!(old != new);
            proptest::prop_assert!((0..old.len()).filter(|&i| differs(i)).all(|i| span.contains(&i)));
            proptest::prop_assert!(span.start % 8 == 0 && span.start < span.end);
            proptest::prop_assert!(span.end % 8 == 0 || span.end == old.len());
            proptest::prop_assert!(span.end <= old.len());
            proptest::prop_assert!((span.start..(span.start + 8).min(span.end)).any(differs));
            proptest::prop_assert!(((span.end - 1) / 8 * 8..span.end).any(differs));
            let mut patched = old.clone();
            patched[span.clone()].copy_from_slice(&new[span]);
            proptest::prop_assert_eq!(patched, new);
        }
    }

    /// An update writes and logs only the 8-byte chunks it changes: a
    /// balance-only update one 8-byte `PhysicalRedo`, an identical one
    /// none, a change of the first and last byte the whole record. The
    /// audit is clean after each, and a restart keeps the committed
    /// identical update and rolls back an uncommitted one.
    #[test]
    fn an_update_logs_only_the_chunks_it_changes() {
        let dir = TempDir::new("txn-changed-span");
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
        let (engine, _) = DaliEngine::create(config.clone()).unwrap();
        let table = engine.create_table("t", 100, 8).unwrap();
        let setup = engine.begin().unwrap();
        let rec = setup.insert(table, &[7; 100]).unwrap();
        setup.commit().unwrap();
        let db = engine.db();
        let slot = db.heap(table).unwrap().meta().slot_addr(rec.slot);
        let writes = |txn: TxnId, start: Lsn| -> Vec<(DbAddr, Vec<u8>)> {
            SystemLog::scan_stable_with(db.syslog.path(), start, db.config.codeword_algebra)
                .unwrap()
                .into_iter()
                .filter_map(|(_, r)| match r {
                    LogRecord::PhysicalRedo {
                        txn: t, addr, data, ..
                    } if t == txn => Some((addr, data)),
                    _ => None,
                })
                .collect()
        };
        let update = |data: &[u8], commit: bool| {
            let start = db.syslog.current_lsn();
            let txn = engine.begin().unwrap();
            let id = txn.id();
            txn.update(rec, data).unwrap();
            if commit {
                txn.commit().unwrap();
            } else {
                db.syslog.flush(false).unwrap();
                std::mem::forget(txn);
            }
            assert!(engine.audit().unwrap().clean());
            writes(id, start)
        };

        let mut balance = [7u8; 100];
        balance[8..16].copy_from_slice(&(-42i64).to_le_bytes());
        let logged = update(&balance, true);
        assert_eq!(logged, [(DbAddr(slot.0 + 8), balance[8..16].to_vec())]);
        assert_eq!(update(&balance, true), []);
        let mut ends = balance;
        (ends[0], ends[99]) = (1, 2);
        assert_eq!(update(&ends, true), [(slot, ends.to_vec())]);
        assert_eq!(update(&ends, true), [], "committed, then crashed");
        assert_eq!(update(&ends, false), [], "open at the crash");
        engine.crash();

        // The second restart replays the first one's logged rollback.
        for rolled_back in [1, 0] {
            let (engine, outcome) = DaliEngine::open(config.clone()).unwrap();
            assert_eq!(outcome.rolled_back_txns.len(), rolled_back);
            let check = engine.begin().unwrap();
            assert_eq!(check.read_vec(rec).unwrap(), ends);
            check.commit().unwrap();
            assert!(engine.audit().unwrap().clean());
            engine.crash();
        }
    }

    /// An operation that fails after its first physical update is rolled
    /// back: its `OpBegin` and after-image never reach the log, while
    /// the read records — the transaction's own read and the one Cw
    /// ReadLogging logs for the write itself (§4.3) — survive in order,
    /// followed by the compensation and the abort.
    #[test]
    fn a_failed_operation_rolls_back_but_keeps_its_read_records() {
        let dir = TempDir::new("txn-failed-op");
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::CwReadLogging);
        let (engine, _) = DaliEngine::create(config).unwrap();
        let table = engine.create_table("t", 16, 8).unwrap();
        let setup = engine.begin().unwrap();
        let rec = setup.insert(table, &[1; 16]).unwrap();
        setup.commit().unwrap();

        let db = engine.db();
        let start = db.syslog.current_lsn();
        let txn = engine.begin().unwrap();
        let mut buf = [0u8; 16];
        txn.read(rec, &mut buf).unwrap();
        let addr = db.heap(table).unwrap().meta().slot_addr(rec.slot);
        {
            let _q = db.quiesce.read();
            let mut st = txn.state.lock();
            let op = begin_op(&mut st, txn.id, OpKind::Update, rec);
            physical_update(db, &mut st, txn.id, op, addr, &[2; 16]).unwrap();
            // ...and the operation fails here, before it commits.
        }
        let id = txn.id;
        txn.abort().unwrap();

        let recs: Vec<LogRecord> =
            SystemLog::scan_stable_with(db.syslog.path(), start, db.config.codeword_algebra)
                .unwrap()
                .into_iter()
                .map(|(_, r)| r)
                .filter(|r| r.txn() == Some(id))
                .collect();
        assert!(matches!(recs[0], LogRecord::TxnBegin { .. }), "{recs:?}");
        assert!(
            matches!(&recs[1], LogRecord::ReadLog { addr: a, len: 16, .. } if *a == addr),
            "the transaction's read: {recs:?}"
        );
        assert!(
            matches!(&recs[2], LogRecord::ReadLog { codewords, .. } if !codewords.is_empty()),
            "the write's read: {recs:?}"
        );
        assert!(
            matches!(&recs[3], LogRecord::PhysicalRedo { data, .. } if data.iter().all(|&b| b == 1)),
            "the compensation restores the before-image: {recs:?}"
        );
        assert!(matches!(recs[4], LogRecord::TxnAbort { .. }), "{recs:?}");
        assert_eq!(recs.len(), 5, "{recs:?}");
        db.image.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1; 16]);
    }

    /// An operation that failed after its write leaves the write in the
    /// image but not in the log. An online repair of that page rebuilds
    /// it from the log, so the write is gone early; the abort that must
    /// follow restores the same before-image and leaves the audit clean.
    #[test]
    fn a_repair_drops_a_failed_operations_write_and_the_abort_agrees() {
        let dir = TempDir::new("txn-failed-op-repair");
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
        let (engine, _) = DaliEngine::create(config).unwrap();
        let table = engine.create_table("t", 16, 8).unwrap();
        let setup = engine.begin().unwrap();
        let rec = setup.insert(table, &[1; 16]).unwrap();
        setup.commit().unwrap();

        let db = engine.db();
        let txn = engine.begin().unwrap();
        let addr = db.heap(table).unwrap().meta().slot_addr(rec.slot);
        {
            let _q = db.quiesce.read();
            let mut st = txn.state.lock();
            let op = begin_op(&mut st, txn.id, OpKind::Update, rec);
            physical_update(db, &mut st, txn.id, op, addr, &[2; 16]).unwrap();
            // ...and the operation fails here, before it commits.
            assert!(st.cur_op.is_some());
        }
        let mut buf = [0u8; 16];
        db.image.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [2; 16]);

        engine.cache_repair(&[(addr, 16)]).unwrap();
        db.image.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1; 16], "the rebuild holds only what the log holds");
        assert!(engine.audit().unwrap().clean());

        txn.abort().unwrap();
        db.image.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1; 16]);
        assert!(engine.audit().unwrap().clean());
    }
}
