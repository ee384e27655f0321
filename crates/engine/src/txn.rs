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
//! discipline.
//!
//! Reads dispatch per scheme: plain copy, precheck (§3.1), or read
//! logging (§4.2, with codewords per the §4.3 extension).
//!
//! Lock ordering throughout the engine: `quiesce` (shared) → transaction
//! state mutex → heap alloc mutex → protection latches (ascending
//! stripes) → deferred dirty-set shard mutex. The checkpointer takes
//! `quiesce` exclusively and then transaction state mutexes, which is
//! consistent with this order; the dirty-set shard mutex is only ever
//! taken after latches (updaters enqueue inside their bracket, auditors
//! drain under the exclusive stripe latch) and never while acquiring
//! one.

use crate::att::{InFlightUpdate, OpState, TxnState, TxnStatus};
use crate::db::{Db, EngineStats};
use crate::lock::LockMode;
use dali_common::{DaliError, DbAddr, RecId, Result, TableId, TxnId};
use dali_wal::record::{LogRecord, LogicalUndo, OpKind};
use dali_wal::{UndoEntry, UndoKind};
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
            let mut st = self.state.lock();
            st.redo.push(LogRecord::ReadLog {
                txn: self.id,
                addr,
                len: buf.len() as u32,
                codewords: cws,
            });
            EngineStats::bump(&self.db.stats.read_log_records);
        } else if scheme.logs_reads() {
            self.db.image.read(addr, buf)?;
            let mut st = self.state.lock();
            st.redo.push(LogRecord::ReadLog {
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
        if !heap.is_allocated_in_image(&self.db.image, rec.slot)? {
            return Err(DaliError::NotFound(format!("record {rec}")));
        }
        let addr = heap.meta().slot_addr(rec.slot);
        let _q = self.db.quiesce.read();
        let mut st = self.state.lock();
        let op = begin_op(&mut st, self.id, OpKind::Update, rec);
        let mut before = vec![0u8; data.len()];
        read_persistent(&self.db, addr, &mut before)?;
        physical_update(&self.db, &mut st, self.id, op, addr, data)?;
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
        if !heap.is_allocated_in_image(&self.db.image, rec.slot)? {
            return Err(DaliError::NotFound(format!("record {rec}")));
        }
        let addr = heap.meta().slot_addr(rec.slot);
        let _q = self.db.quiesce.read();
        let mut st = self.state.lock();
        let op = begin_op(&mut st, self.id, OpKind::Delete, rec);
        let mut image = vec![0u8; heap.meta().rec_size];
        read_persistent(&self.db, addr, &mut image)?;
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
    /// the system log, flush it (durably, group-committed under
    /// [`DaliConfig::commit_window`](dali_common::DaliConfig) when
    /// `sync_commit` is set), release locks.
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
            let mut batch = st.redo.drain();
            batch.push(LogRecord::TxnCommit { txn: self.id });
            let (_, end) = self.db.syslog.append_batch(&batch);
            commit_end = end;
            st.status = TxnStatus::Committed;
            for rec in std::mem::take(&mut st.deferred_frees) {
                if let Ok(h) = self.db.heap(rec.table) {
                    h.release(rec.slot);
                }
            }
        }
        if self.db.config.sync_commit {
            self.db
                .syslog
                .commit_durable(commit_end, self.db.config.commit_window)?;
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
            let mut batch = st.redo.drain();
            batch.push(LogRecord::TxnAbort { txn: self.id });
            self.db.syslog.append_batch(&batch);
            st.status = TxnStatus::Aborted;
            for rec in std::mem::take(&mut st.deferred_frees) {
                if let Ok(h) = self.db.heap(rec.table) {
                    h.release(rec.slot);
                }
            }
        }
        self.db.syslog.flush(false)?;
        self.db.locks.unlock_all(self.id);
        self.db.att.remove(self.id);
        EngineStats::bump(&self.db.stats.aborts);
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
/// record to the system log (one atomic batch), and replace its physical
/// undo with the logical undo description.
fn commit_op(
    db: &Db,
    st: &mut TxnState,
    txn: TxnId,
    op: dali_common::OpSeq,
    undo: LogicalUndo,
) -> Result<()> {
    let mut batch = st.redo.drain();
    batch.push(LogRecord::OpCommit {
        txn,
        op,
        undo: undo.clone(),
    });
    db.syslog.append_batch(&batch);
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
        // Capture the before-image *inside* the latch span: under
        // exclusive update latching a concurrent updater could otherwise
        // slip a write between our read and our span acquisition, and the
        // stale before-image would corrupt the codeword delta at
        // endUpdate.
        let mut old = vec![0u8; wl];
        db.image.read(waddr, &mut old)?;
        st.undo.push_physical(op, waddr, old.clone());
        st.cur_update = Some(InFlightUpdate {
            waddr,
            wlen: wl,
            exact_addr: addr,
            exact_len: len,
            latch_first: first,
            latch_last: last,
            latch_mode: mode,
        });

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
        db.prot.apply_update(&db.image, waddr, &old)?;
        st.undo.seal_top_physical(op)?;
        st.redo.push(LogRecord::PhysicalRedo {
            txn,
            op,
            addr,
            data: data.to_vec(),
        });
        Ok(())
    })();
    db.prot.latches().unlock_span(first, last, mode);
    // Reprotection is deferred to the end of the operation (see
    // reprotect_op_exposures).
    st.cur_update = None;
    res
}

/// Roll back everything in the transaction's undo log, level by level:
/// physical restores first (they are always on top of the stack), then
/// logical compensations executed as fresh operations.
pub(crate) fn rollback_txn(db: &Db, st: &mut TxnState, txn: TxnId) -> Result<()> {
    // Close the failed operation's exposure window first.
    reprotect_op_exposures(db, st)?;
    // If an operation is in progress, its unmigrated redo records must not
    // reach the system log — but keep the transaction's read log records:
    // the reads really happened, and corruption tracing may only
    // overestimate reads, never underestimate (§4.2).
    if let Some(op) = st.cur_op.take() {
        let kept: Vec<LogRecord> = st
            .redo
            .drain()
            .into_iter()
            .filter(|r| {
                !matches!(
                    r,
                    LogRecord::OpBegin { op: o, .. } | LogRecord::PhysicalRedo { op: o, .. }
                    if *o == op.seq
                )
            })
            .collect();
        for r in kept {
            st.redo.push(r);
        }
    }

    // Snapshot the undo stack before compensating: the compensating
    // operations themselves push fresh logical-undo entries (needed on the
    // *log* so a crash mid-rollback resumes correctly), but processing
    // those in this same loop would undo the compensations just made —
    // an infinite regress. The in-memory entries they leave behind are
    // discarded at the end; the transaction is over.
    let mut entries = Vec::with_capacity(st.undo.len());
    while let Some(e) = st.undo.pop() {
        entries.push(e);
    }
    for entry in entries {
        match entry.kind {
            UndoKind::Physical {
                addr,
                before,
                codeword_pending,
            } => {
                rollback_physical(db, st, txn, entry.op, addr, before, codeword_pending)?;
            }
            UndoKind::Logical(undo) => {
                compensate_logical(db, st, txn, undo)?;
            }
        }
    }
    while st.undo.pop().is_some() {}
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
    before: Vec<u8>,
    codeword_pending: bool,
) -> Result<()> {
    let mode = db.prot.update_latch_mode();
    let (first, last) = db.prot.geometry().region_span(addr, before.len());
    db.protector.expose(addr, before.len())?;
    db.prot.latches().lock_span(first, last, mode);
    let res = (|| -> Result<()> {
        if codeword_pending {
            db.image.write(addr, &before)?;
        } else {
            let mut cur = vec![0u8; before.len()];
            db.image.read(addr, &mut cur)?;
            db.image.write(addr, &before)?;
            // The restore is itself a directed update (current bytes →
            // before-image), so publishing its delta inverts the original
            // one under every algebra.
            db.prot.apply_update(&db.image, addr, &cur)?;
            st.redo.push(LogRecord::PhysicalRedo {
                txn,
                op,
                addr,
                data: before.clone(),
            });
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
fn compensate_logical(db: &Db, st: &mut TxnState, txn: TxnId, undo: LogicalUndo) -> Result<()> {
    match undo {
        LogicalUndo::HeapInsert { rec } => {
            // Compensating delete.
            let heap = db.heap(rec.table)?;
            let addr = heap.meta().slot_addr(rec.slot);
            let op = begin_op(st, txn, OpKind::Delete, rec);
            let mut image = vec![0u8; heap.meta().rec_size];
            db.image.read(addr, &mut image)?;
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
            physical_update(db, st, txn, op, addr, &image)?;
            commit_op(db, st, txn, op, LogicalUndo::HeapInsert { rec })?;
            st.deferred_frees.retain(|r| *r != rec);
        }
        LogicalUndo::HeapUpdate { rec, before } => {
            // Compensating update writing the before-image back.
            let heap = db.heap(rec.table)?;
            let addr = heap.meta().slot_addr(rec.slot);
            let op = begin_op(st, txn, OpKind::Update, rec);
            let mut cur = vec![0u8; before.len()];
            db.image.read(addr, &mut cur)?;
            physical_update(db, st, txn, op, addr, &before)?;
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

/// Apply a logical undo *directly* to the image without transactions,
/// latching, or logging — used by restart recovery's undo phase, which is
/// single-threaded and followed by a checkpoint.
pub(crate) fn apply_logical_undo_direct(db: &Db, undo: &LogicalUndo) -> Result<()> {
    match undo {
        LogicalUndo::HeapInsert { rec } => {
            let heap = db.heap(rec.table)?;
            let (word_addr, bit) = heap.meta().bit_word_addr(rec.slot);
            let word = db.image.arena().read_u32(word_addr.0)?;
            db.image
                .write(word_addr, &(word & !(1 << bit)).to_le_bytes())?;
        }
        LogicalUndo::HeapDelete { rec, image } => {
            let heap = db.heap(rec.table)?;
            let (word_addr, bit) = heap.meta().bit_word_addr(rec.slot);
            let word = db.image.arena().read_u32(word_addr.0)?;
            db.image
                .write(word_addr, &(word | (1 << bit)).to_le_bytes())?;
            db.image.write(heap.meta().slot_addr(rec.slot), image)?;
        }
        LogicalUndo::HeapUpdate { rec, before } => {
            let heap = db.heap(rec.table)?;
            db.image.write(heap.meta().slot_addr(rec.slot), before)?;
        }
    }
    Ok(())
}

/// Restore a physical before-image directly (recovery undo phase).
pub(crate) fn apply_physical_undo_direct(db: &Db, addr: DbAddr, before: &[u8]) -> Result<()> {
    db.image.write(addr, before)
}

/// Recovery-time helper: the undo entries of a transaction, applied
/// directly in reverse (physical first — they are on top of the stack —
/// then logical compensations).
pub(crate) fn rollback_direct(db: &Db, undo: &mut dali_wal::LocalUndoLog) -> Result<()> {
    let mut entries: Vec<UndoEntry> = Vec::new();
    while let Some(e) = undo.pop() {
        entries.push(e);
    }
    for e in &entries {
        match &e.kind {
            UndoKind::Physical { addr, before, .. } => {
                apply_physical_undo_direct(db, *addr, before)?;
            }
            UndoKind::Logical(u) => {
                apply_logical_undo_direct(db, u)?;
            }
        }
    }
    Ok(())
}
