//! Transactions: the prescribed update interface and multi-level
//! operations.
//!
//! Every write to the database image goes through
//! [`physical_update`](TxnHandle) — the beginUpdate/endUpdate bracket of
//! the paper (§2): capture a word-widened undo image, write in place,
//! publish the codeword delta, emit a physical redo record. Heap
//! operations (insert/update/delete) are level-1 operations, each run by
//! one operation bracket: an `OpBegin` record, physical updates, and a
//! commit that migrates their redo records plus an `OpCommit` record
//! (carrying the logical undo description) to the system log — Dali's
//! local logging discipline. Images go into the transaction's undo arena
//! and records are framed into its redo buffer as they are produced, so
//! the update path allocates nothing and an operation reaches the log as
//! one copy. An operation that fails undoes itself before it returns:
//! the bracket restores its physical undo, newest first, and cuts its
//! frames, so it never reaches the log and a transaction's undo log holds
//! only committed operations.
//!
//! A rewrite of a whole record (an update, a restore of the rollback)
//! compares the record's current bytes with the new ones a `u64` at a
//! time and brackets only the span from the first to the last 8-byte
//! chunk that differs, or nothing if none does; the logical undo keeps
//! the whole before-image. A TPC-B update, which changes one balance,
//! thus writes, folds and logs 8 bytes instead of its record.
//!
//! Reads dispatch per scheme: plain copy, precheck (§3.1), or read
//! logging (§4.2, with codewords per the §4.3 extension).
//!
//! Lock ordering throughout the engine: `quiesce` (shared) → transaction
//! state mutex → heap alloc mutexes (ascending table order) → protection
//! latches (ascending stripes). Nothing takes an alloc mutex while
//! holding a latch. The checkpointer takes `quiesce` exclusively, then the
//! ATT's map mutex, then transaction state mutexes; so a transaction
//! leaves the ATT under `quiesce` (shared) after it drops its state mutex,
//! in the span that appends its end. Online repair takes `quiesce`
//! exclusively and no state mutex.
//!
//! There is one rollback, `rollback`, for an abort and for restart
//! alike: it restores the transaction's committed operations, newest
//! first, through the update bracket under one fresh operation number,
//! and its caller appends those writes and the `TxnAbort` as one batch.
//! Only [`TxnHandle::abort`] and the handle's drop roll a live
//! transaction back. Online repair leaves it alone: an operation's redo
//! reaches the system log in the same shared `quiesce` span as its
//! writes, so a repair — which holds `quiesce` exclusively and rebuilds
//! from the log — keeps every completed operation. Reads still take
//! `quiesce`, because a repair rewrites whole pages.

use crate::att::{TxnState, TxnStatus};
use crate::db::{Db, EngineStats};
use crate::heap::HeapRuntime;
use crate::lock::LockMode;
use dali_common::{DaliError, DbAddr, OpSeq, RecId, Result, TableId, TxnId};
use dali_wal::record::{LogRecord, LogicalUndo, OpKind};
use dali_wal::Span;
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
    /// database so that the caller reopens it (a normal restart).
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
            // Prevention: the corrupt value never reaches the caller.
            read_persistent(&self.db, addr, buf)?;
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
        let rec = RecId::new(table, heap.reserve()?);
        // A failed insert gives its reservation back, once it has dropped
        // the alloc mutex (`release` takes it).
        self.insert_at(&heap, rec, data)
            .inspect_err(|_| heap.release(rec.slot))?;
        EngineStats::bump(&self.db.stats.inserts);
        Ok(rec)
    }

    /// Insert `data` into `rec`, whose slot this transaction reserved.
    fn insert_at(&self, heap: &HeapRuntime, rec: RecId, data: &[u8]) -> Result<()> {
        self.db.locks.lock(self.id, rec, LockMode::Exclusive)?;
        let _q = self.db.quiesce.read();
        let mut st = self.state.lock();
        // Held from the bitmap write through the operation's append.
        let _alloc = heap.lock_alloc();
        operation(&self.db, &mut st, self.id, OpKind::Insert, rec, |st, op| {
            // Physical update 1: set the allocation bit (control
            // information on its own pages).
            let (word_addr, bit) = heap.meta().bit_word_addr(rec.slot);
            let word = read_bitmap_word(&self.db, word_addr)?;
            let word = (word | (1 << bit)).to_le_bytes();
            physical_update(&self.db, st, self.id, op, word_addr, &word)?;
            // Physical update 2: the record data.
            let addr = heap.meta().slot_addr(rec.slot);
            physical_update(&self.db, st, self.id, op, addr, data)
                .map(|()| LogicalUndo::HeapInsert { rec })
        })
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
        operation(&self.db, &mut st, self.id, OpKind::Update, rec, |st, op| {
            let before = st
                .undo
                .stage(data.len(), |b| read_persistent(&self.db, addr, b))?;
            rewrite_record(&self.db, st, self.id, op, addr, before, data)?;
            Ok(LogicalUndo::HeapUpdate { rec, before })
        })?;
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
        // Held from the bitmap write through the operation's append.
        let _alloc = heap.lock_alloc();
        operation(&self.db, &mut st, self.id, OpKind::Delete, rec, |st, op| {
            let image = st
                .undo
                .stage(heap.meta().rec_size, |b| read_persistent(&self.db, addr, b))?;
            let (word_addr, bit) = heap.meta().bit_word_addr(rec.slot);
            let word = read_bitmap_word(&self.db, word_addr)?;
            let word = (word & !(1 << bit)).to_le_bytes();
            physical_update(&self.db, st, self.id, op, word_addr, &word)?;
            Ok(LogicalUndo::HeapDelete { rec, image })
        })?;
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
            st.redo.push(LogRecord::TxnCommit { txn: self.id });
            commit_end = self.db.syslog.append_frames(&st.redo);
            st.redo.discard();
            st.status = TxnStatus::Committed;
            self.release_slots(std::mem::take(&mut st.deferred_frees));
            drop(st);
            // A checkpoint's ATT must not hold a transaction whose commit
            // its `CK_end` already covers: a restart would roll it back.
            self.db.att.remove(self.id);
        }
        if self.db.config.sync_commit {
            self.db.syslog.commit_durable(commit_end)?;
        } else {
            self.db.syslog.flush(false)?;
        }
        self.db.locks.unlock_all(self.id);
        EngineStats::bump(&self.db.stats.commits);
        Ok(())
    }

    /// Abort: roll back the committed operations (see `rollback`) and log
    /// the restores and the abort record as one batch.
    pub fn abort(self) -> Result<()> {
        self.abort_inner()
    }

    fn abort_inner(&self) -> Result<()> {
        self.db.check_alive()?;
        let freed = {
            let _q = self.db.quiesce.read();
            let mut st = self.state.lock();
            // The alloc mutexes of the heaps the rollback restores into,
            // held through the batch's append: a bitmap word it restores
            // reaches the log in the order it was written.
            let mut tables: Vec<TableId> = st.undo.logical_targets().map(|r| r.table).collect();
            tables.sort_unstable();
            tables.dedup();
            let heaps = tables
                .into_iter()
                .map(|t| self.db.heap(t))
                .collect::<Result<Vec<_>>>()?;
            let _alloc: Vec<_> = heaps.iter().map(|h| h.lock_alloc()).collect();
            if let Err(e) = rollback(&self.db, &mut st, self.id) {
                // Half restored and unlogged: a restart rolls back from
                // the log.
                self.db.poison();
                return Err(e);
            }
            st.redo.push(LogRecord::TxnAbort { txn: self.id });
            self.db.syslog.append_frames(&st.redo);
            st.redo.discard();
            st.status = TxnStatus::Aborted;
            let freed = std::mem::take(&mut st.deferred_frees);
            drop(st);
            // As at commit: out of the ATT before a checkpoint can see it.
            self.db.att.remove(self.id);
            freed
        };
        // `release` takes the alloc mutexes dropped above.
        self.release_slots(freed);
        self.db.locks.unlock_all(self.id);
        EngineStats::bump(&self.db.stats.aborts);
        self.db.syslog.flush(false)?;
        Ok(())
    }

    /// Return the slots a finished transaction freed to their heaps'
    /// mirrors.
    fn release_slots(&self, freed: Vec<RecId>) {
        for rec in freed {
            if let Ok(h) = self.db.heap(rec.table) {
                h.release(rec.slot);
            }
        }
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

/// Read persistent data: a record for [`TxnHandle::read`], or an
/// operation's internals (an update's before-image, a delete's record
/// image, an insert's bitmap word). Under Read Prechecking *every* read
/// of persistent data is checked against its codeword (§3.1); a mismatch
/// notes the region and brings the database down for a restart (§4.1's
/// cache-recovery model).
fn read_persistent(db: &Db, addr: DbAddr, buf: &mut [u8]) -> Result<()> {
    if !db.config.scheme.prechecks_reads() {
        return db.image.read(addr, buf);
    }
    db.prot.checked_read(&db.image, addr, buf).or_else(|e| {
        if let DaliError::CorruptionDetected { addr, len, .. } = e {
            crate::corruption::report_corruption(db, &[(addr, len)])?;
        }
        Err(e)
    })
}

/// Read a bitmap word through the persistent-read path.
fn read_bitmap_word(db: &Db, word_addr: DbAddr) -> Result<u32> {
    let mut w = [0u8; 4];
    read_persistent(db, word_addr, &mut w)?;
    Ok(u32::from_le_bytes(w))
}

/// Run one level-1 operation: its `OpBegin`, `body`, then `commit_op` with
/// the logical undo `body` returns. A failed body undoes itself here,
/// while the caller still holds `quiesce`, the state mutex and any alloc
/// mutex (see `undo_op`), so the operation never reaches the log. Either
/// way the operation's pages are reprotected.
///
/// An `Err` thus means the operation did not happen, or the database is
/// poisoned: the self-undo or the reprotection failed, and only a
/// restart, which recovers from the log, knows the bytes.
fn operation(
    db: &Db,
    st: &mut TxnState,
    txn: TxnId,
    kind: OpKind,
    rec: RecId,
    body: impl FnOnce(&mut TxnState, OpSeq) -> Result<LogicalUndo<Span>>,
) -> Result<()> {
    let op = st.next_op_seq();
    let mark = st.undo.arena_len();
    st.redo.push(LogRecord::OpBegin { txn, op, kind, rec });
    let res = body(st, op);
    let closed = match &res {
        Ok(undo) => {
            commit_op(db, st, txn, op, *undo);
            Ok(())
        }
        Err(_) => undo_op(db, st, op, mark),
    }
    .and_then(|()| reprotect_op_exposures(db, st));
    if closed.is_err() {
        db.poison();
    }
    closed.and(res.map(drop))
}

/// Commit a level-1 operation: migrate its redo records plus the OpCommit
/// record to the system log (one copy of its frames), and replace its
/// physical undo with the logical undo description, whose image the
/// operation staged in the undo arena.
fn commit_op(db: &Db, st: &mut TxnState, txn: TxnId, op: OpSeq, undo: LogicalUndo<Span>) {
    st.redo.push_op_commit(txn, op, st.undo.logical(&undo));
    db.syslog.append_frames(&st.redo);
    st.redo.discard();
    st.undo.commit_op(op, undo);
}

/// Undo failed operation `op` in place: restore its physical undo
/// entries, newest first, then cut them and its `OpBegin` and redo
/// frames. Its read records stay: the reads really happened, and
/// corruption tracing may only overestimate reads, never underestimate
/// (§4.2). An update still inside its window (`codeword_pending`) gets
/// its bytes back only (§3.1: "the undo image for this update should be
/// applied without updating the codeword"); the others publish the
/// inverse delta. Every image it staged, from the arena's `mark` up,
/// goes too. Nothing is logged, and the pages are still exposed.
fn undo_op(db: &Db, st: &mut TxnState, op: OpSeq, mark: usize) -> Result<()> {
    let mode = db.prot.update_latch_mode();
    for p in st.undo.physical().iter().rev() {
        let (addr, before) = (p.addr, st.undo.bytes(p.before));
        let (first, last) = db.prot.geometry().region_span(addr, before.len());
        db.prot.latches().lock_span(first, last, mode);
        let res = (|| -> Result<()> {
            let mut cur = vec![0u8; before.len()];
            db.image.read(addr, &mut cur)?;
            db.image.write(addr, before)?;
            if p.codeword_pending {
                return Ok(());
            }
            db.prot.apply_update(&db.image, addr, &cur)
        })();
        db.prot.latches().unlock_span(first, last, mode);
        res?;
    }
    st.undo.cut_op(mark);
    st.redo.cut_op(op);
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
    op: OpSeq,
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
        st.undo.push_physical_at(waddr, before);

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
        st.undo.seal_top_physical()?;
        st.redo.push_redo(txn, op, addr, data);
        Ok(())
    })();
    db.prot.latches().unlock_span(first, last, mode);
    // Reprotection is deferred to the end of the operation (see
    // reprotect_op_exposures).
    res
}

/// Rewrite the record at `addr`, whose current bytes `old` were staged in
/// the undo arena, as `new`: one [`physical_update`] over the changed span
/// only, or none if nothing changed. Bytes outside the span already hold
/// `new`, so the image and codewords end as a whole-record write leaves
/// them, while the undo image, the delta and the redo shrink to
/// the span.
fn rewrite_record(
    db: &Db,
    st: &mut TxnState,
    txn: TxnId,
    op: OpSeq,
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

/// The rollback, online and at restart: restore the transaction's logical
/// undo, newest entry first, through [`physical_update`] under one fresh
/// operation number, each restore over its changed span only (as
/// [`rewrite_record`] writes). Latching, exposure, codeword deltas, CW
/// ReadLog's write-as-read record and the redo frames all come
/// from that bracket; the caller appends `st.redo` and the `TxnAbort` as
/// one batch, which restart redo applies where it stands in the log. The
/// batch has no `OpCommit`, so a crash that tears it leaves the
/// transaction's logical undo intact, and the next restart rolls it back
/// again under a higher operation number.
///
/// Each entry restores a record's bytes, its allocation bit, or both; the
/// caller holds the alloc mutex of each heap whose bit it restores. A slot
/// the transaction inserted goes back to the mirror when it ends, one it
/// deleted stays taken. There is no physical undo to restore: a failed
/// operation restored its own before it returned.
pub(crate) fn rollback(db: &Db, st: &mut TxnState, txn: TxnId) -> Result<()> {
    let op = st.next_op_seq();
    let undo = std::mem::take(&mut st.undo);
    let restore = |st: &mut TxnState, addr: DbAddr, bytes: &[u8]| -> Result<()> {
        let cur = st.undo.stage(bytes.len(), |b| db.image.read(addr, b))?;
        rewrite_record(db, st, txn, op, addr, cur, bytes)
    };
    for u in undo.iter().rev() {
        let (rec, data, allocated) = match u {
            LogicalUndo::HeapInsert { rec } => (rec, None, Some(false)),
            LogicalUndo::HeapDelete { rec, image } => (rec, Some(image), Some(true)),
            LogicalUndo::HeapUpdate { rec, before } => (rec, Some(before), None),
        };
        let heap = db.heap(rec.table)?;
        if let Some(allocated) = allocated {
            let (word_addr, bit) = heap.meta().bit_word_addr(rec.slot);
            let word = db.image.arena().read_u32(word_addr.0)? & !(1 << bit);
            restore(
                st,
                word_addr,
                &(word | u32::from(allocated) << bit).to_le_bytes(),
            )?;
            st.deferred_frees.retain(|r| *r != rec);
            if !allocated {
                st.deferred_frees.push(rec);
            }
        }
        if let Some(data) = data {
            restore(st, heap.meta().slot_addr(rec.slot), data)?;
        }
    }
    reprotect_op_exposures(db, st)
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

    /// Run one operation of `kind` on `rec` through the operation bracket,
    /// holding what `insert` holds, with a body that stages an image (as
    /// update and delete do), writes `data` at `addr` and then fails.
    fn fail_after_write(txn: &TxnHandle, kind: OpKind, rec: RecId, addr: DbAddr, data: &[u8]) {
        let db = &txn.db;
        let _q = db.quiesce.read();
        let mut st = txn.state.lock();
        let heap = db.heap(rec.table).unwrap();
        let _alloc = heap.lock_alloc();
        let mark = st.undo.arena_len();
        let res = operation(db, &mut st, txn.id, kind, rec, |st, op| {
            st.undo.copy_in(data);
            physical_update(db, st, txn.id, op, addr, data)?;
            Err(DaliError::InvalidArg("fails after its first write".into()))
        });
        assert!(matches!(res, Err(DaliError::InvalidArg(_))), "{res:?}");
        assert!(st.undo.physical().is_empty());
        assert_eq!(st.undo.arena_len(), mark, "staged images left behind");
    }

    /// An insert into `table` that fails right after setting its
    /// allocation bit; returns the slot it had reserved.
    fn fail_insert(txn: &TxnHandle, table: TableId) -> RecId {
        let heap = txn.db.heap(table).unwrap();
        let rec = RecId::new(table, heap.reserve().unwrap());
        let (word_addr, bit) = heap.meta().bit_word_addr(rec.slot);
        let word = txn.db.image.arena().read_u32(word_addr.0).unwrap() | 1 << bit;
        fail_after_write(txn, OpKind::Insert, rec, word_addr, &word.to_le_bytes());
        rec
    }

    /// A failed operation undoes itself before it returns: its `OpBegin`
    /// and after-image never reach the log, while the read records — the
    /// transaction's own read and the one Cw ReadLogging logs for the
    /// write itself (§4.3) — survive in order. The abort that follows has
    /// nothing to restore.
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
        fail_after_write(&txn, OpKind::Update, rec, addr, &[2; 16]);
        db.image.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1; 16], "restored before the operation returned");
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
        assert!(matches!(recs[3], LogRecord::TxnAbort { .. }), "{recs:?}");
        assert_eq!(recs.len(), 4, "{recs:?}");
        assert!(engine.audit().unwrap().clean());
    }

    /// A failed operation leaves neither its write in the image nor its
    /// undo on the stack, so an online repair of its page, which
    /// rebuilds from the log, finds the image already agreeing with the
    /// log, and the abort after it restores nothing.
    #[test]
    fn a_failed_operation_leaves_nothing_for_a_repair_or_the_abort() {
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
        fail_after_write(&txn, OpKind::Update, rec, addr, &[2; 16]);
        assert!(txn.state.lock().undo.is_empty());
        let mut buf = [0u8; 16];
        db.image.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1; 16]);
        assert!(engine.audit().unwrap().clean());

        engine.repair(db.prot.geometry().region_of(addr)).unwrap();
        db.image.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1; 16], "the rebuild holds only what the log holds");
        txn.abort().unwrap();
        db.image.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1; 16]);
        assert!(engine.audit().unwrap().clean());
    }

    /// An aborted insert stays aborted across a restart when an insert of
    /// the same transaction into the same bitmap word failed after its
    /// bitmap write: the failed operation never reaches the log, so
    /// redo cannot apply its restore after the abort's.
    #[test]
    fn an_aborted_insert_stays_gone_after_a_failed_insert_beside_it() {
        let dir = TempDir::new("txn-failed-insert-restart");
        let config = DaliConfig::small(dir.path());
        let (engine, _) = DaliEngine::create(config.clone()).unwrap();
        let table = engine.create_table("t", 16, 64).unwrap();
        let txn = engine.begin().unwrap();
        let a = txn.insert(table, &[1; 16]).unwrap();
        let failed = fail_insert(&txn, table);
        let meta = engine.db().heap(table).unwrap().meta().clone();
        assert_eq!(
            meta.bit_word_addr(a.slot).0,
            meta.bit_word_addr(failed.slot).0
        );
        txn.abort().unwrap();
        engine.db().syslog.flush(false).unwrap();
        engine.crash();

        let (engine, outcome) = DaliEngine::open(config).unwrap();
        assert!(outcome.rolled_back_txns.is_empty());
        let check = engine.begin().unwrap();
        assert!(matches!(check.read_vec(a), Err(DaliError::NotFound(_))));
        check.commit().unwrap();
        assert!(engine.audit().unwrap().clean());
    }

    /// An abort leaves another transaction's committed insert into the
    /// same bitmap word alone, online and after a restart, when the
    /// aborted transaction's insert failed after its bitmap write.
    #[test]
    fn an_abort_keeps_another_transactions_insert_in_the_same_word() {
        let dir = TempDir::new("txn-failed-insert-abort");
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
        let (engine, _) = DaliEngine::create(config.clone()).unwrap();
        let table = engine.create_table("t", 16, 64).unwrap();
        let t1 = engine.begin().unwrap();
        let failed = fail_insert(&t1, table);
        let t2 = engine.begin().unwrap();
        let b = t2.insert(table, &[2; 16]).unwrap();
        t2.commit().unwrap();
        let meta = engine.db().heap(table).unwrap().meta().clone();
        assert_eq!(
            meta.bit_word_addr(b.slot).0,
            meta.bit_word_addr(failed.slot).0
        );
        t1.abort().unwrap();

        let check = engine.begin().unwrap();
        assert_eq!(check.read_vec(b).unwrap(), [2; 16]);
        check.commit().unwrap();
        assert!(engine.audit().unwrap().clean());
        engine.db().syslog.flush(false).unwrap();
        engine.crash();
        let (engine, _) = DaliEngine::open(config).unwrap();
        let check = engine.begin().unwrap();
        assert_eq!(check.read_vec(b).unwrap(), [2; 16]);
        check.commit().unwrap();
    }

    /// Two inserts into one bitmap word reach the log in the order they
    /// wrote it. T1 is held after its bitmap write (a latch on its record
    /// region, its second write), while T2 inserts into the same word;
    /// T1's alloc mutex, held through its append, keeps T2 out until T1's
    /// word is in the log, so a restart keeps both records.
    #[test]
    fn concurrent_inserts_into_one_bitmap_word_both_survive_a_restart() {
        use dali_codeword::LatchMode;
        use std::sync::mpsc;
        use std::time::Duration;

        let dir = TempDir::new("txn-bitmap-word-order");
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
        let (engine, _) = DaliEngine::create(config.clone()).unwrap();
        let table = engine.create_table("t", 64, 64).unwrap();
        let db = engine.db();
        let meta = db.heap(table).unwrap().meta().clone();
        let (word_addr, _) = meta.bit_word_addr(dali_common::SlotId(0));
        let region = |addr: DbAddr, len| db.prot.geometry().region_span(addr, len);
        let (first, last) = region(meta.slot_addr(dali_common::SlotId(0)), 64);
        // T2's writes (slot 1 and the bitmap word) must not wait on it.
        assert!(region(meta.slot_addr(dali_common::SlotId(1)), 64).0 > last);
        assert!(region(word_addr, 4).1 < first);

        let insert = |byte: u8| {
            let txn = engine.begin().unwrap();
            let rec = txn.insert(table, &[byte; 64]).unwrap();
            txn.commit().unwrap();
            rec
        };
        let (a, b) = std::thread::scope(|s| {
            db.prot
                .latches()
                .lock_span(first, last, LatchMode::Exclusive);
            let t1 = s.spawn(|| insert(1));
            while db.image.arena().read_u32(word_addr.0).unwrap() & 1 == 0 {
                std::thread::yield_now();
            }
            let (tx, rx) = mpsc::channel();
            let t2 = s.spawn(move || {
                tx.send(()).unwrap();
                let rec = insert(2);
                let _ = tx.send(());
                rec
            });
            rx.recv().unwrap();
            // The time T2 gets to overtake T1's append. Without the held
            // mutex it commits within it; with the mutex it cannot, and
            // the outcome does not depend on the wait.
            let _ = rx.recv_timeout(Duration::from_millis(200));
            db.prot
                .latches()
                .unlock_span(first, last, LatchMode::Exclusive);
            (t1.join().unwrap(), t2.join().unwrap())
        });
        assert_ne!(a, b);
        db.syslog.flush(false).unwrap();
        engine.crash();

        let (engine, _) = DaliEngine::open(config).unwrap();
        let check = engine.begin().unwrap();
        assert_eq!(check.read_vec(a).unwrap(), [1; 64]);
        assert_eq!(check.read_vec(b).unwrap(), [2; 64]);
        check.commit().unwrap();
    }

    /// An insert that fails after it reserved its slot gives the
    /// reservation back: here a failed precheck of its bitmap word.
    #[test]
    fn a_failed_insert_releases_its_slot_reservation() {
        let dir = TempDir::new("txn-failed-insert-slot");
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::ReadPrecheck);
        let (engine, _) = DaliEngine::create(config).unwrap();
        let table = engine.create_table("t", 16, 8).unwrap();
        let setup = engine.begin().unwrap();
        setup.insert(table, &[1; 16]).unwrap();
        setup.commit().unwrap();
        let db = engine.db();
        let heap = db.heap(table).unwrap();
        let in_use = heap.in_use();
        // A wild write beside the bitmap word, in its region.
        let (word_addr, _) = heap.meta().bit_word_addr(dali_common::SlotId(0));
        db.image.write(DbAddr(word_addr.0 + 8), &[0xa5]).unwrap();

        let txn = engine.begin().unwrap();
        let res = txn.insert(table, &[2; 16]);
        assert!(
            matches!(res, Err(DaliError::CorruptionDetected { .. })),
            "{res:?}"
        );
        assert_eq!(heap.in_use(), in_use);
    }
}
