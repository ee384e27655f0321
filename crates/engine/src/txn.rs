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
//!
//! A handle's verbs can run in *no-wait* mode
//! ([`TxnHandle::set_no_wait`]), for a caller that must not block — the
//! network server's readiness loop. There a record lock that cannot be
//! granted at once, or `quiesce` held or wanted by a writer, fails the
//! verb with [`DaliError::WouldWait`] before it has any effect: `quiesce`
//! is tried before the record lock, a refused lock leaves no trace in
//! the lock table or the deadlock detector, and nothing reaches the undo,
//! the redo or the ATT. The caller runs the verb again, waiting. A
//! commit is two steps, [`TxnHandle::log_commit`] and
//! [`TxnHandle::acknowledge`]: a caller that must not block holds the
//! handle in between, with its record locks, instead of waiting for the
//! fsync.

use crate::att::{TxnState, TxnStatus};
use crate::db::{Db, EngineStats};
use crate::heap::HeapRuntime;
use crate::lock::LockMode;
use dali_common::{DaliError, DbAddr, Lsn, OpSeq, RecId, Result, TableId, TxnId};
use dali_wal::record::{LogRecord, LogicalUndo, OpKind};
use dali_wal::Span;
use parking_lot::{Mutex, RwLockReadGuard};
use std::sync::Arc;

/// Handle to an active transaction.
///
/// Dropping an unfinished handle aborts the transaction (best effort).
pub struct TxnHandle {
    db: Arc<Db>,
    id: TxnId,
    state: Arc<Mutex<TxnState>>,
    /// Refuse to wait (see the module docs); off unless set.
    no_wait: bool,
}

impl TxnHandle {
    /// Begin a new transaction on `db`.
    pub(crate) fn begin(db: Arc<Db>) -> Result<TxnHandle> {
        db.check_alive()?;
        let id = db.next_txn_id();
        let state = db.att.insert(id);
        state.lock().redo.push(LogRecord::TxnBegin { txn: id });
        Ok(TxnHandle {
            db,
            id,
            state,
            no_wait: false,
        })
    }

    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Run the verbs that follow in no-wait mode, or not: a verb that
    /// would wait for a record lock or for `quiesce` then fails with
    /// [`DaliError::WouldWait`] and has no effect.
    pub fn set_no_wait(&mut self, no_wait: bool) {
        self.no_wait = no_wait;
    }

    /// Take `quiesce` shared, or in no-wait mode only if it is free.
    fn quiesce(&self) -> Result<RwLockReadGuard<'_, ()>> {
        if self.no_wait {
            self.db.quiesce.try_read().ok_or(DaliError::WouldWait)
        } else {
            Ok(self.db.quiesce.read())
        }
    }

    /// Take `rec`'s lock in `mode`, or in no-wait mode only if it is
    /// granted at once.
    fn lock(&self, rec: RecId, mode: LockMode) -> Result<()> {
        if self.no_wait {
            self.db.locks.try_lock(self.id, rec, mode)
        } else {
            self.db.locks.lock(self.id, rec, mode)
        }
    }

    /// Take `rec`'s lock in `mode`, then `quiesce` shared. In no-wait
    /// mode `quiesce` is tried first, so that a refusal of either leaves
    /// nothing taken; the order does not matter there, as neither waits.
    fn lock_and_quiesce(&self, rec: RecId, mode: LockMode) -> Result<RwLockReadGuard<'_, ()>> {
        if self.no_wait {
            let q = self.quiesce()?;
            self.lock(rec, mode)?;
            Ok(q)
        } else {
            self.lock(rec, mode)?;
            self.quiesce()
        }
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
        let _q = self.lock_and_quiesce(rec, LockMode::Shared)?;
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
        let _q = self.lock_and_quiesce(rec, LockMode::Exclusive)?;
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
        self.lock(rec, LockMode::Exclusive)
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
        let _q = self.lock_and_quiesce(rec, LockMode::Exclusive)?;
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
        let _q = self.lock_and_quiesce(rec, LockMode::Exclusive)?;
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
        self.commit_in_place()
    }

    /// [`commit`](Self::commit) through a shared reference, for a caller
    /// that keeps the handle in a slot: a [`DaliError::WouldWait`]
    /// refusal leaves the transaction open, and any other outcome ends
    /// it, after which the handle is only dropped.
    pub fn commit_in_place(&self) -> Result<()> {
        let end = self.log_commit()?;
        let durable = if self.db.config.sync_commit {
            self.db.syslog.request_durable(end);
            self.db.syslog.wait_durable(end)
        } else {
            Ok(())
        };
        self.acknowledge(durable)
    }

    /// The log step of a commit: append the commit, leave the ATT and
    /// write the tail; returns the LSN its durability waits for. The
    /// record locks stay until [`acknowledge`](Self::acknowledge) or the
    /// drop; a failed write releases them here.
    pub fn log_commit(&self) -> Result<Lsn> {
        self.db.check_alive()?;
        {
            let _q = self.quiesce()?;
            let mut st = self.state.lock();
            st.redo.push(LogRecord::TxnCommit { txn: self.id });
            self.db.syslog.append_frames(&st.redo);
            st.redo.discard();
            st.status = TxnStatus::Logged;
            self.release_slots(std::mem::take(&mut st.deferred_frees));
            drop(st);
            // A checkpoint's ATT must not hold a transaction whose commit
            // its `CK_end` already covers: a restart would roll it back.
            self.db.att.remove(self.id);
        }
        self.db
            .syslog
            .flush(false)
            .inspect_err(|_| self.release_locks())
    }

    /// Acknowledge a logged commit with the outcome of the wait for its
    /// LSN: release its record locks, and count it if it holds.
    pub fn acknowledge(&self, durable: Result<()>) -> Result<()> {
        self.release_locks();
        durable?;
        EngineStats::bump(&self.db.stats.commits);
        Ok(())
    }

    /// Release a logged commit's record locks, once.
    fn release_locks(&self) {
        let mut st = self.state.lock();
        if st.status == TxnStatus::Logged {
            st.status = TxnStatus::Committed;
            drop(st);
            self.db.locks.unlock_all(self.id);
        }
    }

    /// Abort: roll back the committed operations (see `rollback`) and log
    /// the restores and the abort record as one batch.
    pub fn abort(self) -> Result<()> {
        self.abort_in_place()
    }

    /// [`abort`](Self::abort) through a shared reference, as
    /// [`commit_in_place`](Self::commit_in_place) commits.
    pub fn abort_in_place(&self) -> Result<()> {
        self.db.check_alive()?;
        let freed = {
            let _q = self.quiesce()?;
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
            self.no_wait = false;
            let _ = self.abort_in_place();
        }
        self.release_locks();
        let mut st = self.state.lock();
        if st.status != TxnStatus::Active {
            self.db.att.recycle(&mut st);
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
    use dali_common::storage::{Open, Storage, StorageFile};
    use dali_common::{DaliConfig, Lsn, OsStorage, ProtectionScheme};
    use dali_testutil::TempDir;
    use dali_wal::SystemLog;
    use proptest::collection::vec;
    use proptest::prelude::any;
    use std::path::Path;

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

    /// What a refused no-wait verb must leave as it was: the lock table
    /// and the deadlock detector, the ATT, and the transaction's undo
    /// (arena and stacks) and redo.
    fn footprint(txn: &TxnHandle) -> impl PartialEq + std::fmt::Debug {
        let st = txn.state.lock();
        (
            txn.db.locks.snapshot(),
            txn.db.att.len(),
            (st.undo.arena_len(), st.undo.len(), st.undo.physical().len()),
            (st.redo.len(), st.next_op),
        )
    }

    /// Every verb in no-wait mode that would wait — for a record another
    /// transaction holds, for an upgrade beside another reader, or for a
    /// held `quiesce` — fails with `WouldWait` and has no effect; an
    /// insert gives its reserved slot back. Waiting again, the same
    /// transaction runs on.
    #[test]
    fn a_no_wait_verb_that_would_wait_has_no_effect() {
        let dir = TempDir::new("txn-no-wait");
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
        let (engine, _) = DaliEngine::create(config).unwrap();
        let table = engine.create_table("t", 16, 8).unwrap();
        let setup = engine.begin().unwrap();
        let [a, b, c] = [1u8, 2, 3].map(|v| setup.insert(table, &[v; 16]).unwrap());
        setup.commit().unwrap();
        let db = engine.db();
        let heap = db.heap(table).unwrap();

        let holder = engine.begin().unwrap();
        holder.lock_exclusive(a).unwrap();
        holder.read_vec(b).unwrap();
        let mut txn = engine.begin().unwrap();
        txn.update(c, &[4; 16]).unwrap();
        txn.set_no_wait(true);
        txn.read_vec(b).unwrap();
        let would_wait = |what: &str, res: Result<()>| {
            assert!(matches!(res, Err(DaliError::WouldWait)), "{what}: {res:?}");
        };

        let before = footprint(&txn);
        let in_use = heap.in_use();
        would_wait("read of a held record", txn.read_vec(a).map(drop));
        would_wait("update of a held record", txn.update(a, &[5; 16]));
        would_wait("delete of a held record", txn.delete(a));
        would_wait("lock of a held record", txn.lock_exclusive(a));
        would_wait("upgrade beside a reader", txn.update(b, &[5; 16]));
        assert_eq!(footprint(&txn), before);
        {
            let _q = db.quiesce.write();
            would_wait("read", txn.read_vec(c).map(drop));
            would_wait("update", txn.update(c, &[5; 16]));
            would_wait("delete", txn.delete(c));
            would_wait("insert", txn.insert(table, &[5; 16]).map(drop));
            would_wait("commit", txn.commit_in_place());
            would_wait("abort", txn.abort_in_place());
            assert_eq!(footprint(&txn), before);
            assert_eq!(heap.in_use(), in_use, "the insert kept its slot");
        }

        holder.commit().unwrap();
        txn.update(b, &[6; 16]).unwrap();
        txn.set_no_wait(false);
        txn.update(a, &[6; 16]).unwrap();
        txn.commit().unwrap();
        let check = engine.begin().unwrap();
        for (rec, v) in [(a, 6), (b, 6), (c, 4)] {
            assert_eq!(check.read_vec(rec).unwrap(), [v; 16]);
        }
        check.commit().unwrap();
        assert!(engine.audit().unwrap().clean());
    }

    /// The OS store, except that once `armed` every fsync of a log
    /// segment fails.
    #[derive(Default)]
    struct FailSegmentFsync(std::sync::atomic::AtomicBool);

    struct FailingFile(Box<dyn StorageFile>, Arc<FailSegmentFsync>);

    impl StorageFile for FailingFile {
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
            if self.1 .0.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(std::io::Error::other("segment fsync fails"));
            }
            self.0.fsync()
        }
    }

    struct FailingStore(Arc<FailSegmentFsync>);

    impl Storage for FailingStore {
        fn open(&self, path: &Path, how: Open) -> std::io::Result<Box<dyn StorageFile>> {
            let file = OsStorage.open(path, how)?;
            if path.to_string_lossy().contains(".seg") {
                return Ok(Box::new(FailingFile(file, Arc::clone(&self.0))));
            }
            Ok(file)
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
    }

    /// A durable commit whose fsync fails ends the transaction with the
    /// error and releases its record locks: a second transaction's
    /// no-wait lock on the record is granted at once, while the failed
    /// handle is still held.
    #[test]
    fn a_failed_durable_commit_releases_its_locks() {
        let dir = TempDir::new("txn-failed-fsync");
        let fail = Arc::new(FailSegmentFsync::default());
        let mut config = DaliConfig::small(dir.path());
        config.sync_commit = true;
        let (engine, _) =
            DaliEngine::create_on(config, Arc::new(FailingStore(Arc::clone(&fail)))).unwrap();
        let table = engine.create_table("t", 16, 8).unwrap();
        let setup = engine.begin().unwrap();
        let rec = setup.insert(table, &[1; 16]).unwrap();
        setup.commit().unwrap();

        let txn = engine.begin().unwrap();
        txn.update(rec, &[2; 16]).unwrap();
        fail.0.store(true, std::sync::atomic::Ordering::SeqCst);
        let res = txn.commit_in_place();
        assert!(matches!(res, Err(DaliError::Io(_))), "{res:?}");
        let mut other = engine.begin().unwrap();
        other.set_no_wait(true);
        other.lock_exclusive(rec).unwrap();
        drop(txn);
        drop(other);
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
