//! A Dali-style main-memory storage manager with codeword corruption
//! protection and delete-transaction corruption recovery.
//!
//! This crate is the reproduction of the system evaluated in *"Using
//! Codewords to Protect Database Data from a Class of Software Errors"*
//! (ICDE 1999): a main-memory database with in-place updates through a
//! prescribed `beginUpdate`/`endUpdate` interface, multi-level recovery
//! with per-transaction local logging, ping-pong checkpointing — plus the
//! paper's contribution layered on top: codeword maintenance, read
//! prechecking, asynchronous audits, read logging, and recovery that
//! deletes corruption-carrying transactions from history.
//!
//! # Quick start
//!
//! ```no_run
//! use dali_engine::DaliEngine;
//! use dali_common::{DaliConfig, ProtectionScheme};
//!
//! let config = DaliConfig::small("/tmp/mydb")
//!     .with_scheme(ProtectionScheme::ReadLogging);
//! let (db, _outcome) = DaliEngine::create(config).unwrap();
//! let accounts = db.create_table("accounts", 100, 10_000).unwrap();
//!
//! let txn = db.begin().unwrap();
//! let rec = txn.insert(accounts, &[0u8; 100]).unwrap();
//! let value = txn.read_vec(rec).unwrap();
//! assert_eq!(value.len(), 100);
//! txn.commit().unwrap();
//! ```

pub mod att;
pub mod catalog;
pub mod ckpt;
pub mod corruption;
pub mod db;
pub mod heap;
pub mod lock;
pub mod maintenance;
pub mod recovery;
pub mod repair;
pub mod trace;
pub mod txn;

pub use ckpt::CheckpointOutcome;
pub use corruption::{CorruptionMarker, RangeSet};
pub use lock::{LockManager, LockMode};
pub use recovery::{RecoveryMode, RecoveryOutcome};
pub use repair::RepairOutcome;
pub use txn::TxnHandle;

use dali_codeword::AuditReport;
use dali_common::{CrashPoints, DaliConfig, DaliError, DbAddr, Result, TableId};
use dali_wal::record::LogRecord;
use db::Db;
use std::sync::Arc;

/// The public engine handle.
///
/// Cloning is cheap (the engine state is shared); the database shuts down
/// when the last handle is dropped. [`DaliEngine::crash`] simulates a
/// process crash: the in-memory image and unflushed log tail are lost,
/// the on-disk checkpoint images and stable log survive, and a subsequent
/// [`DaliEngine::open`] runs restart recovery.
#[derive(Clone)]
pub struct DaliEngine {
    db: Arc<Db>,
}

impl DaliEngine {
    /// Create a fresh database in `config.dir`.
    pub fn create(config: DaliConfig) -> Result<(DaliEngine, RecoveryOutcome)> {
        let (db, outcome) = recovery::create(config)?;
        Ok((DaliEngine { db }, outcome))
    }

    /// Open an existing database, running restart recovery (normal or
    /// corruption mode, depending on what brought the database down and
    /// which protection scheme is configured).
    pub fn open(config: DaliConfig) -> Result<(DaliEngine, RecoveryOutcome)> {
        let (db, outcome) = recovery::restart(config)?;
        Ok((DaliEngine { db }, outcome))
    }

    /// Prior-state recovery (paper §4.1's second model): reopen the
    /// database at the transaction-consistent state it had at log
    /// position `upto`, discarding (and truncating) everything after it.
    /// Capture candidate positions with [`current_lsn`](Self::current_lsn).
    pub fn open_prior_state(
        config: DaliConfig,
        upto: dali_common::Lsn,
    ) -> Result<(DaliEngine, RecoveryOutcome)> {
        let (db, outcome) = recovery::restore_prior_state(config, upto)?;
        Ok((DaliEngine { db }, outcome))
    }

    /// The current end of the system log. Flushes first, so the returned
    /// position is stable and usable as a prior-state recovery point.
    pub fn current_lsn(&self) -> Result<dali_common::Lsn> {
        self.db.check_alive()?;
        self.db.syslog.flush(false)
    }

    /// Trace the taint closure of user-identified *logically* corrupt
    /// transactions through the read log (paper §7). Requires a
    /// read-logging scheme to be meaningful; the report's
    /// `read_records_seen` tells the caller whether the trace could see
    /// reads at all.
    pub fn trace_logical_corruption(
        &self,
        seeds: &[dali_common::TxnId],
    ) -> Result<trace::TaintReport> {
        self.db.check_alive()?;
        self.db.syslog.flush(false)?;
        self.db.syslog.settle()?;
        trace::trace_taint(
            &Db::log_path(&self.db.config.dir),
            dali_common::Lsn::ZERO,
            seeds,
            self.db.config.codeword_algebra,
        )
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Result<TxnHandle> {
        txn::TxnHandle::begin(Arc::clone(&self.db))
    }

    /// Create a table of fixed-size records (auto-committed DDL).
    ///
    /// `rec_size` must be a multiple of 4 (records are word-aligned for
    /// codeword maintenance). Allocation bitmaps get their own pages,
    /// separate from record data (the Dali layout, paper §2).
    pub fn create_table(&self, name: &str, rec_size: usize, capacity: usize) -> Result<TableId> {
        self.db.check_alive()?;
        let _q = self.db.quiesce.read();
        let mut catalog = self.db.catalog.write();
        let meta = catalog.plan_table_with_layout(
            name,
            rec_size,
            capacity,
            self.db.config.page_size,
            self.db.config.db_bytes(),
            self.db.config.colocate_control,
        )?;
        let table = meta.table;
        self.db.syslog.append(&LogRecord::CreateTable {
            table,
            name: name.to_string(),
            rec_size: rec_size as u32,
            capacity: capacity as u64,
            bitmap_base: meta.bitmap_base,
            data_base: meta.data_base,
        });
        self.db.syslog.flush(self.db.config.sync_commit)?;
        catalog.register(meta.clone())?;
        self.db
            .heaps
            .write()
            .push(Arc::new(heap::HeapRuntime::new(meta)));
        Ok(table)
    }

    /// Look up a table id by name.
    pub fn table(&self, name: &str) -> Result<TableId> {
        Ok(self.db.catalog.read().by_name(name)?.table)
    }

    /// Record size of a table.
    pub fn record_size(&self, table: TableId) -> Result<usize> {
        Ok(self.db.heap(table)?.meta().rec_size)
    }

    /// Number of allocated records in a table.
    pub fn record_count(&self, table: TableId) -> Result<usize> {
        Ok(self.db.heap(table)?.in_use())
    }

    /// Take a checkpoint (with audit certification when the scheme
    /// maintains codewords, paper §4.2).
    pub fn checkpoint(&self) -> Result<CheckpointOutcome> {
        ckpt::checkpoint(&self.db)
    }

    /// Run a full-database audit (paper §3.2). On failure the corruption
    /// marker is written and the engine is poisoned; reopen to recover.
    pub fn audit(&self) -> Result<AuditReport> {
        ckpt::audit(&self.db)
    }

    /// Online cache recovery (paper §4.2 cache-recovery model): repair
    /// the given directly-corrupted ranges in place from the certified
    /// checkpoint and the stable log. All active transactions are rolled
    /// back. Returns the number of redo records replayed.
    pub fn cache_repair(&self, ranges: &[(DbAddr, usize)]) -> Result<usize> {
        corruption::cache_repair(&self.db, ranges)
    }

    /// Online parity repair of one protection region: rebuild it in place
    /// from its parity group (no WAL replay, no transaction disturbed),
    /// falling back to online cache recovery when the group's parity
    /// cannot be trusted. See [`repair::RepairOutcome`].
    pub fn repair(&self, region: dali_codeword::RegionId) -> Result<RepairOutcome> {
        repair::repair_region(&self.db, region)
    }

    /// Parity-stripe gauges and counters (zeroed when the stripe is
    /// disabled).
    pub fn parity_stats(&self) -> dali_codeword::ParityStatsSnapshot {
        self.db.prot.parity_stats()
    }

    /// Simulate a process crash: the in-memory image and any unflushed
    /// log tail are gone; files survive. All other handles to this
    /// database become unusable. The log worker finishes what was
    /// already written and is joined, so the files are at rest — in one
    /// state, whatever the scheduler did — when this returns.
    pub fn crash(self) {
        self.db.poison();
        self.db.syslog.shutdown();
    }

    /// Wait for the log worker to finish its queued segment syncs and
    /// retirements, refresh the log-directory gauges, and return the
    /// first error a background job met (a failed fsync, a tripped
    /// retirement crash point). Afterwards the log directory does not
    /// change until the next append rolls or checkpoint retires.
    pub fn settle(&self) -> Result<()> {
        self.db.settle()
    }

    /// Engine statistics.
    pub fn stats(&self) -> &db::EngineStats {
        &self.db.stats
    }

    /// System-log flush/fsync counters (group-commit amortization:
    /// `fsyncs / durable_commits` is the fsyncs-per-commit metric).
    pub fn log_stats(&self) -> dali_wal::SyncStats {
        self.db.syslog.sync_stats()
    }

    /// mprotect statistics (Hardware Protection scheme, §5.3).
    pub fn protect_stats(&self) -> &dali_mem::ProtectStats {
        self.db.protector.stats()
    }

    /// Deferred-maintenance dirty-set gauges and counters (zeroed for
    /// non-deferred schemes).
    pub fn deferred_stats(&self) -> dali_codeword::DeferredStatsSnapshot {
        self.db.prot.deferred_stats()
    }

    /// This database's crash points, for fault-injection tests: a point
    /// armed here trips only this engine's checkpoints and retirements.
    pub fn crash_points(&self) -> &CrashPoints {
        &self.db.crash_points
    }

    /// The active configuration.
    pub fn config(&self) -> &DaliConfig {
        &self.db.config
    }

    /// Codeword space overhead of the current geometry (e.g. 6.25% for
    /// 64-byte regions).
    pub fn codeword_space_overhead(&self) -> f64 {
        if self.db.config.scheme.maintains_codewords() {
            self.db.prot.geometry().space_overhead()
        } else {
            0.0
        }
    }

    /// Direct access to the raw database image **bypassing every
    /// protection mechanism** — this is the door through which addressing
    /// errors arrive. Used by the fault injector.
    pub fn raw_image(&self) -> Arc<dali_mem::DbImage> {
        Arc::clone(&self.db.image)
    }

    /// Is a write to the page containing `addr` currently permitted by
    /// the hardware-protection scheme? (Always true for other schemes.)
    pub fn page_writable(&self, addr: DbAddr) -> bool {
        let page = dali_common::PageId::containing(addr, self.db.config.page_size);
        self.db.protector.is_writable(page)
    }

    /// Address of a record's data in the image (for targeted fault
    /// injection in tests and experiments).
    pub fn record_addr(&self, rec: dali_common::RecId) -> Result<DbAddr> {
        let heap = self.db.heap(rec.table)?;
        if rec.slot.0 as usize >= heap.meta().capacity {
            return Err(DaliError::NotFound(format!("record {rec}")));
        }
        Ok(heap.meta().slot_addr(rec.slot))
    }

    /// Internal: shared state (used by sibling crates in this workspace).
    #[doc(hidden)]
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }
}
