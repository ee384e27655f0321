//! Shared engine state: one [`Db`] per open database.

use crate::att::Att;
use crate::catalog::Catalog;
use crate::heap::HeapRuntime;
use crate::lock::LockManager;
use dali_codeword::CodewordProtection;
use dali_common::{DaliConfig, DaliError, Lsn, Result, Store, TableId};
use dali_mem::{DbImage, PageProtector};
use dali_wal::SystemLog;
use parking_lot::{Mutex, RwLock};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Operation counters (diagnostics and the §5.3 statistics).
#[derive(Default, Debug)]
pub struct EngineStats {
    pub reads: AtomicU64,
    pub inserts: AtomicU64,
    pub updates: AtomicU64,
    pub deletes: AtomicU64,
    pub commits: AtomicU64,
    pub aborts: AtomicU64,
    pub read_log_records: AtomicU64,
    /// Full-database audit sweeps run (on-demand audits plus checkpoint
    /// certification passes).
    pub audits: AtomicU64,
    /// Regions folded-and-compared across all audit sweeps.
    pub regions_audited: AtomicU64,
    /// Bytes XOR-folded by audit sweeps (regions × region size).
    pub bytes_folded: AtomicU64,
    /// Wall-clock nanoseconds spent inside audit sweeps.
    pub audit_ns: AtomicU64,
    pub checkpoints: AtomicU64,
    /// Checkpoint certifications that swept every region (full audits).
    pub certify_full: AtomicU64,
    /// Checkpoint certifications restricted to the dirty footprint.
    pub certify_delta: AtomicU64,
    /// Regions folded by checkpoint certification sweeps (full + delta).
    pub certify_regions_certified: AtomicU64,
    /// Regions a delta certification *skipped* relative to a full sweep
    /// (clean-by-footprint: no dirty page or queued delta touched them).
    pub certify_regions_skipped: AtomicU64,
    /// Exclusive latch brackets taken by audit and certification sweeps
    /// (one per region run; equals regions audited at latch run 1).
    pub audit_latch_brackets: AtomicU64,
    /// Regions handed to online repair (each corrupt region in a failed
    /// audit counts once).
    pub repair_attempted: AtomicU64,
    /// Regions online repair rebuilt from the anchored checkpoint plus
    /// the log.
    pub repair_succeeded: AtomicU64,
    /// Bytes written back by online repairs (whole pages).
    pub repair_bytes_rebuilt: AtomicU64,
    /// Wall-clock nanoseconds spent inside successful online repairs.
    pub repair_ns: AtomicU64,
    /// Segment files currently retained in the log directory (gauge,
    /// refreshed at open and after each checkpoint).
    pub log_segments_active: AtomicU64,
    /// Segments retired (unlinked) by checkpoint-driven retention since
    /// this database was opened.
    pub log_segments_retired: AtomicU64,
    /// Total bytes of retained log segments on disk (gauge).
    pub log_bytes_on_disk: AtomicU64,
}

impl EngineStats {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Checkpoint bookkeeping.
pub struct CkptState {
    /// Which image (0/1) the next checkpoint writes.
    pub next_image: usize,
    /// Monotonic checkpoint serial (anchor tie-break / staleness check).
    pub serial: u64,
    /// Checkpoints certified since the last *full* sweep of this
    /// database (delta certifications in a row). Gates the
    /// [`DaliConfig::full_certify_every`] cadence.
    pub ckpts_since_full: u32,
    /// Force the next certification to sweep every region regardless of
    /// cadence. Set at recovery (the dirty footprint does not describe
    /// what a crash or a repair touched) and after any certification
    /// finds corruption.
    pub force_full: bool,
    /// The last checkpoint's dirty-page snapshot, kept for its
    /// allocation: the next one copies its pages into the same buffer.
    pub snapshot: Vec<u8>,
}

/// Shared state of one open database.
pub struct Db {
    pub config: DaliConfig,
    pub image: Arc<DbImage>,
    pub prot: CodewordProtection,
    pub protector: PageProtector,
    pub syslog: SystemLog,
    pub att: Att,
    /// Record-lock table, sharded by record-id hash
    /// ([`DaliConfig::lock_shards`]), with optional wait-for-graph
    /// deadlock detection.
    pub locks: LockManager,
    pub catalog: RwLock<Catalog>,
    pub heaps: RwLock<Vec<Arc<HeapRuntime>>>,
    /// Physical-update quiescence: updaters (and log-migrating commits)
    /// hold this shared across their critical windows; the checkpointer
    /// takes it exclusively to snapshot an update-consistent state.
    pub quiesce: RwLock<()>,
    pub ckpt_state: Mutex<CkptState>,
    pub txn_counter: AtomicU64,
    pub audit_counter: AtomicU64,
    /// LSN of the begin record of the last audit that reported clean —
    /// `Audit_SN` in paper §4.3.
    pub last_clean_audit: Mutex<Option<Lsn>>,
    /// Set on simulated crash or corruption-triggered shutdown; every
    /// public operation fails with [`DaliError::Crashed`] afterwards.
    pub crashed: AtomicBool,
    pub stats: EngineStats,
    /// Where the checkpoint images, their metas, the anchor, the marker
    /// and the log live.
    pub store: Store,
}

impl Db {
    /// Fail if the database has crashed / been poisoned.
    #[inline]
    pub fn check_alive(&self) -> Result<()> {
        if self.crashed.load(Ordering::Acquire) {
            Err(DaliError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Poison the database: all subsequent operations fail until the
    /// caller reopens (restart recovery).
    pub fn poison(&self) {
        self.crashed.store(true, Ordering::Release);
    }

    /// Heap runtime for a table.
    pub fn heap(&self, table: TableId) -> Result<Arc<HeapRuntime>> {
        self.heaps
            .read()
            .get(table.0 as usize)
            .cloned()
            .ok_or_else(|| DaliError::NotFound(format!("table {table}")))
    }

    /// Allocate a fresh transaction id.
    pub fn next_txn_id(&self) -> dali_common::TxnId {
        dali_common::TxnId(self.txn_counter.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocate a fresh audit id.
    pub fn next_audit_id(&self) -> u64 {
        self.audit_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Refresh the log-directory gauges in [`EngineStats`] from the
    /// segment directory (called at open and after each checkpoint's
    /// retirement pass).
    pub fn refresh_log_gauges(&self) -> Result<()> {
        let seg = self.syslog.segment_stats()?;
        self.stats
            .log_segments_active
            .store(seg.segments, Ordering::Relaxed);
        self.stats
            .log_segments_retired
            .store(seg.retired, Ordering::Relaxed);
        self.stats
            .log_bytes_on_disk
            .store(seg.bytes_on_disk, Ordering::Relaxed);
        Ok(())
    }

    /// Wait for the log worker to finish its queued segment syncs and
    /// retirements, then refresh the gauges from the directory at rest.
    /// Returns the first error a background job met.
    pub fn settle(&self) -> Result<()> {
        self.syslog.settle()?;
        self.refresh_log_gauges()
    }

    // ---- file layout ----

    pub fn log_path(dir: &std::path::Path) -> PathBuf {
        dir.join("system.log")
    }

    pub fn img_path(dir: &std::path::Path, image: usize) -> PathBuf {
        dir.join(if image == 0 {
            "ckpt_a.img"
        } else {
            "ckpt_b.img"
        })
    }

    pub fn meta_path(dir: &std::path::Path, image: usize) -> PathBuf {
        dir.join(if image == 0 {
            "ckpt_a.meta"
        } else {
            "ckpt_b.meta"
        })
    }

    pub fn anchor_path(dir: &std::path::Path) -> PathBuf {
        dir.join("cur_ckpt")
    }

    pub fn marker_path(dir: &std::path::Path) -> PathBuf {
        dir.join("corrupt.marker")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_layout() {
        let d = std::path::Path::new("/x");
        assert_eq!(Db::log_path(d), PathBuf::from("/x/system.log"));
        assert_eq!(Db::img_path(d, 0), PathBuf::from("/x/ckpt_a.img"));
        assert_eq!(Db::img_path(d, 1), PathBuf::from("/x/ckpt_b.img"));
        assert_eq!(Db::meta_path(d, 1), PathBuf::from("/x/ckpt_b.meta"));
        assert_eq!(Db::anchor_path(d), PathBuf::from("/x/cur_ckpt"));
        assert_eq!(Db::marker_path(d), PathBuf::from("/x/corrupt.marker"));
    }
}
