//! Online repair: the self-healing layer above the auditor.
//!
//! A failed audit names the corrupt regions; this module rebuilds them
//! without a restart, from the log — paper §4.1's cache-recovery model,
//! run online. A repair holds `quiesce` exclusively from start to finish, so
//! no update is inside its bracket and every completed operation's redo is
//! in the log (an operation reaches the log at `commit_op`, inside the
//! same shared `quiesce` span as its writes). The anchored checkpoint
//! equals memory at its `CK_end`, so the anchored copy of a page plus
//! every write logged since is the live page without the damage —
//! including the completed operations of transactions that are still
//! active. One scan of the log builds that copy of every page under the
//! damaged regions (`Rebuild::scan`); the copies are written back and
//! their codewords recomputed (`Rebuild::install`). That is the one
//! rung: restart recovery takes over only if the repair fails or leaves
//! the damage in place. The audit then poisons the engine, and the normal
//! restart reloads the anchored image and redoes the log — this rebuild,
//! for every page.
//!
//! The rebuild trusts the anchored image, as restart does: neither checks
//! the pages it loads against codewords. It aborts no one: a live transaction keeps
//! its completed operations and may go on to commit or abort. The image
//! holds no write the log lacks: an operation in flight holds `quiesce`,
//! which the repair takes exclusively, and a failed one undid its writes
//! before it returned.
//!
//! `auto_repair` is the hook the audit and checkpoint-certification
//! paths call on a dirty report: it repairs, then *re-audits* the
//! affected regions — only a clean re-audit counts as healed, so a
//! rebuild that somehow reproduced corrupt bytes can never silently mask
//! a fault.
//!
//! **Scheme boundary.** Repair only exists for the direct-corruption
//! schemes (`DataCodeword`, `ReadPrecheck`); [`repair_region`] (the admin
//! verb) and `auto_repair` both enter through the one check, and refuse
//! elsewhere.
//! Under the read-logging schemes a detected region may already have
//! been *read* by committed transactions — carried corruption that no
//! byte-level rebuild can undo — so repair refuses and the
//! delete-transaction recovery model (paper §4) handles the fault, taint
//! closure and all.

use crate::ckpt;
use crate::db::Db;
use dali_codeword::{AuditReport, RegionId};
use dali_common::align::split_by_chunks;
use dali_common::{DaliError, DbAddr, PageId, Result};
use dali_wal::{Entry, LogReader};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// How a batch of corrupt regions was brought back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Regions repaired.
    pub regions: usize,
    /// Bytes written back: the whole pages under those regions.
    pub bytes_written: usize,
    /// Log records with a share in those pages.
    pub records_replayed: usize,
}

/// Repair one region (the `Repair(region)` admin verb).
pub fn repair_region(db: &Arc<Db>, region: RegionId) -> Result<RepairOutcome> {
    let outcome = repair_regions(db, &[region])?;
    // A wild write happened somewhere; the dirty-page footprint no longer
    // bounds the damage, so the next certification must sweep everything.
    db.ckpt_state.lock().force_full = true;
    Ok(outcome)
}

/// Repair `regions`. Counters land in
/// [`EngineStats`](crate::db::EngineStats).
///
/// Does **not** touch `ckpt_state` (the checkpoint path calls in with
/// that lock held): callers outside the checkpoint must force the next
/// certification full themselves, as [`repair_region`] does.
fn repair_regions(db: &Db, regions: &[RegionId]) -> Result<RepairOutcome> {
    if !db.config.scheme.maintains_codewords() {
        return Err(DaliError::InvalidArg(
            "repair requires a codeword-maintaining scheme".into(),
        ));
    }
    if db.config.scheme.supports_delete_txn_recovery() {
        // Read-logging schemes track *carried* corruption: a transaction
        // may already have read the corrupt bytes and committed writes
        // derived from them. No byte-level rebuild can undo that; only
        // delete-transaction recovery (§4) computes the taint closure
        // from the read log. Repairing in place here would silently keep
        // the carried corruption, so online repair is unavailable under
        // these schemes.
        return Err(DaliError::InvalidArg(
            "online repair is unavailable under read-logging schemes: carried corruption \
             needs delete-transaction recovery"
                .into(),
        ));
    }
    let geom = db.prot.geometry();
    let num_regions = geom.num_regions();
    if let Some(&bad) = regions.iter().find(|&&r| r >= num_regions) {
        return Err(DaliError::InvalidArg(format!(
            "region {bad} out of range (database has {num_regions} regions)"
        )));
    }
    let stats = &db.stats;
    let start = std::time::Instant::now();
    stats
        .repair_attempted
        .fetch_add(regions.len() as u64, Relaxed);
    // The one repair. No update may run from the scan to the last page
    // written back: every write the image holds must be in the log the
    // scan reads.
    db.check_alive()?;
    let quiesced = db.quiesce.write();
    let mut pages: Vec<PageId> = (regions.iter())
        .flat_map(|&r| {
            db.image
                .pages_overlapping(geom.region_base(r), geom.region_size())
        })
        .collect();
    pages.sort_unstable();
    pages.dedup();
    let rebuilt = Rebuild::scan(db, pages)?;
    rebuilt.install(db)?;
    // The next checkpoint rewrites the pages.
    db.syslog.dirty().note_all(rebuilt.pages.iter().copied());
    drop(quiesced);
    let bytes_written = rebuilt.pages.len() * db.config.page_size;
    stats
        .repair_succeeded
        .fetch_add(regions.len() as u64, Relaxed);
    stats
        .repair_bytes_rebuilt
        .fetch_add(bytes_written as u64, Relaxed);
    stats
        .repair_ns
        .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    Ok(RepairOutcome {
        regions: regions.len(),
        bytes_written,
        records_replayed: rebuilt.records,
    })
}

/// Pages as the log says they are: each page's anchored checkpoint copy
/// with every write logged since its `CK_end` applied in log order.
struct Rebuild {
    /// The pages, sorted.
    pages: Vec<PageId>,
    /// Their rebuilt copies, end to end.
    bytes: Vec<u8>,
    /// Log records with a share in these pages.
    records: usize,
}

impl Rebuild {
    /// Read `pages` (sorted) from the anchored checkpoint and replay the
    /// stable log onto them, in one pass. The caller holds `quiesce`
    /// exclusively. Physical redo is positional and idempotent, so
    /// replaying each record's share of these pages repeats their
    /// history exactly; the rest of a record that spans into another page
    /// is not replayed, since that page is live and may hold a newer
    /// write.
    ///
    /// The log is made durable first. A transaction that committed before
    /// the repair may have read its undo images from the damage; restart
    /// would write them back if a power loss took its commit record.
    fn scan(db: &Db, pages: Vec<PageId>) -> Result<Rebuild> {
        let end = db.syslog.flush(false)?;
        db.syslog.wait_durable(end)?;
        // The scan lists the live log directory: every segment must carry
        // its name first.
        db.syslog.settle()?;
        let (store, dir, page_size) = (&*db.store, &db.config.dir, db.config.page_size);
        let (image, _serial) = ckpt::read_anchor(store, dir)?;
        let from = ckpt::read_meta(store, dir, image)?.ck_end;
        let copies = ckpt::read_ckpt_pages(store, dir, image, page_size, &pages)?;
        let mut bytes: Vec<u8> = copies.into_iter().flat_map(|(_, b)| b).collect();
        let mut records = 0;
        LogReader::open_on(store, db.syslog.path(), from, db.config.codeword_algebra)?.for_each(
            |_, rec| {
                let mut hit = false;
                for entry in rec.entries() {
                    let Entry::Write { addr, data } = entry else {
                        continue;
                    };
                    for (at, off, len) in shares(&pages, page_size, addr, data.len()) {
                        bytes[at..at + len].copy_from_slice(&data[off..off + len]);
                        hit = true;
                    }
                }
                records += usize::from(hit);
                Ok(())
            },
        )?;
        Ok(Rebuild {
            pages,
            bytes,
            records,
        })
    }

    /// Write the rebuilt copies into the image, then recompute their
    /// codewords: the page writes bypassed maintenance.
    fn install(&self, db: &Db) -> Result<()> {
        let page_size = db.config.page_size;
        for (&p, copy) in self.pages.iter().zip(self.bytes.chunks_exact(page_size)) {
            db.image.write_page(p, copy)?;
        }
        if !db.config.scheme.maintains_codewords() {
            return Ok(());
        }
        let geom = db.prot.geometry();
        for &p in &self.pages {
            let (first, last) = geom.region_span(p.base(page_size), page_size);
            for r in first..=last {
                db.prot.table().recompute_region(&db.image, geom, r)?;
            }
        }
        Ok(())
    }
}

/// Where `[addr, addr + len)` falls in copies of `pages` (sorted) laid end
/// to end: per share on one of them, its offset in the copies, its
/// offset in the range, and its length.
fn shares(
    pages: &[PageId],
    page_size: usize,
    addr: DbAddr,
    len: usize,
) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    split_by_chunks(addr.0, len, page_size).filter_map(move |(page, start, n)| {
        let i = pages.binary_search(&PageId(page as u32)).ok()?;
        Some((i * page_size + start % page_size, start - addr.0, n))
    })
}

/// The automatic hook behind a dirty audit or certification report:
/// repair every corrupt region, then re-audit exactly those regions.
/// Returns the outcome if the re-audit came back clean (the engine stays
/// up), `None` if the damage survived — the caller reports corruption
/// and poisons as before. Errors from the repair itself (e.g. an
/// unreadable checkpoint) also resolve to `None` rather than aborting the
/// caller's corruption handling — in particular, under read-logging
/// schemes [`repair_regions`] refuses outright (carried corruption needs
/// the delete-transaction model), so the poison-and-recover path runs
/// unchanged there.
pub(crate) fn auto_repair(db: &Arc<Db>, report: &AuditReport) -> Result<Option<RepairOutcome>> {
    if report.clean() {
        return Ok(None);
    }
    let mut regions: Vec<RegionId> = report.corrupt.iter().map(|c| c.region).collect();
    regions.sort_unstable();
    regions.dedup();
    let outcome = match repair_regions(db, &regions) {
        Ok(o) => o,
        Err(DaliError::Crashed) => return Err(DaliError::Crashed),
        Err(_) => return Ok(None),
    };
    let recheck = db.prot.audit_regions(&db.image, &regions)?;
    if recheck.clean() {
        Ok(Some(outcome))
    } else {
        Ok(None)
    }
}
