//! Online repair: the self-healing layer above the auditor.
//!
//! A failed audit names the corrupt regions; this module rebuilds them
//! without a restart. Each ladder call holds `quiesce` exclusively from
//! start to finish, so no update is inside its bracket and every
//! completed operation's redo is in the log (an operation reaches the log
//! at `commit_op`, inside the same shared `quiesce` span as its writes).
//! The anchored checkpoint equals memory at its `CK_end`, so the anchored
//! copy of a page plus every `PhysicalRedo` logged since is the live page
//! without the damage — including the completed operations of
//! transactions that are still active. One scan of the log builds that
//! copy of every page under the damaged regions, and both rungs read it:
//!
//! 1. **Parity rebuild** — exclusive latch bracket over the group,
//!    reconstruct `parity ⊕ (⊕ siblings)`, verify the result against the
//!    maintained codeword
//!    ([`CodewordProtection::repair_region`](dali_codeword::CodewordProtection::repair_region)),
//!    write it back. The rebuild must also agree with every byte the log
//!    wrote since the anchored checkpoint: an update that read its
//!    before-image from the damaged bytes moved the parity buffer and the
//!    codeword by the damage too, so a rebuild would restore the damage
//!    and still verify ([`RepairFallback::LogDisagrees`]).
//! 2. **The log** — when parity declines for a region (stale stripe,
//!    double fault in one group, failed re-verification, a disagreeing
//!    log), that region and the rest of the batch get their pages from
//!    the log-built copies; their codewords are recomputed and their
//!    parity groups resynced.
//!    [`DaliEngine::cache_repair`](crate::DaliEngine::cache_repair) is
//!    this rung on its own, for arbitrary byte ranges (paper §4.2's
//!    cache-recovery model).
//! 3. **Restart recovery** — only if neither rung heals the damage, via
//!    the corruption marker.
//!
//! Neither rung aborts anyone: a live transaction keeps its completed
//! operations and may go on to commit or abort. The image holds no write
//! the log lacks: an operation in flight holds `quiesce`, which the
//! ladder takes exclusively, and a failed one undid its writes before it
//! returned.
//!
//! `auto_repair` is the hook the audit and checkpoint-certification
//! paths call on a dirty report: it walks the ladder, then *re-audits*
//! the affected regions — only a clean re-audit counts as healed, so a
//! reconstruction that somehow reproduced corrupt bytes can never
//! silently mask a fault.
//!
//! **Scheme boundary.** The ladder only exists for the direct-corruption
//! schemes (`DataCodeword`, `ReadPrecheck`).
//! Under the read-logging schemes a detected region may already have
//! been *read* by committed transactions — carried corruption that no
//! byte-level rebuild can undo — so repair refuses and the
//! delete-transaction recovery model (paper §4) handles the fault, taint
//! closure and all.

use crate::ckpt;
use crate::db::Db;
use dali_codeword::{AuditReport, RegionId, RepairFallback};
use dali_common::align::split_by_chunks;
use dali_common::{DaliError, DbAddr, PageId, Result};
use dali_wal::{LogReader, LogRecordRef};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// How a batch of corrupt regions was brought back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Every region was rebuilt in place from its parity group.
    RepairedInPlace {
        regions_rebuilt: usize,
        bytes_rebuilt: usize,
    },
    /// Parity declined for at least one region (`fallback` says why); the
    /// remaining regions got their pages from the anchored checkpoint
    /// plus the log. Live transactions are left as they were.
    RecoveredViaLog {
        /// Regions parity did rebuild before the ladder dropped a rung.
        regions_rebuilt: usize,
        bytes_rebuilt: usize,
        fallback: RepairFallback,
        /// Log records with a share in the batch's pages.
        records_replayed: usize,
    },
}

impl RepairOutcome {
    /// Did the whole batch stay on the parity rung?
    pub fn in_place(&self) -> bool {
        matches!(self, RepairOutcome::RepairedInPlace { .. })
    }
}

/// Repair one region (the `Repair(region)` admin verb): the ladder of
/// the module docs, for one region.
pub fn repair_region(db: &Arc<Db>, region: RegionId) -> Result<RepairOutcome> {
    let outcome = repair_regions(db, &[region])?;
    // A wild write happened somewhere; the dirty-page footprint no longer
    // bounds the damage, so the next certification must sweep everything.
    // (The checkpoint path sets this itself — it holds the ckpt_state
    // lock across its call into the ladder, so the ladder must not.)
    db.ckpt_state.lock().force_full = true;
    Ok(outcome)
}

/// Online cache recovery (paper §4.2): rebuild the pages under `ranges`
/// from the anchored checkpoint plus the log, assuming no indirect
/// corruption (valid when every checkpoint is certified and the damage
/// was caught before any transaction read it). The log rung of the
/// ladder, on its own. Returns the number of log records replayed.
pub(crate) fn cache_repair(db: &Db, ranges: &[(DbAddr, usize)]) -> Result<usize> {
    db.check_alive()?;
    let _q = db.quiesce.write();
    let pages = pages_under(db, ranges.iter().copied());
    let rebuild = Rebuild::scan(db, &pages)?;
    rebuild.install(db, &pages)?;
    db.syslog.dirty().note_all(pages);
    Ok(rebuild.records)
}

/// Walk the repair ladder for `regions`: parity rebuild per region, with
/// one collective drop to the log rung the moment any region's parity
/// declines. Counters land in [`EngineStats`](crate::db::EngineStats)
/// and the batch's pages are re-noted dirty so the next checkpoint
/// rewrites them.
///
/// Does **not** touch `ckpt_state` (the checkpoint path calls in with
/// that lock held): callers outside the checkpoint must force the next
/// certification full themselves, as [`repair_region`] does.
fn repair_regions(db: &Arc<Db>, regions: &[RegionId]) -> Result<RepairOutcome> {
    db.check_alive()?;
    if !db.config.scheme.maintains_codewords() {
        return Err(DaliError::InvalidArg(
            "repair requires a codeword-maintaining scheme".into(),
        ));
    }
    if db.config.scheme.supports_delete_txn_recovery() {
        // Read-logging schemes track *carried* corruption: a transaction
        // may already have read the corrupt bytes and committed writes
        // derived from them. No byte-level rebuild — parity or log —
        // can undo that; only delete-transaction recovery (§4) computes
        // the taint closure from the read log. Repairing in place here
        // would silently keep the carried corruption, so the online
        // ladder is unavailable under these schemes.
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
    let span = |r: RegionId| (geom.region_base(r), geom.region_size());
    let stats = &db.stats;
    let start = std::time::Instant::now();
    let mut rebuilt = 0usize;
    let mut bytes = 0usize;
    let mut fallback: Option<RepairFallback> = None;
    // No update may run from the scan to the last page written back:
    // every write the image holds must be in the log the rungs read.
    let quiesced = db.quiesce.write();
    let pages = pages_under(db, regions.iter().map(|&r| span(r)));
    let rebuild = Rebuild::scan(db, &pages)?;
    for (i, &r) in regions.iter().enumerate() {
        stats.repair_attempted.fetch_add(1, Relaxed);
        let base = geom.region_base(r);
        match db
            .prot
            .repair_region(&db.image, r, |b| rebuild.agrees(base, b))?
        {
            Ok(n) => {
                rebuilt += 1;
                bytes += n;
                stats.repair_succeeded.fetch_add(1, Relaxed);
                stats.repair_bytes_rebuilt.fetch_add(n as u64, Relaxed);
            }
            Err(why) => {
                // The rest of the batch rides the log rung with it.
                let rest = (regions.len() - i) as u64;
                stats.repair_attempted.fetch_add(rest - 1, Relaxed);
                stats.repair_fell_back.fetch_add(rest, Relaxed);
                let unrepaired = pages_under(db, regions[i..].iter().map(|&r| span(r)));
                rebuild.install(db, &unrepaired)?;
                fallback = Some(why);
                break;
            }
        }
    }
    drop(quiesced);
    stats
        .repair_ns
        .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    db.syslog.dirty().note_all(pages);

    Ok(match fallback {
        None => RepairOutcome::RepairedInPlace {
            regions_rebuilt: rebuilt,
            bytes_rebuilt: bytes,
        },
        Some(why) => RepairOutcome::RecoveredViaLog {
            regions_rebuilt: rebuilt,
            bytes_rebuilt: bytes,
            fallback: why,
            records_replayed: rebuild.records,
        },
    })
}

/// The pages under `ranges`, sorted, each once.
fn pages_under(db: &Db, ranges: impl Iterator<Item = (DbAddr, usize)>) -> Vec<PageId> {
    let mut pages: Vec<PageId> = ranges
        .flat_map(|(a, l)| db.image.pages_overlapping(a, l))
        .collect();
    pages.sort_unstable();
    pages.dedup();
    pages
}

/// Pages as the log says they are: each page's anchored checkpoint copy
/// with every write logged since its `CK_end` applied in log order, and
/// which of its bytes those writes covered.
struct Rebuild {
    page_size: usize,
    /// The pages, sorted.
    pages: Vec<PageId>,
    /// Their rebuilt copies, end to end.
    bytes: Vec<u8>,
    /// Per byte of `bytes`: did a logged write cover it?
    logged: Vec<bool>,
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
    fn scan(db: &Db, pages: &[PageId]) -> Result<Rebuild> {
        let end = db.syslog.flush(false)?;
        db.syslog.wait_durable(end)?;
        // The scan lists the live log directory: every segment must carry
        // its name first.
        db.syslog.settle()?;
        let (store, dir, page_size) = (&*db.store, &db.config.dir, db.config.page_size);
        let (image, _serial) = ckpt::read_anchor(store, dir)?;
        let from = ckpt::read_meta(store, dir, image)?.ck_end;
        let copies = ckpt::read_ckpt_pages(store, dir, image, page_size, pages)?;
        let mut bytes: Vec<u8> = copies.into_iter().flat_map(|(_, b)| b).collect();
        let mut logged = vec![false; bytes.len()];
        let mut records = 0;
        LogReader::open_on(store, db.syslog.path(), from, db.config.codeword_algebra)?.for_each(
            |_, rec| {
                if let LogRecordRef::PhysicalRedo { addr, data, .. } = rec {
                    let mut hit = false;
                    for (at, off, len) in shares(pages, page_size, addr, data.len()) {
                        bytes[at..at + len].copy_from_slice(&data[off..off + len]);
                        logged[at..at + len].fill(true);
                        hit = true;
                    }
                    records += usize::from(hit);
                }
                Ok(())
            },
        )?;
        Ok(Rebuild {
            page_size,
            pages: pages.to_vec(),
            bytes,
            logged,
            records,
        })
    }

    /// Does `bytes` at `addr` hold every byte the log wrote there?
    fn agrees(&self, addr: DbAddr, bytes: &[u8]) -> bool {
        shares(&self.pages, self.page_size, addr, bytes.len()).all(|(at, off, len)| {
            (0..len).all(|k| !self.logged[at + k] || self.bytes[at + k] == bytes[off + k])
        })
    }

    /// Write the rebuilt copies of `only` (scanned pages) into the image,
    /// then recompute their codewords and resync their parity groups: the
    /// page writes bypassed maintenance.
    fn install(&self, db: &Db, only: &[PageId]) -> Result<()> {
        let page_size = self.page_size;
        for &p in only {
            if let Ok(i) = self.pages.binary_search(&p) {
                db.image
                    .write_page(p, &self.bytes[i * page_size..][..page_size])?;
            }
        }
        if !db.config.scheme.maintains_codewords() {
            return Ok(());
        }
        let geom = db.prot.geometry();
        let spans = || {
            only.iter()
                .map(|p| geom.region_span(p.base(page_size), page_size))
        };
        for (first, last) in spans() {
            for r in first..=last {
                db.prot.table().recompute_region(&db.image, geom, r)?;
            }
        }
        if let Some(stripe) = db.prot.parity() {
            let mut groups: Vec<_> = spans()
                .flat_map(|(first, last)| stripe.group_of(first)..=stripe.group_of(last))
                .collect();
            groups.sort_unstable();
            groups.dedup();
            for g in groups {
                db.prot.resync_parity_group(&db.image, g)?;
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

/// The automatic hook behind a dirty audit or certification report: walk
/// the repair ladder for every corrupt region, then re-audit exactly
/// those regions. Returns the outcome if the re-audit came back clean
/// (the engine stays up), `None` if the damage survived — the caller
/// reports corruption and poisons as before. Errors from the ladder
/// itself (e.g. an unreadable checkpoint under cache recovery) also
/// resolve to `None` rather than aborting the caller's corruption
/// handling — in particular, under read-logging schemes
/// [`repair_regions`] refuses outright (carried corruption needs the
/// delete-transaction model), so the legacy poison-and-recover path
/// runs unchanged there.
pub(crate) fn auto_repair(db: &Arc<Db>, report: &AuditReport) -> Result<Option<RepairOutcome>> {
    if db.prot.parity().is_none() || report.clean() {
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
