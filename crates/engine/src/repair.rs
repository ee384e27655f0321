//! Parity-based online repair: the self-healing layer above the auditor.
//!
//! A failed audit names the corrupt regions; this module tries to rebuild
//! each one *in place* from its parity group
//! ([`CodewordProtection::repair_region`](dali_codeword::CodewordProtection::repair_region))
//! before anyone reaches for the log. The fallback ladder:
//!
//! 1. **Parity rebuild** — exclusive latch bracket over the group, drain
//!    its deferred shards, reconstruct `parity ⊕ (⊕ siblings)`, verify
//!    the result against the maintained codeword, write it back. No WAL
//!    replay, no transaction rollback, latency proportional to one group.
//! 2. **Online cache recovery** ([`corruption::cache_repair`]) — when
//!    parity declines (stale stripe, double fault in one group, failed
//!    re-verification): rebuild the affected pages from the certified
//!    checkpoint plus a physical-redo replay. Rolls back active
//!    transactions; still no restart.
//! 3. **Restart recovery** — only if the caller chose to poison instead
//!    (no parity and no certified checkpoint path), via the corruption
//!    marker as before.
//!
//! `auto_repair` is the hook the audit and checkpoint-certification
//! paths call on a dirty report: it walks the ladder, then *re-audits*
//! the affected regions — only a clean re-audit counts as healed, so a
//! reconstruction that somehow reproduced corrupt bytes can never
//! silently mask a fault.
//!
//! **Scheme boundary.** The ladder only exists for the direct-corruption
//! schemes (`DataCodeword`, `ReadPrecheck`, `DeferredMaintenance`).
//! Under the read-logging schemes a detected region may already have
//! been *read* by committed transactions — carried corruption that no
//! byte-level rebuild can undo — so repair refuses and the
//! delete-transaction recovery model (paper §4) handles the fault, taint
//! closure and all.

use crate::corruption;
use crate::db::Db;
use dali_codeword::{AuditReport, RegionId, RepairFallback};
use dali_common::{DaliError, Result};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// How a batch of corrupt regions was brought back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Every region was rebuilt in place from its parity group; no log
    /// replay, no transaction was disturbed.
    RepairedInPlace {
        regions_rebuilt: usize,
        bytes_rebuilt: usize,
    },
    /// Parity declined for at least one region (`fallback` says why); the
    /// remaining regions were rebuilt from the certified checkpoint plus
    /// a stable-log replay (active transactions rolled back).
    RecoveredViaLog {
        /// Regions parity did rebuild before the ladder dropped a rung.
        regions_rebuilt: usize,
        bytes_rebuilt: usize,
        fallback: RepairFallback,
        records_replayed: usize,
    },
}

impl RepairOutcome {
    /// Did the whole batch stay on the parity rung (no WAL replay)?
    pub fn in_place(&self) -> bool {
        matches!(self, RepairOutcome::RepairedInPlace { .. })
    }
}

/// Repair one region (the `Repair(region)` admin verb). See
/// [`repair_regions`].
pub fn repair_region(db: &Arc<Db>, region: RegionId) -> Result<RepairOutcome> {
    let outcome = repair_regions(db, &[region])?;
    // A wild write happened somewhere; the dirty-page footprint no longer
    // bounds the damage, so the next certification must sweep everything.
    // (The checkpoint path sets this itself — it holds the ckpt_state
    // lock across its call into the ladder, so the ladder must not.)
    db.ckpt_state.lock().force_full = true;
    Ok(outcome)
}

/// Walk the repair ladder for `regions`: parity rebuild per region, with
/// one collective drop to online cache recovery the moment any region's
/// parity declines. Counters land in
/// [`EngineStats`](crate::db::EngineStats) and the repaired pages are
/// re-noted dirty so the next checkpoint rewrites them.
///
/// Does **not** touch `ckpt_state` (the checkpoint path calls in with
/// that lock held): callers outside the checkpoint must force the next
/// certification full themselves, as [`repair_region`] does.
pub fn repair_regions(db: &Arc<Db>, regions: &[RegionId]) -> Result<RepairOutcome> {
    db.check_alive()?;
    if !db.config.scheme.maintains_codewords() {
        return Err(DaliError::InvalidArg(
            "repair requires a codeword-maintaining scheme".into(),
        ));
    }
    if db.config.scheme.supports_delete_txn_recovery() {
        // Read-logging schemes track *carried* corruption: a transaction
        // may already have read the corrupt bytes and committed writes
        // derived from them. No byte-level rebuild — parity or cache —
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
    let num_regions = db.prot.geometry().num_regions();
    if let Some(&bad) = regions.iter().find(|&&r| r >= num_regions) {
        return Err(DaliError::InvalidArg(format!(
            "region {bad} out of range (database has {num_regions} regions)"
        )));
    }
    let stats = &db.stats;
    let start = std::time::Instant::now();
    let mut rebuilt = 0usize;
    let mut bytes = 0usize;
    let mut fallback: Option<RepairFallback> = None;
    let mut unrepaired: Vec<RegionId> = Vec::new();
    for (i, &r) in regions.iter().enumerate() {
        stats.repair_attempted.fetch_add(1, Relaxed);
        match db.prot.repair_region(&db.image, r)? {
            Ok(n) => {
                rebuilt += 1;
                bytes += n;
                stats.repair_succeeded.fetch_add(1, Relaxed);
                stats.repair_bytes_rebuilt.fetch_add(n as u64, Relaxed);
            }
            Err(why) => {
                stats.repair_fell_back.fetch_add(1, Relaxed);
                fallback = Some(why);
                unrepaired = regions[i..].to_vec();
                // The rest of the batch rides the same log-based repair.
                stats
                    .repair_attempted
                    .fetch_add((regions.len() - i - 1) as u64, Relaxed);
                stats
                    .repair_fell_back
                    .fetch_add((regions.len() - i - 1) as u64, Relaxed);
                break;
            }
        }
    }
    stats
        .repair_ns
        .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);

    note_region_pages(db, regions.iter().copied());

    match fallback {
        None => Ok(RepairOutcome::RepairedInPlace {
            regions_rebuilt: rebuilt,
            bytes_rebuilt: bytes,
        }),
        Some(why) => {
            let geom = db.prot.geometry();
            let ranges: Vec<_> = unrepaired
                .iter()
                .map(|&r| (geom.region_base(r), geom.region_size()))
                .collect();
            let records_replayed = corruption::cache_repair(db, &ranges)?;
            Ok(RepairOutcome::RecoveredViaLog {
                regions_rebuilt: rebuilt,
                bytes_rebuilt: bytes,
                fallback: why,
                records_replayed,
            })
        }
    }
}

fn note_region_pages(db: &Arc<Db>, regions: impl Iterator<Item = RegionId>) {
    let geom = db.prot.geometry();
    let mut pages: Vec<_> = regions
        .flat_map(|r| {
            db.image
                .pages_overlapping(geom.region_base(r), geom.region_size())
        })
        .collect();
    pages.sort_unstable();
    pages.dedup();
    db.syslog.dirty().note_all(pages);
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
