//! Adversarial corruption campaigns: structured fault patterns against
//! the three places database bytes live — the in-memory arena, the
//! certified checkpoint image file, and the write-ahead log — with
//! per-algebra detection verdicts.
//!
//! The patterns are chosen to straddle the algebras' detection
//! boundaries:
//!
//! * **single flip** — any one-bit change moves both the XOR parity and
//!   the mod-(2^32-1) residue: both algebras detect it.
//! * **paired same-column flip** — two flips of the same bit column in
//!   two words, in the *same direction* (both 0→1 or both 1→0). The XOR
//!   parity cancels exactly; the residue moves by ±2·2^k (with 2^32 ≡ 1
//!   end-around for the sign column), so only the residue algebra
//!   detects it. This is the class the residue code exists for.
//! * **three flips** — odd column count: XOR detects; the residue moves
//!   by an odd multiple of 2^k, nonzero mod 2^32-1: detected by both.
//! * **burst** — a run of non-periodic noise bytes: detected by both.
//! * **torn page** — the tail half of the window zeroed, as a torn
//!   write leaves it. The residue always detects it (a nonzero tail has
//!   a nonzero sum); XOR detects it only when the zeroed words' XOR fold
//!   is nonzero — a *pure byte ramp's* power-of-two tail XOR-cancels
//!   (sixteen consecutive ramp words fold to zero), as does any
//!   even-count repeated-word tail. [`campaign_payload`] perturbs its
//!   ramp so the torn tail sits on the detected side for both algebras.
//!
//! Campaign drivers corrupt, take the verdict, and *repair* (write the
//! original bytes back), so one engine can host a whole campaign
//! matrix. Arena verdicts come from [`CodewordProtection::audit`]
//! directly — the engine-level `audit()` would poison the engine on the
//! first hit; checkpoint-image verdicts from
//! [`dali_engine::ckpt::scrub_anchored_image`]; WAL verdicts from
//! re-scanning the stable log and comparing against the pre-corruption
//! scan (the WAL frame checksum follows the configured codeword algebra
//! — see [`wal_expected_verdict`] for the per-algebra paired-flip line).
//! The *repair leg* ([`run_repair_round`] / [`run_repair_matrix`]) goes
//! one step further: instead of writing the original bytes back, it lets
//! the engine's parity-based online repair reconstruct them, and
//! classifies each round as repaired-in-place, recovered-via-log, or
//! missed ([`RepairVerdict`]).
//!
//! [`CodewordProtection::audit`]: dali_codeword::CodewordProtection::audit

use crate::{FaultInjector, InjectionEffect};
use dali_common::storage::Open;
use dali_common::{CodewordAlgebraKind, DbAddr, Lsn, Result, Storage};
use dali_engine::db::Db;
use dali_engine::DaliEngine;

/// A structured corruption pattern applied to a small byte window.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CorruptionPattern {
    /// Flip one bit.
    SingleFlip,
    /// Flip the same bit column, same direction, in two words 4 bytes
    /// apart — the XOR parity blind spot.
    PairedSameColumn,
    /// Flip the same bit column in three words — odd parity again.
    ThreeFlip,
    /// Overwrite the window with a non-periodic noise run.
    Burst,
    /// Zero the tail half of the window (a torn write).
    TornPage,
}

impl CorruptionPattern {
    /// Every pattern, for matrix sweeps.
    pub const ALL: [CorruptionPattern; 5] = [
        CorruptionPattern::SingleFlip,
        CorruptionPattern::PairedSameColumn,
        CorruptionPattern::ThreeFlip,
        CorruptionPattern::Burst,
        CorruptionPattern::TornPage,
    ];

    /// Produce the corrupted image of `window`, or `None` if the pattern
    /// cannot land here (window too small, or — for the paired flip — no
    /// bit column holds equal values in any adjacent word pair, so a
    /// same-direction pair does not exist).
    pub fn apply(self, window: &[u8]) -> Option<Vec<u8>> {
        let mut out = window.to_vec();
        match self {
            CorruptionPattern::SingleFlip => {
                *out.first_mut()? ^= 0x08;
            }
            CorruptionPattern::PairedSameColumn => {
                let (i, bit) = find_same_direction_pair(window)?;
                out[i + (bit / 8) as usize] ^= 1 << (bit % 8);
                out[i + 4 + (bit / 8) as usize] ^= 1 << (bit % 8);
            }
            CorruptionPattern::ThreeFlip => {
                if out.len() < 12 {
                    return None;
                }
                for w in 0..3 {
                    out[w * 4] ^= 0x08;
                }
            }
            CorruptionPattern::Burst => {
                for (i, b) in out.iter_mut().enumerate() {
                    *b ^= (i as u8)
                        .wrapping_mul(0x9D)
                        .wrapping_add(0xE1 ^ (i as u8 >> 3))
                        | 1;
                }
            }
            CorruptionPattern::TornPage => {
                let mid = out.len() / 2;
                if out[mid..].iter().all(|&b| b == 0) {
                    return None; // the torn tail would be a no-op
                }
                out[mid..].fill(0);
            }
        }
        (out != window).then_some(out)
    }
}

/// Record contents that let every [`CorruptionPattern`] land *and* sit
/// on the documented side of [`algebra_expected_detected`]: a byte ramp
/// (adjacent words share bit columns for the paired flip; the torn tail
/// is nonzero) with the final byte perturbed, because a *pure* ramp's
/// power-of-two torn tail XOR-cancels — sixteen consecutive ramp words
/// fold to zero — which would put the torn page inside the XOR blind
/// spot as well (that cancellation is itself pinned in
/// `tests/parity_blind_spot.rs`).
pub fn campaign_payload(len: usize) -> Vec<u8> {
    let mut p: Vec<u8> = (0..len).map(|i| i as u8).collect();
    if let Some(last) = p.last_mut() {
        *last ^= 0xAB;
    }
    p
}

/// Find `(byte_offset, bit)` such that words at `byte_offset` and
/// `byte_offset + 4` hold the *same* value in `bit`'s column — flipping
/// both is then a same-direction pair. Word pairs `w1 = !w0` have no
/// such column; scan forward until one does.
fn find_same_direction_pair(window: &[u8]) -> Option<(usize, u32)> {
    for i in (0..window.len().saturating_sub(7)).step_by(4) {
        let w0 = u32::from_le_bytes(window[i..i + 4].try_into().unwrap());
        let w1 = u32::from_le_bytes(window[i + 4..i + 8].try_into().unwrap());
        let equal = !(w0 ^ w1); // 1-bits where the columns agree
        if equal != 0 {
            return Some((i, equal.trailing_zeros()));
        }
    }
    None
}

/// Which byte store a campaign corrupted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CampaignTarget {
    /// The live in-memory data arena.
    Arena,
    /// The anchored (certified) checkpoint image file on disk.
    CheckpointImage,
    /// The stable write-ahead log file on disk.
    WalFrame,
}

/// Outcome of one corruption + verdict round.
#[derive(Clone, Debug)]
pub struct CampaignVerdict {
    pub target: CampaignTarget,
    pub pattern: CorruptionPattern,
    pub algebra: CodewordAlgebraKind,
    /// The corruption changed at least one byte.
    pub landed: bool,
    /// The detection machinery for `target` flagged it.
    pub detected: bool,
}

/// Must `algebra` detect `pattern` on a codeword-protected target
/// (arena or checkpoint image)? This is the ground truth the campaign
/// tests assert against: `PairedSameColumn` is exactly the XOR blind
/// spot; everything else moves both folds — *given*
/// [`campaign_payload`]-style contents (a torn page over contents whose
/// zeroed tail XOR-cancels would be a second XOR miss).
pub fn algebra_expected_detected(algebra: CodewordAlgebraKind, pattern: CorruptionPattern) -> bool {
    match pattern {
        CorruptionPattern::PairedSameColumn => algebra == CodewordAlgebraKind::Residue,
        _ => true,
    }
}

/// What the WAL frame checksum — which now follows the configured
/// codeword algebra — does with `pattern` inside one frame's payload:
/// `Some(true)` = the scan must reject the frame, `Some(false)` = the
/// pattern cancels in the checksum and the corruption is a documented
/// residual exposure, `None` = depends on where the bytes land
/// (structural vs payload). The paired same-direction flip cancels only
/// in the XOR checksum; residue-framed logs catch it — the same blind
/// spot / coverage split as the data image's algebras.
pub fn wal_expected_verdict(
    algebra: CodewordAlgebraKind,
    pattern: CorruptionPattern,
) -> Option<bool> {
    match pattern {
        CorruptionPattern::PairedSameColumn => Some(algebra == CodewordAlgebraKind::Residue),
        CorruptionPattern::SingleFlip | CorruptionPattern::ThreeFlip => Some(true),
        _ => None,
    }
}

/// Corrupt `window_len` bytes of the live arena at `addr` with
/// `pattern`, audit, repair, and report. Returns `None` if the pattern
/// cannot land on the current contents.
///
/// The audit runs against [`Db::prot`] directly rather than
/// [`DaliEngine::audit`]: the engine call records a corruption marker
/// and poisons the engine on the first failed audit, which would end the
/// campaign after one round.
pub fn run_arena_round(
    db: &DaliEngine,
    inj: &FaultInjector,
    pattern: CorruptionPattern,
    addr: DbAddr,
    window_len: usize,
) -> Result<Option<CampaignVerdict>> {
    let inner: &Db = db.db();
    let mut original = vec![0u8; window_len];
    inner.image.read(addr, &mut original)?;
    let Some(corrupt) = pattern.apply(&original) else {
        return Ok(None);
    };
    let effect = inj.wild_write_bytes(addr, &corrupt)?;
    if matches!(effect, InjectionEffect::Trapped { .. }) {
        return Ok(Some(CampaignVerdict {
            target: CampaignTarget::Arena,
            pattern,
            algebra: inner.prot.kind(),
            landed: false,
            detected: true, // the mprotect trap *is* the detection
        }));
    }
    let report = inner.prot.audit(&inner.image)?;
    // Repair: the wild write maintained no codeword, so restoring the
    // original bytes restores image/codeword consistency exactly.
    inner.image.write(addr, &original)?;
    Ok(Some(CampaignVerdict {
        target: CampaignTarget::Arena,
        pattern,
        algebra: inner.prot.kind(),
        landed: effect.landed(),
        detected: !report.clean(),
    }))
}

/// Corrupt `window_len` bytes of the anchored checkpoint image *file*
/// at byte `offset` with `pattern`, scrub the file against the live
/// codeword table, repair the file, and report. Returns `None` if the
/// pattern cannot land on the current contents.
///
/// The caller must hold updates still between the certifying checkpoint
/// and this call (tests simply don't run transactions in that window):
/// the scrub compares the image file against the *live* table.
pub fn run_ckpt_image_round(
    db: &DaliEngine,
    pattern: CorruptionPattern,
    offset: usize,
    window_len: usize,
) -> Result<Option<CampaignVerdict>> {
    let inner: &Db = db.db();
    let (store, dir) = (&*inner.store, &inner.config.dir);
    let (image_idx, _) = dali_engine::ckpt::read_anchor(store, dir)?;
    let f = store.open(&Db::img_path(dir, image_idx), Open::Write)?;
    let mut original = vec![0u8; window_len];
    f.read_at(&mut original, offset as u64)?;
    let Some(corrupt) = pattern.apply(&original) else {
        return Ok(None);
    };
    f.write_at(&corrupt, offset as u64)?;
    f.fsync()?;

    let report = dali_engine::ckpt::scrub_anchored_image(inner_arc(db))?;

    f.write_at(&original, offset as u64)?;
    f.fsync()?;

    Ok(Some(CampaignVerdict {
        target: CampaignTarget::CheckpointImage,
        pattern,
        algebra: inner.prot.kind(),
        landed: true,
        detected: !report.clean(),
    }))
}

fn inner_arc(db: &DaliEngine) -> &std::sync::Arc<Db> {
    db.db()
}

/// What re-scanning the stable log after a corruption showed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalScanOutcome {
    /// The scan errored or returned fewer records: the frame checksum
    /// (or framing) rejected the corruption.
    Rejected,
    /// The scan succeeded and returned a *different* record sequence:
    /// the corruption slid under the XOR frame checksum.
    SilentlyAltered,
    /// The scan returned the identical sequence: the corrupted bytes
    /// were not part of any stable frame (slack space).
    Unaffected,
}

/// Corrupt `window_len` bytes of the stable log file at byte `offset`
/// with `pattern`, re-scan, repair the file, and classify. Returns
/// `None` if the pattern cannot land on the current contents.
///
/// The WAL's per-frame checksum follows the configured codeword algebra,
/// so [`CorruptionPattern::PairedSameColumn`] landing inside one frame's
/// checksummed span is a *documented residual exposure* only under the
/// XOR algebra — residue-framed logs reject the altered frame. Campaign
/// tests pin both sides of that line via [`wal_expected_verdict`].
pub fn run_wal_round(
    db: &DaliEngine,
    pattern: CorruptionPattern,
    offset: usize,
    window_len: usize,
) -> Result<Option<WalScanOutcome>> {
    let inner: &Db = db.db();
    let (store, kind) = (&*inner.store, inner.config.codeword_algebra);
    inner.syslog.flush(false)?;
    inner.syslog.settle()?;
    let path = Db::log_path(&inner.config.dir);
    let baseline = wal_fingerprint(store, &path, kind)?;

    // `offset` is a global log position; map it into the containing
    // segment file and clamp the window at the segment's end.
    let Some(seg) = dali_wal::segment::list_on(store, &path)?
        .into_iter()
        .find(|s| s.base.0 <= offset as u64 && (offset as u64) < s.end().0)
    else {
        return Ok(None);
    };
    let local = offset as u64 - seg.base.0;
    let window = window_len.min(seg.len.saturating_sub(local) as usize);
    if window == 0 {
        return Ok(None);
    }
    let f = store.open(&dali_wal::segment::path(&path, seg.base), Open::Write)?;
    let mut original = vec![0u8; window];
    f.read_at(&mut original, local)?;
    let Some(corrupt) = pattern.apply(&original) else {
        return Ok(None);
    };
    f.write_at(&corrupt, local)?;
    f.fsync()?;

    let outcome = match wal_fingerprint(store, &path, kind) {
        Err(_) => WalScanOutcome::Rejected,
        Ok((records, _)) if records < baseline.0 => WalScanOutcome::Rejected,
        Ok(scanned) if scanned == baseline => WalScanOutcome::Unaffected,
        Ok(_) => WalScanOutcome::SilentlyAltered,
    };

    f.write_at(&original, local)?;
    f.fsync()?;
    Ok(Some(outcome))
}

/// Record count and a hash of the `(LSN, record)` sequence of one scan of
/// the stable log: what two scans are compared by, without holding
/// either in memory.
fn wal_fingerprint(
    store: &dyn Storage,
    path: &std::path::Path,
    kind: CodewordAlgebraKind,
) -> Result<(usize, u64)> {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let mut records = 0usize;
    dali_wal::LogReader::open_on(store, path, Lsn(0), kind)?.for_each(|lsn, rec| {
        records += 1;
        (lsn.0, format!("{rec:?}")).hash(&mut hasher);
        Ok(())
    })?;
    Ok((records, hasher.finish()))
}

/// How a detected corruption was (or wasn't) healed by the self-healing
/// layer — the repair leg of a campaign.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RepairVerdict {
    /// The audit flagged it and the parity stripe rebuilt the damaged
    /// regions in place; the post-repair audit came back clean.
    RepairedInPlace,
    /// The audit flagged it but the stripe could not certify the group
    /// (double fault, stale parity); online log-based cache recovery
    /// restored the bytes instead.
    RecoveredViaLog,
    /// The corruption slid under the configured algebra's audit — the
    /// repair layer never saw it (the round restores the original bytes
    /// so the campaign can continue).
    Missed,
}

/// One repair-leg round: pattern, algebra, and how the damage was healed.
#[derive(Clone, Debug)]
pub struct RepairRound {
    pub pattern: CorruptionPattern,
    pub algebra: CodewordAlgebraKind,
    pub verdict: RepairVerdict,
    /// Bytes the repair path rebuilt (0 when missed).
    pub bytes_rebuilt: usize,
    /// The image matches its pre-corruption contents after the round.
    pub image_restored: bool,
}

/// Corrupt `window_len` arena bytes at `addr` with `pattern`, audit, and
/// let the engine's online repair heal whatever the audit flagged.
/// Returns `None` if the pattern cannot land (or the write trapped).
///
/// Unlike [`run_arena_round`], the round does *not* write the original
/// bytes back when the audit detects the damage — the parity stripe (or
/// the log-based fallback) must reconstruct them, and `image_restored`
/// reports whether it did, byte for byte.
pub fn run_repair_round(
    db: &DaliEngine,
    inj: &FaultInjector,
    pattern: CorruptionPattern,
    addr: DbAddr,
    window_len: usize,
) -> Result<Option<RepairRound>> {
    let inner = inner_arc(db);
    let mut original = vec![0u8; window_len];
    inner.image.read(addr, &mut original)?;
    let Some(corrupt) = pattern.apply(&original) else {
        return Ok(None);
    };
    let effect = inj.wild_write_bytes(addr, &corrupt)?;
    if matches!(effect, InjectionEffect::Trapped { .. }) {
        return Ok(None);
    }
    let report = inner.prot.audit(&inner.image)?;
    if report.clean() {
        // Undetected: restore by hand so later rounds start clean.
        inner.image.write(addr, &original)?;
        return Ok(Some(RepairRound {
            pattern,
            algebra: inner.prot.kind(),
            verdict: RepairVerdict::Missed,
            bytes_rebuilt: 0,
            image_restored: true,
        }));
    }
    let mut regions: Vec<_> = report.corrupt.iter().map(|c| c.region).collect();
    regions.sort_unstable();
    regions.dedup();
    let outcome = dali_engine::repair::repair_regions(inner, &regions)?;
    let (verdict, bytes_rebuilt) = match outcome {
        dali_engine::RepairOutcome::RepairedInPlace { bytes_rebuilt, .. } => {
            (RepairVerdict::RepairedInPlace, bytes_rebuilt)
        }
        dali_engine::RepairOutcome::RecoveredViaLog { bytes_rebuilt, .. } => {
            (RepairVerdict::RecoveredViaLog, bytes_rebuilt)
        }
    };
    // Post-repair: those regions must audit clean and the window must
    // hold its pre-corruption bytes again.
    let recheck = inner.prot.audit_regions(&inner.image, &regions)?;
    if let Some(c) = recheck.corrupt.first() {
        return Err(dali_common::DaliError::CorruptionDetected {
            addr: c.addr,
            len: c.len,
            expected: c.expected,
            actual: c.actual,
        });
    }
    let mut now = vec![0u8; window_len];
    inner.image.read(addr, &mut now)?;
    Ok(Some(RepairRound {
        pattern,
        algebra: inner.prot.kind(),
        verdict,
        bytes_rebuilt,
        image_restored: now == original,
    }))
}

/// Corrupt *two* regions of one parity group (a double fault — more
/// damage than one parity word can solve), then repair. The stripe must
/// refuse and the engine must fall back to online log-based recovery;
/// the round reports how the bytes came back.
pub fn run_double_fault_round(
    db: &DaliEngine,
    inj: &FaultInjector,
    addr: DbAddr,
) -> Result<RepairRound> {
    let inner = inner_arc(db);
    let stripe = inner
        .prot
        .parity()
        .expect("double-fault round needs the parity stripe enabled");
    let geom = inner.prot.geometry();
    let region = geom.region_of(addr);
    let group = stripe.group_of(region);
    let (first, last) = stripe.members(group);
    assert!(last > first, "group too small for a double fault");
    // Corrupt two sibling regions with single-bit flips (detected under
    // both algebras).
    let victims = [first, first + 1];
    let mut originals = Vec::new();
    for &r in &victims {
        let base = geom.region_base(r);
        let mut cur = [0u8];
        inner.image.read(base, &mut cur)?;
        originals.push((base, cur[0]));
        let effect = inj.wild_write_bytes(base, &[cur[0] ^ 0x08])?;
        assert!(effect.landed(), "double-fault flip must land");
    }
    let outcome = dali_engine::repair::repair_regions(inner, &victims)?;
    let verdict = match &outcome {
        dali_engine::RepairOutcome::RepairedInPlace { .. } => RepairVerdict::RepairedInPlace,
        dali_engine::RepairOutcome::RecoveredViaLog { .. } => RepairVerdict::RecoveredViaLog,
    };
    let recheck = inner.prot.audit_regions(&inner.image, &victims)?;
    let mut image_restored = recheck.clean();
    for &(base, byte) in &originals {
        let mut cur = [0u8];
        inner.image.read(base, &mut cur)?;
        image_restored &= cur[0] == byte;
    }
    Ok(RepairRound {
        pattern: CorruptionPattern::SingleFlip,
        algebra: inner.prot.kind(),
        verdict,
        bytes_rebuilt: match outcome {
            dali_engine::RepairOutcome::RepairedInPlace { bytes_rebuilt, .. }
            | dali_engine::RepairOutcome::RecoveredViaLog { bytes_rebuilt, .. } => bytes_rebuilt,
        },
        image_restored,
    })
}

/// Run the repair leg across every pattern: corrupt, audit, heal,
/// verify. `addr` should hold [`campaign_payload`]`(window_len)` so each
/// pattern lands on its documented side of the detection table.
pub fn run_repair_matrix(
    db: &DaliEngine,
    inj: &FaultInjector,
    addr: DbAddr,
    window_len: usize,
) -> Result<Vec<RepairRound>> {
    let mut rounds = Vec::new();
    for pattern in CorruptionPattern::ALL {
        if let Some(r) = run_repair_round(db, inj, pattern, addr, window_len)? {
            rounds.push(r);
        }
    }
    Ok(rounds)
}

/// Assert the repair-leg ground truth: every pattern the algebra detects
/// is repaired *in place* with the image byte-identical afterwards; the
/// XOR paired-flip blind spot is the only permissible miss.
pub fn assert_repair_matrix(rounds: &[RepairRound]) {
    for r in rounds {
        let detected = algebra_expected_detected(r.algebra, r.pattern);
        let expected = if detected {
            RepairVerdict::RepairedInPlace
        } else {
            RepairVerdict::Missed
        };
        assert_eq!(
            r.verdict, expected,
            "{:?} under {:?}: got {:?}",
            r.pattern, r.algebra, r.verdict
        );
        assert!(
            r.image_restored,
            "{:?} under {:?}: image not byte-identical after repair",
            r.pattern, r.algebra
        );
        if detected {
            assert!(r.bytes_rebuilt > 0, "{:?}: nothing rebuilt", r.pattern);
        }
    }
}

/// Run the full pattern matrix against the arena and the checkpoint
/// image for one engine, returning every verdict that landed. `addr`
/// must point at bytes whose contents let every pattern land on its
/// documented side of the detection table — insert
/// [`campaign_payload`]`(window_len)` there.
pub fn run_matrix(
    db: &DaliEngine,
    inj: &FaultInjector,
    addr: DbAddr,
    window_len: usize,
) -> Result<Vec<CampaignVerdict>> {
    let mut verdicts = Vec::new();
    for pattern in CorruptionPattern::ALL {
        if let Some(v) = run_arena_round(db, inj, pattern, addr, window_len)? {
            verdicts.push(v);
        }
        if let Some(v) = run_ckpt_image_round(db, pattern, addr.0, window_len)? {
            verdicts.push(v);
        }
    }
    Ok(verdicts)
}

/// Assert that every verdict in `verdicts` matches
/// [`algebra_expected_detected`]. Panics with a full description on the
/// first mismatch.
pub fn assert_matrix(verdicts: &[CampaignVerdict]) {
    for v in verdicts {
        let expected = algebra_expected_detected(v.algebra, v.pattern);
        assert_eq!(
            v.detected,
            expected,
            "{:?} / {:?} under {:?}: detected={} but the algebra must{} detect it",
            v.target,
            v.pattern,
            v.algebra,
            v.detected,
            if expected { "" } else { " not" },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flip_changes_one_bit() {
        let w = vec![0u8; 16];
        let c = CorruptionPattern::SingleFlip.apply(&w).unwrap();
        let flipped: u32 = w.iter().zip(&c).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn paired_flip_is_same_direction_same_column() {
        for base in [vec![0u8; 16], vec![0x5Au8; 16], vec![0xFFu8; 16]] {
            let c = CorruptionPattern::PairedSameColumn.apply(&base).unwrap();
            let deltas: Vec<u32> = base
                .chunks(4)
                .zip(c.chunks(4))
                .map(|(a, b)| {
                    u32::from_le_bytes(a.try_into().unwrap())
                        ^ u32::from_le_bytes(b.try_into().unwrap())
                })
                .collect();
            let changed: Vec<&u32> = deltas.iter().filter(|&&d| d != 0).collect();
            assert_eq!(changed.len(), 2, "exactly two words touched");
            assert_eq!(changed[0], changed[1], "same bit column");
            assert_eq!(changed[0].count_ones(), 1, "one bit each");
            // XOR parity of the whole window is unchanged...
            let xor_delta = deltas.iter().fold(0u32, |a, d| a ^ d);
            assert_eq!(xor_delta, 0, "XOR blind");
            // ...but the residue moved (same direction: both 0->1 or both
            // 1->0, so the signed deltas add instead of cancelling).
            let r = CodewordAlgebraKind::Residue;
            let fold = |bytes: &[u8]| {
                bytes.chunks(4).fold(0u32, |acc, w| {
                    r.combine(acc, u32::from_le_bytes(w.try_into().unwrap()))
                })
            };
            assert_ne!(fold(&base), fold(&c), "residue sees it");
        }
    }

    #[test]
    fn paired_flip_refuses_windows_without_equal_columns() {
        // w1 = !w0 in every adjacent pair: no same-direction pair exists.
        let mut w = Vec::new();
        for i in 0..4u32 {
            let v = if i % 2 == 0 { 0u32 } else { !0u32 };
            w.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(find_same_direction_pair(&w), None);
        assert!(CorruptionPattern::PairedSameColumn.apply(&w).is_none());
    }

    #[test]
    fn torn_page_zeroes_tail_or_refuses() {
        let mut w = vec![7u8; 32];
        let c = CorruptionPattern::TornPage.apply(&w).unwrap();
        assert_eq!(&c[..16], &w[..16]);
        assert!(c[16..].iter().all(|&b| b == 0));
        w[16..].fill(0);
        assert!(CorruptionPattern::TornPage.apply(&w).is_none());
    }

    #[test]
    fn campaign_payload_keeps_every_pattern_on_its_documented_side() {
        for len in [16usize, 32, 64, 128, 256] {
            let p = campaign_payload(len);
            let xor_fold = |bytes: &[u8]| {
                bytes.chunks(4).fold(0u32, |acc, w| {
                    acc ^ u32::from_le_bytes(w.try_into().unwrap())
                })
            };
            for pattern in CorruptionPattern::ALL {
                let c = pattern
                    .apply(&p)
                    .unwrap_or_else(|| panic!("{pattern:?} must land on campaign_payload({len})"));
                // XOR must move for everything but the paired flip…
                let xor_moved = xor_fold(&p) != xor_fold(&c);
                assert_eq!(
                    xor_moved,
                    pattern != CorruptionPattern::PairedSameColumn,
                    "{pattern:?} on campaign_payload({len})"
                );
            }
        }
    }

    #[test]
    fn expected_detection_table() {
        use CodewordAlgebraKind::*;
        use CorruptionPattern::*;
        for pattern in CorruptionPattern::ALL {
            assert!(algebra_expected_detected(Residue, pattern));
        }
        assert!(!algebra_expected_detected(XorFold, PairedSameColumn));
        assert!(algebra_expected_detected(XorFold, SingleFlip));
        assert!(algebra_expected_detected(XorFold, ThreeFlip));
        assert_eq!(wal_expected_verdict(XorFold, PairedSameColumn), Some(false));
        assert_eq!(wal_expected_verdict(Residue, PairedSameColumn), Some(true));
        for kind in CodewordAlgebraKind::ALL {
            assert_eq!(wal_expected_verdict(kind, SingleFlip), Some(true));
            assert_eq!(wal_expected_verdict(kind, ThreeFlip), Some(true));
            assert_eq!(wal_expected_verdict(kind, Burst), None);
        }
    }
}
