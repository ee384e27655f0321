//! [`CodewordProtection`]: the per-scheme protection façade.
//!
//! Bundles region geometry, the codeword table, and the protection-latch
//! table, and implements the read/update protocols of each scheme:
//!
//! | Scheme | update latch | read path |
//! |---|---|---|
//! | Baseline / MemoryProtection | none | plain copy |
//! | DataCodeword / ReadLogging | shared | plain copy (+ read log in the engine) |
//! | CwReadLogging | exclusive (write-as-read folds the whole region) | plain copy + read log with codewords |
//! | DeferredMaintenance | shared (audits drain shard-by-shard under the stripe latch) | plain copy |
//! | ReadPrecheck | exclusive | [`checked_read`](CodewordProtection::checked_read) |
//!
//! Codeword *maintenance* (the delta published at `endUpdate`) is
//! identical for every codeword scheme, and generic over the configured
//! [`CodewordAlgebraKind`] — the XOR fold or the mod-(2^32−1) residue
//! code (see [`crate::algebra`]). The deferred scheme queues its deltas
//! in the sharded, coalescing delta set ([`crate::deferred`]) instead of
//! touching the codeword table at `endUpdate`. The parity stripe is
//! maintained eagerly under every codeword scheme: each update's
//! `old ⊕ new` lands in its group buffer inside the same latch bracket.

use crate::algebra;
use crate::audit::{self, AuditReport};
use crate::deferred::{DeferredConfig, DeferredSet, DeferredStatsSnapshot};
use crate::latch::{LatchMode, LatchTable};
use crate::parity::{ParityGroupId, ParityStatsSnapshot, ParityStripe};
use crate::region::{RegionGeometry, RegionId};
use crate::table::CodewordTable;
use dali_common::{CodewordAlgebraKind, DaliError, DbAddr, ProtectionScheme, Result};
use dali_mem::DbImage;

/// Why a parity repair declined to rebuild and the caller must fall back
/// to log-based recovery (the bottom rung of the repair ladder).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairFallback {
    /// No parity stripe is configured for this protection.
    NotEnabled,
    /// The group's parity buffer no longer folds to its maintained
    /// codeword: the stripe itself took a wild write (or a torn update),
    /// so its bytes cannot be trusted for reconstruction.
    StaleParity {
        /// The stale group.
        group: ParityGroupId,
    },
    /// Another member of the same parity group also fails its codeword
    /// check — a double fault; one XOR accumulator cannot disentangle
    /// two unknowns.
    SiblingCorrupt {
        /// The second corrupt region.
        region: RegionId,
    },
    /// The reconstructed bytes still do not fold to the region's
    /// maintained codeword (e.g. the corruption also reached the
    /// codeword table, or a delta was lost); nothing was written.
    VerifyFailed {
        /// The region whose rebuild failed verification.
        region: RegionId,
    },
}

/// How many consecutive regions an audit or certification sweep folds
/// under one exclusive latch bracket unless told otherwise: one
/// `with_span` per 64 regions instead of one per region, at the cost of
/// holding writers off for at most 64 region folds. The audit report is
/// identical for every bound (`1` is the paper's latch-per-region cadence,
/// which `tests/delta_certification.rs` sweeps against).
pub const DEFAULT_LATCH_RUN: usize = 64;

/// Codeword state and latches for one database image.
pub struct CodewordProtection {
    scheme: ProtectionScheme,
    geom: RegionGeometry,
    table: CodewordTable,
    latches: LatchTable,
    /// Deferred-maintenance dirty set: per-shard maps of
    /// `region → coalesced codeword delta` awaiting application (only for
    /// [`ProtectionScheme::DeferredMaintenance`]).
    deferred: Option<DeferredSet>,
    /// Parity stripe for online repair (see [`crate::parity`]); present
    /// when the config enables a parity group size and the scheme
    /// maintains codewords. Updaters fold their byte deltas into it next
    /// to their codeword deltas, under the same latch bracket.
    parity: Option<ParityStripe>,
    /// Worker count for full-image scans (audits, resync, the initial
    /// table fold); ≥ 1. Per-region scans are unaffected.
    audit_threads: usize,
    /// Longest contiguous run of regions audited under one exclusive
    /// latch bracket ([`DEFAULT_LATCH_RUN`] unless
    /// [`set_latch_run`](Self::set_latch_run) changed it); ≥ 1.
    latch_run: usize,
    /// The codeword algebra folds, deltas, and the table live in.
    kind: CodewordAlgebraKind,
}

impl CodewordProtection {
    /// Build protection state for `image`, folding the codeword table from
    /// its current contents: deferred dirty-set sizing (ignored unless the
    /// scheme defers maintenance), the worker count used for every
    /// full-image scan this protection runs — [`audit`](Self::audit),
    /// [`resync`](Self::resync), and the initial codeword-table fold
    /// (`audit_threads` is clamped to ≥ 1) — and the codeword algebra
    /// every fold, delta, and table slot lives in.
    pub fn with_config(
        image: &DbImage,
        scheme: ProtectionScheme,
        region_size: usize,
        regions_per_latch: usize,
        deferred_cfg: DeferredConfig,
        audit_threads: usize,
        kind: CodewordAlgebraKind,
    ) -> Result<CodewordProtection> {
        let audit_threads = audit_threads.max(1);
        let geom = RegionGeometry::new(image.len(), region_size)?;
        let table = if scheme.maintains_codewords() {
            CodewordTable::from_image_parallel(image, &geom, audit_threads, kind)?
        } else {
            // Baseline / mprotect schemes keep an (unused) empty table.
            CodewordTable::new_zeroed(0, kind)
        };
        let latches = LatchTable::new(geom.num_regions(), regions_per_latch);
        let deferred = scheme
            .defers_maintenance()
            .then(|| DeferredSet::new(deferred_cfg));
        Ok(CodewordProtection {
            scheme,
            geom,
            table,
            latches,
            deferred,
            parity: None,
            audit_threads,
            latch_run: DEFAULT_LATCH_RUN,
            kind,
        })
    }

    /// Attach a parity stripe of `group_size` regions per group (no-op
    /// when `group_size == 0` or the scheme maintains no codewords —
    /// parity rides the codeword update path). The stripe is built from
    /// the image's current contents; the caller must be quiesced, as at
    /// construction and recovery.
    ///
    /// `_shards` and `_watermark` are unused: they sized the stripe's
    /// delta queue, which eager maintenance removed. They stay only
    /// because the frozen ledger (`benchmark/src/cells.rs`) passes them;
    /// ROADMAP item 8 queues their removal.
    pub fn enable_parity(
        &mut self,
        image: &DbImage,
        group_size: usize,
        _shards: usize,
        _watermark: usize,
    ) -> Result<()> {
        if group_size == 0 || !self.scheme.maintains_codewords() {
            self.parity = None;
            return Ok(());
        }
        let stripe = ParityStripe::new(&self.geom, group_size, self.kind)?;
        stripe.resync(image, &self.geom)?;
        self.parity = Some(stripe);
        Ok(())
    }

    /// The parity stripe, when online repair is enabled.
    #[inline]
    pub fn parity(&self) -> Option<&ParityStripe> {
        self.parity.as_ref()
    }

    /// Rebuild one parity group from the image under the group's
    /// exclusive latch bracket: recompute buffer + parity codeword. Used
    /// by checkpoint certification to heal a group whose stripe memory
    /// took a wild write, after the member regions themselves audited
    /// clean. No-op without a stripe.
    pub fn resync_parity_group(&self, image: &DbImage, group: ParityGroupId) -> Result<()> {
        let Some(stripe) = &self.parity else {
            return Ok(());
        };
        let (first, last) = stripe.members(group);
        self.latches
            .with_span(first, last, LatchMode::Exclusive, || {
                stripe.rebuild_group(image, &self.geom, group)
            })
    }

    /// Parity-stripe gauges and lifetime counters (zeroed default when
    /// no stripe is configured).
    pub fn parity_stats(&self) -> ParityStatsSnapshot {
        self.parity
            .as_ref()
            .map_or_else(ParityStatsSnapshot::default, |p| p.snapshot())
    }

    /// The codeword algebra this protection folds and maintains under.
    #[inline]
    pub fn kind(&self) -> CodewordAlgebraKind {
        self.kind
    }

    /// Worker count used for full-image scans (≥ 1).
    #[inline]
    pub fn audit_threads(&self) -> usize {
        self.audit_threads
    }

    /// Longest latch-bracketed region run audits take (≥ 1).
    #[inline]
    pub fn latch_run(&self) -> usize {
        self.latch_run
    }

    /// Set the audit latch-run bound (clamped to ≥ 1). The audit report
    /// is identical for every bound; only the number of latch brackets a
    /// sweep takes changes.
    pub fn set_latch_run(&mut self, run: usize) {
        self.latch_run = run.max(1);
    }

    /// The active scheme.
    #[inline]
    pub fn scheme(&self) -> ProtectionScheme {
        self.scheme
    }

    /// Region geometry.
    #[inline]
    pub fn geometry(&self) -> &RegionGeometry {
        &self.geom
    }

    /// The maintained codeword table.
    #[inline]
    pub fn table(&self) -> &CodewordTable {
        &self.table
    }

    /// The protection-latch table.
    #[inline]
    pub fn latches(&self) -> &LatchTable {
        &self.latches
    }

    /// Latch mode an updater must hold across its beginUpdate/endUpdate
    /// window.
    #[inline]
    pub fn update_latch_mode(&self) -> LatchMode {
        match self.scheme {
            ProtectionScheme::ReadPrecheck => LatchMode::Exclusive,
            // CW ReadLogging treats every write as a read (§4.3): the
            // write-as-read record's codeword is a fold of the *whole*
            // pre-update region, which only describes a consistent state
            // if no other updater is mutating the region mid-fold.
            ProtectionScheme::CwReadLogging => LatchMode::Exclusive,
            // Deferred maintenance holds the latch shared across the
            // write+enqueue bracket so an auditor holding it exclusively
            // knows every landed byte has its delta queued — the delta
            // may lag in the dirty set, never be missing. That one
            // shared CAS replaces the old global update quiesce that
            // audits used to impose.
            ProtectionScheme::DeferredMaintenance => LatchMode::Shared,
            s if s.maintains_codewords() => LatchMode::Shared,
            _ => LatchMode::None,
        }
    }

    /// Publish the codeword delta for a completed physical update, and
    /// fold its `old ⊕ new` into the parity stripe when one is enabled.
    ///
    /// `waddr`/`old_widened` are the word-aligned address and before-image
    /// captured at `beginUpdate` (see
    /// [`dali_common::align::widen_to_words`]); the image already contains
    /// the after-image. The caller must still hold the update latch span.
    pub fn apply_update(&self, image: &DbImage, waddr: DbAddr, old_widened: &[u8]) -> Result<()> {
        if !self.scheme.maintains_codewords() || old_widened.is_empty() {
            return Ok(());
        }
        for (region, s, l) in self.geom.split(waddr, old_widened.len()) {
            let rel = s.0 - waddr.0;
            let old = &old_widened[rel..rel + l];
            let old_fold = algebra::fold(self.kind, old);
            let new_fold = image.fold(self.kind, s, l)?;
            let delta = self.kind.delta_of_folds(old_fold, new_fold);
            match &self.deferred {
                // A zero delta leaves the codeword where it is: nothing
                // to queue.
                Some(_) if delta == 0 => {}
                Some(set) => {
                    if set.push(region, delta, self.kind) {
                        // Shard over its high-watermark: the pusher pays
                        // for the drain (backpressure). Applying queued
                        // deltas needs no latch — each was enqueued after
                        // its bytes landed, and the table publish is a
                        // commuting atomic (fetch_xor / CAS'd mod-add).
                        self.drain_codewords(region, region);
                    }
                }
                None => self.table.apply_delta(region, delta),
            }
            if let Some(stripe) = &self.parity {
                stripe.apply_update(image, s, old)?;
            }
        }
        Ok(())
    }

    /// Apply every queued deferred-maintenance delta to the codeword
    /// table, shard by shard. Safe concurrently with updaters: a delta
    /// enters the dirty set only after its image bytes landed, so the
    /// maintained codeword only ever *lags* the image by what remains
    /// queued — it is never wrong once drained. No-op for non-deferred
    /// schemes.
    pub fn drain_deferred(&self) {
        if let Some(set) = &self.deferred {
            set.drain_all(&self.table);
        }
    }

    /// Drain the dirty-set shard holding `region`'s deltas (the
    /// incremental catch-up path used by audits: latch the region
    /// exclusively, drain its shard, then fold and compare).
    pub fn drain_region(&self, region: RegionId) {
        self.drain_codewords(region, region);
    }

    /// Number of *distinct dirty regions* in the deferred dirty set
    /// (diagnostics). Deltas coalesce per region, so this counts map
    /// entries, not raw queued deltas — see
    /// [`deferred_pending_deltas`](Self::deferred_pending_deltas) for the
    /// raw count.
    pub fn deferred_len(&self) -> usize {
        self.deferred_stats().dirty_regions as usize
    }

    /// Total accumulated (not yet drained) raw deltas across the dirty
    /// set, before coalescing.
    pub fn deferred_pending_deltas(&self) -> u64 {
        self.deferred_stats().pending_deltas
    }

    /// Deferred dirty-set gauges and lifetime counters (zeroed default
    /// for non-deferred schemes).
    pub fn deferred_stats(&self) -> DeferredStatsSnapshot {
        self.deferred
            .as_ref()
            .map_or_else(DeferredStatsSnapshot::default, |set| set.snapshot())
    }

    /// Read with precheck (paper §3.1): take the protection latches of the
    /// overlapped regions exclusively, verify each region's codeword, and
    /// copy the data out while still holding the latches.
    pub fn checked_read(&self, image: &DbImage, addr: DbAddr, buf: &mut [u8]) -> Result<()> {
        let (first, last) = self.geom.region_span(addr, buf.len());
        self.latches
            .with_span(first, last, LatchMode::Exclusive, || {
                for r in first..=last {
                    if let Some(c) = audit::check_region(image, &self.geom, &self.table, r)? {
                        return Err(DaliError::CorruptionDetected {
                            addr: c.addr,
                            len: c.len,
                            expected: c.expected,
                            actual: c.actual,
                        });
                    }
                }
                image.read(addr, buf)
            })
    }

    /// Read and return the codewords *computed from the contents* of the
    /// overlapped regions, consistent with the copied data (taken under an
    /// exclusive latch span). Used by the CW ReadLog scheme (§4.3
    /// extension): the logged codeword describes the data the transaction
    /// actually saw, so that recovery can tell whether the recovering
    /// image reproduces it. (Logging the *maintained* codeword instead
    /// would blind recovery to direct corruption, which by definition
    /// leaves the maintained codeword stale.)
    pub fn read_with_codewords(
        &self,
        image: &DbImage,
        addr: DbAddr,
        buf: &mut [u8],
    ) -> Result<Vec<u32>> {
        let (first, last) = self.geom.region_span(addr, buf.len());
        self.latches
            .with_span(first, last, LatchMode::Exclusive, || {
                image.read(addr, buf)?;
                (first..=last)
                    .map(|r| {
                        image.fold(self.kind, self.geom.region_base(r), self.geom.region_size())
                    })
                    .collect()
            })
    }

    /// Audit the whole database: the `audit::sweep` of the single range
    /// `0..n`, latched in runs of [`latch_run`](Self::latch_run) regions
    /// (for the deferred scheme each run's dirty-set shards are drained
    /// under its exclusive bracket before the fold — no global quiesce),
    /// striped across the configured [`audit_threads`](Self::audit_threads)
    /// workers. The report is identical for every worker count.
    pub fn audit(&self, image: &DbImage) -> Result<AuditReport> {
        self.audit_with_threads(image, self.audit_threads)
    }

    /// [`audit`](Self::audit) with an explicit worker count (used by the
    /// parallel-vs-serial equivalence suite).
    #[allow(clippy::single_range_in_vec_init)] // one range: the whole database
    pub fn audit_with_threads(&self, image: &DbImage, threads: usize) -> Result<AuditReport> {
        self.sweep(image, &[0..self.geom.num_regions()], threads)
    }

    /// Audit only the given regions (sorted ascending, deduplicated) —
    /// the delta-certification sweep, over the runs of consecutive ids in
    /// `regions`. The report is identical to restricting a full sweep to
    /// `regions`.
    pub fn audit_regions(&self, image: &DbImage, regions: &[RegionId]) -> Result<AuditReport> {
        self.sweep(image, &audit::runs(regions), self.audit_threads)
    }

    /// The one region sweep behind every audit; non-codeword schemes have
    /// nothing to audit against and report an empty, clean pass.
    fn sweep(
        &self,
        image: &DbImage,
        ranges: &[std::ops::Range<RegionId>],
        threads: usize,
    ) -> Result<AuditReport> {
        if !self.scheme.maintains_codewords() {
            return Ok(AuditReport::default());
        }
        audit::sweep(
            image,
            &self.geom,
            &self.table,
            &self.latches,
            self.deferred.as_ref(),
            ranges,
            threads,
            self.latch_run,
        )
    }

    /// Apply the queued codeword deltas of every dirty-set shard covering
    /// `first..=last` (no-op unless the scheme defers maintenance).
    fn drain_codewords(&self, first: RegionId, last: RegionId) {
        if let Some(set) = &self.deferred {
            set.drain_span(first, last, &self.table);
        }
    }

    /// Sorted, deduplicated ids of regions with queued deferred deltas
    /// (empty for non-deferred schemes). A delta certification must audit
    /// these in addition to the checkpoint's dirty-page footprint: a
    /// queued delta means the region's maintained codeword lags the
    /// image.
    pub fn deferred_dirty_regions(&self) -> Vec<RegionId> {
        self.deferred
            .as_ref()
            .map_or_else(Vec::new, DeferredSet::dirty_region_ids)
    }

    /// Recompute every codeword from the image (after recovery rebuilds or
    /// repairs the image), striped across the configured
    /// [`audit_threads`](Self::audit_threads). Any queued deferred deltas
    /// are superseded and dropped.
    pub fn resync(&self, image: &DbImage) -> Result<()> {
        if let Some(set) = &self.deferred {
            set.clear();
        }
        if self.scheme.maintains_codewords() {
            self.table
                .recompute_all_parallel(image, &self.geom, self.audit_threads)?;
        }
        if let Some(stripe) = &self.parity {
            stripe.resync(image, &self.geom)?;
        }
        Ok(())
    }

    /// Attempt to rebuild `region` in place from its parity group.
    ///
    /// Takes the group's protection latches exclusively (quiescing
    /// updaters for exactly that span, so the parity buffer is the XOR of
    /// the members), drains the deferred codeword shards covering the
    /// group, then walks the fallback ladder:
    ///
    /// 1. parity buffer must fold to its maintained parity codeword
    ///    (else [`RepairFallback::StaleParity`]);
    /// 2. every sibling region must pass its codeword check (else
    ///    [`RepairFallback::SiblingCorrupt`] — a double fault);
    /// 3. the reconstruction `parity ⊕ (⊕ siblings)` must fold to the
    ///    region's *maintained* codeword (else
    ///    [`RepairFallback::VerifyFailed`]).
    ///
    /// Only a rebuild passing all three is written back — the returned
    /// `Ok(Ok(bytes))` means the region's bytes once again match the
    /// codeword the prescribed-update history maintained, with no log
    /// replay. `Ok(Err(reason))` leaves the image untouched; the caller
    /// falls back to checkpoint + WAL recovery.
    pub fn repair_region(
        &self,
        image: &DbImage,
        region: RegionId,
    ) -> Result<std::result::Result<usize, RepairFallback>> {
        let Some(stripe) = &self.parity else {
            return Ok(Err(RepairFallback::NotEnabled));
        };
        let group = stripe.group_of(region);
        let (first, last) = stripe.members(group);
        self.latches
            .with_span(first, last, LatchMode::Exclusive, || {
                self.drain_codewords(first, last);
                if !stripe.verify_group(group) {
                    return Ok(Err(RepairFallback::StaleParity { group }));
                }
                for r in first..=last {
                    if r == region {
                        continue;
                    }
                    if audit::check_region(image, &self.geom, &self.table, r)?.is_some() {
                        return Ok(Err(RepairFallback::SiblingCorrupt { region: r }));
                    }
                }
                let mut rebuilt = vec![0u8; self.geom.region_size()];
                stripe.reconstruct(image, &self.geom, region, &mut rebuilt)?;
                if algebra::fold(self.kind, &rebuilt) != self.table.get(region) {
                    return Ok(Err(RepairFallback::VerifyFailed { region }));
                }
                image.write(self.geom.region_base(region), &rebuilt)?;
                Ok(Ok(rebuilt.len()))
            })
    }

    /// Compute the codeword of the region containing `addr` directly from
    /// the image, with no latching. For callers that are single-threaded
    /// (recovery) or already hold an exclusive span over the regions (an
    /// updater inside its beginUpdate/endUpdate bracket).
    pub fn compute_region_codewords(
        &self,
        image: &DbImage,
        addr: DbAddr,
        len: usize,
    ) -> Result<Vec<u32>> {
        let (first, last) = self.geom.region_span(addr, len);
        (first..=last)
            .map(|r| image.fold(self.kind, self.geom.region_base(r), self.geom.region_size()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-page image under `scheme` with 64-byte regions, `threads` scan
    /// workers and a `cfg`-sized deferred set.
    fn setup_with(
        scheme: ProtectionScheme,
        kind: CodewordAlgebraKind,
        cfg: DeferredConfig,
        threads: usize,
    ) -> (DbImage, CodewordProtection) {
        let image = DbImage::new(4, 4096).unwrap();
        let prot =
            CodewordProtection::with_config(&image, scheme, 64, 1, cfg, threads, kind).unwrap();
        (image, prot)
    }

    fn setup_algebra(
        scheme: ProtectionScheme,
        kind: CodewordAlgebraKind,
    ) -> (DbImage, CodewordProtection) {
        setup_with(scheme, kind, DeferredConfig::default(), 1)
    }

    fn setup(scheme: ProtectionScheme) -> (DbImage, CodewordProtection) {
        setup_algebra(scheme, CodewordAlgebraKind::XorFold)
    }

    /// Simulate one prescribed update: capture widened before-image, write,
    /// publish delta.
    fn prescribed_update(image: &DbImage, prot: &CodewordProtection, addr: DbAddr, data: &[u8]) {
        let (ws, wl) = dali_common::align::widen_to_words(addr.0, data.len());
        let mut old = vec![0u8; wl];
        image.read(DbAddr(ws), &mut old).unwrap();
        image.write(addr, data).unwrap();
        prot.apply_update(image, DbAddr(ws), &old).unwrap();
    }

    #[test]
    fn update_latch_modes_per_scheme() {
        use ProtectionScheme::*;
        assert_eq!(setup(Baseline).1.update_latch_mode(), LatchMode::None);
        assert_eq!(
            setup(MemoryProtection).1.update_latch_mode(),
            LatchMode::None
        );
        assert_eq!(setup(DataCodeword).1.update_latch_mode(), LatchMode::Shared);
        assert_eq!(setup(ReadLogging).1.update_latch_mode(), LatchMode::Shared);
        assert_eq!(
            setup(ReadPrecheck).1.update_latch_mode(),
            LatchMode::Exclusive
        );
    }

    #[test]
    fn maintained_updates_keep_audit_clean() {
        let (image, prot) = setup(ProtectionScheme::DataCodeword);
        prescribed_update(&image, &prot, DbAddr(101), &[1, 2, 3, 4, 5]);
        prescribed_update(&image, &prot, DbAddr(60), &[9; 10]); // crosses regions
        assert!(prot.audit(&image).unwrap().clean());
    }

    #[test]
    fn unaligned_cross_region_update_maintains_all_regions() {
        let (image, prot) = setup(ProtectionScheme::DataCodeword);
        // 3 regions: [64..128), [128..192), [192..256); update 100..=200.
        prescribed_update(&image, &prot, DbAddr(101), &[0xabu8; 100]);
        assert!(prot.audit(&image).unwrap().clean());
    }

    #[test]
    fn wild_write_fails_checked_read() {
        let (image, prot) = setup(ProtectionScheme::ReadPrecheck);
        prescribed_update(&image, &prot, DbAddr(128), &[1, 2, 3, 4]);
        // Stray write bypassing the interface:
        image.write(DbAddr(130), &[0xff]).unwrap();
        let mut buf = [0u8; 8];
        let err = prot
            .checked_read(&image, DbAddr(128), &mut buf)
            .unwrap_err();
        assert!(matches!(err, DaliError::CorruptionDetected { .. }));
    }

    #[test]
    fn checked_read_passes_on_clean_region_even_if_other_region_corrupt() {
        let (image, prot) = setup(ProtectionScheme::ReadPrecheck);
        image.write(DbAddr(1000), &[0xff]).unwrap(); // corrupt region 15
        let mut buf = [0u8; 8];
        prot.checked_read(&image, DbAddr(0), &mut buf).unwrap();
    }

    #[test]
    fn read_with_codewords_returns_per_region_words() {
        let (image, prot) = setup(ProtectionScheme::CwReadLogging);
        prescribed_update(&image, &prot, DbAddr(60), &[5u8; 10]);
        let mut buf = [0u8; 10];
        let cws = prot
            .read_with_codewords(&image, DbAddr(60), &mut buf)
            .unwrap();
        assert_eq!(cws.len(), 2);
        assert_eq!(buf, [5u8; 10]);
        let computed = prot
            .compute_region_codewords(&image, DbAddr(60), 10)
            .unwrap();
        assert_eq!(cws, computed);
    }

    #[test]
    fn baseline_scheme_skips_maintenance() {
        let (image, prot) = setup(ProtectionScheme::Baseline);
        prescribed_update(&image, &prot, DbAddr(0), &[1, 2, 3]);
        assert_eq!(prot.table().len(), 0);
        assert!(prot.audit(&image).unwrap().clean());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // the full sweep
    fn deferred_maintenance_queues_until_drain() {
        let (image, prot) = setup(ProtectionScheme::DeferredMaintenance);
        // Updaters hold the latch shared across write+enqueue so audits
        // can drain per region under the exclusive latch (no quiesce).
        assert_eq!(prot.update_latch_mode(), LatchMode::Shared);
        prescribed_update(&image, &prot, DbAddr(100), &[1, 2, 3, 4]);
        assert_eq!(prot.deferred_len(), 1);
        assert_eq!(prot.deferred_pending_deltas(), 1);
        // Without draining, the table is stale: a raw sweep (no dirty set
        // wired in) would flag the region.
        let raw = crate::audit::sweep(
            &image,
            prot.geometry(),
            prot.table(),
            prot.latches(),
            None,
            &[0..prot.geometry().num_regions()],
            1,
            1,
        )
        .unwrap();
        assert!(!raw.clean(), "queued delta not yet applied");
        prot.drain_deferred();
        assert_eq!(prot.deferred_len(), 0);
        assert_eq!(prot.deferred_pending_deltas(), 0);
        assert!(prot.audit(&image).unwrap().clean());
        // Rewriting the same bytes moves no codeword: nothing is queued.
        prescribed_update(&image, &prot, DbAddr(100), &[1, 2, 3, 4]);
        assert_eq!(prot.deferred_pending_deltas(), 0);
    }

    #[test]
    fn deferred_drain_is_idempotent_and_order_free() {
        let (image, prot) = setup(ProtectionScheme::DeferredMaintenance);
        prescribed_update(&image, &prot, DbAddr(0), &[1, 1, 1, 1]);
        prescribed_update(&image, &prot, DbAddr(4), &[2, 2, 2, 2]);
        prescribed_update(&image, &prot, DbAddr(0), &[3, 3, 3, 3]);
        // Three raw deltas, but regions 0 and 4 share region 0 of the
        // 64-byte geometry: the dirty set coalesces them into one entry.
        assert_eq!(prot.deferred_len(), 1, "coalesced to one dirty region");
        assert_eq!(prot.deferred_pending_deltas(), 3);
        prot.drain_deferred();
        prot.drain_deferred(); // second drain: nothing left
        assert!(prot.audit(&image).unwrap().clean());
        assert!(prot.deferred_stats().coalesced_deltas >= 2);
    }

    #[test]
    fn deferred_resync_clears_queue() {
        let (image, prot) = setup(ProtectionScheme::DeferredMaintenance);
        prescribed_update(&image, &prot, DbAddr(8), &[9, 9, 9, 9]);
        assert_eq!(prot.deferred_len(), 1);
        prot.resync(&image).unwrap();
        assert_eq!(prot.deferred_len(), 0);
        assert_eq!(prot.deferred_pending_deltas(), 0);
        assert!(prot.audit(&image).unwrap().clean());
    }

    #[test]
    fn deferred_audit_drains_incrementally() {
        let (image, prot) = setup(ProtectionScheme::DeferredMaintenance);
        prescribed_update(&image, &prot, DbAddr(100), &[4, 5, 6]);
        prescribed_update(&image, &prot, DbAddr(900), &[7, 8]);
        assert_eq!(prot.deferred_len(), 2);
        // The audit itself performs the catch-up, region by region.
        assert!(prot.audit(&image).unwrap().clean());
        assert_eq!(prot.deferred_len(), 0);
        assert_eq!(prot.deferred_pending_deltas(), 0);
    }

    #[test]
    fn deferred_drain_region_is_partial() {
        let cfg = DeferredConfig {
            shards: 4,
            watermark: 0,
        };
        let (image, prot) = setup_with(
            ProtectionScheme::DeferredMaintenance,
            CodewordAlgebraKind::XorFold,
            cfg,
            1,
        );
        // Pick a region that hashes away from region 0.
        let probe = prot.deferred.as_ref().unwrap();
        let other = (1..prot.geometry().num_regions())
            .find(|&r| probe.shard_of(r) != probe.shard_of(0))
            .expect("some region in another shard");
        prescribed_update(&image, &prot, DbAddr(4), &[1, 2, 3]);
        prescribed_update(&image, &prot, DbAddr(64 * other + 4), &[4, 5]);
        assert_eq!(prot.deferred_len(), 2);
        prot.drain_region(0);
        assert_eq!(prot.deferred_len(), 1, "only shard(0) drained");
        assert!(prot.audit(&image).unwrap().clean());
    }

    #[test]
    fn parallel_audit_equals_serial_with_deferred_queue_and_corruption() {
        let (image, prot) = setup_with(
            ProtectionScheme::DeferredMaintenance,
            CodewordAlgebraKind::XorFold,
            DeferredConfig {
                shards: 4,
                watermark: 0,
            },
            4,
        );
        assert_eq!(prot.audit_threads(), 4);
        // Maintained updates queue deltas; stray writes corrupt.
        prescribed_update(&image, &prot, DbAddr(100), &[1, 2, 3, 4, 5]);
        prescribed_update(&image, &prot, DbAddr(5000), &[6, 7]);
        image.write(DbAddr(300), &[0xee]).unwrap();
        image.write(DbAddr(3 * 4096 + 9), &[0xdd]).unwrap();
        // The parallel audit (threads = 4) must both absorb the queued
        // deltas and report exactly what a fresh serial pass reports.
        let par = prot.audit(&image).unwrap();
        let serial = prot.audit_with_threads(&image, 1).unwrap();
        assert_eq!(par.corrupt, serial.corrupt);
        assert_eq!(par.regions_checked, serial.regions_checked);
        assert_eq!(par.corrupt.len(), 2);
        assert_eq!(prot.deferred_len(), 0, "parallel audit drained the set");
    }

    #[test]
    fn parallel_construction_and_resync_match_serial_table() {
        let image = DbImage::new(2, 4096).unwrap();
        let noise: Vec<u8> = (0..image.len() as u32)
            .map(|i| (i.wrapping_mul(2246822519) >> 9) as u8)
            .collect();
        image.write(DbAddr(0), &noise).unwrap();
        let build = |threads| {
            CodewordProtection::with_config(
                &image,
                ProtectionScheme::DataCodeword,
                64,
                1,
                DeferredConfig::default(),
                threads,
                CodewordAlgebraKind::XorFold,
            )
            .unwrap()
        };
        let (serial, par) = (build(1), build(3));
        for r in 0..serial.geometry().num_regions() {
            assert_eq!(serial.table().get(r), par.table().get(r), "region {r}");
        }
        image.write(DbAddr(40), &[0xaa; 8]).unwrap(); // external repair path
        par.resync(&image).unwrap();
        assert!(par.audit(&image).unwrap().clean());
    }

    #[test]
    fn audit_regions_matches_full_sweep_on_subset() {
        let (image, mut prot) = setup(ProtectionScheme::DataCodeword);
        prot.set_latch_run(8);
        assert_eq!(prot.latch_run(), 8);
        image.write(DbAddr(130), &[0xbe]).unwrap(); // corrupt region 2
        image.write(DbAddr(3000), &[0xef]).unwrap(); // corrupt region 46
        let full = prot.audit(&image).unwrap();
        assert_eq!(full.corrupt.len(), 2);
        // A subset sweep over the dirty footprint reports exactly the
        // full sweep's findings restricted to that footprint.
        let sub = prot.audit_regions(&image, &[1, 2, 3, 46]).unwrap();
        assert_eq!(sub.corrupt, full.corrupt);
        assert_eq!(sub.regions_checked, 4);
        // Regions outside the footprint are not consulted.
        let miss = prot.audit_regions(&image, &[0, 10, 11]).unwrap();
        assert!(miss.clean());
    }

    #[test]
    fn deferred_dirty_regions_feed_delta_sweeps() {
        let (image, prot) = setup(ProtectionScheme::DeferredMaintenance);
        prescribed_update(&image, &prot, DbAddr(100), &[1, 2, 3]); // region 1
        prescribed_update(&image, &prot, DbAddr(900), &[7, 8]); // region 14
        let dirty = prot.deferred_dirty_regions();
        assert_eq!(dirty, vec![1, 14]);
        // Sweeping exactly the dirty regions absorbs the queued deltas.
        assert!(prot.audit_regions(&image, &dirty).unwrap().clean());
        assert_eq!(prot.deferred_len(), 0);
        assert!(prot.deferred_dirty_regions().is_empty());
        // Non-codeword schemes: empty dirty set, clean no-op sweeps.
        let (image, prot) = setup(ProtectionScheme::Baseline);
        assert!(prot.deferred_dirty_regions().is_empty());
        assert!(prot.audit_regions(&image, &[0, 1]).unwrap().clean());
    }

    #[test]
    fn residue_protection_maintains_and_audits() {
        for scheme in [
            ProtectionScheme::DataCodeword,
            ProtectionScheme::DeferredMaintenance,
            ProtectionScheme::ReadPrecheck,
        ] {
            let (image, prot) = setup_algebra(scheme, CodewordAlgebraKind::Residue);
            assert_eq!(prot.kind(), CodewordAlgebraKind::Residue);
            assert_eq!(prot.table().kind(), CodewordAlgebraKind::Residue);
            prescribed_update(&image, &prot, DbAddr(101), &[1, 2, 3, 4, 5]);
            prescribed_update(&image, &prot, DbAddr(60), &[9; 10]); // crosses regions
            assert!(prot.audit(&image).unwrap().clean(), "{scheme:?}");
            // A stray write is caught.
            image.write(DbAddr(130), &[0xfe]).unwrap();
            assert!(!prot.audit(&image).unwrap().clean(), "{scheme:?}");
            prot.resync(&image).unwrap();
            assert!(prot.audit(&image).unwrap().clean(), "{scheme:?}");
        }
    }

    #[test]
    fn rollback_restores_codeword_both_algebras() {
        // Rolling back is itself a directed transition (current bytes →
        // restored bytes), so apply_update with the *current* bytes as
        // the before-image inverts the residue delta rather than
        // re-applying it (XOR's self-inverse shortcut does not hold
        // there).
        for kind in CodewordAlgebraKind::ALL {
            let (image, prot) = setup_algebra(ProtectionScheme::DataCodeword, kind);
            let addr = DbAddr(256);
            let (ws, wl) = dali_common::align::widen_to_words(addr.0, 6);
            let mut old = vec![0u8; wl];
            image.read(DbAddr(ws), &mut old).unwrap();
            image.write(addr, &[1, 2, 3, 4, 5, 6]).unwrap();
            prot.apply_update(&image, DbAddr(ws), &old).unwrap();
            assert!(prot.audit(&image).unwrap().clean(), "{kind:?}");
            let mut cur = vec![0u8; wl];
            image.read(DbAddr(ws), &mut cur).unwrap();
            image.write(DbAddr(ws), &old).unwrap();
            prot.apply_update(&image, DbAddr(ws), &cur).unwrap();
            assert!(prot.audit(&image).unwrap().clean(), "{kind:?}");
        }
    }

    #[test]
    fn paired_same_column_flip_splits_the_algebras() {
        // The acceptance-criterion kernel fact at the protection layer:
        // the same wild write passes the XOR audit and fails the residue
        // audit.
        let (image_x, prot_x) =
            setup_algebra(ProtectionScheme::DataCodeword, CodewordAlgebraKind::XorFold);
        let (image_r, prot_r) =
            setup_algebra(ProtectionScheme::DataCodeword, CodewordAlgebraKind::Residue);
        for (image, prot) in [(&image_x, &prot_x), (&image_r, &prot_r)] {
            prescribed_update(image, prot, DbAddr(128), &[0u8; 8]);
            // Same-direction pair: set bit 3 of two words in one region.
            for addr in [128usize, 136] {
                let mut w = [0u8; 4];
                image.read(DbAddr(addr), &mut w).unwrap();
                w[0] |= 1 << 3;
                image.write(DbAddr(addr), &w).unwrap();
            }
        }
        assert!(
            prot_x.audit(&image_x).unwrap().clean(),
            "XOR parity cancels the pair"
        );
        assert!(
            !prot_r.audit(&image_r).unwrap().clean(),
            "residue detects the pair"
        );
    }

    #[test]
    fn resync_fixes_table_after_external_repair() {
        let (image, prot) = setup(ProtectionScheme::DataCodeword);
        image.write(DbAddr(0), &[1]).unwrap(); // corruption
        assert!(!prot.audit(&image).unwrap().clean());
        prot.resync(&image).unwrap();
        assert!(prot.audit(&image).unwrap().clean());
    }
}
