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
//! | ReadPrecheck | exclusive | [`checked_read`](CodewordProtection::checked_read) |
//!
//! Codeword *maintenance* (the delta published at `endUpdate`) is one
//! path for every codeword scheme, generic over the configured
//! [`CodewordAlgebraKind`] — the XOR fold or the mod-(2^32−1) residue
//! code (see [`crate::algebra`]): each update's codeword delta lands in
//! the table inside the update's latch bracket. Nothing is queued, so
//! nothing drains.

use crate::algebra;
use crate::audit::{self, AuditReport};
use crate::latch::{LatchMode, LatchTable};
use crate::region::{RegionGeometry, RegionId};
use crate::table::CodewordTable;
use dali_common::{CodewordAlgebraKind, DaliError, DbAddr, ProtectionScheme, Result};
use dali_mem::DbImage;

/// How many consecutive regions an audit or certification sweep folds
/// under one exclusive latch bracket unless told otherwise: one
/// `with_span` per 64 regions instead of one per region, at the cost of
/// holding writers off for at most 64 region folds. The audit report is
/// identical for every bound (`1` is the paper's latch-per-region cadence,
/// which `tests/delta_certification.rs` sweeps against).
pub const DEFAULT_LATCH_RUN: usize = 64;

/// Unused; kept only because the frozen ledger (`benchmark/src/cells.rs`)
/// passes it to [`CodewordProtection::with_config`] (ROADMAP item 9).
#[derive(Clone, Copy, Debug, Default)]
pub struct DeferredConfig {
    /// Unused.
    pub shards: usize,
    /// Unused.
    pub watermark: usize,
}

/// Codeword state and latches for one database image.
pub struct CodewordProtection {
    scheme: ProtectionScheme,
    geom: RegionGeometry,
    table: CodewordTable,
    latches: LatchTable,
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
    /// its current contents: the worker count used for every full-image
    /// scan this protection runs — [`audit`](Self::audit),
    /// [`resync`](Self::resync), and the initial codeword-table fold
    /// (`audit_threads` is clamped to ≥ 1) — and the codeword algebra
    /// every fold, delta, and table slot lives in. `_deferred` is unused
    /// (see [`DeferredConfig`]).
    pub fn with_config(
        image: &DbImage,
        scheme: ProtectionScheme,
        region_size: usize,
        regions_per_latch: usize,
        _deferred: DeferredConfig,
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
        Ok(CodewordProtection {
            scheme,
            geom,
            table,
            latches,
            audit_threads,
            latch_run: DEFAULT_LATCH_RUN,
            kind,
        })
    }

    /// Does nothing. Kept only because the frozen ledger
    /// (`benchmark/src/cells.rs`) calls it; repair rebuilds from the
    /// anchored checkpoint plus the log, so no parity is kept.
    pub fn enable_parity(
        &mut self,
        _image: &DbImage,
        _group_size: usize,
        _shards: usize,
        _watermark: usize,
    ) -> Result<()> {
        Ok(())
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
            s if s.maintains_codewords() => LatchMode::Shared,
            _ => LatchMode::None,
        }
    }

    /// Publish the codeword delta for a completed physical update.
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
            self.table
                .apply_delta(region, self.kind.delta_of_folds(old_fold, new_fold));
        }
        Ok(())
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
    /// `0..n`, latched in runs of [`latch_run`](Self::latch_run) regions,
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
            ranges,
            threads,
            self.latch_run,
        )
    }

    /// Recompute every codeword from the image (after recovery rebuilds or
    /// repairs the image), striped across the configured
    /// [`audit_threads`](Self::audit_threads).
    pub fn resync(&self, image: &DbImage) -> Result<()> {
        if self.scheme.maintains_codewords() {
            self.table
                .recompute_all_parallel(image, &self.geom, self.audit_threads)?;
        }
        Ok(())
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

    /// A 4-page image under `scheme` with 64-byte regions and `threads`
    /// scan workers.
    fn setup_with(
        scheme: ProtectionScheme,
        kind: CodewordAlgebraKind,
        threads: usize,
    ) -> (DbImage, CodewordProtection) {
        let image = DbImage::new(4, 4096).unwrap();
        let prot = CodewordProtection::with_config(
            &image,
            scheme,
            64,
            1,
            DeferredConfig::default(),
            threads,
            kind,
        )
        .unwrap();
        (image, prot)
    }

    fn setup_algebra(
        scheme: ProtectionScheme,
        kind: CodewordAlgebraKind,
    ) -> (DbImage, CodewordProtection) {
        setup_with(scheme, kind, 1)
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
    fn parallel_audit_equals_serial_with_updates_and_corruption() {
        let (image, prot) = setup_with(
            ProtectionScheme::DataCodeword,
            CodewordAlgebraKind::XorFold,
            4,
        );
        assert_eq!(prot.audit_threads(), 4);
        // Maintained updates move codewords; stray writes corrupt.
        prescribed_update(&image, &prot, DbAddr(100), &[1, 2, 3, 4, 5]);
        prescribed_update(&image, &prot, DbAddr(5000), &[6, 7]);
        image.write(DbAddr(300), &[0xee]).unwrap();
        image.write(DbAddr(3 * 4096 + 9), &[0xdd]).unwrap();
        // The parallel audit (threads = 4) reports exactly what a serial
        // pass reports.
        let par = prot.audit(&image).unwrap();
        let serial = prot.audit_with_threads(&image, 1).unwrap();
        assert_eq!(par.corrupt, serial.corrupt);
        assert_eq!(par.regions_checked, serial.regions_checked);
        assert_eq!(par.corrupt.len(), 2);
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
        // Non-codeword schemes: clean no-op sweeps.
        let (image, prot) = setup(ProtectionScheme::Baseline);
        image.write(DbAddr(0), &[0xff]).unwrap();
        assert!(prot.audit_regions(&image, &[0, 1]).unwrap().clean());
    }

    #[test]
    fn residue_protection_maintains_and_audits() {
        for scheme in [
            ProtectionScheme::DataCodeword,
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
