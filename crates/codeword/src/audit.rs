//! Audits: asynchronous consistency checks between region contents and
//! maintained codewords (paper §3.2).
//!
//! An audit of a region takes its protection latch exclusively (quiescing
//! updaters, who hold it at least shared across their update window),
//! folds the region, and compares with the maintained codeword. The
//! checkpointer audits every region of the database after writing a
//! checkpoint image so that checkpoints can be *certified free of
//! corruption* (§4.2); the engine can also run audits on demand or from a
//! background thread.
//!
//! Every audit is one `sweep` over a list of region ranges: a full
//! audit is the single range `0..n`, a delta certification the runs of
//! its sorted footprint (`runs`). The sweep
//!
//! * stripes the ranges' regions into `threads` contiguous chunks of
//!   equal region count, one scoped worker each
//!   (`region::striped`), and concatenates the chunk reports in
//!   order — the report is identical for every thread count;
//! * takes one exclusive [`LatchTable::with_span`] bracket per run of at
//!   most `max_run` consecutive regions (`max_run = 1` is exactly the
//!   paper's latch-per-region cadence), holding writers off for at most
//!   `max_run` region folds;
//! * for deferred maintenance, drains every dirty-set shard covering the
//!   run *inside* the bracket and before the fold, so queued-but-
//!   unapplied deltas never read as spurious mismatches — updaters hold
//!   the latch shared across write+enqueue, so once the exclusive bracket
//!   is held no delta for a run region can be missing.
//!
//! Brackets within a chunk are taken in ascending order and brackets of
//! different chunks are disjoint, so latch acquisition cannot deadlock.

use crate::deferred::DeferredSet;
use crate::latch::{LatchMode, LatchTable};
use crate::region::{striped, RegionGeometry, RegionId};
use crate::table::CodewordTable;
use dali_common::{DbAddr, Result};
use dali_mem::DbImage;
use std::ops::Range;

/// A region whose computed codeword did not match the maintained codeword.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorruptRegion {
    /// Region index.
    pub region: RegionId,
    /// Base address of the region.
    pub addr: DbAddr,
    /// Region length in bytes.
    pub len: usize,
    /// Maintained codeword.
    pub expected: u32,
    /// Codeword computed from the image.
    pub actual: u32,
}

/// Result of an audit pass.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Regions that failed the check.
    pub corrupt: Vec<CorruptRegion>,
    /// Number of regions checked.
    pub regions_checked: usize,
    /// Number of exclusive latch brackets (`with_span` acquisitions) the
    /// pass took. Equal to `regions_checked` at `max_run = 1`; smaller by
    /// up to the run bound when runs are batched.
    pub latch_brackets: usize,
}

impl AuditReport {
    /// True if every checked region was consistent.
    pub fn clean(&self) -> bool {
        self.corrupt.is_empty()
    }

    /// The corrupted byte ranges, for insertion into a CorruptDataTable.
    pub fn corrupt_ranges(&self) -> Vec<(DbAddr, usize)> {
        self.corrupt.iter().map(|c| (c.addr, c.len)).collect()
    }
}

/// Check a region with no latching (caller already holds the latch or the
/// database is quiesced, e.g. during recovery).
pub fn check_region(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    region: RegionId,
) -> Result<Option<CorruptRegion>> {
    let addr = geom.region_base(region);
    let len = geom.region_size();
    let actual = image.fold(table.kind(), addr, len)?;
    let expected = table.get(region);
    Ok(if actual != expected {
        Some(CorruptRegion {
            region,
            addr,
            len,
            expected,
            actual,
        })
    } else {
        None
    })
}

/// The maximal runs of consecutive ids in `regions`, which must be sorted
/// ascending and deduplicated (the dirty-page → region mapping and the
/// deferred set's dirty ids both produce this form).
pub(crate) fn runs(regions: &[RegionId]) -> Vec<Range<RegionId>> {
    debug_assert!(regions.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    let mut runs: Vec<Range<RegionId>> = Vec::new();
    for &r in regions {
        match runs.last_mut() {
            Some(run) if run.end == r => run.end += 1,
            _ => runs.push(r..r + 1),
        }
    }
    runs
}

/// Audit every region of `ranges` (ascending, disjoint) with `threads`
/// workers in latch brackets of at most `max_run` regions; see the module
/// docs. Corrupt regions are reported in ascending order, and the report
/// is identical for every `threads`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    latches: &LatchTable,
    deferred: Option<&DeferredSet<u32>>,
    ranges: &[Range<RegionId>],
    threads: usize,
    max_run: usize,
) -> Result<AuditReport> {
    let max_run = max_run.max(1);
    let total = ranges.iter().map(|r| r.len()).sum();
    let chunks = striped(total, threads, |chunk| {
        let mut report = AuditReport::default();
        // `offset` is the position of `range.start` among all swept ids;
        // `lo..hi` is the part of `range` inside this chunk.
        let mut offset = 0;
        for range in ranges {
            let lo = range.start + chunk.start.saturating_sub(offset).min(range.len());
            let hi = range.start + chunk.end.saturating_sub(offset).min(range.len());
            for first in (lo..hi).step_by(max_run) {
                let last = (first + max_run).min(hi) - 1;
                audit_run(
                    image,
                    geom,
                    table,
                    latches,
                    deferred,
                    first,
                    last,
                    &mut report,
                )?;
            }
            offset += range.len();
        }
        Ok(report)
    })?;
    let mut report = AuditReport::default();
    for chunk in chunks {
        report.corrupt.extend(chunk.corrupt);
        report.regions_checked += chunk.regions_checked;
        report.latch_brackets += chunk.latch_brackets;
    }
    Ok(report)
}

/// Audit the contiguous run `first..=last` under **one** exclusive latch
/// bracket, appending results to `report`.
#[allow(clippy::too_many_arguments)]
fn audit_run(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    latches: &LatchTable,
    deferred: Option<&DeferredSet<u32>>,
    first: RegionId,
    last: RegionId,
    report: &mut AuditReport,
) -> Result<()> {
    latches.with_span(first, last, LatchMode::Exclusive, || {
        if let Some(set) = deferred {
            set.drain_span(first, last, |r, d| table.apply_delta(r, d));
        }
        for r in first..=last {
            if let Some(c) = check_region(image, geom, table, r)? {
                report.corrupt.push(c);
            }
            report.regions_checked += 1;
        }
        Ok::<(), dali_common::DaliError>(())
    })?;
    report.latch_brackets += 1;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // `&[0..n]` is the full sweep
mod tests {
    use super::*;
    use crate::deferred::DeferredConfig;
    use dali_common::CodewordAlgebraKind;

    struct Fixture {
        image: DbImage,
        geom: RegionGeometry,
        table: CodewordTable,
        latches: LatchTable,
    }

    impl Fixture {
        /// 4 pages of 4096 bytes in 64-byte regions: 256 regions.
        fn new(kind: CodewordAlgebraKind) -> Fixture {
            let image = DbImage::new(4, 4096).unwrap();
            let geom = RegionGeometry::new(image.len(), 64).unwrap();
            let table = CodewordTable::from_image_parallel(&image, &geom, 1, kind).unwrap();
            let latches = LatchTable::new(geom.num_regions(), 1);
            Fixture {
                image,
                geom,
                table,
                latches,
            }
        }

        fn xor() -> Fixture {
            Fixture::new(CodewordAlgebraKind::XorFold)
        }

        fn n(&self) -> usize {
            self.geom.num_regions()
        }

        fn sweep(
            &self,
            ranges: &[Range<RegionId>],
            deferred: Option<&DeferredSet<u32>>,
            threads: usize,
            max_run: usize,
        ) -> AuditReport {
            let f = self;
            sweep(
                &f.image, &f.geom, &f.table, &f.latches, deferred, ranges, threads, max_run,
            )
            .unwrap()
        }

        /// The serial latch-per-region sweep of the whole database.
        fn full(&self) -> AuditReport {
            self.sweep(&[0..self.n()], None, 1, 1)
        }

        /// Corrupt one byte of each region in `regions` (bypassing
        /// maintenance).
        fn corrupt(&self, regions: &[RegionId]) {
            for &r in regions {
                self.image
                    .write(self.geom.region_base(r).add(7), &[0x5a])
                    .unwrap();
            }
        }
    }

    /// The per-region reference for a sweep of `ids`: `check_region` on
    /// each id, plus the bracket count of striping `ids` into `threads`
    /// chunks of `ceil(n / threads)` ids and cutting each chunk into
    /// maximal consecutive runs of at most `max_run`.
    fn reference(f: &Fixture, ids: &[RegionId], threads: usize, max_run: usize) -> AuditReport {
        let mut report = AuditReport::default();
        for &r in ids {
            report
                .corrupt
                .extend(check_region(&f.image, &f.geom, &f.table, r).unwrap());
        }
        report.regions_checked = ids.len();
        let per = ids
            .len()
            .div_ceil(threads.clamp(1, ids.len().max(1)))
            .max(1);
        for chunk in ids.chunks(per) {
            let mut i = 0;
            while i < chunk.len() {
                let mut j = i + 1;
                while j < chunk.len() && j - i < max_run && chunk[j] == chunk[i] + (j - i) {
                    j += 1;
                }
                report.latch_brackets += 1;
                i = j;
            }
        }
        report
    }

    #[test]
    fn sweep_matches_per_region_reference() {
        let f = Fixture::xor();
        let n = f.n();
        f.corrupt(&[0, 1, 9, 63, 64, 65, 100, 128, 200, n - 1]);
        let gappy: Vec<RegionId> = [0, 1, 2, 3, 9, 10, 11, 63, 64, 65, 66, 100, 128, 129]
            .into_iter()
            .chain(140..230)
            .chain([n - 2, n - 1])
            .collect();
        let full: Vec<RegionId> = (0..n).collect();
        let lists: [(&str, &[RegionId]); 4] = [
            ("empty", &[]),
            ("one id", &[9]),
            ("gappy", &gappy),
            ("full", &full),
        ];
        for threads in [1, 2, 3, 8] {
            for max_run in [1, 7, 64] {
                for (name, ids) in lists {
                    let want = reference(&f, ids, threads, max_run);
                    let got = f.sweep(&runs(ids), None, threads, max_run);
                    let ctx = format!("{name}, {threads} threads, run {max_run}");
                    assert_eq!(got.corrupt, want.corrupt, "{ctx}");
                    assert_eq!(got.regions_checked, want.regions_checked, "{ctx}");
                    assert_eq!(got.latch_brackets, want.latch_brackets, "{ctx}");
                }
                // The full sweep is the single range 0..n, no id list.
                let got = f.sweep(&[0..n], None, threads, max_run);
                let want = reference(&f, &full, threads, max_run);
                assert_eq!(got.corrupt, want.corrupt);
                assert_eq!(
                    (got.regions_checked, got.latch_brackets),
                    (want.regions_checked, want.latch_brackets),
                    "0..n, {threads} threads, run {max_run}"
                );
            }
        }
    }

    #[test]
    fn runs_group_consecutive_ids() {
        assert_eq!(runs(&[]), Vec::<Range<RegionId>>::new());
        assert_eq!(runs(&[4]), vec![4..5]);
        assert_eq!(runs(&[0, 1, 2, 3, 10, 11, 40]), vec![0..4, 10..12, 40..41]);
    }

    #[test]
    fn clean_image_audits_clean() {
        let f = Fixture::xor();
        let report = f.full();
        assert!(report.clean());
        assert_eq!(report.regions_checked, f.n());
        assert_eq!(report.latch_brackets, f.n());
    }

    #[test]
    fn wild_write_detected_and_maintained_update_audits_clean() {
        let f = Fixture::xor();
        let addr = DbAddr(128);
        let new = [9u8, 8, 7, 6];
        f.image.write(addr, &new).unwrap();
        f.table.apply_delta(
            f.geom.region_of(addr),
            crate::codeword::delta(&[0; 4], &new),
        );
        assert!(f.full().clean());
        // Corrupt without maintaining the codeword.
        f.image.write(DbAddr(200), &[0xde, 0xad]).unwrap();
        let report = f.full();
        assert_eq!(report.corrupt.len(), 1);
        let c = &report.corrupt[0];
        assert_eq!(c.region, f.geom.region_of(DbAddr(200)));
        assert_ne!(c.expected, c.actual);
        assert_eq!(report.corrupt_ranges(), vec![(DbAddr(192), 64)]);
    }

    #[test]
    fn page_range_sweep_scopes_to_the_page() {
        let f = Fixture::xor();
        // Corrupt page 0 and page 2; a page is the region range
        // 64p..64(p+1).
        f.image.write(DbAddr(10), &[1]).unwrap();
        f.image.write(DbAddr(2 * 4096 + 10), &[1]).unwrap();
        let page = |p: usize| p * 64..(p + 1) * 64;
        let report = f.sweep(&[page(0)], None, 1, 1);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.regions_checked, 4096 / 64);
        assert!(f.sweep(&[page(1)], None, 2, 7).clean());
        assert_eq!(f.sweep(&[page(0), page(2)], None, 3, 64).corrupt.len(), 2);
    }

    #[test]
    fn double_corruption_in_one_region_may_cancel() {
        // XOR codewords are a parity check: flipping the same bit twice in
        // the same word column is undetectable. This documents the known
        // limitation rather than asserting detection.
        let f = Fixture::xor();
        f.image.write(DbAddr(0), &[0x01]).unwrap();
        f.image.write(DbAddr(4), &[0x01]).unwrap();
        assert!(f.full().clean(), "parity cancellation goes undetected");
        // But the corruption is caught if the flips land in different bit
        // positions.
        f.image.write(DbAddr(8), &[0x02]).unwrap();
        assert!(!f.full().clean());
    }

    #[test]
    fn striped_and_batched_reports_identical_both_algebras() {
        for kind in CodewordAlgebraKind::ALL {
            let f = Fixture::new(kind);
            for addr in [3usize, 64, 4096 + 7, 2 * 4096 + 130, 4 * 4096 - 20] {
                f.image.write(DbAddr(addr), &[0x5a]).unwrap();
            }
            let serial = f.full();
            assert_eq!(serial.corrupt.len(), 5, "{kind:?}");
            for threads in [1, 2, 3, 4, 7, 64, f.n() + 5] {
                for max_run in [1, 2, 4, 16, 64, f.n() * 2] {
                    let par = f.sweep(&[0..f.n()], None, threads, max_run);
                    let ctx = format!("{kind:?} t={threads} run={max_run}");
                    assert_eq!(par.corrupt, serial.corrupt, "{ctx}");
                    assert_eq!(par.regions_checked, serial.regions_checked, "{ctx}");
                    assert!(
                        par.latch_brackets <= f.n().div_ceil(max_run) + threads,
                        "{ctx}: {} brackets",
                        par.latch_brackets
                    );
                }
            }
        }
    }

    #[test]
    fn ragged_id_list_stripes_without_overrun() {
        // 5 ids across 4 threads gives ceil(5/4) = 2 ids per chunk, so the
        // last chunk's unclamped start (3 * 2 = 6) lies past the list —
        // this used to panic the delta-certification checkpoint.
        let f = Fixture::xor();
        f.corrupt(&[4]);
        let subset = [0, 1, 2, 4, 7];
        for threads in [2, 3, 4, 5, 9] {
            let report = f.sweep(&runs(&subset), None, threads, 2);
            assert_eq!(report.corrupt.len(), 1, "{threads} threads");
            assert_eq!(report.corrupt[0].region, 4);
            assert_eq!(report.regions_checked, subset.len());
        }
    }

    #[test]
    fn batched_run_drains_deferred_shards() {
        let f = Fixture::xor();
        let set = DeferredSet::<u32>::new(DeferredConfig {
            shards: 4,
            watermark: 0,
        });
        // Maintained updates whose deltas are queued, not yet applied.
        for region in [0, 1, 5, 9] {
            let new = [region as u8 + 1; 4];
            f.image.write(f.geom.region_base(region), &new).unwrap();
            let delta = crate::codeword::delta(&[0u8; 4], &new);
            set.push(region, || delta, |d| *d ^= delta);
        }
        assert!(!f.full().clean(), "a sweep without the set sees the lag");
        let report = f.sweep(&[0..f.n()], Some(&set), 2, 8);
        assert!(report.clean(), "queued deltas drained inside brackets");
        assert_eq!(set.snapshot().dirty_regions, 0);
    }

    #[test]
    fn paired_same_column_flip_audits_split_by_algebra() {
        // The same wild write — bit 3 set in two words of one region,
        // same column, same direction — cancels under XOR parity but
        // shifts the residue sum by 2 * 2^3.
        for kind in CodewordAlgebraKind::ALL {
            let f = Fixture::new(kind);
            f.image.write(DbAddr(128), &[0x08]).unwrap();
            f.image.write(DbAddr(136), &[0x08]).unwrap();
            let report = f.full();
            match kind {
                CodewordAlgebraKind::XorFold => {
                    assert!(report.clean(), "XOR parity cancels the paired flip")
                }
                CodewordAlgebraKind::Residue => {
                    assert_eq!(report.corrupt.len(), 1, "residue sees the paired flip");
                    assert_eq!(report.corrupt[0].region, f.geom.region_of(DbAddr(128)));
                }
            }
        }
    }
}
