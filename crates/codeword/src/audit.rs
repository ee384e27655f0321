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
//! Deferred maintenance: the caller passes the scheme's
//! [`DeferredSet`]; each region's dirty-set shard is drained *after* the
//! exclusive latch is taken and *before* the fold, so queued-but-
//! unapplied deltas never read as spurious mismatches — and the audit
//! never quiesces writers outside the one stripe it is checking.
//!
//! Latch batching: sweeps take one [`LatchTable::with_span`] bracket per
//! *contiguous run* of regions (bounded by the caller's `max_run`,
//! [`DEFAULT_LATCH_RUN`](crate::protection::DEFAULT_LATCH_RUN) from the
//! façade) instead of one per region. The PR 4 ordering argument is unchanged — every deferred
//! shard covering the run is drained inside the exclusive bracket, after
//! which no delta for any run region can be missing (updaters hold the
//! latch shared across write+enqueue) — while the latch traffic of a
//! sweep drops by a factor of the run length. The bound keeps the
//! longest writer stall proportional to `max_run` region folds.
//! `max_run = 1` is exactly the paper's latch-per-region cadence.

use crate::deferred::DeferredSet;
use crate::latch::{LatchMode, LatchTable};
use crate::region::{RegionGeometry, RegionId};
use crate::table::CodewordTable;
use dali_common::{DbAddr, PageId, Result};
use dali_mem::DbImage;

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

/// Audit a single region under its protection latch. For deferred
/// maintenance, pass the dirty set: the region's shard is drained under
/// the latch, after which the ordering argument is exactly the eager
/// scheme's (updaters hold the latch shared across write+enqueue, so no
/// delta for this region can be missing once the exclusive latch is
/// held).
pub fn audit_region(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    latches: &LatchTable,
    deferred: Option<&DeferredSet>,
    region: RegionId,
) -> Result<Option<CorruptRegion>> {
    latches.with_span(region, region, LatchMode::Exclusive, || {
        if let Some(set) = deferred {
            set.drain_region(region, table);
        }
        check_region(image, geom, table, region)
    })
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

/// Audit the contiguous run `first..=last` under **one** exclusive latch
/// bracket, appending results to `report`.
///
/// Every deferred shard covering a run region is drained inside the
/// bracket (deduplicated — a 64-region run touches at most
/// `min(64, shards)` distinct shards), so the catch-up guarantee is the
/// per-region audit's, taken once per run instead of once per region.
#[allow(clippy::too_many_arguments)]
fn audit_run(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    latches: &LatchTable,
    deferred: Option<&DeferredSet>,
    first: RegionId,
    last: RegionId,
    report: &mut AuditReport,
) -> Result<()> {
    debug_assert!(first <= last);
    latches.with_span(first, last, LatchMode::Exclusive, || {
        if let Some(set) = deferred {
            let mut shards: Vec<usize> = (first..=last).map(|r| set.shard_of(r)).collect();
            shards.sort_unstable();
            shards.dedup();
            for s in shards {
                set.drain_shard(s, table);
            }
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

/// Audit every region of the database in ascending order, one exclusive
/// latch bracket per run of at most `max_run` consecutive regions
/// (`max_run <= 1` gives the paper's latch-per-region sweep). Normal
/// processing continues around the audit outside the bracket currently
/// held.
pub fn audit_all(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    latches: &LatchTable,
    deferred: Option<&DeferredSet>,
    max_run: usize,
) -> Result<AuditReport> {
    let mut report = AuditReport::default();
    audit_range(
        image,
        geom,
        table,
        latches,
        deferred,
        0,
        geom.num_regions(),
        max_run,
        &mut report,
    )?;
    Ok(report)
}

/// Audit regions `lo..hi` in runs of at most `max_run` (shared by the
/// serial sweep and each parallel stripe, so stripe reports concatenate
/// to exactly the serial report).
#[allow(clippy::too_many_arguments)]
fn audit_range(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    latches: &LatchTable,
    deferred: Option<&DeferredSet>,
    lo: RegionId,
    hi: RegionId,
    max_run: usize,
    report: &mut AuditReport,
) -> Result<()> {
    let max_run = max_run.max(1);
    let mut first = lo;
    while first < hi {
        let last = (first + max_run).min(hi) - 1;
        audit_run(image, geom, table, latches, deferred, first, last, report)?;
        first = last + 1;
    }
    Ok(())
}

/// Audit every region of the database with `threads` scoped workers, each
/// scanning one contiguous stripe of the region space in ascending order,
/// in latch brackets of at most `max_run` regions (runs never cross a
/// stripe boundary).
///
/// Every bracket still holds only its own regions' latches (with the
/// covered deferred shards drained inside the bracket), so normal
/// processing continues around a parallel audit exactly as it does around
/// a serial one; brackets within a stripe are taken in ascending order
/// and brackets of different stripes are disjoint, so latch acquisition
/// cannot deadlock. Stripe results are merged in stripe order, so the
/// report — corrupt regions in ascending region order — is byte-identical
/// to [`audit_all`]'s.
///
/// `threads <= 1` (or a single-region geometry) falls back to the serial
/// scan.
pub fn audit_all_parallel(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    latches: &LatchTable,
    deferred: Option<&DeferredSet>,
    threads: usize,
    max_run: usize,
) -> Result<AuditReport> {
    let n = geom.num_regions();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return audit_all(image, geom, table, latches, deferred, max_run);
    }
    let per = n.div_ceil(threads);
    let stripe_reports = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (lo, hi) = (t * per, ((t + 1) * per).min(n));
                s.spawn(move || -> Result<AuditReport> {
                    let mut report = AuditReport::default();
                    audit_range(
                        image,
                        geom,
                        table,
                        latches,
                        deferred,
                        lo,
                        hi,
                        max_run,
                        &mut report,
                    )?;
                    Ok(report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("audit stripe worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut report = AuditReport::default();
    for stripe in stripe_reports {
        let stripe = stripe?;
        report.corrupt.extend(stripe.corrupt);
        report.regions_checked += stripe.regions_checked;
        report.latch_brackets += stripe.latch_brackets;
    }
    Ok(report)
}

/// Audit exactly the given regions — the delta-certification sweep.
///
/// `regions` must be sorted ascending and deduplicated (the dirty-page →
/// region mapping and [`DeferredSet::dirty_region_ids`] both produce
/// this form). Consecutive region ids are grouped into contiguous runs of
/// at most `max_run`, one latch bracket each; with `threads > 1` the
/// region list is striped into contiguous chunks first. The report lists
/// corrupt regions in ascending order and is identical for every
/// `(threads, max_run)` combination.
#[allow(clippy::too_many_arguments)]
pub fn audit_regions(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    latches: &LatchTable,
    deferred: Option<&DeferredSet>,
    regions: &[RegionId],
    threads: usize,
    max_run: usize,
) -> Result<AuditReport> {
    debug_assert!(regions.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    let n = regions.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        let mut report = AuditReport::default();
        audit_region_list(
            image,
            geom,
            table,
            latches,
            deferred,
            regions,
            max_run,
            &mut report,
        )?;
        return Ok(report);
    }
    let per = n.div_ceil(threads);
    let stripe_reports = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                // Clamp both ends: with per = ceil(n/threads) the last
                // stripe's start can land past n (e.g. n=5, threads=4
                // gives per=2 and t*per=6), which would panic unclamped.
                let start = (t * per).min(n);
                let chunk = &regions[start..((t + 1) * per).min(n)];
                s.spawn(move || -> Result<AuditReport> {
                    let mut report = AuditReport::default();
                    audit_region_list(
                        image,
                        geom,
                        table,
                        latches,
                        deferred,
                        chunk,
                        max_run,
                        &mut report,
                    )?;
                    Ok(report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("audit stripe worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut report = AuditReport::default();
    for stripe in stripe_reports {
        let stripe = stripe?;
        report.corrupt.extend(stripe.corrupt);
        report.regions_checked += stripe.regions_checked;
        report.latch_brackets += stripe.latch_brackets;
    }
    Ok(report)
}

/// Audit a sorted region list, bracketing each maximal run of consecutive
/// ids (capped at `max_run`).
#[allow(clippy::too_many_arguments)]
fn audit_region_list(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    latches: &LatchTable,
    deferred: Option<&DeferredSet>,
    regions: &[RegionId],
    max_run: usize,
    report: &mut AuditReport,
) -> Result<()> {
    let max_run = max_run.max(1);
    let mut i = 0;
    while i < regions.len() {
        let first = regions[i];
        let mut j = i + 1;
        while j < regions.len() && j - i < max_run && regions[j] == first + (j - i) {
            j += 1;
        }
        audit_run(
            image,
            geom,
            table,
            latches,
            deferred,
            first,
            regions[j - 1],
            report,
        )?;
        i = j;
    }
    Ok(())
}

/// Audit only the regions overlapping the given pages (used when
/// propagating specific dirty pages, §4.2's page-steal discussion).
pub fn audit_pages(
    image: &DbImage,
    geom: &RegionGeometry,
    table: &CodewordTable,
    latches: &LatchTable,
    deferred: Option<&DeferredSet>,
    pages: &[PageId],
) -> Result<AuditReport> {
    let mut report = AuditReport::default();
    let page_size = image.page_size();
    for &page in pages {
        let base = page.base(page_size);
        let (first, last) = geom.region_span(base, page_size);
        for r in first..=last {
            if let Some(c) = audit_region(image, geom, table, latches, deferred, r)? {
                report.corrupt.push(c);
            }
            report.regions_checked += 1;
            report.latch_brackets += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::CodewordAlgebraKind;

    fn setup_kind(
        kind: CodewordAlgebraKind,
    ) -> (DbImage, RegionGeometry, CodewordTable, LatchTable) {
        let image = DbImage::new(4, 4096).unwrap();
        let geom = RegionGeometry::new(image.len(), 64).unwrap();
        let table = CodewordTable::from_image(&image, &geom, kind).unwrap();
        let latches = LatchTable::new(geom.num_regions(), 1);
        (image, geom, table, latches)
    }

    fn setup() -> (DbImage, RegionGeometry, CodewordTable, LatchTable) {
        setup_kind(CodewordAlgebraKind::XorFold)
    }

    #[test]
    fn clean_image_audits_clean() {
        let (image, geom, table, latches) = setup();
        let report = audit_all(&image, &geom, &table, &latches, None, 1).unwrap();
        assert!(report.clean());
        assert_eq!(report.regions_checked, geom.num_regions());
    }

    #[test]
    fn wild_write_detected_by_audit() {
        let (image, geom, table, latches) = setup();
        // Corrupt without maintaining the codeword.
        image.write(DbAddr(200), &[0xde, 0xad]).unwrap();
        let report = audit_all(&image, &geom, &table, &latches, None, 1).unwrap();
        assert_eq!(report.corrupt.len(), 1);
        let c = &report.corrupt[0];
        assert_eq!(c.region, geom.region_of(DbAddr(200)));
        assert_ne!(c.expected, c.actual);
    }

    #[test]
    fn maintained_update_audits_clean() {
        let (image, geom, table, latches) = setup();
        let addr = DbAddr(128);
        let old = [0u8; 4];
        let new = [9u8, 8, 7, 6];
        image.write(addr, &new).unwrap();
        table.apply_delta(geom.region_of(addr), crate::codeword::delta(&old, &new));
        assert!(audit_all(&image, &geom, &table, &latches, None, 1)
            .unwrap()
            .clean());
    }

    #[test]
    fn audit_pages_scopes_to_pages() {
        let (image, geom, table, latches) = setup();
        // Corrupt page 0 and page 2.
        image.write(DbAddr(10), &[1]).unwrap();
        image.write(DbAddr(2 * 4096 + 10), &[1]).unwrap();
        let report = audit_pages(&image, &geom, &table, &latches, None, &[PageId(0)]).unwrap();
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.regions_checked, 4096 / 64);
        let report = audit_pages(&image, &geom, &table, &latches, None, &[PageId(1)]).unwrap();
        assert!(report.clean());
        let report = audit_pages(
            &image,
            &geom,
            &table,
            &latches,
            None,
            &[PageId(0), PageId(2)],
        )
        .unwrap();
        assert_eq!(report.corrupt.len(), 2);
    }

    #[test]
    fn double_corruption_in_one_region_may_cancel() {
        // XOR codewords are a parity check: flipping the same bit twice in
        // the same word column is undetectable. This documents the known
        // limitation rather than asserting detection.
        let (image, geom, table, latches) = setup();
        image.write(DbAddr(0), &[0x01]).unwrap();
        image.write(DbAddr(4), &[0x01]).unwrap();
        let report = audit_all(&image, &geom, &table, &latches, None, 1).unwrap();
        assert!(report.clean(), "parity cancellation goes undetected");
        // But the corruption is caught if the flips land in different bit
        // positions.
        image.write(DbAddr(8), &[0x02]).unwrap();
        let report = audit_all(&image, &geom, &table, &latches, None, 1).unwrap();
        assert!(!report.clean());
    }

    #[test]
    fn parallel_audit_report_identical_to_serial() {
        let (image, geom, table, latches) = setup();
        // Corrupt several regions scattered across stripe boundaries.
        for addr in [3usize, 64, 4096 + 7, 2 * 4096 + 130, 4 * 4096 - 20] {
            image.write(DbAddr(addr), &[0x5a]).unwrap();
        }
        let serial = audit_all(&image, &geom, &table, &latches, None, 1).unwrap();
        assert!(!serial.clean());
        for threads in [1, 2, 3, 4, 7, 64, geom.num_regions() + 5] {
            let par =
                audit_all_parallel(&image, &geom, &table, &latches, None, threads, 1).unwrap();
            assert_eq!(
                par.regions_checked, serial.regions_checked,
                "{threads} threads"
            );
            assert_eq!(par.corrupt, serial.corrupt, "{threads} threads");
        }
    }

    #[test]
    fn parallel_audit_clean_image() {
        let (image, geom, table, latches) = setup();
        let report = audit_all_parallel(&image, &geom, &table, &latches, None, 4, 1).unwrap();
        assert!(report.clean());
        assert_eq!(report.regions_checked, geom.num_regions());
    }

    #[test]
    fn batched_runs_report_identical_to_per_region() {
        let (image, geom, table, latches) = setup();
        for addr in [3usize, 64, 4096 + 7, 2 * 4096 + 130, 4 * 4096 - 20] {
            image.write(DbAddr(addr), &[0x5a]).unwrap();
        }
        let baseline = audit_all(&image, &geom, &table, &latches, None, 1).unwrap();
        assert_eq!(baseline.latch_brackets, geom.num_regions());
        for max_run in [2, 3, 16, 64, geom.num_regions(), geom.num_regions() * 2] {
            for threads in [1, 4] {
                let batched =
                    audit_all_parallel(&image, &geom, &table, &latches, None, threads, max_run)
                        .unwrap();
                assert_eq!(batched.corrupt, baseline.corrupt, "run {max_run}");
                assert_eq!(batched.regions_checked, baseline.regions_checked);
                assert!(
                    batched.latch_brackets <= geom.num_regions().div_ceil(max_run) + threads,
                    "run {max_run} threads {threads}: {} brackets",
                    batched.latch_brackets
                );
            }
        }
    }

    #[test]
    fn batched_run_drains_deferred_shards() {
        let (image, geom, table, latches) = setup();
        let set = DeferredSet::new(
            crate::deferred::DeferredConfig {
                shards: 4,
                watermark: 0,
            },
            CodewordAlgebraKind::XorFold,
        );
        // Maintained updates whose deltas are queued, not yet applied.
        for region in [0, 1, 5, 9] {
            let addr = geom.region_base(region);
            let new = [region as u8 + 1; 4];
            image.write(addr, &new).unwrap();
            set.push(region, crate::codeword::delta(&[0u8; 4], &new));
        }
        let report = audit_all(&image, &geom, &table, &latches, Some(&set), 8).unwrap();
        assert!(report.clean(), "queued deltas drained inside brackets");
        assert_eq!(set.dirty_regions(), 0);
    }

    #[test]
    fn audit_regions_scopes_to_subset() {
        let (image, geom, table, latches) = setup();
        // Corrupt region 2 and region 40.
        image.write(geom.region_base(2), &[1]).unwrap();
        image.write(geom.region_base(40), &[1]).unwrap();
        // A subset covering only region 2 sees only that corruption.
        let subset = [0, 1, 2, 3, 10, 11];
        let report = audit_regions(&image, &geom, &table, &latches, None, &subset, 1, 16).unwrap();
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].region, 2);
        assert_eq!(report.regions_checked, subset.len());
        // Two consecutive runs (0..=3 and 10..=11) → two brackets.
        assert_eq!(report.latch_brackets, 2);
        // Including region 40 finds both, for every (threads, max_run).
        let all: Vec<RegionId> = (0..geom.num_regions()).collect();
        for threads in [1, 3, 8] {
            for max_run in [1, 7, 64] {
                let report = audit_regions(
                    &image, &geom, &table, &latches, None, &all, threads, max_run,
                )
                .unwrap();
                assert_eq!(report.corrupt.len(), 2, "t={threads} run={max_run}");
                assert_eq!(report.corrupt[0].region, 2);
                assert_eq!(report.corrupt[1].region, 40);
                assert_eq!(report.regions_checked, geom.num_regions());
            }
        }
        // Empty list is a clean no-op.
        let report = audit_regions(&image, &geom, &table, &latches, None, &[], 4, 8).unwrap();
        assert!(report.clean());
        assert_eq!(report.regions_checked, 0);
        assert_eq!(report.latch_brackets, 0);
    }

    #[test]
    fn audit_regions_stripes_with_ragged_region_count() {
        // n=5 regions across 4 threads gives per=ceil(5/4)=2, so the last
        // stripe's unclamped start (3*2=6) would overrun the list — this
        // used to panic the delta-certification checkpoint.
        let (image, geom, table, latches) = setup();
        image.write(geom.region_base(4), &[1]).unwrap();
        let subset = [0, 1, 2, 4, 7];
        for threads in [2, 3, 4, 5, 9] {
            let report =
                audit_regions(&image, &geom, &table, &latches, None, &subset, threads, 2).unwrap();
            assert_eq!(report.corrupt.len(), 1, "{threads} threads");
            assert_eq!(report.corrupt[0].region, 4);
            assert_eq!(report.regions_checked, subset.len());
        }
    }

    #[test]
    fn paired_same_column_flip_audits_split_by_algebra() {
        // The same wild write — bit 3 set in two words of one region,
        // same column, same direction — cancels under XOR parity but
        // shifts the residue sum by 2 * 2^3.
        for kind in CodewordAlgebraKind::ALL {
            let (image, geom, table, latches) = setup_kind(kind);
            image.write(DbAddr(128), &[0x08]).unwrap();
            image.write(DbAddr(136), &[0x08]).unwrap();
            let report = audit_all(&image, &geom, &table, &latches, None, 1).unwrap();
            match kind {
                CodewordAlgebraKind::XorFold => {
                    assert!(report.clean(), "XOR parity cancels the paired flip")
                }
                CodewordAlgebraKind::Residue => {
                    assert_eq!(report.corrupt.len(), 1, "residue sees the paired flip");
                    assert_eq!(report.corrupt[0].region, geom.region_of(DbAddr(128)));
                }
            }
        }
    }

    #[test]
    fn serial_and_striped_reports_identical_both_algebras() {
        for kind in CodewordAlgebraKind::ALL {
            let (image, geom, table, latches) = setup_kind(kind);
            for addr in [3usize, 64, 4096 + 7, 2 * 4096 + 130, 4 * 4096 - 20] {
                image.write(DbAddr(addr), &[0x5a]).unwrap();
            }
            let serial = audit_all(&image, &geom, &table, &latches, None, 1).unwrap();
            assert!(!serial.clean());
            for threads in [2, 3, 7, 64] {
                for max_run in [1, 4, 16] {
                    let par =
                        audit_all_parallel(&image, &geom, &table, &latches, None, threads, max_run)
                            .unwrap();
                    assert_eq!(par.corrupt, serial.corrupt, "{kind:?} t={threads}");
                    assert_eq!(par.regions_checked, serial.regions_checked);
                }
            }
        }
    }

    #[test]
    fn corrupt_ranges_reports_addresses() {
        let (image, geom, table, latches) = setup();
        image.write(DbAddr(65), &[7]).unwrap();
        let report = audit_all(&image, &geom, &table, &latches, None, 1).unwrap();
        let ranges = report.corrupt_ranges();
        assert_eq!(ranges, vec![(DbAddr(64), 64)]);
        let _ = geom;
    }
}
