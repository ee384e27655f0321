//! Delta certification equivalence and cadence.
//!
//! Property: a delta certification — auditing only the protection
//! regions covered by the dirty footprint (the dirty pages' regions) —
//! returns *exactly* the full sweep's verdict restricted to that
//! footprint, for every latch-run bound, worker count and algebra.
//!
//! The deterministic engine tests pin down the cadence semantics: a
//! wild write *inside* the footprint is caught by the very next delta
//! certification; one *outside* the footprint is invisible to delta
//! sweeps (maintained codewords only drift where legitimate writes
//! went) and is caught by the scheduled full sweep — the bounded
//! staleness the `full_certify_every` knob trades for O(write rate)
//! certification.

use dali_codeword::{CodewordProtection, DeferredConfig, ProtectionScheme};
use dali_common::{DaliConfig, DbAddr, PageId};
use dali_engine::{CheckpointOutcome, DaliEngine};
use dali_faultinject::FaultInjector;
use dali_mem::DbImage;
use dali_testutil::TempDir;
use proptest::prelude::*;
use std::sync::atomic::Ordering;

const PAGE: usize = 4096;
const PAGES: usize = 4;
const REGION: usize = 64;

/// One prescribed (codeword-maintained) update.
fn prescribed_update(image: &DbImage, prot: &CodewordProtection, addr: usize, data: &[u8]) {
    let (ws, wl) = dali_common::align::widen_to_words(addr, data.len());
    let mut old = vec![0u8; wl];
    image.read(DbAddr(ws), &mut old).unwrap();
    image.write(DbAddr(addr), data).unwrap();
    prot.apply_update(image, DbAddr(ws), &old).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok().and_then(|v| v.parse().ok()).unwrap_or(64),
        ..ProptestConfig::default()
    })]

    /// Delta verdict == full verdict restricted to the dirty footprint,
    /// identically across the latch-batched and per-region paths.
    #[test]
    fn delta_matches_full_restricted_to_footprint(
        updates in proptest::collection::vec(
            (0..PAGES * PAGE - 32, 1..24usize, any::<u8>()), 0..12),
        wilds in proptest::collection::vec(
            (0..PAGES * PAGE, any::<u8>()), 0..6),
        latch_run in 1..96usize,
        threads in 1..4usize,
        residue in any::<bool>(),
    ) {
        let kind = if residue {
            dali_common::CodewordAlgebraKind::Residue
        } else {
            dali_common::CodewordAlgebraKind::XorFold
        };
        let image = DbImage::new(PAGES, PAGE).unwrap();
        let mut prot = CodewordProtection::with_config(
            &image, ProtectionScheme::DataCodeword, REGION, 1,
            DeferredConfig::default(),
            threads,
            kind,
        ).unwrap();
        prot.set_latch_run(latch_run);

        // Maintained updates: the engine would note their pages dirty.
        let mut dirty_pages = Vec::new();
        for (addr, len, val) in &updates {
            let data = vec![*val; *len];
            prescribed_update(&image, &prot, *addr, &data);
            let first = addr / PAGE;
            let last = (addr + len - 1) / PAGE;
            dirty_pages.extend((first..=last).map(|p| PageId(p as u32)));
        }
        dirty_pages.sort_unstable();
        dirty_pages.dedup();

        // Wild writes: bypass the interface, guaranteed to flip bits.
        for (addr, val) in &wilds {
            let mut cur = [0u8];
            image.read(DbAddr(*addr), &mut cur).unwrap();
            image.write(DbAddr(*addr), &[cur[0] ^ (val | 1)]).unwrap();
        }

        // The footprint a delta certification derives.
        let footprint = dali_wal::pages_to_regions(&dirty_pages, PAGE, REGION);

        let delta = prot.audit_regions(&image, &footprint).unwrap();
        let full = prot.audit(&image).unwrap();

        // Delta verdict == full verdict ∩ footprint.
        let full_in_footprint: Vec<_> = full
            .corrupt
            .iter()
            .filter(|c| footprint.binary_search(&c.region).is_ok())
            .cloned()
            .collect();
        prop_assert_eq!(&delta.corrupt, &full_in_footprint);
        prop_assert_eq!(delta.regions_checked, footprint.len());

        // The per-region (latch_run = 1) path is byte-equivalent to the
        // batched path, on both sweep shapes.
        prot.set_latch_run(1);
        let delta_lr1 = prot.audit_regions(&image, &footprint).unwrap();
        let full_lr1 = prot.audit(&image).unwrap();
        prop_assert_eq!(&delta_lr1.corrupt, &delta.corrupt);
        prop_assert_eq!(&full_lr1.corrupt, &full.corrupt);
        prop_assert_eq!(delta_lr1.latch_brackets, footprint.len());
        prop_assert!(delta.latch_brackets <= delta_lr1.latch_brackets);
        prop_assert!(full.latch_brackets <= full_lr1.latch_brackets);
    }
}

/// A wild write inside a page dirtied this interval is caught by the
/// very next (delta) certification.
#[test]
fn delta_certification_catches_corruption_inside_footprint() {
    let scratch = TempDir::new("delta-inside");
    let dir = scratch.path();
    // The subject is the *detection* cadence: the certification that
    // flags the write also repairs it online (`tests/repair_model.rs`),
    // and keeps the previous certified checkpoint either way.
    let config = DaliConfig::small(dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_full_certify_every(8);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 32, 64).unwrap();
    // Flush the all-pages initial dirty sets out of both images so the
    // next footprint is genuinely small.
    db.checkpoint().unwrap();

    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &[0x33; 32]).unwrap();
    txn.commit().unwrap();
    let addr = db.record_addr(rec).unwrap();
    let inj = FaultInjector::new(&db);
    assert!(inj
        .wild_write(DbAddr(addr.0 + 8), 0x44, 4)
        .unwrap()
        .landed());

    let full_before = db.stats().certify_full.load(Ordering::Relaxed);
    match db.checkpoint().unwrap() {
        CheckpointOutcome::CorruptionRepaired { report, .. } => {
            assert!(!report.clean());
        }
        other => panic!("delta certification missed in-footprint corruption: {other:?}"),
    }
    // It was a *delta* sweep that caught it.
    assert_eq!(db.stats().certify_full.load(Ordering::Relaxed), full_before);
    assert!(db.stats().certify_delta.load(Ordering::Relaxed) >= 1);
    assert!(db.stats().certify_regions_skipped.load(Ordering::Relaxed) > 0);
}

/// A wild write outside every dirty page is invisible to delta
/// certifications but caught — within the cadence bound — by the next
/// full sweep, which the failure then re-forces.
#[test]
fn out_of_footprint_corruption_is_caught_by_the_scheduled_full_sweep() {
    let scratch = TempDir::new("delta-outside");
    let dir = scratch.path();
    // The subject is the cadence bound and the keep-prior-checkpoint
    // path; the full sweep that flags the write also repairs it.
    let config = DaliConfig::small(dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_full_certify_every(3);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 32, 64).unwrap();
    // create() ran the mandatory full checkpoint (image A). This one
    // drains image B's initial all-pages set — still a delta by cadence,
    // but its footprint covers everything.
    db.checkpoint().unwrap();

    // Corrupt the far end of the database, which no interface write will
    // touch, then dirty one unrelated page legitimately.
    let inj = FaultInjector::new(&db);
    let far = DbAddr(db.config().db_bytes() - REGION);
    // One word, not two: a repeated pattern across an even number of
    // words XOR-cancels in the fold (the parity blind spot).
    assert!(inj.wild_write(far, 0x5a, 4).unwrap().landed());
    let txn = db.begin().unwrap();
    txn.insert(t, &[0x11; 32]).unwrap();
    txn.commit().unwrap();

    // Checkpoint 3 of the cadence: a genuine small-footprint delta. The
    // corruption is outside the footprint — certified anyway (the
    // documented staleness window).
    match db.checkpoint().unwrap() {
        CheckpointOutcome::Certified { .. } => {}
        other => panic!("expected the delta sweep to miss it: {other:?}"),
    }
    assert!(db.stats().certify_regions_skipped.load(Ordering::Relaxed) > 0);

    // Next checkpoint hits the full-sweep cadence and finds it.
    let full_before = db.stats().certify_full.load(Ordering::Relaxed);
    match db.checkpoint().unwrap() {
        CheckpointOutcome::CorruptionRepaired { report, .. } => {
            assert_eq!(report.corrupt.len(), 1);
            assert_eq!(report.corrupt[0].addr, far);
        }
        other => panic!("full sweep must catch out-of-footprint corruption: {other:?}"),
    }
    assert_eq!(
        db.stats().certify_full.load(Ordering::Relaxed),
        full_before + 1
    );

    // The failed certification kept the prior certified checkpoint:
    // reopening comes back audit-clean.
    db.crash();
    let (db, _) = DaliEngine::open(config).unwrap();
    assert!(db.audit().unwrap().clean());
}
