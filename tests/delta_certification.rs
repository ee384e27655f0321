//! Delta certification equivalence and cadence.
//!
//! Property: a delta certification — auditing only the protection
//! regions covered by the dirty footprint (dirty pages' regions plus
//! queued deferred-delta regions) — returns *exactly* the full sweep's
//! verdict restricted to that footprint, for every latch-run bound and
//! worker count, on eager and deferred maintenance alike.
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

fn sorted_dedup(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v.dedup();
    v
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
        deferred in any::<bool>(),
        residue in any::<bool>(),
    ) {
        let scheme = if deferred {
            ProtectionScheme::DeferredMaintenance
        } else {
            ProtectionScheme::DataCodeword
        };
        let kind = if residue {
            dali_common::CodewordAlgebraKind::Residue
        } else {
            dali_common::CodewordAlgebraKind::XorFold
        };
        let image = DbImage::new(PAGES, PAGE).unwrap();
        let mut prot = CodewordProtection::with_config(
            &image, scheme, REGION, 1,
            DeferredConfig { shards: 4, watermark: 0 },
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
        let mut footprint =
            dali_wal::pages_to_regions(&dirty_pages, PAGE, REGION);
        footprint.extend(prot.deferred_dirty_regions());
        let footprint = sorted_dedup(footprint);

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
        // batched path, on both sweep shapes. (Everything queued is
        // drained by now, so repeat audits are stable.)
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
    // Parity repair pinned off: this test pins down the *detection*
    // cadence one rung below the self-healing layer (with the stripe on,
    // the same wild write would be repaired in place and the checkpoint
    // would certify — see `tests/repair_model.rs` for that path).
    let config = DaliConfig::small(dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_full_certify_every(8)
        .with_parity_group_size(0);
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
        CheckpointOutcome::CorruptionDetected(report) => {
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
    // Parity pinned off, as above: the subject is the cadence bound and
    // the keep-prior-checkpoint / recover path, not the repair layer.
    let config = DaliConfig::small(dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_full_certify_every(3)
        .with_parity_group_size(0);
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
        CheckpointOutcome::CorruptionDetected(report) => {
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
    // reopening runs corruption recovery and comes back audit-clean.
    db.crash();
    let (db, _) = DaliEngine::open(config).unwrap();
    assert!(db.audit().unwrap().clean());
}

/// The certification footprint must include the parity stripe: parity
/// buffers live outside the image, so the dirty-page → region mapping
/// can never cover them — the groups dirtied by updates (eager parity
/// maintenance; the test name predates it, when a drain dirtied them)
/// are certified through the stripe's own dirty-group channel, and a
/// delta checkpoint consumes that channel completely.
#[test]
fn delta_certification_covers_parity_groups_dirtied_by_drains() {
    let scratch = TempDir::new("delta-parity-footprint");
    let dir = scratch.path();
    let config = DaliConfig::small(dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_full_certify_every(8);
    assert!(
        config.resolved_parity_group_size() > 0,
        "stripe on by default"
    );
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 32, 64).unwrap();
    db.checkpoint().unwrap(); // flush the initial all-pages footprints

    // One committed insert dirties at least the record's parity group
    // (plus allocator metadata) as its update lands in the stripe.
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &[0x77; 32]).unwrap();
    txn.commit().unwrap();
    let addr = db.record_addr(rec).unwrap();
    let stripe = db.db().prot.parity().expect("stripe enabled");
    let geom = db.db().prot.geometry();
    let rec_group = stripe.group_of(geom.region_of(addr));

    let before = db.stats().certify_parity_groups.load(Ordering::Relaxed);
    match db.checkpoint().unwrap() {
        CheckpointOutcome::Certified { .. } => {}
        other => panic!("clean workload must certify: {other:?}"),
    }
    // This was a delta sweep, and it still certified the dirtied groups.
    assert!(db.stats().certify_delta.load(Ordering::Relaxed) >= 1);
    let certified = db.stats().certify_parity_groups.load(Ordering::Relaxed) - before;
    assert!(certified >= 1, "update-dirtied groups are in the footprint");
    // The channel is fully consumed: nothing still dirty, and the
    // record's group verifies against its own codeword.
    let snap = db.parity_stats();
    assert_eq!(snap.dirty_groups, 0);
    assert!(stripe.verify_group(rec_group));

    // A wild write to an *update-dirtied* parity buffer (not the image)
    // is healed by the next certification: the members just audited
    // clean, so the checkpoint rebuilds the group instead of distrusting
    // data.
    let txn = db.begin().unwrap();
    txn.update(rec, &[0x78; 32]).unwrap();
    txn.commit().unwrap();
    assert!(
        db.parity_stats().dirty_groups >= 1,
        "the update dirtied its group"
    );
    stripe.wild_xor_group(rec_group, 0, &[0xA5, 0x5A]);
    match db.checkpoint().unwrap() {
        CheckpointOutcome::Certified { .. } => {}
        other => panic!("stripe damage must not fail data certification: {other:?}"),
    }
    assert!(
        stripe.verify_group(rec_group),
        "checkpoint healed the group"
    );
    assert!(db.audit().unwrap().clean());
}
