//! Model-based test of online repair: a repaired database is
//! byte-identical to one that was never corrupted.
//!
//! The property runs every scenario under `DataCodeword` with both
//! algebras, `XorFold` and `Residue`: a random insert/update workload is applied to a
//! **primary** and an untouched **shadow** engine in lockstep, a single
//! protection region of the primary is corrupted behind the codeword's
//! back, and `repair` must bring the primary back so that
//!
//! * the outcome names the one region,
//! * the repaired region's raw bytes equal the shadow's same region,
//! * every record reads back identical to the shadow, and
//! * a full audit is clean.
//!
//! Deterministic scenarios pin what a repair from the anchored
//! checkpoint plus the log must get right: two damaged regions in one
//! page, damage the fold misses beside a flagged region, and a wild
//! write a committed update then overwrote.
//!
//! CI raises the case count via `PROPTEST_CASES`, as with the lock-model
//! suite.

use dali::{
    CheckpointOutcome, CodewordAlgebraKind, DaliConfig, DaliEngine, DbAddr, FaultInjector,
    ProtectionScheme, RecId,
};
use proptest::prelude::*;

const REC: usize = 64;

const CORNERS: [(ProtectionScheme, CodewordAlgebraKind); 2] = [
    (ProtectionScheme::DataCodeword, CodewordAlgebraKind::XorFold),
    (ProtectionScheme::DataCodeword, CodewordAlgebraKind::Residue),
];

fn payload(seed: u8) -> [u8; REC] {
    let mut p = [0u8; REC];
    for (i, b) in p.iter_mut().enumerate() {
        *b = seed ^ (i as u8).wrapping_mul(13).wrapping_add(seed >> 3);
    }
    p
}

fn make_engine(
    scheme: ProtectionScheme,
    kind: CodewordAlgebraKind,
    name: &str,
) -> (DaliEngine, dali_testutil::TempDir) {
    let dir = dali_testutil::TempDir::new(name);
    let config = DaliConfig::small(dir.path())
        .with_scheme(scheme)
        .with_codeword_algebra(kind);
    let (db, _) = DaliEngine::create(config).unwrap();
    (db, dir)
}

/// Apply `(slot_sel, seed)` ops: a multiple-of-4 selector (or an empty
/// table) inserts, anything else updates an existing record. Returns
/// the records inserted, in order — identical on primary and shadow.
fn run_workload(db: &DaliEngine, table: dali::TableId, ops: &[(u8, u8)]) -> Vec<RecId> {
    let mut recs = Vec::new();
    for &(sel, seed) in ops {
        let txn = db.begin().unwrap();
        if recs.is_empty() || sel % 4 == 0 {
            recs.push(txn.insert(table, &payload(seed)).unwrap());
        } else {
            let rec = recs[sel as usize % recs.len()];
            txn.update(rec, &payload(seed)).unwrap();
        }
        txn.commit().unwrap();
    }
    recs
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok().and_then(|v| v.parse().ok()).unwrap_or(24),
        ..ProptestConfig::default()
    })]

    /// Random workload, single-region corruption, repair ⇒ the primary
    /// is byte-identical to an uncorrupted shadow run — on all four
    /// scheme × algebra corners.
    #[test]
    fn repaired_image_matches_uncorrupted_shadow_run(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..20),
        pick in any::<usize>(),
        rel in 0..REC,
        mask in 1..=255u8,
    ) {
        for (scheme, kind) in CORNERS {
            let (primary, _d1) = make_engine(scheme, kind, "repair-model-primary");
            let (shadow, _d2) = make_engine(scheme, kind, "repair-model-shadow");
            let tp = primary.create_table("t", REC, 64).unwrap();
            let ts = shadow.create_table("t", REC, 64).unwrap();
            let recs_p = run_workload(&primary, tp, &ops);
            let recs_s = run_workload(&shadow, ts, &ops);
            prop_assert_eq!(recs_p.len(), recs_s.len());

            // A certified checkpoint anchors the repair.
            prop_assert!(matches!(
                primary.checkpoint().unwrap(),
                CheckpointOutcome::Certified { .. }
            ), "{scheme:?}/{kind:?}");

            // Corrupt one region of one record, behind the codeword.
            let victim = recs_p[pick % recs_p.len()];
            let addr = primary.record_addr(victim).unwrap();
            let geom = primary.db().prot.geometry();
            let region = geom.region_of(addr);
            let base = geom.region_base(region);
            let inj = FaultInjector::new(&primary);
            let mut window = vec![0u8; REC];
            primary.db().image.read(base, &mut window).unwrap();
            let mut corrupt = window.clone();
            corrupt[rel] ^= mask;
            prop_assert!(inj.wild_write_bytes(base, &corrupt).unwrap().landed());

            let outcome = primary.repair(region).unwrap();
            prop_assert_eq!(outcome.regions, 1, "{:?}/{:?}", scheme, kind);

            // Byte-identical to the shadow: the repaired region raw,
            // then every record through the read path.
            let mut healed = vec![0u8; REC];
            primary.db().image.read(base, &mut healed).unwrap();
            let mut shadow_bytes = vec![0u8; REC];
            shadow.db().image.read(base, &mut shadow_bytes).unwrap();
            prop_assert_eq!(&healed, &shadow_bytes, "{scheme:?}/{kind:?}: region bytes");
            for (rp, rs) in recs_p.iter().zip(&recs_s) {
                let txn = primary.begin().unwrap();
                let got = txn.read_vec(*rp).unwrap();
                txn.commit().unwrap();
                let txn = shadow.begin().unwrap();
                let want = txn.read_vec(*rs).unwrap();
                txn.commit().unwrap();
                prop_assert_eq!(got, want, "{scheme:?}/{kind:?}: record contents");
            }
            prop_assert!(primary.audit().unwrap().clean(), "{scheme:?}/{kind:?}");
        }
    }
}

/// Two corrupt regions in one page: the repair of the first rebuilds the
/// whole page from the certified checkpoint plus the log, the second
/// region included, and restores every byte.
#[test]
fn two_corrupt_regions_in_one_page_are_rebuilt_from_the_log() {
    for (scheme, kind) in CORNERS {
        let (db, _dir) = make_engine(scheme, kind, "repair-model-double");
        let table = db.create_table("t", REC, 64).unwrap();
        let recs = run_workload(&db, table, &[(0, 0x11), (4, 0x22), (8, 0x33)]);
        assert!(matches!(
            db.checkpoint().unwrap(),
            CheckpointOutcome::Certified { .. }
        ));
        let originals: Vec<Vec<u8>> = recs
            .iter()
            .map(|r| {
                let txn = db.begin().unwrap();
                let v = txn.read_vec(*r).unwrap();
                txn.commit().unwrap();
                v
            })
            .collect();

        let geom = db.db().prot.geometry();
        let first = geom.region_of(db.record_addr(recs[0]).unwrap());
        let inj = FaultInjector::new(&db);
        for region in [first, first + 1] {
            let base = geom.region_base(region);
            let mut b = [0u8; 1];
            db.db().image.read(base, &mut b).unwrap();
            b[0] ^= 0x08;
            assert!(inj.wild_write_bytes(base, &b).unwrap().landed());
        }

        let outcome = db.repair(first).unwrap();
        assert_eq!(outcome.regions, 1, "{scheme:?}/{kind:?}");
        assert!(db.audit().unwrap().clean(), "{scheme:?}/{kind:?}");
        for (r, want) in recs.iter().zip(&originals) {
            let txn = db.begin().unwrap();
            assert_eq!(&txn.read_vec(*r).unwrap(), want, "{scheme:?}/{kind:?}");
            txn.commit().unwrap();
        }
    }
}

/// Damage the XOR fold misses must not leak into the repair of a region
/// beside it. Region `a` takes a flip the audit flags; region `b`, in the
/// same 8-region block, takes a pair of flips in one bit column, which
/// cancels in its fold, starting at the same offset. A rebuild of `a`
/// from an XOR parity of the block (`parity ⊕ siblings`) would copy `b`'s
/// damage into `a` and still verify against `a`'s codeword. The repair
/// rebuilds the whole page from the certified checkpoint plus the log, so
/// the audit leaves the database byte-identical to a shadow that was
/// never damaged, `b` included.
#[test]
fn a_fold_blind_sibling_does_not_leak_into_the_repair() {
    let (scheme, kind) = (ProtectionScheme::DataCodeword, CodewordAlgebraKind::XorFold);
    let (db, _d1) = make_engine(scheme, kind, "repair-model-blind");
    let (shadow, _d2) = make_engine(scheme, kind, "repair-model-blind-shadow");
    let ops: Vec<(u8, u8)> = (0..16).map(|i| (0, 0x40 + i)).collect();
    let mut recs = Vec::new();
    for engine in [&db, &shadow] {
        let table = engine.create_table("t", REC, 64).unwrap();
        recs = run_workload(engine, table, &ops);
        assert!(matches!(
            engine.checkpoint().unwrap(),
            CheckpointOutcome::Certified { .. }
        ));
    }

    let geom = db.db().prot.geometry();
    let a = geom.region_of(db.record_addr(recs[0]).unwrap());
    let b = a ^ 1;
    let (at, bit) = (8, 0x10);
    let inj = FaultInjector::new(&db);
    let flip = |addr: DbAddr| {
        let mut byte = [0u8; 1];
        db.db().image.read(addr, &mut byte).unwrap();
        byte[0] ^= bit;
        assert!(inj.wild_write_bytes(addr, &byte).unwrap().landed());
    };
    flip(geom.region_base(a).add(at));
    flip(geom.region_base(b).add(at));
    flip(geom.region_base(b).add(at + 4));

    let report = db.audit().unwrap();
    let flagged: Vec<_> = report.corrupt.iter().map(|c| c.region).collect();
    assert_eq!(flagged, vec![a], "the fold sees `a` and misses `b`");
    let image = |engine: &DaliEngine| {
        let mut bytes = vec![0u8; engine.db().image.len()];
        engine.db().image.read(DbAddr(0), &mut bytes).unwrap();
        bytes
    };
    let (got, want) = (image(&db), image(&shadow));
    let differ: Vec<usize> = (0..got.len()).filter(|&i| got[i] != want[i]).collect();
    assert!(
        differ.is_empty(),
        "bytes differ from the shadow at {differ:?}"
    );
    assert!(db.audit().unwrap().clean());
}

/// A wild write that a committed update then overwrites: the update read
/// its before-image from the damaged bytes, so the maintained codeword
/// moved by the damage and still flags the region. The repair must
/// restore the committed bytes from the log (`33 33 33 33`, not the
/// damaged `3b 33 33 33`) — on the audit, the checkpoint certification
/// and the repair verb, under both algebras.
#[test]
fn a_wild_write_a_committed_update_overwrote_is_repaired_from_the_log() {
    for (scheme, kind) in CORNERS {
        let (db, _dir) = make_engine(scheme, kind, "repair-model-overwritten");
        let table = db.create_table("t", REC, 16).unwrap();
        let rec = run_workload(&db, table, &[(0, 0x11)])[0];
        assert!(matches!(
            db.checkpoint().unwrap(),
            CheckpointOutcome::Certified { .. }
        ));
        let addr = db.record_addr(rec).unwrap();
        let region = db.db().prot.geometry().region_of(addr);
        for (value, path) in [(0x33, "audit"), (0x44, "checkpoint"), (0x55, "repair")] {
            assert!(FaultInjector::new(&db).bit_flip(addr, 3).unwrap().landed());
            let txn = db.begin().unwrap();
            txn.update(rec, &[value; REC]).unwrap();
            txn.commit().unwrap();
            match path {
                "audit" => assert!(!db.audit().unwrap().clean(), "{kind:?}"),
                "checkpoint" => match db.checkpoint().unwrap() {
                    CheckpointOutcome::CorruptionRepaired { .. } => {}
                    other => panic!("{kind:?}: certification must repair, got {other:?}"),
                },
                _ => assert_eq!(db.repair(region).unwrap().regions, 1, "{kind:?}"),
            }
            let txn = db.begin().unwrap();
            let got = txn.read_vec(rec).unwrap();
            txn.commit().unwrap();
            let why = format!("{kind:?} / {path}: the committed update must survive the repair");
            assert_eq!(&got[..4], &[value; 4], "{why}");
            assert!(db.audit().unwrap().clean(), "{kind:?} / {path}");
        }
    }
}
