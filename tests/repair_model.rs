//! Model-based test of online parity repair: a repaired database is
//! byte-identical to one that was never corrupted.
//!
//! The property runs every scenario under `DataCodeword` with both
//! algebras, `XorFold` and `Residue`: a random insert/update workload is applied to a
//! **primary** and an untouched **shadow** engine in lockstep, a single
//! protection region of the primary is corrupted behind the codeword's
//! back, and `repair` must bring the primary back so that
//!
//! * the outcome is `RepairedInPlace` (a single fault never needs the
//!   log),
//! * the repaired region's raw bytes equal the shadow's same region,
//! * every record reads back identical to the shadow, and
//! * a full audit is clean.
//!
//! Two deterministic scenarios pin the fallback ladder below that
//! property:
//!
//! * **double fault** — two corrupt regions in one parity group exceed
//!   one XOR stripe; repair must ride the certified checkpoint + WAL
//!   instead, and still restore the bytes;
//! * **stale parity** — the stripe itself is scribbled on through the
//!   unmaintained test hook, so the reconstruction cannot verify
//!   against the maintained codeword; repair must notice (never write
//!   back a wrong image) and fall back cleanly.
//!
//! CI raises the case count via `PROPTEST_CASES`, as with the lock-model
//! suite.

use dali::{
    CheckpointOutcome, CodewordAlgebraKind, DaliConfig, DaliEngine, FaultInjector,
    ProtectionScheme, RecId, RepairOutcome,
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

            // A certified checkpoint anchors the fallback rung; the
            // property expects repair never to need it here, but a
            // failed in-place attempt must not strand the database.
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
            prop_assert!(
                matches!(outcome, RepairOutcome::RepairedInPlace { regions_rebuilt: 1, .. }),
                "{scheme:?}/{kind:?}: single fault must rebuild in place, got {outcome:?}"
            );

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

/// Two corrupt regions in one parity group: the stripe has one equation
/// and two unknowns, so repair must fall back to the certified
/// checkpoint + WAL replay — and still restore every byte.
#[test]
fn double_fault_in_one_group_falls_back_cleanly() {
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
        let stripe = db.db().prot.parity().expect("stripe enabled");
        let group = stripe.group_of(geom.region_of(db.record_addr(recs[0]).unwrap()));
        let (first, last) = stripe.members(group);
        assert!(last > first, "group must hold two regions");
        let inj = FaultInjector::new(&db);
        for region in [first, first + 1] {
            let base = geom.region_base(region);
            let mut b = [0u8; 1];
            db.db().image.read(base, &mut b).unwrap();
            b[0] ^= 0x08;
            assert!(inj.wild_write_bytes(base, &b).unwrap().landed());
        }

        let outcome = db.repair(first).unwrap();
        assert!(
            !outcome.in_place(),
            "{scheme:?}/{kind:?}: double fault must ride the log, got {outcome:?}"
        );

        assert!(db.audit().unwrap().clean(), "{scheme:?}/{kind:?}");
        for (r, want) in recs.iter().zip(&originals) {
            let txn = db.begin().unwrap();
            assert_eq!(&txn.read_vec(*r).unwrap(), want, "{scheme:?}/{kind:?}");
            txn.commit().unwrap();
        }
    }
}

/// A scribbled-on parity stripe (through the unmaintained test hook)
/// makes the reconstruction fail its codeword verification: repair must
/// refuse to write the wrong image back and fall back to the log — the
/// self-healing layer never trades detected corruption for silent
/// corruption.
#[test]
fn stale_parity_falls_back_instead_of_writing_garbage() {
    for (scheme, kind) in CORNERS {
        let (db, _dir) = make_engine(scheme, kind, "repair-model-stale");
        let table = db.create_table("t", REC, 64).unwrap();
        let recs = run_workload(&db, table, &[(0, 0x5A), (1, 0xC3)]);
        assert!(matches!(
            db.checkpoint().unwrap(),
            CheckpointOutcome::Certified { .. }
        ));
        let txn = db.begin().unwrap();
        let original = txn.read_vec(recs[0]).unwrap();
        txn.commit().unwrap();

        let addr = db.record_addr(recs[0]).unwrap();
        let geom = db.db().prot.geometry();
        let region = geom.region_of(addr);
        let base = geom.region_base(region);
        let stripe = db.db().prot.parity().expect("stripe enabled");
        // Scribble on the group's parity buffer, bypassing maintenance:
        // the stripe now disagrees with the image it claims to cover.
        stripe.wild_xor_group(stripe.group_of(region), 0, &[0xA5, 0x5A, 0xFF]);

        let inj = FaultInjector::new(&db);
        let mut b = [0u8; 1];
        db.db().image.read(base, &mut b).unwrap();
        b[0] ^= 0x08;
        assert!(inj.wild_write_bytes(base, &b).unwrap().landed());

        let outcome = db.repair(region).unwrap();
        assert!(
            !outcome.in_place(),
            "{scheme:?}/{kind:?}: a stale stripe must never be written back, got {outcome:?}"
        );

        assert!(db.audit().unwrap().clean(), "{scheme:?}/{kind:?}");
        let txn = db.begin().unwrap();
        assert_eq!(
            txn.read_vec(recs[0]).unwrap(),
            original,
            "{scheme:?}/{kind:?}"
        );
        txn.commit().unwrap();
    }
}

/// A wild write that a committed update then overwrites: the update read
/// its before-image from the damaged bytes, so the parity buffer and the
/// maintained codeword both moved by the damage. A parity rebuild would
/// verify and write the damage back (`3b 33 33 33` for `33 33 33 33`);
/// it must disagree with the log instead, and the log rung must restore
/// the committed bytes — on the audit, the checkpoint certification and
/// the repair verb, under both algebras.
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
            let outcome = match path {
                "audit" => {
                    assert!(!db.audit().unwrap().clean(), "{kind:?}");
                    None
                }
                "checkpoint" => match db.checkpoint().unwrap() {
                    CheckpointOutcome::CorruptionRepaired { outcome, .. } => Some(outcome),
                    other => panic!("{kind:?}: certification must repair, got {other:?}"),
                },
                _ => Some(db.repair(region).unwrap()),
            };
            let txn = db.begin().unwrap();
            let got = txn.read_vec(rec).unwrap();
            txn.commit().unwrap();
            let why = format!("{kind:?} / {path}: the committed update must survive the repair");
            assert_eq!(&got[..4], &[value; 4], "{why}");
            assert!(outcome.is_none_or(|o| !o.in_place()), "{why}");
            assert!(db.audit().unwrap().clean(), "{kind:?} / {path}");
        }
    }
}
