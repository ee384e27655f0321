//! The XOR codeword's blind spot, and the residue algebra that closes it.
//!
//! A wild write whose per-word XOR deltas cancel (a 4-byte-periodic
//! pattern over word-aligned identical data, or any *even* number of
//! same-direction flips of one bit column) is invisible to the XOR
//! audit. The paper's schemes detect corruption only "with high
//! probability" (§3); this is the residual miss class. The
//! mod-(2^32−1) residue algebra sums words instead of XORing them, so
//! same-direction deltas *add* rather than cancel — the whole class
//! becomes detectable, at the price of a carry chain per word.
//!
//! The first half of this file documents the XOR misses as before; the
//! second half runs the structured corruption matrix
//! ([`dali::CorruptionPattern`]) under *both* algebras and pins every
//! cell of the detection table.

use dali::faultinject::{algebra_expected_detected, campaign_payload};
use dali::{
    CodewordAlgebraKind, CorruptionPattern, DaliConfig, DaliEngine, FaultInjector,
    ProtectionScheme, RecId,
};

fn setup_kind(
    kind: CodewordAlgebraKind,
    name: &str,
    payload: &[u8; 128],
) -> (DaliEngine, RecId, dali_testutil::TempDir) {
    let dir = dali_testutil::TempDir::new(&format!("parity-{name}"));
    let config = DaliConfig::small(dir.path())
        .with_scheme(ProtectionScheme::ReadLogging)
        .with_codeword_algebra(kind);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 128, 64).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, payload).unwrap();
    txn.commit().unwrap();
    db.checkpoint().unwrap();
    (db, rec, dir)
}

fn setup(name: &str) -> (DaliEngine, RecId, dali_testutil::TempDir) {
    // uniform contents, default (XOR) algebra
    setup_kind(CodewordAlgebraKind::XorFold, name, &[0u8; 128])
}

#[test]
fn periodic_pattern_over_uniform_data_cancels_in_the_codeword() {
    let (db, rec, _dir) = setup("cancel");
    let inj = FaultInjector::new(&db);
    // Two words flipped identically: XOR parity unchanged — undetected.
    let eff = inj
        .wild_write(db.record_addr(rec).unwrap().add(32), 0xEE, 8)
        .unwrap();
    assert!(eff.landed());
    assert!(
        db.audit().unwrap().clean(),
        "XOR parity cancellation: this corruption is in the scheme's blind spot"
    );
}

#[test]
fn residue_algebra_detects_the_periodic_pattern_xor_misses() {
    // The identical corruption against an identical database configured
    // with the residue algebra: both words move the sum by +0xEEEEEEEE,
    // which cannot cancel mod 2^32−1.
    let (db, rec, _dir) = setup_kind(CodewordAlgebraKind::Residue, "residue-cancel", &[0u8; 128]);
    let inj = FaultInjector::new(&db);
    let eff = inj
        .wild_write(db.record_addr(rec).unwrap().add(32), 0xEE, 8)
        .unwrap();
    assert!(eff.landed());
    assert!(
        !db.audit().unwrap().clean(),
        "the residue code exists precisely to catch the XOR-cancelling pair"
    );
}

#[test]
fn matching_arithmetic_ramps_also_cancel() {
    // Subtler variant: overwriting an arithmetic byte sequence with
    // another arithmetic sequence of the same stride produces a constant
    // per-byte delta, so all word deltas are equal and XOR-cancel in
    // pairs. Single-word (4-byte) writes can never cancel.
    let mut ramp = [0u8; 128];
    for (i, b) in ramp.iter_mut().enumerate() {
        *b = i as u8;
    }
    let (db, rec, _dir) = setup_kind(CodewordAlgebraKind::XorFold, "ramp", &ramp);
    let inj = FaultInjector::new(&db);
    // 0xE0..0xE7 over 0x00..0x07: per-byte delta 0xE0 everywhere.
    inj.wild_write_bytes(
        db.record_addr(rec).unwrap(),
        &[0xE0, 0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7],
    )
    .unwrap();
    assert!(
        db.audit().unwrap().clean(),
        "same-stride ramp overwrite is in the blind spot"
    );
}

#[test]
fn residue_algebra_detects_the_matching_ramp() {
    let mut ramp = [0u8; 128];
    for (i, b) in ramp.iter_mut().enumerate() {
        *b = i as u8;
    }
    let (db, rec, _dir) = setup_kind(CodewordAlgebraKind::Residue, "residue-ramp", &ramp);
    let inj = FaultInjector::new(&db);
    inj.wild_write_bytes(
        db.record_addr(rec).unwrap(),
        &[0xE0, 0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7],
    )
    .unwrap();
    assert!(
        !db.audit().unwrap().clean(),
        "equal word deltas add to 2·0xE0E0E0E0 mod 2^32−1 — nonzero, detected"
    );
}

#[test]
fn non_periodic_pattern_is_always_detected() {
    let (db, rec, _dir) = setup("detect");
    let inj = FaultInjector::new(&db);
    let eff = inj
        .wild_write_bytes(
            db.record_addr(rec).unwrap().add(32),
            &[0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8],
        )
        .unwrap();
    assert!(eff.landed());
    assert!(!db.audit().unwrap().clean());
}

#[test]
fn single_word_change_is_always_detected() {
    let (db, rec, _dir) = setup("word");
    let inj = FaultInjector::new(&db);
    assert!(inj
        .wild_write(db.record_addr(rec).unwrap().add(32), 0xEE, 4)
        .unwrap()
        .landed());
    assert!(!db.audit().unwrap().clean());
}

/// The full per-algebra detection matrix over the structured corruption
/// patterns. Every cell is pinned: the paired same-column flip is the
/// *only* (algebra, pattern) combination that goes undetected, and only
/// under XOR.
#[test]
fn detection_matrix_splits_by_algebra() {
    // campaign_payload gives every pattern something to land on — and
    // keeps the torn page out of the XOR blind spot (see the torn-ramp
    // test below for why a plain ramp would not).
    let payload: [u8; 128] = campaign_payload(128).try_into().unwrap();
    for kind in CodewordAlgebraKind::ALL {
        let (db, rec, _dir) = setup_kind(kind, &format!("matrix-{}", kind.tag()), &payload);
        let inj = FaultInjector::new(&db);
        let addr = db.record_addr(rec).unwrap();
        let (image, prot) = (&db.db().image, &db.db().prot);
        let mut landed = Vec::new();
        for pattern in CorruptionPattern::ALL {
            let corrupt = pattern
                .apply(&payload)
                .unwrap_or_else(|| panic!("{pattern:?} must land on ramp contents"));
            inj.wild_write_bytes(addr, &corrupt).unwrap();
            // The protection's own audit: the engine's would poison the
            // engine on the first hit.
            let detected = !prot.audit(image).unwrap().clean();
            assert_eq!(
                detected,
                algebra_expected_detected(kind, pattern),
                "{kind:?} / {pattern:?}: wrong verdict"
            );
            // The wild write maintained no codeword, so writing the
            // original bytes back restores image/codeword consistency.
            inj.wild_write_bytes(addr, &payload).unwrap();
            landed.push(pattern);
        }
        assert_eq!(landed, CorruptionPattern::ALL.to_vec());
        // The bytes written back restored image/codeword consistency:
        // the database audits clean afterwards.
        assert!(db.audit().unwrap().clean(), "{kind:?}: repair left residue");
    }
}

/// A torn write that zeroes a power-of-two run of a pure byte ramp is
/// *also* XOR-blind: sixteen consecutive ramp words XOR-fold to zero
/// (every bit column below the run length appears an even number of
/// times). The residue sums the words instead, and a nonzero tail has a
/// nonzero sum mod 2^32−1.
#[test]
fn torn_ramp_tail_is_xor_blind_but_residue_detects_it() {
    let mut ramp = [0u8; 128];
    for (i, b) in ramp.iter_mut().enumerate() {
        *b = i as u8;
    }
    for kind in CodewordAlgebraKind::ALL {
        let (db, rec, _dir) = setup_kind(kind, &format!("torn-{}", kind.tag()), &ramp);
        let inj = FaultInjector::new(&db);
        // Zero the 64-byte tail of the record, as a torn write would.
        inj.wild_write(db.record_addr(rec).unwrap().add(64), 0x00, 64)
            .unwrap();
        let detected = !db.audit().unwrap().clean();
        assert_eq!(
            detected,
            kind == CodewordAlgebraKind::Residue,
            "{kind:?}: torn pure-ramp tail"
        );
    }
}

/// Odd flip counts in one column are outside the blind spot: three
/// same-direction flips move both the XOR parity and the residue.
#[test]
fn three_flips_detected_by_both_algebras() {
    for kind in CodewordAlgebraKind::ALL {
        let (db, rec, _dir) = setup_kind(kind, &format!("three-{}", kind.tag()), &[0u8; 128]);
        let inj = FaultInjector::new(&db);
        // Same 0x08 flip in words 0, 1 and 2.
        let addr = db.record_addr(rec).unwrap();
        inj.wild_write_bytes(addr, &[0x08, 0, 0, 0, 0x08, 0, 0, 0, 0x08, 0, 0, 0])
            .unwrap();
        assert!(
            !db.audit().unwrap().clean(),
            "{kind:?} must detect an odd flip count"
        );
    }
}
