//! Adversarial corruption campaigns against a live engine, under both
//! codeword algebras.
//!
//! The acceptance bar for the residue algebra: a paired same-column
//! flip — the XOR parity's blind spot — must slide under XOR
//! certification and be caught by residue certification, on *both*
//! places codeword-certified bytes live (the data arena and the
//! anchored checkpoint image), while every other structured pattern is
//! detected by both algebras. The WAL's frame checksum now follows the
//! configured algebra too: XOR-framed logs keep the paired flip as a
//! documented residual exposure, residue-framed logs reject it; this
//! suite pins both sides of that line. The repair leg asserts the
//! self-healing layer above detection: every detected pattern is
//! rebuilt *in place* from the parity stripe (byte-identical image,
//! clean post-repair audit), and a double fault inside one parity group
//! falls back to online log-based recovery.

use dali::faultinject::{
    algebra_expected_detected, assert_matrix, assert_repair_matrix, campaign_payload,
    run_double_fault_round, run_matrix, run_repair_matrix, run_wal_round, CampaignTarget,
    CorruptionPattern, RepairVerdict, WalScanOutcome,
};
use dali::{
    CheckpointOutcome, CodewordAlgebraKind, DaliConfig, DaliEngine, FaultInjector, ProtectionScheme,
};
use std::sync::atomic::Ordering;

const REC: usize = 128;

fn setup_kind(
    kind: CodewordAlgebraKind,
    name: &str,
) -> (DaliEngine, dali::DbAddr, dali_testutil::TempDir) {
    let dir = dali_testutil::TempDir::new(&format!("hostile-{name}-{}", kind.tag()));
    let config = DaliConfig::small(dir.path())
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_codeword_algebra(kind);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", REC, 32).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &campaign_payload(REC)).unwrap();
    txn.commit().unwrap();
    match db.checkpoint().unwrap() {
        CheckpointOutcome::Certified { .. } => {}
        other => panic!("clean database must certify, got {other:?}"),
    }
    let addr = db.record_addr(rec).unwrap();
    (db, addr, dir)
}

/// The full pattern × target matrix, per algebra: every verdict matches
/// the documented detection table, and in particular the paired
/// same-column flip passes XOR and is caught by residue on the arena
/// *and* on the checkpoint image — the class the residue code exists
/// for.
#[test]
fn matrix_verdicts_split_by_algebra_on_arena_and_checkpoint_image() {
    for kind in CodewordAlgebraKind::ALL {
        let (db, addr, _dir) = setup_kind(kind, "matrix");
        let inj = FaultInjector::new(&db);
        let verdicts = run_matrix(&db, &inj, addr, REC).unwrap();
        // Every pattern landed on both targets.
        assert_eq!(verdicts.len(), CorruptionPattern::ALL.len() * 2, "{kind:?}");
        assert_matrix(&verdicts);

        let paired: Vec<_> = verdicts
            .iter()
            .filter(|v| v.pattern == CorruptionPattern::PairedSameColumn)
            .collect();
        assert_eq!(paired.len(), 2, "{kind:?}: arena + checkpoint image");
        for v in paired {
            assert!(matches!(
                v.target,
                CampaignTarget::Arena | CampaignTarget::CheckpointImage
            ));
            assert_eq!(
                v.detected,
                kind == CodewordAlgebraKind::Residue,
                "{kind:?} / {:?}: the paired flip is XOR's blind spot and residue's reason to exist",
                v.target
            );
        }
        // The campaign repaired everything: the engine still audits
        // clean and can keep certifying.
        assert!(db.audit().unwrap().clean(), "{kind:?}");
        assert!(matches!(
            db.checkpoint().unwrap(),
            CheckpointOutcome::Certified { .. }
        ));
    }
}

/// Checkpoint-time certification splits the same way: with the paired
/// flip sitting in the arena, the XOR engine certifies (and anchors) a
/// corrupt image; the residue engine detects it — and, with the parity
/// stripe on by default, heals the region in place and carries on
/// certifying instead of poisoning itself.
#[test]
fn paired_flip_splits_checkpoint_certification() {
    for kind in CodewordAlgebraKind::ALL {
        let (db, addr, _dir) = setup_kind(kind, "certify");
        let inj = FaultInjector::new(&db);
        let mut window = vec![0u8; REC];
        db.db().image.read(addr, &mut window).unwrap();
        let corrupt = CorruptionPattern::PairedSameColumn
            .apply(&window)
            .expect("campaign_payload holds an equal-bit column");
        assert!(inj.wild_write_bytes(addr, &corrupt).unwrap().landed());

        match (kind, db.checkpoint()) {
            (CodewordAlgebraKind::XorFold, Ok(CheckpointOutcome::Certified { .. })) => {}
            (
                CodewordAlgebraKind::Residue,
                Ok(CheckpointOutcome::CorruptionRepaired { report, outcome }),
            ) => {
                assert!(!report.clean());
                assert!(
                    outcome.in_place(),
                    "single corrupt region must rebuild from its parity group, got {outcome:?}"
                );
                // Healed, not poisoned: the image is back to the
                // pre-corruption bytes and the engine keeps certifying.
                let mut after = vec![0u8; REC];
                db.db().image.read(addr, &mut after).unwrap();
                assert_eq!(after, window, "repair must restore the original bytes");
                assert!(db.audit().unwrap().clean());
                assert!(matches!(
                    db.checkpoint().unwrap(),
                    CheckpointOutcome::Certified { .. }
                ));
            }
            (k, other) => panic!("{k:?}: unexpected checkpoint outcome {other:?}"),
        }
    }
}

/// Concatenate the retained log segments in base order: LSNs are global
/// byte offsets, so this reconstructs the global stable-log byte stream
/// (seal frames included).
fn read_log_bytes(log_dir: &std::path::Path) -> Vec<u8> {
    let mut out = Vec::new();
    for seg in dali::wal::segment::list(log_dir).unwrap() {
        let bytes = std::fs::read(dali::wal::segment::path(log_dir, seg.base)).unwrap();
        out.extend_from_slice(&bytes);
    }
    out
}

/// Walk the `[len:u32][checksum:u32][type:u8][payload]` framing of a raw
/// stable log and return every in-payload probe offset with at least 8
/// bytes of payload after it. Seal frames (empty payload) are skipped. A
/// flip straddling the *stored checksum* and the matching column of the
/// first payload word compensates under either algebra — the checksum
/// cannot protect itself — so the algebra split below is a claim about
/// payload bytes, and the probes stay inside them.
fn payload_probe_offsets(log: &[u8]) -> Vec<usize> {
    const HDR: usize = dali::wal::record::FRAME_HDR;
    let mut offs = Vec::new();
    let mut pos = 0usize;
    while pos + HDR <= log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + HDR + len > log.len() {
            break;
        }
        let payload = pos + HDR..pos + HDR + len;
        for off in (payload.start..payload.end.saturating_sub(8)).step_by(16) {
            offs.push(off);
        }
        pos += HDR + len;
    }
    offs
}

/// The WAL's frame checksum follows the configured algebra, probed at
/// sampled payload offsets of the stable log: a single flip is either
/// rejected or lands in replayed-prefix slack — never silently accepted
/// — under both kinds, while the paired same-column flip slides
/// somewhere under XOR frames (the documented residual exposure) and is
/// rejected everywhere by residue frames.
#[test]
fn wal_single_flips_reject_and_paired_flips_split_by_algebra() {
    for kind in CodewordAlgebraKind::ALL {
        let (db, _addr, _dir) = setup_kind(kind, "wal");
        // More committed frames to probe.
        let t2 = db.create_table("t2", REC, 32).unwrap();
        let txn = db.begin().unwrap();
        for _ in 0..8 {
            txn.insert(t2, &campaign_payload(REC)).unwrap();
        }
        txn.commit().unwrap();
        db.db().syslog.flush(false).unwrap();
        let path = dali::engine::db::Db::log_path(&db.db().config.dir);
        let log = read_log_bytes(&path);
        let offsets = payload_probe_offsets(&log);
        assert!(
            offsets.len() > 8,
            "stable log too small to probe: {} offsets",
            offsets.len()
        );

        let mut single = (0usize, 0usize, 0usize); // rejected, altered, unaffected
        let mut paired = (0usize, 0usize, 0usize);
        for &off in &offsets {
            if let Some(o) = run_wal_round(&db, CorruptionPattern::SingleFlip, off, 8).unwrap() {
                match o {
                    WalScanOutcome::Rejected => single.0 += 1,
                    WalScanOutcome::SilentlyAltered => single.1 += 1,
                    WalScanOutcome::Unaffected => single.2 += 1,
                }
            }
            if let Some(o) =
                run_wal_round(&db, CorruptionPattern::PairedSameColumn, off, 8).unwrap()
            {
                match o {
                    WalScanOutcome::Rejected => paired.0 += 1,
                    WalScanOutcome::SilentlyAltered => paired.1 += 1,
                    WalScanOutcome::Unaffected => paired.2 += 1,
                }
            }
        }
        assert!(
            single.0 > 0,
            "{kind:?}: some single flip must hit a stable frame"
        );
        assert_eq!(
            single.1, 0,
            "{kind:?}: a single flip can never slide under the frame checksum"
        );
        match kind {
            CodewordAlgebraKind::XorFold => assert!(
                paired.1 > 0,
                "the paired flip must slide under XOR frames somewhere \
                 (documented residual exposure: rejected {} / altered {} / unaffected {})",
                paired.0,
                paired.1,
                paired.2
            ),
            CodewordAlgebraKind::Residue => {
                assert_eq!(
                    paired.1, 0,
                    "residue frames must never silently accept an in-payload paired flip \
                     (rejected {} / unaffected {})",
                    paired.0, paired.2
                );
                assert!(
                    paired.0 > 0,
                    "some paired flip must hit a stable frame and be rejected"
                );
            }
        }
    }
}

/// The self-healing leg of the campaign: every detected pattern landing
/// inside a single 64-byte region is rebuilt *in place* from its parity
/// group — byte-identical image, clean post-repair audit — under both
/// algebras, and the engine keeps certifying afterwards.
#[test]
fn repair_matrix_rebuilds_every_detected_pattern_in_place() {
    for kind in CodewordAlgebraKind::ALL {
        // 64-byte records: the record fills exactly one protection
        // region, so every pattern (including the full-window Burst)
        // stays a single-region, single-fault corruption that must
        // rebuild in place — and the torn-page tail keeps the
        // cancellation-breaking last byte of [`campaign_payload`]
        // inside the window.
        let dir = dali_testutil::TempDir::new(&format!("hostile-repair-{}", kind.tag()));
        let config = DaliConfig::small(dir.path())
            .with_scheme(ProtectionScheme::DataCodeword)
            .with_codeword_algebra(kind);
        let (db, _) = DaliEngine::create(config).unwrap();
        let t = db.create_table("t", 64, 32).unwrap();
        let txn = db.begin().unwrap();
        let rec = txn.insert(t, &campaign_payload(64)).unwrap();
        txn.commit().unwrap();
        match db.checkpoint().unwrap() {
            CheckpointOutcome::Certified { .. } => {}
            other => panic!("clean database must certify, got {other:?}"),
        }
        let addr = db.record_addr(rec).unwrap();
        assert!(
            db.db().prot.parity().is_some(),
            "small() config must enable the parity stripe by default"
        );
        let inj = FaultInjector::new(&db);
        let rounds = run_repair_matrix(&db, &inj, addr, 64).unwrap();
        assert!(
            rounds.len() >= CorruptionPattern::ALL.len() - 1,
            "{kind:?}: most patterns must land ({} rounds)",
            rounds.len()
        );
        assert_repair_matrix(&rounds);
        for r in &rounds {
            if algebra_expected_detected(kind, r.pattern) {
                assert_eq!(
                    r.verdict,
                    RepairVerdict::RepairedInPlace,
                    "{kind:?} / {:?}: single-region faults rebuild from parity",
                    r.pattern
                );
            }
        }

        let stats = db.stats();
        assert!(
            stats.repair_attempted.load(Ordering::Relaxed) > 0,
            "{kind:?}"
        );
        assert!(
            stats.repair_succeeded.load(Ordering::Relaxed) > 0,
            "{kind:?}"
        );
        assert!(db.audit().unwrap().clean(), "{kind:?}");
        assert!(matches!(
            db.checkpoint().unwrap(),
            CheckpointOutcome::Certified { .. }
        ));
    }
}

/// Two corrupt regions inside one parity group exceed what a single
/// XOR stripe can solve: repair must detect the sibling corruption,
/// fall back to online log-based recovery (certified checkpoint + WAL
/// replay), and still end with the original bytes and a clean audit.
#[test]
fn double_fault_in_one_parity_group_falls_back_to_log_recovery() {
    for kind in CodewordAlgebraKind::ALL {
        let (db, addr, _dir) = setup_kind(kind, "double");
        let inj = FaultInjector::new(&db);
        let round = run_double_fault_round(&db, &inj, addr).unwrap();
        assert_eq!(
            round.verdict,
            RepairVerdict::RecoveredViaLog,
            "{kind:?}: a double fault cannot be solved by one parity stripe"
        );
        assert!(
            round.image_restored,
            "{kind:?}: log recovery must restore the bytes"
        );

        let stats = db.stats();
        assert!(
            stats.repair_fell_back.load(Ordering::Relaxed) > 0,
            "{kind:?}"
        );
        assert!(db.audit().unwrap().clean(), "{kind:?}");
        assert!(matches!(
            db.checkpoint().unwrap(),
            CheckpointOutcome::Certified { .. }
        ));
    }
}
