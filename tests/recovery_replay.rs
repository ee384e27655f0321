//! Restart redo repeats history byte for byte.
//!
//! A random transaction mix (commits, aborts, multi-record updates) runs
//! against tiny log segments so the redo scan crosses several segment
//! boundaries and carries operation batches over rolls; a last
//! transaction may be left open with its operations durable. The
//! database then crashes and restarts. Redo applies each operation's
//! writes when its commit record is scanned and the undo phase rolls the
//! open transaction back, so the recovered image must equal, byte for
//! byte, the live image as it stood before that transaction began.

use dali_common::{DaliConfig, DbAddr, ProtectionScheme};
use dali_engine::DaliEngine;
use dali_testutil::TempDir;
use proptest::prelude::*;

fn config_for(dir: &std::path::Path) -> DaliConfig {
    let mut c = DaliConfig::small(dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_log_segment_bytes(1024);
    c.db_pages = 64;
    c
}

fn image_of(db: &DaliEngine) -> Vec<u8> {
    let mut image = vec![0u8; db.db().config.db_bytes()];
    db.db().image.read(DbAddr(0), &mut image).unwrap();
    image
}

/// Heavier default when the deep-proptest env knob is set (CI), light
/// locally — each case runs one workload plus one full recovery.
fn cases() -> u32 {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default().cases
    } else {
        16
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), .. ProptestConfig::default() })]

    #[test]
    fn recovered_image_is_byte_identical_to_the_crashed_history(
        // Each txn: list of (record index, value seed), plus commit/abort.
        txns in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..12, any::<u8>()), 1..5),
                any::<bool>(),
            ),
            1..7,
        ),
        // Updates of a transaction still open at the crash.
        open in proptest::collection::vec((0usize..12, any::<u8>()), 0..4),
    ) {
        let scratch = TempDir::new("redo-replay");
        let dir = scratch.path();
        let (db, _) = DaliEngine::create(config_for(dir)).unwrap();
        // 512-byte records spread the working set over several pages.
        let t = db.create_table("t", 512, 16).unwrap();
        let setup = db.begin().unwrap();
        let mut recs = Vec::new();
        for i in 0..12usize {
            recs.push(setup.insert(t, &[i as u8; 512]).unwrap());
        }
        setup.commit().unwrap();

        for (ops, commit) in &txns {
            let txn = db.begin().unwrap();
            for &(idx, seed) in ops {
                let mut v = vec![seed; 512];
                v[0] = idx as u8;
                txn.update(recs[idx], &v).unwrap();
            }
            if *commit {
                txn.commit().unwrap();
            } else {
                txn.abort().unwrap();
            }
        }
        let expect = image_of(&db);
        let loser = db.begin().unwrap();
        for &(idx, seed) in &open {
            loser.update(recs[idx], &[seed; 512]).unwrap();
        }
        db.db().syslog.flush(true).unwrap();
        db.crash();
        drop(loser);

        let (db, outcome) = DaliEngine::open(config_for(dir)).unwrap();
        prop_assert!(db.audit().unwrap().clean());
        // The open transaction reaches the log with its first operation.
        prop_assert_eq!(outcome.rolled_back_txns.len(), usize::from(!open.is_empty()));
        prop_assert!(image_of(&db) == expect, "recovered image diverged from the history");
        db.crash();
    }
}
