//! Parallel redo equivalence: restart recovery with a page-partitioned
//! worker pool must be indistinguishable from serial replay.
//!
//! A random transaction mix (commits, aborts, multi-record updates) runs
//! against tiny log segments so the redo scan crosses several segment
//! boundaries, then the database is recovered with `redo_threads` of 1,
//! 2 and 8 from identical copies of the crashed directory. The recovered
//! image must be byte-identical across thread counts, and the recovery
//! outcome (mode, scanned-record count, rollback sets) must match
//! exactly.

use dali_common::{DaliConfig, DbAddr, ProtectionScheme};
use dali_engine::DaliEngine;
use dali_testutil::{copy_dir, TempDir};
use proptest::prelude::*;

fn config_for(dir: &std::path::Path, redo_threads: usize) -> DaliConfig {
    let mut c = DaliConfig::small(dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_log_segment_bytes(1024)
        .with_redo_threads(redo_threads);
    c.db_pages = 64;
    c
}

/// One recovery run: image bytes + the observable outcome.
fn recover(dir: &std::path::Path, threads: usize) -> (Vec<u8>, String) {
    let config = config_for(dir, threads);
    let db_bytes = config.db_bytes();
    let (db, outcome) = DaliEngine::open(config).unwrap();
    let mut image = vec![0u8; db_bytes];
    db.db().image.read(DbAddr(0), &mut image).unwrap();
    let summary = format!(
        "{:?} scanned={} rolled_back={:?} deleted={:?}",
        outcome.mode, outcome.records_scanned, outcome.rolled_back_txns, outcome.deleted_txns
    );
    db.crash();
    (image, summary)
}

/// Heavier default when the deep-proptest env knob is set (CI), light
/// locally — each case runs one workload plus three full recoveries.
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
    fn parallel_redo_is_byte_identical_to_serial(
        // Each txn: list of (record index, value seed), plus commit/abort.
        txns in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..12, any::<u8>()), 1..5),
                any::<bool>(),
            ),
            1..7,
        ),
    ) {
        let scratch = TempDir::new("predo-base");
        let dir = scratch.path();
        let (db, _) = DaliEngine::create(config_for(dir, 1)).unwrap();
        // 512-byte records spread the working set over several pages, so
        // the page-partitioned buckets genuinely interleave.
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
        db.crash();

        let mut baseline: Option<(Vec<u8>, String)> = None;
        for threads in [1usize, 2, 8] {
            let case = TempDir::new(&format!("predo-t{threads}"));
            copy_dir(dir, case.path());
            let (image, summary) = recover(case.path(), threads);
            match &baseline {
                None => baseline = Some((image, summary)),
                Some((base_img, base_sum)) => {
                    prop_assert_eq!(&summary, base_sum, "outcome diverged at {} threads", threads);
                    prop_assert!(
                        &image == base_img,
                        "recovered image diverged from serial replay at {} threads",
                        threads
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&case);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
