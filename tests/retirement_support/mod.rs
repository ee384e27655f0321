//! Fixtures shared by `log_retirement.rs` and `log_retirement_crash.rs`
//! (a directory module, so cargo does not build it as a test binary).

use dali_common::{DaliConfig, ProtectionScheme, RecId};
use dali_engine::DaliEngine;
use std::collections::HashMap;

pub fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "dali-retire-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

pub fn config_for(dir: &std::path::Path) -> DaliConfig {
    // Tiny segments so a few transactions span many segments and every
    // checkpoint has something to retire.
    let mut c = DaliConfig::small(dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_log_segment_bytes(1024);
    c.db_pages = 64;
    c
}

pub fn assert_recovers(dir: &std::path::Path, expected: &HashMap<RecId, Vec<u8>>) {
    let (db, _outcome) = DaliEngine::open(config_for(dir)).unwrap();
    let txn = db.begin().unwrap();
    for (rec, val) in expected {
        assert_eq!(&txn.read_vec(*rec).unwrap(), val, "record {rec:?}");
    }
    txn.commit().unwrap();
    assert!(db.audit().unwrap().clean());
}

/// Run `cycles` rounds of updates + checkpoint against `db`, tracking
/// the expected state.
pub fn run_cycles(
    db: &DaliEngine,
    recs: &[RecId],
    expected: &mut HashMap<RecId, Vec<u8>>,
    cycles: std::ops::Range<u64>,
) {
    for cycle in cycles {
        for round in 0..4u64 {
            let txn = db.begin().unwrap();
            for (i, &rec) in recs.iter().enumerate() {
                let mut v = vec![0u8; 64];
                v[0..8].copy_from_slice(&cycle.to_le_bytes());
                v[8..16].copy_from_slice(&round.to_le_bytes());
                v[16] = i as u8;
                txn.update(rec, &v).unwrap();
                expected.insert(rec, v);
            }
            txn.commit().unwrap();
        }
        db.checkpoint().unwrap();
    }
}
