//! An operation's log batch that straddles a segment roll.
//!
//! Streaming redo classifies one segment at a time and applies that
//! segment's released writes before dropping its buffer, so an operation
//! whose physical redo sits in segment *k* and whose operation-commit
//! record sits in segment *k+1* is the case that needs care: the first
//! half must be carried across the boundary and released by the second
//! — or, when the crash lands between the halves, discarded, because no
//! undo information covers it.

use dali_common::{DaliConfig, Lsn, ProtectionScheme, RecId};
use dali_engine::DaliEngine;
use dali_wal::{segment, LogReader, LogRecordRef};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::Path;

fn config_for(dir: &Path) -> DaliConfig {
    let mut c = DaliConfig::small(dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_log_segment_bytes(1024);
    c.db_pages = 64;
    c
}

/// Recover a copy of `crashed` (its log cut at `cut`, if given), check
/// the audit is clean, and return the recovered records.
fn recover(
    crashed: &Path,
    cut: Option<Lsn>,
    recs: &[RecId],
) -> Result<HashMap<RecId, Vec<u8>>, TestCaseError> {
    let case = dali_testutil::TempDir::new("straddle-recover");
    dali_testutil::copy_dir(crashed, case.path());
    if let Some(cut) = cut {
        segment::truncate_at(&case.path().join("system.log"), cut).unwrap();
    }
    let (db, _) = DaliEngine::open(config_for(case.path())).unwrap();
    prop_assert!(db.audit().unwrap().clean());
    let txn = db.begin().unwrap();
    let state = recs
        .iter()
        .map(|&r| (r, txn.read_vec(r).unwrap()))
        .collect();
    txn.commit().unwrap();
    db.crash();
    Ok(state)
}

/// Heavier when the deep-proptest knob is set (CI), light locally: each
/// case is one workload plus two full recoveries.
fn cases() -> u32 {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default().cases
    } else {
        12
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), .. ProptestConfig::default() })]

    #[test]
    fn straddling_batch_is_carried_when_whole_and_discarded_when_cut(
        rec_words in 10usize..75,
        txns in proptest::collection::vec(
            proptest::collection::vec((0usize..8, any::<u8>()), 1..4),
            3..10,
        ),
        pick in any::<usize>(),
    ) {
        let rec_size = 4 * rec_words;
        let dir = dali_testutil::TempDir::new("straddle");
        let (db, _) = DaliEngine::create(config_for(dir.path())).unwrap();
        let t = db.create_table("t", rec_size, 16).unwrap();
        let setup = db.begin().unwrap();
        let mut state: HashMap<RecId, Vec<u8>> = HashMap::new();
        let mut recs = Vec::new();
        for i in 0..8usize {
            let r = setup.insert(t, &vec![i as u8; rec_size]).unwrap();
            state.insert(r, vec![i as u8; rec_size]);
            recs.push(r);
        }
        setup.commit().unwrap();
        // (end LSN of the commit, committed state) after every commit.
        let mut snapshots = vec![(db.current_lsn().unwrap(), state.clone())];
        for ops in &txns {
            let txn = db.begin().unwrap();
            for &(idx, seed) in ops {
                let v = vec![seed; rec_size];
                txn.update(recs[idx], &v).unwrap();
                state.insert(recs[idx], v);
            }
            txn.commit().unwrap();
            snapshots.push((db.current_lsn().unwrap(), state.clone()));
        }
        db.db().syslog.flush(true).unwrap();
        db.crash();

        // Operations whose physical redo and commit record sit in
        // different segments: (base of the commit record's segment).
        let log_dir = dir.path().join("system.log");
        let segments = segment::list(&log_dir).unwrap();
        let segment_of = |lsn: Lsn| segments.iter().rev().find(|s| s.base <= lsn).unwrap().base;
        let mut redo_at = HashMap::new();
        let mut straddles = Vec::new();
        LogReader::open(&log_dir, snapshots[0].0, config_for(dir.path()).codeword_algebra)
            .unwrap()
            .for_each(|lsn, rec| {
                match rec {
                    LogRecordRef::PhysicalRedo { txn, op, .. } => {
                        redo_at.insert((txn, op), segment_of(lsn));
                    }
                    LogRecordRef::OpCommit { txn, op, .. }
                        if redo_at
                            .get(&(txn, op))
                            .is_some_and(|&s| s != segment_of(lsn)) =>
                    {
                        straddles.push(segment_of(lsn));
                    }
                    _ => {}
                }
                Ok(())
            })
            .unwrap();
        prop_assume!(!straddles.is_empty());

        // Whole log: every straddling batch is carried over its roll and
        // released — all committed work is there.
        let whole = recover(dir.path(), None, &recs)?;
        prop_assert_eq!(&whole, &snapshots.last().unwrap().1);

        // Crash between the halves: the log ends with the segment that
        // holds the physical redo; the commit record's segment is gone.
        // The open transaction rolls back, and the orphaned half — which
        // nothing could undo — must not have been applied.
        let cut = straddles[pick % straddles.len()];
        let expect = &snapshots.iter().rev().find(|(end, _)| *end <= cut).unwrap().1;
        let halved = recover(dir.path(), Some(cut), &recs)?;
        prop_assert_eq!(&halved, expect);
    }
}
