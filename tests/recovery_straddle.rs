//! Operations around a segment roll.
//!
//! An operation reaches the log as one frame, and a frame never spans
//! segments: the log seals the active segment in front of a frame that
//! would overflow it. So a log cut at a segment's base — what a crash
//! between a roll's halves, or prior-state recovery there, leaves —
//! holds every operation before the cut whole and none after it, and
//! restart recovers exactly the transactions committed before the cut.

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
    fn a_cut_at_a_segment_roll_recovers_the_commits_before_it(
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

        // The rolls after the first snapshot: each frame of an operation
        // lies wholly on one side of each.
        let log_dir = dir.path().join("system.log");
        let rolls: Vec<Lsn> = segment::list(&log_dir)
            .unwrap()
            .iter()
            .map(|s| s.base)
            .filter(|&base| base > snapshots[0].0)
            .collect();
        prop_assume!(!rolls.is_empty());
        let kind = config_for(dir.path()).codeword_algebra;
        let mut ops = 0;
        LogReader::open(&log_dir, snapshots[0].0, kind)
            .unwrap()
            .for_each(|_, rec| {
                ops += usize::from(matches!(rec, LogRecordRef::Op { .. }));
                Ok(())
            })
            .unwrap();
        prop_assert_eq!(ops, txns.iter().map(Vec::len).sum::<usize>());

        // Whole log: all committed work is there.
        let whole = recover(dir.path(), None, &recs)?;
        prop_assert_eq!(&whole, &snapshots.last().unwrap().1);

        // Cut at a roll: the open transaction rolls back, and the state is
        // the one committed last before the cut.
        let cut = rolls[pick % rolls.len()];
        let expect = &snapshots.iter().rev().find(|(end, _)| *end <= cut).unwrap().1;
        let halved = recover(dir.path(), Some(cut), &recs)?;
        prop_assert_eq!(&halved, expect);
    }
}
