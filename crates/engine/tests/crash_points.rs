//! Crash-point sweep: recovery must deliver exact committed-prefix
//! semantics from *any* stable-log prefix.
//!
//! A workload of known transactions runs with a commit-time flush; the
//! resulting stable log is then truncated at every record boundary (and
//! at torn mid-frame offsets) in a copy of the database directory, and
//! recovery runs from each. The recovered state must equal the snapshot
//! taken after the last transaction whose commit record survived the
//! truncation — nothing more, nothing less — and must survive a second
//! crash right after one more commit, with no checkpoint in between.

use dali_common::{DaliConfig, Lsn, ProtectionScheme, RecId};
use dali_engine::DaliEngine;
use dali_testutil::TempDir;
use dali_wal::LogReader;
use std::collections::HashMap;

fn tmpdir(name: &str) -> TempDir {
    TempDir::new(&format!("cp-{name}"))
}

fn copy_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

fn val(txn_no: u64, rec_no: usize) -> Vec<u8> {
    let mut v = vec![0u8; 64];
    v[0..8].copy_from_slice(&txn_no.to_le_bytes());
    v[8] = rec_no as u8;
    v[63] = (txn_no as u8) ^ (rec_no as u8);
    v
}

#[test]
fn every_log_prefix_recovers_to_the_committed_prefix() {
    let scratch = tmpdir("sweep");
    let dir = scratch.path().to_path_buf();
    // Tiny segments so the sweep crosses several segment boundaries (the
    // cut then exercises unlink-whole-segment and cut-mid-segment paths).
    let config = DaliConfig::small(&dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_log_segment_bytes(1024);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 16).unwrap();

    // Populate 8 records, then run 12 transactions, each updating a few
    // records with values derived from the transaction number. After each
    // commit, snapshot (lsn, expected state).
    let setup = db.begin().unwrap();
    let mut recs = Vec::new();
    let mut state: HashMap<RecId, Vec<u8>> = HashMap::new();
    for i in 0..8usize {
        let r = setup.insert(t, &val(0, i)).unwrap();
        state.insert(r, val(0, i));
        recs.push(r);
    }
    setup.commit().unwrap();
    let mut snapshots: Vec<(Lsn, HashMap<RecId, Vec<u8>>)> =
        vec![(db.current_lsn().unwrap(), state.clone())];

    for txn_no in 1..=12u64 {
        let txn = db.begin().unwrap();
        for k in 0..=(txn_no as usize % 3) {
            let rec = recs[(txn_no as usize * 3 + k) % recs.len()];
            let v = val(txn_no, k);
            txn.update(rec, &v).unwrap();
            state.insert(rec, v);
        }
        txn.commit().unwrap();
        snapshots.push((db.current_lsn().unwrap(), state.clone()));
    }
    db.crash();

    // Enumerate stable-log record boundaries.
    let log_path = dir.join("system.log");
    let mut points: Vec<u64> = Vec::new();
    LogReader::open(&log_path, Lsn::ZERO, config.codeword_algebra)
        .unwrap()
        .for_each(|lsn, _| {
            points.push(lsn.0);
            Ok(())
        })
        .unwrap();
    let segments = dali_wal::segment::list(&log_path).unwrap();
    assert!(
        segments.len() > 2,
        "workload should span several segments (got {})",
        segments.len()
    );
    points.push(segments.last().unwrap().end().0);
    // Cuts before the first snapshot would leave the table itself
    // partially created; the committed-prefix model below starts at the
    // setup commit.
    points.retain(|&p| p >= snapshots[0].0 .0);

    // Sweep a sample of truncation points: every 3rd boundary plus a torn
    // offset 3 bytes past it (recovery must drop the torn frame).
    for (i, &p) in points.iter().enumerate().step_by(3) {
        for torn in [0u64, 3] {
            let cut = p + torn;
            let case_scratch = tmpdir(&format!("case-{i}-{torn}"));
            let case = case_scratch.path().to_path_buf();
            copy_dir(&dir, &case);
            dali_wal::segment::truncate_at(&case.join("system.log"), Lsn(cut)).unwrap();

            let mut case_config = config.clone();
            case_config.dir = case.clone();
            let (db, outcome) = DaliEngine::open(case_config.clone())
                .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));

            // Expected: the snapshot of the last commit at or before the
            // intact prefix — torn bytes never complete a frame, so the
            // boundary `p` is what counts.
            let intact = p;
            let mut expect = snapshots
                .iter()
                .rev()
                .find(|(l, _)| l.0 <= intact)
                .map(|(_, s)| s.clone())
                .unwrap_or_else(|| snapshots[0].1.clone());

            let check = |db: &DaliEngine, expect: &HashMap<RecId, Vec<u8>>, outcome| {
                let check = db.begin().unwrap();
                for (&rec, v) in expect {
                    let got = check.read_vec(rec).unwrap_or_else(|e| {
                        panic!("cut {cut}: record {rec} unreadable: {e} ({outcome:?})")
                    });
                    assert_eq!(&got, v, "cut {cut}, record {rec} ({outcome:?})");
                }
                check.commit().unwrap();
                assert!(db.audit().unwrap().clean(), "cut {cut}");
            };
            check(&db, &expect, outcome);

            // One more commit, a crash before any checkpoint, and a
            // second restart: the log alone must hold the first one's
            // rollback of the cut transaction.
            let txn = db.begin().unwrap();
            let extra = txn.insert(t, &val(99, 0)).unwrap();
            txn.commit().unwrap();
            expect.insert(extra, val(99, 0));
            db.crash();
            let (db, outcome) = DaliEngine::open(case_config)
                .unwrap_or_else(|e| panic!("second recovery failed at cut {cut}: {e}"));
            assert!(
                outcome.rolled_back_txns.is_empty(),
                "cut {cut}: {outcome:?}"
            );
            check(&db, &expect, outcome);
            drop(db);
            let _ = std::fs::remove_dir_all(&case);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_garbage_is_discarded() {
    // Garbage appended to the stable log (a torn final flush) must not
    // prevent recovery or resurrect anything.
    let scratch = tmpdir("garbage");
    let dir = scratch.path().to_path_buf();
    let config = DaliConfig::small(&dir).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config.clone()).unwrap();
    let t = db.create_table("t", 64, 8).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &val(1, 0)).unwrap();
    txn.commit().unwrap();
    db.crash();

    use std::io::Write;
    let log_dir = dir.join("system.log");
    let last = *dali_wal::segment::list(&log_dir).unwrap().last().unwrap();
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dali_wal::segment::path(&log_dir, last.base))
        .unwrap();
    f.write_all(&[0x99, 0x13, 0x37, 0xAB, 0xCD]).unwrap();
    drop(f);

    let (db, _) = DaliEngine::open(config).unwrap();
    let check = db.begin().unwrap();
    assert_eq!(check.read_vec(rec).unwrap(), val(1, 0));
    check.commit().unwrap();
}
