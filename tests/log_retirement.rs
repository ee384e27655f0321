//! Segment retirement: bounded log retention and crash safety.
//!
//! With `log_retire` on, every checkpoint retires sealed segments that
//! both ping-pong images' `CK_end` have passed — so the log directory
//! must stay bounded across checkpoint cycles while recovery from the
//! *retained* segments alone still reproduces every committed
//! transaction. A crash between a retirement unlink and the directory
//! fsync leaves the disk with the unlink either done or undone; both
//! states must recover. The crash point is armed on the one engine under
//! test, so it cannot trip the checkpoints of the tests running beside
//! it.
//!
//! Retirement (like a rolled segment's fsync and naming) is the log
//! worker's job: a checkpoint posts it and returns. A test that looks at
//! the directory of a live engine therefore calls `settle()` first, and
//! that is also where a retirement that failed reports.

use dali_common::{DaliConfig, ProtectionScheme, RecId};
use dali_engine::DaliEngine;
use dali_testutil::{copy_dir, TempDir};
use std::collections::HashMap;

fn config_for(dir: &std::path::Path) -> DaliConfig {
    // Tiny segments so a few transactions span many segments and every
    // checkpoint has something to retire.
    let mut c = DaliConfig::small(dir)
        .with_scheme(ProtectionScheme::DataCodeword)
        .with_log_segment_bytes(1024);
    c.db_pages = 64;
    c
}

/// A fresh database with eight committed 64-byte records, and the state
/// recovery must reproduce.
fn create_seeded(config: DaliConfig) -> (DaliEngine, Vec<RecId>, HashMap<RecId, Vec<u8>>) {
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 64, 16).unwrap();
    let setup = db.begin().unwrap();
    let mut expected = HashMap::new();
    let mut recs = Vec::new();
    for i in 0..8u8 {
        let r = setup.insert(t, &[i; 64]).unwrap();
        expected.insert(r, vec![i; 64]);
        recs.push(r);
    }
    setup.commit().unwrap();
    (db, recs, expected)
}

fn assert_recovers(dir: &std::path::Path, expected: &HashMap<RecId, Vec<u8>>) {
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
fn run_cycles(
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

#[test]
fn retirement_bounds_the_log_and_retained_segments_recover_everything() {
    let dir = TempDir::new("bound");
    let (db, recs, mut expected) = create_seeded(config_for(dir.path()));

    let log_dir = dir.path().join("system.log");
    let mut sizes = Vec::new();
    for cycle in 0..4u64 {
        run_cycles(&db, &recs, &mut expected, cycle..cycle + 1);
        db.settle().unwrap();
        sizes.push(dali::wal::segment::bytes_on_disk(&log_dir).unwrap());
    }

    // Retirement happened and the directory is bounded: the first
    // retained segment moved past the origin, the retained bytes are a
    // fraction of everything ever logged, and the last cycles' footprint
    // stopped growing (steady-state retention, not monotonic growth).
    let segments = dali::wal::segment::list(&log_dir).unwrap();
    assert!(segments.first().unwrap().base.0 > 0, "nothing was retired");
    let total_logged = db.current_lsn().unwrap().0;
    let retained = *sizes.last().unwrap();
    assert!(
        retained < total_logged / 2,
        "retained {retained} bytes of {total_logged} ever logged — retirement is not bounding the directory"
    );
    // Steady-state: cycles log equal work, so the retained footprint may
    // jitter by a segment of slack but must not keep growing.
    assert!(
        sizes[3] <= sizes[1] + 1024,
        "log directory kept growing across steady-state checkpoint cycles: {sizes:?}"
    );
    let stats = db.stats();
    assert!(
        stats
            .log_segments_retired
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );
    assert_eq!(
        stats
            .log_bytes_on_disk
            .load(std::sync::atomic::Ordering::Relaxed),
        retained
    );

    // More work after the last checkpoint, then crash: recovery must
    // reproduce everything from the retained segments alone.
    let txn = db.begin().unwrap();
    let v = vec![0xEE; 64];
    txn.update(recs[0], &v).unwrap();
    expected.insert(recs[0], v);
    txn.commit().unwrap();
    db.crash();
    assert_recovers(dir.path(), &expected);
}

#[test]
fn retirement_off_keeps_every_segment() {
    let dir = TempDir::new("keep");
    let config = config_for(dir.path()).with_log_retire(false);
    let (db, recs, mut expected) = create_seeded(config);
    run_cycles(&db, &recs, &mut expected, 0..3);
    db.settle().unwrap();

    let log_dir = dir.path().join("system.log");
    let segments = dali::wal::segment::list(&log_dir).unwrap();
    assert_eq!(
        segments.first().unwrap().base.0,
        0,
        "with retirement off the origin segment must survive"
    );
    // Everything ever logged is still on disk (the active tail may lag
    // the in-memory LSN by an unflushed byte or two, never the reverse).
    let retained = dali::wal::segment::bytes_on_disk(&log_dir).unwrap();
    let total_logged = db.current_lsn().unwrap().0;
    assert!(retained >= total_logged - 64, "{retained} < {total_logged}");
    db.crash();
    assert_recovers(dir.path(), &expected);
}

#[test]
fn crash_during_retirement_recovers_in_both_unlink_states() {
    let dir = TempDir::new("crash");
    let (db, recs, mut expected) = create_seeded(config_for(dir.path()));
    // Two full cycles so both checkpoint metas exist and sealed segments
    // sit below the retirement horizon.
    run_cycles(&db, &recs, &mut expected, 0..2);

    run_cycles(&db, &recs, &mut expected, 2..3); // work for the tripping ckpt
    db.settle().unwrap();

    // Snapshot the directory immediately before the checkpoint whose
    // retirement trips: any segment that retirement can unlink is sealed
    // and fully durable by now, so its snapshot copy is byte-complete
    // and can be restored for the "unlink was lost" post-crash state.
    let pre = TempDir::new("crash-pre");
    copy_dir(dir.path(), pre.path());
    db.crash_points().arm("segment.retire.post_unlink");
    // The checkpoint itself certifies and returns; the retirement it
    // posted trips on the log worker, which keeps the error for whoever
    // settles next.
    db.checkpoint().unwrap();
    let err = db.settle().unwrap_err();
    assert!(
        err.to_string().contains("crash point tripped"),
        "unexpected error: {err}"
    );
    assert!(!db.crash_points().is_armed("segment.retire.post_unlink"));
    db.crash();

    // Post-crash state A: the unlink persisted.
    let persisted = TempDir::new("crash-persisted");
    copy_dir(dir.path(), persisted.path());
    assert_recovers(persisted.path(), &expected);

    // Post-crash state B: the unlink was lost — the segment file
    // reappears. Recovery ignores it (it is wholly below the checkpoint
    // horizon) and the next checkpoint simply retires it again.
    let reverted = TempDir::new("crash-reverted");
    copy_dir(dir.path(), reverted.path());
    let rev_log = reverted.path().join("system.log");
    let pre_log = pre.path().join("system.log");
    let mut restored = 0;
    for entry in std::fs::read_dir(&pre_log).unwrap() {
        let entry = entry.unwrap();
        let dst = rev_log.join(entry.file_name());
        if !dst.exists() {
            std::fs::copy(entry.path(), &dst).unwrap();
            restored += 1;
        }
    }
    assert!(restored > 0, "the tripping checkpoint unlinked nothing");
    assert_recovers(reverted.path(), &expected);
}
