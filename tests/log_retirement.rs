//! Segment retirement: bounded log retention.
//!
//! With `log_retire` on, every checkpoint retires sealed segments that
//! both ping-pong images' `CK_end` have passed — so the log directory
//! must stay bounded across checkpoint cycles while recovery from the
//! *retained* segments alone still reproduces every committed
//! transaction.
//!
//! The crash between a retirement unlink and the directory fsync is
//! tested in `log_retirement_crash.rs`: arming a crash point is
//! process-global, and in this binary it tripped these tests'
//! checkpoints.

mod retirement_support;

use dali_common::RecId;
use dali_engine::DaliEngine;
use retirement_support::{assert_recovers, config_for, run_cycles, tmpdir};
use std::collections::HashMap;

#[test]
fn retirement_bounds_the_log_and_retained_segments_recover_everything() {
    let dir = tmpdir("bound");
    let (db, _) = DaliEngine::create(config_for(&dir)).unwrap();
    let t = db.create_table("t", 64, 16).unwrap();
    let setup = db.begin().unwrap();
    let mut expected: HashMap<RecId, Vec<u8>> = HashMap::new();
    let mut recs = Vec::new();
    for i in 0..8usize {
        let r = setup.insert(t, &[i as u8; 64]).unwrap();
        expected.insert(r, vec![i as u8; 64]);
        recs.push(r);
    }
    setup.commit().unwrap();

    let log_dir = dir.join("system.log");
    let mut sizes = Vec::new();
    for cycle in 0..4u64 {
        run_cycles(&db, &recs, &mut expected, cycle..cycle + 1);
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
    assert_recovers(&dir, &expected);
}

#[test]
fn retirement_off_keeps_every_segment() {
    let dir = tmpdir("keep");
    let config = config_for(&dir).with_log_retire(false);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 64, 16).unwrap();
    let setup = db.begin().unwrap();
    let mut expected: HashMap<RecId, Vec<u8>> = HashMap::new();
    let mut recs = Vec::new();
    for i in 0..8usize {
        let r = setup.insert(t, &[i as u8; 64]).unwrap();
        expected.insert(r, vec![i as u8; 64]);
        recs.push(r);
    }
    setup.commit().unwrap();
    run_cycles(&db, &recs, &mut expected, 0..3);

    let log_dir = dir.join("system.log");
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
    assert_recovers(&dir, &expected);
}
