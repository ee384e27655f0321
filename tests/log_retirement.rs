//! Segment retirement: bounded log retention and crash safety.
//!
//! With `log_retire` on, every checkpoint retires sealed segments that
//! both ping-pong images' `CK_end` have passed — so the log directory
//! must stay bounded across checkpoint cycles while recovery from the
//! *retained* segments alone still reproduces every committed
//! transaction. Retirement's unlinks share one directory sync, so a
//! power loss can keep any subset of them; the crash simulator
//! (`tests/crash_sim.rs`) covers that, and the hole it found is pinned
//! here.
//!
//! Retirement (like a rolled segment's fsync and naming) is the log
//! worker's job: a checkpoint posts it and returns. A test that looks at
//! the directory of a live engine therefore calls `settle()` first, and
//! that is also where a retirement that failed reports.

use dali::wal::segment;
use dali_common::{DaliConfig, OsStorage, ProtectionScheme, RecId};
use dali_engine::DaliEngine;
use dali_testutil::TempDir;
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
        sizes.push(segment::bytes_on_disk(&OsStorage, &log_dir).unwrap());
    }

    // Retirement happened and the directory is bounded: the first
    // retained segment moved past the origin, the retained bytes are a
    // fraction of everything ever logged, and the last cycles' footprint
    // stopped growing (steady-state retention, not monotonic growth).
    let segments = segment::list(&log_dir).unwrap();
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
    let stats = db.db().syslog.segment_stats().unwrap();
    assert!(stats.retired > 0);
    assert_eq!(stats.bytes_on_disk, retained);

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
    let segments = segment::list(&log_dir).unwrap();
    assert_eq!(
        segments.first().unwrap().base.0,
        0,
        "with retirement off the origin segment must survive"
    );
    // Everything ever logged is still on disk (the active tail may lag
    // the in-memory LSN by an unflushed byte or two, never the reverse).
    let retained = segment::bytes_on_disk(&OsStorage, &log_dir).unwrap();
    let total_logged = db.current_lsn().unwrap().0;
    assert!(retained >= total_logged - 64, "{retained} < {total_logged}");
    db.crash();
    assert_recovers(dir.path(), &expected);
}

/// Retirement unlinked three segments and the power failed before its
/// directory sync, keeping the unlink of the middle one only: the oldest
/// segment is back, stranded below a gap. Restart must not mistake the
/// gap for a broken log, and drops the stranded segment.
#[test]
fn a_segment_stranded_below_a_retirement_gap_does_not_stop_restart() {
    let dir = TempDir::new("hole");
    let (db, recs, mut expected) = create_seeded(config_for(dir.path()).with_log_retire(false));
    run_cycles(&db, &recs, &mut expected, 0..3);
    db.crash();

    let log_dir = dir.path().join("system.log");
    let ck_end = dali::engine::ckpt::read_meta(
        &OsStorage,
        dir.path(),
        dali::engine::ckpt::read_anchor(&OsStorage, dir.path())
            .unwrap()
            .0,
    )
    .unwrap()
    .ck_end;
    let below: Vec<_> = segment::list(&log_dir)
        .unwrap()
        .into_iter()
        .filter(|s| s.end() <= ck_end)
        .collect();
    assert!(below.len() >= 3, "{below:?}");
    std::fs::remove_file(segment::path(&log_dir, below[1].base)).unwrap();
    let stranded = below[0];

    assert_recovers(dir.path(), &expected);
    assert!(
        !segment::path(&log_dir, stranded.base).exists(),
        "the stranded segment is unlinked at open"
    );
}
