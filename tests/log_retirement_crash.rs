//! Segment retirement: crash safety.
//!
//! A crash between a retirement unlink and the directory fsync leaves
//! the disk with the unlink either done or undone; both states must
//! recover.
//!
//! Alone in its binary: the crash-point registry is process-global, so
//! an armed `segment.retire.post_unlink` would trip the checkpoint of
//! any test running beside this one.

mod retirement_support;

use dali_common::RecId;
use dali_engine::DaliEngine;
use dali_faultinject::crashpoint;
use retirement_support::{assert_recovers, config_for, run_cycles, tmpdir};
use std::collections::HashMap;

#[test]
fn crash_during_retirement_recovers_in_both_unlink_states() {
    let _guard = crashpoint::ScopedCrashpoints::new();
    let dir = tmpdir("crash");
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
    // Two full cycles so both checkpoint metas exist and sealed segments
    // sit below the retirement horizon.
    run_cycles(&db, &recs, &mut expected, 0..2);

    run_cycles(&db, &recs, &mut expected, 2..3); // work for the tripping ckpt

    // Snapshot the directory immediately before the checkpoint whose
    // retirement trips: any segment that retirement can unlink is sealed
    // and fully durable by now, so its snapshot copy is byte-complete
    // and can be restored for the "unlink was lost" post-crash state.
    let pre = tmpdir("crash-pre");
    dali_testutil::copy_dir(&dir, &pre);
    crashpoint::arm("segment.retire.post_unlink");
    let err = db.checkpoint().unwrap_err();
    assert!(
        err.to_string().contains("crash point tripped"),
        "unexpected error: {err}"
    );
    db.crash();
    assert!(!crashpoint::is_armed("segment.retire.post_unlink"));

    // Post-crash state A: the unlink persisted.
    let persisted = tmpdir("crash-persisted");
    dali_testutil::copy_dir(&dir, &persisted);
    assert_recovers(&persisted, &expected);

    // Post-crash state B: the unlink was lost — the segment file
    // reappears. Recovery ignores it (it is wholly below the checkpoint
    // horizon) and the next checkpoint simply retires it again.
    let reverted = tmpdir("crash-reverted");
    dali_testutil::copy_dir(&dir, &reverted);
    let rev_log = reverted.join("system.log");
    let pre_log = pre.join("system.log");
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
    assert_recovers(&reverted, &expected);

    assert!(
        !crashpoint::any_armed(),
        "no crash point may outlive the test"
    );
}
