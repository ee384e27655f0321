//! Checkpoint-anchor durability under a crash between the anchor rename
//! and the directory fsync that makes the rename durable.
//!
//! `atomic_write` renames the new anchor over the old and then fsyncs
//! the parent directory. A crash inside that window leaves the disk in
//! one of two states: the rename persisted (new anchor) or it was lost
//! (old anchor resurfaces). Either way the anchor must name a
//! *certified* checkpoint and recovery must reproduce every committed
//! transaction — the older anchor simply replays a longer log tail.
//!
//! The `atomic_write.post_rename` crash point is armed to trip on its
//! third occurrence within the checkpoint (the first is the parity-stripe
//! write, the second the meta write, the third the anchor write). Crash
//! points belong to the engine they are armed on: the last test runs two
//! engines' checkpoints concurrently and only the armed one trips.

use dali_common::{DaliConfig, ProtectionScheme, RecId};
use dali_engine::DaliEngine;
use dali_testutil::{copy_dir, TempDir};

fn assert_recovers(dir: &std::path::Path, expected: &[(RecId, Vec<u8>)]) {
    let config = DaliConfig::small(dir).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _outcome) = DaliEngine::open(config).unwrap();
    // The anchor named a certified image: the database opens and every
    // committed record is present with its committed value.
    let txn = db.begin().unwrap();
    for (rec, val) in expected {
        assert_eq!(&txn.read_vec(*rec).unwrap(), val, "record {rec:?}");
    }
    txn.commit().unwrap();
    // And the recovered database is itself audit-clean.
    assert!(db.audit().unwrap().clean());
}

#[test]
fn crash_between_anchor_rename_and_dir_sync_recovers_both_ways() {
    let dir = TempDir::new("anchor");
    let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
    let (db, _) = DaliEngine::create(config).unwrap();
    let t = db.create_table("t", 32, 16).unwrap();

    // Transaction 1, then a certified checkpoint (anchor → image 0).
    let txn = db.begin().unwrap();
    let r1 = txn.insert(t, &[0x11; 32]).unwrap();
    txn.commit().unwrap();
    db.checkpoint().unwrap();
    // The parity stripe is rebuilt from the image at restart, never
    // persisted beside it.
    let files: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(files.iter().all(|f| !f.ends_with(".parity")), "{files:?}");
    let anchor_path = dir.path().join("cur_ckpt");
    let old_anchor = std::fs::read(&anchor_path).unwrap();

    // Transaction 2, committed but only checkpointed by the attempt that
    // crashes mid-anchor-write.
    let txn = db.begin().unwrap();
    let r2 = txn.insert(t, &[0x22; 32]).unwrap();
    txn.commit().unwrap();

    // Arm the second atomic_write of the checkpoint: the meta write
    // passes, the anchor write trips *after* its rename, *before* the
    // directory sync.
    db.crash_points().arm_after("atomic_write.post_rename", 1);
    let err = db.checkpoint().unwrap_err();
    assert!(
        err.to_string().contains("crash point tripped"),
        "unexpected error: {err}"
    );
    assert!(!db.crash_points().is_armed("atomic_write.post_rename"));
    db.crash();

    let expected = vec![(r1, vec![0x11; 32]), (r2, vec![0x22; 32])];
    let new_anchor = std::fs::read(&anchor_path).unwrap();
    assert_ne!(old_anchor, new_anchor, "the rename itself happened");

    // Post-crash state A: the rename persisted — the anchor names the
    // just-written (fully certified: pages + audit + meta all preceded
    // the anchor write) image.
    let persisted = TempDir::new("anchor-persisted");
    copy_dir(dir.path(), persisted.path());
    assert_recovers(persisted.path(), &expected);

    // Post-crash state B: the unsynced rename was lost — the previous
    // anchor resurfaces and recovery replays the longer log tail from
    // the older certified checkpoint.
    let reverted = TempDir::new("anchor-reverted");
    copy_dir(dir.path(), reverted.path());
    std::fs::write(reverted.path().join("cur_ckpt"), &old_anchor).unwrap();
    assert_recovers(reverted.path(), &expected);
}

#[test]
fn a_point_armed_on_one_engine_never_trips_another() {
    let open = |name: &str| {
        let dir = TempDir::new(name);
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::DataCodeword);
        let (db, _) = DaliEngine::create(config).unwrap();
        let t = db.create_table("t", 32, 16).unwrap();
        let txn = db.begin().unwrap();
        txn.insert(t, &[0x33; 32]).unwrap();
        txn.commit().unwrap();
        (db, dir)
    };
    let ((a, _dir_a), (b, _dir_b)) = (open("iso-a"), open("iso-b"));

    // Both checkpoints pass every `atomic_write.post_rename` check while
    // A's point is armed; the barrier puts them there together.
    a.crash_points().arm("atomic_write.post_rename");
    let start = std::sync::Barrier::new(2);
    let (res_a, res_b) = std::thread::scope(|s| {
        let ta = s.spawn(|| {
            start.wait();
            a.checkpoint()
        });
        let tb = s.spawn(|| {
            start.wait();
            b.checkpoint()
        });
        (ta.join().unwrap(), tb.join().unwrap())
    });

    let err = res_a.unwrap_err();
    assert!(
        err.to_string().contains("crash point tripped"),
        "unexpected error: {err}"
    );
    res_b.expect("B's checkpoint tripped a point armed on A");
    assert!(!b.crash_points().is_armed("atomic_write.post_rename"));
    assert!(!a.crash_points().is_armed("atomic_write.post_rename"));
    // B carries on; A is where its crash left it.
    b.checkpoint().unwrap();
    assert!(b.audit().unwrap().clean());
}
