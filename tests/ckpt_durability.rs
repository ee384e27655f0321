//! A checkpoint that fails part-way must leave both images usable for
//! what they still claim to be.
//!
//! Each failure is made with plain file-system means: a directory where
//! the checkpointer expects a file makes its `open` fail with `EISDIR`.
//! Crashes anywhere in the checkpoint protocol are the crash simulator's
//! (`tests/crash_sim.rs`); these two are the sequences it first found,
//! pinned.

use dali_common::{DaliConfig, Lsn, ProtectionScheme, RecId};
use dali_engine::{CheckpointOutcome, DaliEngine};
use dali_testutil::TempDir;
use std::path::Path;

fn config(dir: &Path) -> DaliConfig {
    let mut c = DaliConfig::small(dir).with_scheme(ProtectionScheme::DataCodeword);
    c.db_pages = 16;
    c
}

fn write(db: &DaliEngine, rec: RecId, byte: u8) {
    let txn = db.begin().unwrap();
    txn.update(rec, &[byte; 32]).unwrap();
    txn.commit().unwrap();
}

fn read(db: &DaliEngine, rec: RecId) -> u8 {
    let txn = db.begin().unwrap();
    let value = txn.read_vec(rec).unwrap()[0];
    txn.commit().unwrap();
    value
}

fn certified(db: &DaliEngine) -> (Lsn, usize) {
    match db.checkpoint().unwrap() {
        CheckpointOutcome::Certified {
            ck_end,
            pages_written,
        } => (ck_end, pages_written),
        other => panic!("checkpoint not certified: {other:?}"),
    }
}

/// Run `f` with a directory standing where each of `names` is expected
/// (existing files are moved aside and put back afterwards).
fn with_directories_at<T>(dir: &Path, names: &[&str], f: impl FnOnce() -> T) -> T {
    for name in names {
        let path = dir.join(name);
        if path.exists() {
            std::fs::rename(&path, dir.join(format!("{name}.aside"))).unwrap();
        }
        std::fs::create_dir(&path).unwrap();
    }
    let out = f();
    for name in names {
        let path = dir.join(name);
        std::fs::remove_dir(&path).unwrap();
        let aside = dir.join(format!("{name}.aside"));
        if aside.exists() {
            std::fs::rename(aside, path).unwrap();
        }
    }
    out
}

/// A checkpoint that fails after draining the dirty-page set must hand
/// the pages back: otherwise the next checkpoint to the same image skips
/// them and certifies an image that still holds an older value.
#[test]
fn a_failed_checkpoint_keeps_its_dirty_pages_for_the_next() {
    let scratch = TempDir::new("ckpt-refail");
    let dir = scratch.path();
    let (db, _) = DaliEngine::create(config(dir)).unwrap();
    let t = db.create_table("t", 32, 8).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &[b'A'; 32]).unwrap();
    txn.commit().unwrap();
    certified(&db);
    write(&db, rec, b'B');
    certified(&db);
    write(&db, rec, b'C');

    let images = ["ckpt_a.img", "ckpt_b.img"];
    let failed = with_directories_at(dir, &images, || db.checkpoint());
    assert!(failed.is_err(), "{failed:?}");
    let (_, pages_written) = certified(&db);
    assert!(pages_written > 0, "the drained pages were dropped");

    db.crash();
    let (db, _) = DaliEngine::open(config(dir)).unwrap();
    assert_eq!(read(&db, rec), b'C');
    assert!(db.audit().unwrap().clean());
}

/// A checkpoint that dies between its page writes and its meta write
/// leaves an image whose old meta no longer describes it. Prior-state
/// recovery must refuse that image, not replay onto it.
#[test]
fn prior_state_refuses_an_image_a_later_checkpoint_began_to_overwrite() {
    let scratch = TempDir::new("ckpt-stale-meta");
    let dir = scratch.path();
    let (db, _) = DaliEngine::create(config(dir)).unwrap();
    let t = db.create_table("t", 32, 8).unwrap();
    let txn = db.begin().unwrap();
    let rec = txn.insert(t, &[b'A'; 32]).unwrap();
    txn.commit().unwrap();
    let (e1, _) = certified(&db);
    write(&db, rec, b'B');
    certified(&db);
    write(&db, rec, b'C');

    let temps = ["ckpt_a.tmp", "ckpt_b.tmp"];
    let failed = with_directories_at(dir, &temps, || db.checkpoint());
    assert!(failed.is_err(), "{failed:?}");
    db.crash();

    match DaliEngine::open_prior_state(config(dir), e1) {
        Ok((db, _)) => panic!(
            "recovered {:?} from a half-written image",
            read(&db, rec) as char
        ),
        Err(e) => assert!(e.to_string().contains("old enough"), "{e}"),
    }
    // The database itself is intact: the anchored checkpoint was never
    // touched.
    let (db, _) = DaliEngine::open(config(dir)).unwrap();
    assert_eq!(read(&db, rec), b'C');
}
