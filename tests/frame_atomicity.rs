//! An operation's frame and a rollback's frame are applied whole or not
//! at all.
//!
//! Restart redo reads the log one frame at a time, and a frame a crash
//! cut short fails its checksum, so it reads as a torn final flush: none
//! of it is applied. Cut inside the last operation's frame, restart must
//! leave the image as the log before that frame leaves it; cut inside the
//! last rollback's frame, it must roll that transaction back itself. Cut
//! at a frame's end, the frame is applied. Every commit before the cut is
//! kept either way, and the audit is clean.

use dali::wal::{segment, LogReader, LogRecordRef};
use dali::{
    DaliConfig, DaliEngine, DaliError, DbAddr, Lsn, ProtectionScheme, RecId, TableId, TxnId,
};
use dali_testutil::TempDir;
use std::ops::{ControlFlow, Range};
use std::path::Path;

const REC: usize = 100;

fn config(dir: &Path) -> DaliConfig {
    DaliConfig::small(dir).with_scheme(ProtectionScheme::DataCodeword)
}

/// What one restart of a cut log left.
struct Recovered {
    image: Vec<u8>,
    rolled_back: Vec<TxnId>,
    /// Each record's committed value, `None` if it is not allocated.
    values: Vec<Option<Vec<u8>>>,
}

/// Restart a copy of `crashed` whose log is cut at `cut`.
fn recover(crashed: &Path, cut: Lsn, recs: &[RecId]) -> Recovered {
    let case = TempDir::new("frame-cut");
    dali_testutil::copy_dir(crashed, case.path());
    segment::truncate_at(&case.path().join("system.log"), cut).unwrap();
    let (engine, outcome) = DaliEngine::open(config(case.path())).unwrap();
    assert!(engine.audit().unwrap().clean(), "cut at {cut}");
    let db = engine.db();
    let mut image = vec![0u8; db.image.len()];
    db.image.read(DbAddr(0), &mut image).unwrap();
    let check = engine.begin().unwrap();
    let values = recs
        .iter()
        .map(|&r| match check.read_vec(r) {
            Ok(v) => Some(v),
            Err(DaliError::NotFound(_)) => None,
            Err(e) => panic!("cut at {cut}: {e}"),
        })
        .collect();
    check.commit().unwrap();
    engine.crash();
    Recovered {
        image,
        rolled_back: outcome.rolled_back_txns,
        values,
    }
}

/// The byte range of the last frame of `txn` that `pick` accepts.
fn last_frame(dir: &Path, txn: TxnId, pick: fn(&LogRecordRef<'_>) -> bool) -> Range<Lsn> {
    let kind = config(dir).codeword_algebra;
    let mut found = None;
    LogReader::open(dir.join("system.log"), Lsn::ZERO, kind)
        .unwrap()
        .for_each_segment(|seg| {
            let mut frames = seg.records();
            while let Some((lsn, rec)) = frames.next() {
                if rec.txn() == Some(txn) && pick(&rec) {
                    found = Some(lsn..frames.next_lsn());
                }
            }
            Ok(ControlFlow::Continue(()))
        })
        .unwrap();
    found.expect("the frame is in the log")
}

#[test]
fn a_frame_cut_anywhere_is_applied_whole_or_not_at_all() {
    let dir = TempDir::new("frame-atomicity");
    let (engine, _) = DaliEngine::create(config(dir.path())).unwrap();
    let t: TableId = engine.create_table("t", REC, 16).unwrap();
    let setup = engine.begin().unwrap();
    let mut recs: Vec<RecId> = (0..4u8)
        .map(|i| setup.insert(t, &[i; REC]).unwrap())
        .collect();
    setup.commit().unwrap();
    // A commit just before the frames under test.
    let a = engine.begin().unwrap();
    a.update(recs[0], &[0xA; REC]).unwrap();
    a.commit().unwrap();
    // C's rollback frame restores an update and a delete.
    let c = engine.begin().unwrap();
    let c_id = c.id();
    c.update(recs[1], &[0xC; REC]).unwrap();
    c.delete(recs[2]).unwrap();
    c.abort().unwrap();
    // B's insert is the last operation frame: a bitmap word and the
    // record, left open at the crash.
    let b = engine.begin().unwrap();
    let b_id = b.id();
    recs.push(b.insert(t, &[0xB; REC]).unwrap());
    engine.db().syslog.flush(true).unwrap();
    engine.crash();
    drop(b);
    assert_eq!(
        segment::list(&dir.path().join("system.log")).unwrap().len(),
        1
    );

    let committed = |r: &Recovered| {
        assert_eq!(r.values[0].as_deref(), Some(&[0xA; REC][..]));
        assert_eq!(r.values[1].as_deref(), Some(&[1; REC][..]));
        assert_eq!(r.values[2].as_deref(), Some(&[2; REC][..]));
        assert_eq!(r.values[3].as_deref(), Some(&[3; REC][..]));
        assert_eq!(r.values[4], None);
    };

    // The operation frame: B began before it, so every restart rolls B
    // back; only a whole frame leaves its record bytes in the slot the
    // rollback frees.
    let op = last_frame(dir.path(), b_id, |r| matches!(r, LogRecordRef::Op { .. }));
    let none = recover(dir.path(), op.start, &recs);
    let whole = recover(dir.path(), op.end, &recs);
    assert_ne!(none.image, whole.image, "the frame's writes show");
    for r in [&none, &whole] {
        committed(r);
        assert_eq!(r.rolled_back, [b_id]);
    }
    for cut in op.start.0 + 1..op.end.0 {
        let r = recover(dir.path(), Lsn(cut), &recs);
        committed(&r);
        assert_eq!(r.rolled_back, [b_id], "cut at {cut}");
        assert!(
            r.image == none.image,
            "cut at {cut}: part of the frame applied"
        );
    }

    // The rollback frame, C's abort: whole, it ends C; cut, C is still
    // open and restart rolls it back from its operations' undo.
    let abort = last_frame(
        dir.path(),
        c_id,
        |r| matches!(r, LogRecordRef::TxnAbort { entries, .. } if !entries.is_empty()),
    );
    let whole = recover(dir.path(), abort.end, &recs);
    committed(&whole);
    assert!(whole.rolled_back.is_empty());
    for cut in abort.start.0 + 1..abort.end.0 {
        let r = recover(dir.path(), Lsn(cut), &recs);
        committed(&r);
        assert_eq!(r.rolled_back, [c_id], "cut at {cut}");
        assert!(r.image == whole.image, "cut at {cut}");
    }
}
