//! Background deferred-maintenance drainer.
//!
//! The deferred scheme lets the codeword table lag the image by whatever
//! sits in the sharded dirty set. (The parity stripe has no queue: it is
//! maintained eagerly inside every update, so it never needs draining.)
//! Audits catch up incrementally on their
//! own, and the per-shard watermark backstops runaway growth, but
//! between audits an unbounded lag means more catch-up work at the worst
//! time (inside the audit's latch). When
//! `DaliConfig::deferred_drain_interval` is set, this thread drains the
//! whole dirty set every interval, shard by shard — no latches, no
//! quiesce: queued deltas are always safe to apply because each was
//! enqueued strictly after its image bytes landed, and the table write
//! is an atomic `fetch_xor`.
//!
//! Lifecycle: the thread holds only a `Weak<Db>`, upgrading per tick, so
//! it never keeps the database alive; it exits when the last engine
//! handle drops or the engine is poisoned (crash simulation).

use crate::db::Db;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

/// Spawn the drainer for `db` if a drain interval is configured and the
/// scheme defers codeword maintenance. Detached: exits on its own when
/// the database goes away.
pub(crate) fn spawn_drainer(db: &Arc<Db>) {
    let interval = match db.config.deferred_drain_interval {
        Some(i) if db.config.scheme.defers_maintenance() && !i.is_zero() => i,
        _ => return,
    };
    let weak: Weak<Db> = Arc::downgrade(db);
    let _ = std::thread::Builder::new()
        .name("dali-deferred-drain".into())
        .spawn(move || loop {
            std::thread::sleep(interval);
            let Some(db) = weak.upgrade() else { break };
            if db.crashed.load(Ordering::Acquire) {
                break;
            }
            db.prot.drain_deferred();
        });
}

#[cfg(test)]
mod tests {
    use dali_common::{DaliConfig, ProtectionScheme};
    use dali_testutil::TempDir;
    use std::time::{Duration, Instant};

    #[test]
    fn background_drainer_empties_dirty_set() {
        let tmp = TempDir::new("bg-drain");
        let config = DaliConfig::small(tmp.path())
            .with_scheme(ProtectionScheme::DeferredMaintenance)
            .with_deferred_drain_interval(Some(Duration::from_millis(1)));
        let (engine, _) = crate::DaliEngine::create(config).unwrap();
        let t = engine.create_table("t", 16, 64).unwrap();
        let txn = engine.begin().unwrap();
        let rec = txn.insert(t, &[7u8; 16]).unwrap();
        txn.update(rec, &[8u8; 16]).unwrap();
        txn.commit().unwrap();
        // The drainer should clear the queue without any audit.
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.deferred_stats().pending_deltas > 0 {
            assert!(Instant::now() < deadline, "drainer never caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = engine.deferred_stats();
        assert_eq!(stats.dirty_regions, 0);
        assert!(stats.drains > 0);
    }

    #[test]
    fn drainer_disabled_when_interval_none() {
        let tmp = TempDir::new("bg-drain-off");
        let config = DaliConfig::small(tmp.path())
            .with_scheme(ProtectionScheme::DeferredMaintenance)
            .with_deferred_drain_interval(None)
            .with_deferred_watermark(0);
        let (engine, _) = crate::DaliEngine::create(config).unwrap();
        let t = engine.create_table("t", 16, 64).unwrap();
        let txn = engine.begin().unwrap();
        txn.insert(t, &[7u8; 16]).unwrap();
        txn.commit().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            engine.deferred_stats().pending_deltas > 0,
            "no drainer, no watermark: deltas stay queued until an audit"
        );
        assert!(engine.audit().unwrap().clean());
        assert_eq!(engine.deferred_stats().pending_deltas, 0);
    }
}
