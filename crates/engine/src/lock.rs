//! Record lock manager: strict two-phase locking on record ids, sharded
//! by record-id hash.
//!
//! Transactions acquire shared locks to read and exclusive locks to
//! write; all locks are held until commit or abort. Shared→exclusive
//! upgrade is granted when the requester is the sole holder.
//!
//! The lock table is split into `shards` independent shards (each a
//! mutex-guarded map plus a condvar), selected by a multiplicative hash
//! of the record id, so disjoint workloads — like partitioned TPC-B —
//! never serialize on a single table mutex. [`LockManager::unlock_all`]
//! sweeps the shards one at a time; it never holds more than one shard
//! lock, so release cannot deadlock against concurrent acquirers.
//!
//! Deadlocks are resolved two ways:
//!
//! * **Timeout** ([`dali_common::DaliConfig::lock_timeout`]), always on:
//!   a request that cannot be granted within the timeout fails with
//!   [`DaliError::LockDenied`] and the caller is expected to abort.
//! * **Wait-for-graph detection**, optional
//!   ([`dali_common::DaliConfig::deadlock_detect_interval`]): each
//!   blocked transaction registers the record it waits on; every
//!   interval, a blocked waiter walks waiter→holder edges looking for a
//!   cycle reachable from itself. If one exists, the *youngest*
//!   transaction in the cycle (largest [`TxnId`] — least work lost) is
//!   doomed and fails its pending request with `LockDenied` within
//!   milliseconds instead of burning the full timeout. Edges are
//!   snapshotted one shard at a time, so a check can observe a stale
//!   cycle that has since dissolved; the only consequence is a spurious
//!   `LockDenied`, which callers already treat as "abort and retry".
//!
//! Strict 2PL matters beyond isolation here: the delete-transaction
//! recovery correctness argument (paper §4.3 Discussion) relies on
//! conflicting operations reaching the log in conflict order, which strict
//! record locks guarantee even with Dali-style local logging.

use dali_common::{DaliError, RecId, Result, TxnId};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Lock mode.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

#[derive(Debug, Default)]
struct LockState {
    /// Current holders with their strongest granted mode.
    holders: Vec<(TxnId, LockMode)>,
}

impl LockState {
    fn can_grant(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self
                .holders
                .iter()
                .all(|&(t, m)| t == txn || m == LockMode::Shared),
            LockMode::Exclusive => self.holders.iter().all(|&(t, _)| t == txn),
        }
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        if let Some(h) = self.holders.iter_mut().find(|(t, _)| *t == txn) {
            if mode == LockMode::Exclusive {
                h.1 = LockMode::Exclusive;
            }
        } else {
            self.holders.push((txn, mode));
        }
    }
}

/// One shard of the lock table.
#[derive(Default)]
struct Shard {
    table: Mutex<HashMap<RecId, LockState>>,
    waiters: Condvar,
}

/// Deadlock-detector bookkeeping, shared across shards. Touched only on
/// the blocking path (and once per `unlock_all` when detection is on),
/// never on an immediately-granted request.
#[derive(Default)]
struct DetectorState {
    /// The record each blocked transaction is waiting on.
    waiting: HashMap<TxnId, RecId>,
    /// Transactions picked as deadlock victims; each fails its pending
    /// lock request with `LockDenied` at its next wake-up.
    doomed: HashSet<TxnId>,
}

/// The sharded lock table.
pub struct LockManager {
    shards: Box<[Shard]>,
    timeout: Duration,
    /// `Some(interval)`: blocked waiters run a wait-for-graph cycle check
    /// every `interval`. `None`: timeout is the only deadlock resolution.
    detect_every: Option<Duration>,
    detector: Mutex<DetectorState>,
}

impl LockManager {
    /// Single-shard manager with timeout-only deadlock resolution.
    pub fn new(timeout: Duration) -> LockManager {
        LockManager::with_config(timeout, 1, None)
    }

    /// Manager with `shards` shards (rounded up to a power of two) and
    /// optional wait-for-graph deadlock detection.
    pub fn with_config(
        timeout: Duration,
        shards: usize,
        detect_every: Option<Duration>,
    ) -> LockManager {
        let n = shards.max(1).next_power_of_two();
        LockManager {
            shards: (0..n).map(|_| Shard::default()).collect(),
            timeout,
            detect_every,
            detector: Mutex::new(DetectorState::default()),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index for a record: multiplicative (Fibonacci) hash of the
    /// (table, slot) pair, so consecutive slots spread across shards.
    #[inline]
    fn shard_of(&self, rec: RecId) -> usize {
        let key = ((rec.table.0 as u64) << 32) | rec.slot.0 as u64;
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (self.shards.len() - 1)
    }

    /// Remove `rec`'s entry if it has no holders (a waiter's
    /// `or_default` insertion must not outlive the wait — without this,
    /// denied requests leak empty [`LockState`]s over long runs).
    fn drop_if_empty(table: &mut HashMap<RecId, LockState>, rec: RecId) {
        if table.get(&rec).is_some_and(|s| s.holders.is_empty()) {
            table.remove(&rec);
        }
    }

    /// Deregister `txn` from the detector (it is no longer blocked); also
    /// clears a doomed flag that raced with the grant.
    fn stop_waiting(&self, txn: TxnId) {
        let mut det = self.detector.lock();
        det.waiting.remove(&txn);
        det.doomed.remove(&txn);
    }

    /// Acquire `rec` in `mode` for `txn`. Reentrant: re-requesting a held
    /// mode (or a weaker one) succeeds immediately; shared→exclusive
    /// upgrades wait for other readers to drain.
    pub fn lock(&self, txn: TxnId, rec: RecId, mode: LockMode) -> Result<()> {
        let deadline = Instant::now() + self.timeout;
        let shard = &self.shards[self.shard_of(rec)];
        let mut table = shard.table.lock();
        let mut waiting = false;
        loop {
            let state = table.entry(rec).or_default();
            let granted = match state.holders.iter().find(|(t, _)| *t == txn) {
                // Already holding a sufficient mode?
                Some(&(_, held)) if held == LockMode::Exclusive || mode == LockMode::Shared => true,
                _ if state.can_grant(txn, mode) => {
                    state.grant(txn, mode);
                    true
                }
                _ => false,
            };
            if granted {
                if waiting && self.detect_every.is_some() {
                    self.stop_waiting(txn);
                }
                return Ok(());
            }
            if !waiting && self.detect_every.is_some() {
                self.detector.lock().waiting.insert(txn, rec);
            }
            waiting = true;
            // With detection on, wake every interval to run a cycle check
            // even if nobody releases.
            let slice = match self.detect_every {
                Some(iv) => deadline.min(Instant::now() + iv),
                None => deadline,
            };
            let slice_timed_out = shard.waiters.wait_until(&mut table, slice).timed_out();
            if self.detect_every.is_some() && self.detector.lock().doomed.contains(&txn) {
                self.stop_waiting(txn);
                Self::drop_if_empty(&mut table, rec);
                return Err(DaliError::LockDenied { txn, rec });
            }
            if slice_timed_out {
                if Instant::now() >= deadline {
                    if waiting && self.detect_every.is_some() {
                        self.stop_waiting(txn);
                    }
                    Self::drop_if_empty(&mut table, rec);
                    return Err(DaliError::LockDenied { txn, rec });
                }
                // Interval expired before the timeout: walk the wait-for
                // graph. The shard lock is released during the walk (the
                // detector locks shards one at a time).
                drop(table);
                let doomed_self = self.detect_and_resolve(txn);
                table = shard.table.lock();
                if doomed_self {
                    self.stop_waiting(txn);
                    Self::drop_if_empty(&mut table, rec);
                    return Err(DaliError::LockDenied { txn, rec });
                }
            }
        }
    }

    /// Walk the wait-for graph from `me`; if a cycle is reachable, doom
    /// the youngest transaction in it. Returns true when the victim is
    /// `me` (the caller fails its own request; other victims are woken
    /// and fail theirs).
    fn detect_and_resolve(&self, me: TxnId) -> bool {
        let waiting: Vec<(TxnId, RecId)> = {
            let det = self.detector.lock();
            det.waiting.iter().map(|(&t, &r)| (t, r)).collect()
        };
        // waiter → holders edges, snapshotted one shard at a time. The
        // snapshot can be stale (see module docs); staleness only ever
        // costs a spurious LockDenied, never a missed *persistent*
        // deadlock — a cycle that truly persists is re-found by the next
        // interval check.
        let mut edges: HashMap<TxnId, Vec<TxnId>> = HashMap::with_capacity(waiting.len());
        for &(w, rec) in &waiting {
            let table = self.shards[self.shard_of(rec)].table.lock();
            if let Some(state) = table.get(&rec) {
                edges.insert(
                    w,
                    state
                        .holders
                        .iter()
                        .map(|&(t, _)| t)
                        .filter(|&t| t != w)
                        .collect(),
                );
            }
        }
        let Some(cycle) = find_cycle(&edges, me) else {
            return false;
        };
        // Validate the cycle against fresh state before dooming anyone.
        // A genuine deadlock is stable — every member stays blocked on
        // the same record and every edge persists — while a phantom
        // cycle assembled from a stale multi-shard snapshot almost never
        // re-verifies. This keeps spurious victim aborts (and the
        // wasted-work retries they cause) near zero.
        let regs: HashMap<TxnId, RecId> = waiting.iter().copied().collect();
        {
            let det = self.detector.lock();
            for m in &cycle {
                if det.waiting.get(m) != regs.get(m) {
                    return false;
                }
            }
        }
        for (i, &a) in cycle.iter().enumerate() {
            let b = cycle[(i + 1) % cycle.len()];
            let rec = regs[&a];
            let table = self.shards[self.shard_of(rec)].table.lock();
            let edge_holds = table
                .get(&rec)
                .is_some_and(|s| s.holders.iter().any(|&(t, _)| t == b));
            if !edge_holds {
                return false;
            }
        }
        // Youngest transaction = largest TxnId (txn ids are allocated
        // monotonically), i.e. the least work lost.
        let victim = *cycle.iter().max().expect("cycle is non-empty");
        let mut det = self.detector.lock();
        // Doom only if the victim is still blocked; it may have been
        // granted since the snapshot.
        let Some(&vrec) = det.waiting.get(&victim) else {
            return false;
        };
        det.doomed.insert(victim);
        drop(det);
        if victim == me {
            return true;
        }
        self.shards[self.shard_of(vrec)].waiters.notify_all();
        false
    }

    /// Release every lock held by `txn` (end of transaction, strict 2PL).
    /// Sweeps the shards one at a time — release never holds more than
    /// one shard lock — and drops lock states that end up with no
    /// holders, so the table shrinks back as transactions finish.
    pub fn unlock_all(&self, txn: TxnId) {
        for shard in &self.shards {
            let mut changed = false;
            let mut table = shard.table.lock();
            table.retain(|_, state| {
                let before = state.holders.len();
                state.holders.retain(|&(t, _)| t != txn);
                changed |= state.holders.len() != before;
                !state.holders.is_empty()
            });
            drop(table);
            if changed {
                shard.waiters.notify_all();
            }
        }
        if self.detect_every.is_some() {
            self.stop_waiting(txn);
        }
    }

    /// The strongest mode `txn` holds on `rec`, if any.
    pub fn held_mode(&self, txn: TxnId, rec: RecId) -> Option<LockMode> {
        let table = self.shards[self.shard_of(rec)].table.lock();
        table
            .get(&rec)
            .and_then(|s| s.holders.iter().find(|(t, _)| *t == txn).map(|&(_, m)| m))
    }

    /// Number of records currently locked (diagnostics). Sums the shards
    /// without holding them all at once, so the count is approximate
    /// under concurrent traffic and exact at quiescence.
    pub fn locked_records(&self) -> usize {
        self.shards.iter().map(|s| s.table.lock().len()).sum()
    }
}

/// Find a cycle in `edges` reachable from `start`; returns the cycle's
/// members. Iterative DFS with an explicit path so deep chains cannot
/// overflow the stack.
fn find_cycle(edges: &HashMap<TxnId, Vec<TxnId>>, start: TxnId) -> Option<Vec<TxnId>> {
    let mut path: Vec<TxnId> = vec![start];
    let mut cursors: Vec<usize> = vec![0];
    let mut visited: HashSet<TxnId> = HashSet::new();
    visited.insert(start);
    while let (Some(&node), Some(cursor)) = (path.last(), cursors.last_mut()) {
        let next = edges.get(&node).and_then(|succ| succ.get(*cursor)).copied();
        *cursor += 1;
        match next {
            Some(succ) => {
                if let Some(pos) = path.iter().position(|&t| t == succ) {
                    return Some(path[pos..].to_vec());
                }
                if visited.insert(succ) {
                    path.push(succ);
                    cursors.push(0);
                }
            }
            None => {
                path.pop();
                cursors.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::{SlotId, TableId};
    use std::sync::Arc;

    fn rec(n: u32) -> RecId {
        RecId::new(TableId(1), SlotId(n))
    }

    fn mgr() -> LockManager {
        LockManager::new(Duration::from_millis(100))
    }

    fn sharded() -> LockManager {
        LockManager::with_config(Duration::from_millis(100), 8, None)
    }

    #[test]
    fn shared_locks_coexist() {
        for m in [mgr(), sharded()] {
            m.lock(TxnId(1), rec(1), LockMode::Shared).unwrap();
            m.lock(TxnId(2), rec(1), LockMode::Shared).unwrap();
            assert_eq!(m.held_mode(TxnId(1), rec(1)), Some(LockMode::Shared));
            assert_eq!(m.held_mode(TxnId(2), rec(1)), Some(LockMode::Shared));
        }
    }

    #[test]
    fn exclusive_blocks_other_txn() {
        for m in [mgr(), sharded()] {
            m.lock(TxnId(1), rec(1), LockMode::Exclusive).unwrap();
            let err = m.lock(TxnId(2), rec(1), LockMode::Shared).unwrap_err();
            assert!(matches!(err, DaliError::LockDenied { .. }));
        }
    }

    #[test]
    fn reentrant_and_upgrade() {
        for m in [mgr(), sharded()] {
            m.lock(TxnId(1), rec(1), LockMode::Shared).unwrap();
            m.lock(TxnId(1), rec(1), LockMode::Shared).unwrap();
            // Sole reader can upgrade.
            m.lock(TxnId(1), rec(1), LockMode::Exclusive).unwrap();
            assert_eq!(m.held_mode(TxnId(1), rec(1)), Some(LockMode::Exclusive));
            // Exclusive holder can re-request shared.
            m.lock(TxnId(1), rec(1), LockMode::Shared).unwrap();
            assert_eq!(m.held_mode(TxnId(1), rec(1)), Some(LockMode::Exclusive));
        }
    }

    #[test]
    fn upgrade_blocked_by_second_reader() {
        for m in [mgr(), sharded()] {
            m.lock(TxnId(1), rec(1), LockMode::Shared).unwrap();
            m.lock(TxnId(2), rec(1), LockMode::Shared).unwrap();
            assert!(m.lock(TxnId(1), rec(1), LockMode::Exclusive).is_err());
        }
    }

    #[test]
    fn release_wakes_waiter() {
        let m = Arc::new(LockManager::with_config(Duration::from_secs(5), 8, None));
        m.lock(TxnId(1), rec(1), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.lock(TxnId(2), rec(1), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(30));
        m.unlock_all(TxnId(1));
        h.join().unwrap().unwrap();
        assert_eq!(m.held_mode(TxnId(2), rec(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn unlock_all_clears_table() {
        for m in [mgr(), sharded()] {
            m.lock(TxnId(1), rec(1), LockMode::Exclusive).unwrap();
            m.lock(TxnId(1), rec(2), LockMode::Shared).unwrap();
            m.unlock_all(TxnId(1));
            assert_eq!(m.locked_records(), 0);
            assert_eq!(m.held_mode(TxnId(1), rec(1)), None);
        }
    }

    #[test]
    fn different_records_do_not_conflict() {
        for m in [mgr(), sharded()] {
            m.lock(TxnId(1), rec(1), LockMode::Exclusive).unwrap();
            m.lock(TxnId(2), rec(2), LockMode::Exclusive).unwrap();
        }
    }

    #[test]
    fn shard_spread_covers_multiple_shards() {
        let m = sharded();
        let hit: HashSet<usize> = (0..64u32).map(|n| m.shard_of(rec(n))).collect();
        assert!(hit.len() > 1, "64 records all hashed to one shard");
    }

    #[test]
    fn denied_requests_leave_no_empty_states() {
        // Regression: a waiter's or_default entry must not survive its
        // denial — the table must return to exactly the held set.
        for m in [mgr(), sharded()] {
            m.lock(TxnId(1), rec(1), LockMode::Exclusive).unwrap();
            for t in 2..10u64 {
                assert!(m.lock(TxnId(t), rec(1), LockMode::Shared).is_err());
                // Denied waits on *unheld* records must vanish entirely.
                assert!(m
                    .lock(TxnId(1), rec(100 + t as u32), LockMode::Shared)
                    .is_ok());
            }
            m.unlock_all(TxnId(1));
            assert_eq!(m.locked_records(), 0, "empty LockStates leaked");
        }
    }

    #[test]
    fn deadlock_resolved_by_timeout() {
        let m = Arc::new(LockManager::new(Duration::from_millis(80)));
        m.lock(TxnId(1), rec(1), LockMode::Exclusive).unwrap();
        m.lock(TxnId(2), rec(2), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.lock(TxnId(2), rec(1), LockMode::Exclusive));
        let r1 = m.lock(TxnId(1), rec(2), LockMode::Exclusive);
        let r2 = h.join().unwrap();
        // At least one side must time out.
        assert!(r1.is_err() || r2.is_err());
    }

    #[test]
    fn deadlock_resolved_by_detector_dooms_youngest() {
        // Long timeout: only the detector can resolve this in time.
        let m = Arc::new(LockManager::with_config(
            Duration::from_secs(30),
            4,
            Some(Duration::from_millis(2)),
        ));
        m.lock(TxnId(1), rec(1), LockMode::Exclusive).unwrap();
        m.lock(TxnId(2), rec(2), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            let r = m2.lock(TxnId(2), rec(1), LockMode::Exclusive);
            m2.unlock_all(TxnId(2));
            r
        });
        let start = Instant::now();
        let r1 = m.lock(TxnId(1), rec(2), LockMode::Exclusive);
        let r2 = h.join().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "detector did not beat the timeout"
        );
        // The youngest (TxnId 2) is the victim; the older txn survives.
        assert!(r1.is_ok(), "survivor was denied: {r1:?}");
        assert!(matches!(
            r2,
            Err(DaliError::LockDenied { txn: TxnId(2), .. })
        ));
        m.unlock_all(TxnId(1));
        assert_eq!(m.locked_records(), 0);
    }

    #[test]
    fn find_cycle_basics() {
        let t = TxnId;
        let mut e: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        e.insert(t(1), vec![t(2)]);
        e.insert(t(2), vec![t(3)]);
        assert!(find_cycle(&e, t(1)).is_none());
        e.insert(t(3), vec![t(1)]);
        let mut c = find_cycle(&e, t(1)).unwrap();
        c.sort();
        assert_eq!(c, vec![t(1), t(2), t(3)]);
        // A cycle not containing the start is still found when reachable.
        let mut e2: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        e2.insert(t(9), vec![t(1)]);
        e2.insert(t(1), vec![t(2)]);
        e2.insert(t(2), vec![t(1)]);
        let mut c2 = find_cycle(&e2, t(9)).unwrap();
        c2.sort();
        assert_eq!(c2, vec![t(1), t(2)]);
    }
}
