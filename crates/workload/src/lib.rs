//! TPC-B style workload (paper §5.2).
//!
//! Four tables — Branch, Teller, Account, History — each with 100-byte
//! records. The paper's sizing: 100 000 accounts, 10 000 tellers, 1 000
//! branches (ratios deliberately changed from TPC-B to limit CPU-cache
//! effects on the small tables). An *operation* updates the balance field
//! of one account, one teller and one branch, and appends a History
//! record; transactions commit every 500 operations so commit cost does
//! not dominate. A run is 50 000 operations.
//!
//! The driver maintains the TPC-B consistency invariant — the sums of
//! account, teller and branch balances all equal the sum of history
//! deltas — which doubles as a whole-database integrity check after crash
//! and corruption recovery in the test suite.
//!
//! The transaction is written once, against the [`Session`] trait: an
//! [`EngineSession`] runs it in process, and `dali-net` implements
//! [`Session`] for its `DaliClient`, so the same driver runs over N
//! network connections.

pub mod records;

use dali_common::{DaliError, RecId, Result, SlotId, TableId};
use dali_engine::{DaliEngine, TxnHandle};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use records::{balance_of, encode_account, encode_branch, encode_history, encode_teller, REC_SIZE};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Workload sizing.
#[derive(Clone, Debug)]
pub struct TpcbConfig {
    pub accounts: usize,
    pub tellers: usize,
    pub branches: usize,
    /// Capacity of the history table (must hold every op of the run).
    pub history_capacity: usize,
    /// Operations per transaction (the paper commits every 500).
    pub ops_per_txn: usize,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl TpcbConfig {
    /// The paper's configuration: 100 000 / 10 000 / 1 000, 500 ops per
    /// transaction, sized for a 50 000-op run.
    pub fn paper() -> TpcbConfig {
        TpcbConfig {
            accounts: 100_000,
            tellers: 10_000,
            branches: 1_000,
            history_capacity: 60_000,
            ops_per_txn: 500,
            seed: 0xDA11,
        }
    }

    /// A small configuration for tests: same shape, ~1% of the size.
    pub fn small() -> TpcbConfig {
        TpcbConfig {
            accounts: 1_000,
            tellers: 100,
            branches: 10,
            history_capacity: 4_096,
            ops_per_txn: 50,
            seed: 0xDA11,
        }
    }

    /// Database pages needed to hold the four tables (with page-aligned
    /// bitmap and data extents) under the given page size.
    pub fn required_pages(&self, page_size: usize) -> usize {
        let table = |cap: usize| {
            let bitmap = cap.div_ceil(32) * 4;
            let data = cap * REC_SIZE;
            dali_common::align::round_up(bitmap, page_size)
                + dali_common::align::round_up(data, page_size)
        };
        let bytes = table(self.accounts)
            + table(self.tellers)
            + table(self.branches)
            + table(self.history_capacity)
            + 4 * page_size; // slack for alignment
        bytes.div_ceil(page_size)
    }

    /// Rows of the account, teller and branch tables.
    fn rows(&self) -> [usize; 3] {
        [self.accounts, self.tellers, self.branches]
    }
}

/// The four tables, in creation order; an operation touches the first
/// three in this order and appends to the fourth.
const TABLE_NAMES: [&str; 4] = ["account", "teller", "branch", "history"];

/// Record encoders of the account, teller and branch tables.
const ENCODE: [fn(u64, i64) -> Vec<u8>; 3] = [encode_account, encode_teller, encode_branch];

/// Row `i` of a table: population inserts rows in slot order.
fn row(table: TableId, i: usize) -> RecId {
    RecId::new(table, SlotId(i as u32))
}

/// Result of a timed run.
#[derive(Clone, Debug)]
pub struct RunStats {
    pub ops: usize,
    pub txns: usize,
    /// Wall-clock time from the first worker's start to the last's end.
    pub elapsed_secs: f64,
}

impl RunStats {
    /// Operations per second — the metric of Table 2.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed_secs
    }
}

/// The verbs a TPC-B transaction uses, on a connection that holds at most
/// one open transaction. Errors are the engine's structured
/// [`DaliError`]s however they travelled, so one
/// [`DaliError::LockDenied`] retry loop serves every implementation.
pub trait Session {
    /// Begin a transaction.
    fn begin(&mut self) -> Result<()>;
    /// Read a record (shared lock).
    fn read(&mut self, rec: RecId) -> Result<Vec<u8>>;
    /// Overwrite a record.
    fn update(&mut self, rec: RecId, data: &[u8]) -> Result<()>;
    /// Insert a record; returns its id.
    fn insert(&mut self, table: TableId, data: &[u8]) -> Result<RecId>;
    /// Delete a record.
    fn delete(&mut self, rec: RecId) -> Result<()>;
    /// Take a record's exclusive lock before reading it for update.
    fn lock_exclusive(&mut self, rec: RecId) -> Result<()>;
    /// Commit the open transaction.
    fn commit(&mut self) -> Result<()>;
    /// Abort the open transaction.
    fn abort(&mut self) -> Result<()>;
    /// Create a table (auto-committed DDL).
    fn create_table(&mut self, name: &str, rec_size: usize, capacity: usize) -> Result<TableId>;
    /// Look up a table id by name.
    fn table(&mut self, name: &str) -> Result<TableId>;
}

/// The in-process [`Session`]: an engine plus its one open transaction.
pub struct EngineSession {
    engine: DaliEngine,
    txn: Option<TxnHandle>,
}

impl EngineSession {
    /// A session on `engine` with no transaction open.
    pub fn new(engine: &DaliEngine) -> EngineSession {
        EngineSession {
            engine: engine.clone(),
            txn: None,
        }
    }

    fn txn(&self) -> Result<&TxnHandle> {
        self.txn.as_ref().ok_or_else(no_txn)
    }
}

fn no_txn() -> DaliError {
    DaliError::InvalidArg("no transaction open on session".into())
}

impl Session for EngineSession {
    fn begin(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(DaliError::InvalidArg(
                "transaction already open on session".into(),
            ));
        }
        self.txn = Some(self.engine.begin()?);
        Ok(())
    }

    fn read(&mut self, rec: RecId) -> Result<Vec<u8>> {
        self.txn()?.read_vec(rec)
    }

    fn update(&mut self, rec: RecId, data: &[u8]) -> Result<()> {
        self.txn()?.update(rec, data)
    }

    fn insert(&mut self, table: TableId, data: &[u8]) -> Result<RecId> {
        self.txn()?.insert(table, data)
    }

    fn delete(&mut self, rec: RecId) -> Result<()> {
        self.txn()?.delete(rec)
    }

    fn lock_exclusive(&mut self, rec: RecId) -> Result<()> {
        self.txn()?.lock_exclusive(rec)
    }

    fn commit(&mut self) -> Result<()> {
        self.txn.take().ok_or_else(no_txn)?.commit()
    }

    fn abort(&mut self) -> Result<()> {
        self.txn.take().ok_or_else(no_txn)?.abort()
    }

    fn create_table(&mut self, name: &str, rec_size: usize, capacity: usize) -> Result<TableId> {
        self.engine.create_table(name, rec_size, capacity)
    }

    fn table(&mut self, name: &str) -> Result<TableId> {
        self.engine.table(name)
    }
}

/// Worker `k`'s contiguous share of `n` row indices when a run is split
/// `workers` ways.
pub fn partition(n: usize, workers: usize, k: usize) -> Range<usize> {
    (k * n / workers)..((k + 1) * n / workers)
}

/// RNG seed of worker `k` for a run seeded with `seed`: each worker's
/// operation sequence depends only on its own stream, so a run's balance
/// sums do not depend on scheduling.
pub fn worker_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Lock denials one transaction may suffer before the run gives up.
const MAX_RETRIES: usize = 1_000;

/// Back-off before re-running a lock-denied transaction: a victim
/// restarts with a fresh (larger) TxnId, so the youngest-victim deadlock
/// policy dooms an immediate retry again in any repeat collision; a
/// short, growing pause breaks these retry storms. Sleeping changes only
/// timing, never the replayed operation sequence.
fn retry_backoff(retries: usize) {
    std::thread::sleep(Duration::from_micros(50u64 << retries.min(6)));
}

/// One session's share of a run: the rows it draws from, its own RNG
/// stream and its share of the history ring.
struct Worker<'a, S> {
    session: S,
    /// Account, teller and branch tables, and the rows of each this
    /// worker draws from.
    tables: [TableId; 3],
    rows: [Range<usize>; 3],
    history: TableId,
    ops_per_txn: usize,
    /// This worker's slice of the history table's capacity.
    ring_share: usize,
    rng: StdRng,
    /// Committed history records this worker may trim, oldest first.
    ring: VecDeque<RecId>,
    /// Shared monotonic op counter feeding history record ids.
    op_counter: &'a AtomicU64,
    /// Exclusive-lock each record before its read-modify-write: two
    /// workers sharing rows that take shared locks and then upgrade
    /// deadlock every time they collide. Workers that own disjoint rows
    /// keep the plain shared-read path.
    lock_for_update: bool,
    /// Operations and transactions committed so far.
    ops: usize,
    txns: usize,
}

impl<S: Session> Worker<'_, S> {
    /// Run `n` operations in transactions of `ops_per_txn`.
    fn run(&mut self, n: usize) -> Result<()> {
        while self.ops < n {
            let ops = self.ops_per_txn.min(n - self.ops);
            self.run_txn(ops)?;
            self.txns += 1;
            self.ops += ops;
        }
        Ok(())
    }

    /// Run one transaction of `ops` operations. A lock denial aborts it
    /// and re-runs it from the same RNG state, so every planned operation
    /// commits exactly once.
    fn run_txn(&mut self, ops: usize) -> Result<()> {
        // Circular history: once the ring nears its share, each operation
        // deletes the oldest record, leaving slack for the slots the
        // open transaction's deletes only free at commit.
        let margin = 2 * self.ops_per_txn + 64;
        let mut retries = 0;
        loop {
            let rng_snapshot = self.rng.clone();
            self.session.begin()?;
            // Ring changes are staged and applied only on commit, so an
            // aborted transaction leaves the ring (and RNG) untouched.
            let mut inserted: Vec<RecId> = Vec::with_capacity(ops);
            let mut drop_front = 0usize;
            let res = (|| -> Result<()> {
                for _ in 0..ops {
                    let rows: [usize; 3] =
                        std::array::from_fn(|i| self.rng.gen_range(self.rows[i].clone()));
                    let delta = self.rng.gen_range(-999_999i64..=999_999);
                    for ((table, i), encode) in self.tables.into_iter().zip(rows).zip(ENCODE) {
                        let rec = row(table, i);
                        if self.lock_for_update {
                            self.session.lock_exclusive(rec)?;
                        }
                        let bal = balance_of(&self.session.read(rec)?);
                        self.session.update(rec, &encode(i as u64, bal + delta))?;
                    }
                    let op = self.op_counter.fetch_add(1, Ordering::Relaxed);
                    let [a, t, b] = rows.map(|i| i as u64);
                    let history = encode_history(op, a, t, b, delta);
                    inserted.push(self.session.insert(self.history, &history)?);
                    let live = self.ring.len() - drop_front + inserted.len();
                    if live + margin >= self.ring_share && drop_front < self.ring.len() {
                        self.session.delete(self.ring[drop_front])?;
                        drop_front += 1;
                    }
                }
                Ok(())
            })();
            match res {
                Ok(()) => {
                    self.session.commit()?;
                    self.ring.drain(..drop_front);
                    self.ring.extend(inserted);
                    return Ok(());
                }
                Err(DaliError::LockDenied { .. }) if retries < MAX_RETRIES => {
                    self.session.abort()?;
                    self.rng = rng_snapshot;
                    retries += 1;
                    retry_backoff(retries);
                }
                Err(e) => {
                    let _ = self.session.abort();
                    return Err(e);
                }
            }
        }
    }
}

/// The TPC-B driver bound to an engine.
pub struct TpcbDriver {
    engine: DaliEngine,
    cfg: TpcbConfig,
    /// Account, teller and branch tables.
    tables: [TableId; 3],
    history: TableId,
    /// Seeds each run's worker streams and picks fault-injection victims.
    rng: StdRng,
    /// Monotonic op counter (feeds history records).
    op_counter: u64,
    /// FIFO of live history records, handed out to each run's workers and
    /// taken back after it, so unbounded benchmark loops never exhaust
    /// the history table; trimming never triggers in the paper-sized
    /// 50 000-op run.
    history_ring: VecDeque<RecId>,
}

impl TpcbDriver {
    /// Create the four tables and populate them with zero balances, in
    /// slot order, 2 000 rows per transaction.
    pub fn setup(engine: &DaliEngine, cfg: TpcbConfig) -> Result<TpcbDriver> {
        let mut session = EngineSession::new(engine);
        let capacities = cfg.rows().into_iter().chain([cfg.history_capacity]);
        for (name, capacity) in TABLE_NAMES.into_iter().zip(capacities) {
            session.create_table(name, REC_SIZE, capacity)?;
        }
        let driver = TpcbDriver::attach(engine, cfg)?;
        for ((table, n), encode) in driver.tables.into_iter().zip(driver.cfg.rows()).zip(ENCODE) {
            populate(&mut session, table, n, encode)?;
        }
        Ok(driver)
    }

    /// Attach to an existing, already-populated database (e.g. after a
    /// crash/recovery cycle). Record ids are reconstructed positionally:
    /// population inserts rows in slot order.
    pub fn attach(engine: &DaliEngine, cfg: TpcbConfig) -> Result<TpcbDriver> {
        let mut session = EngineSession::new(engine);
        let mut table = |name| session.table(name);
        Ok(TpcbDriver {
            engine: engine.clone(),
            tables: [table("account")?, table("teller")?, table("branch")?],
            history: table("history")?,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            op_counter: 0,
            history_ring: VecDeque::new(),
        })
    }

    /// Table ids (account, teller, branch, history).
    pub fn tables(&self) -> (TableId, TableId, TableId, TableId) {
        let [a, t, b] = self.tables;
        (a, t, b, self.history)
    }

    /// A random account record id (for fault-injection targeting).
    pub fn random_account(&mut self) -> RecId {
        row(self.tables[0], self.rng.gen_range(0..self.cfg.accounts))
    }

    /// A deterministic account record id (for fault-injection tests that
    /// must corrupt the same record across separate engines).
    pub fn account(&self, i: usize) -> RecId {
        row(self.tables[0], i % self.cfg.accounts)
    }

    /// Run `n` operations on one in-process session, in transactions of
    /// `ops_per_txn`.
    pub fn run_ops(&mut self, n: usize) -> Result<RunStats> {
        self.run_sessions(vec![EngineSession::new(&self.engine)], false, n)
    }

    /// Run `n_ops` operations split evenly across `sessions`, one thread
    /// per session, each committing every `ops_per_txn` operations.
    ///
    /// Partitioned (`contended == false`): each session owns a disjoint
    /// contiguous slice of the account, teller and branch rows, so
    /// sessions never conflict with each other in the lock manager.
    /// Contended: every session draws from the full ranges and
    /// exclusive-locks each record before its read-modify-write; lock
    /// conflicts and genuine deadlocks (each operation locks an account,
    /// a teller and a branch in that order, but a transaction's
    /// operations interleave those orders across rows) are routine, and a
    /// denied session aborts, rewinds its RNG and re-runs the
    /// transaction.
    ///
    /// Session `k` draws from its own RNG stream ([`worker_seed`] of a
    /// seed taken from the driver's RNG), and every planned operation
    /// commits exactly once, so the balance sums are a function of
    /// `(cfg.seed, sessions, n_ops)` whether the sessions are in-process
    /// or network connections, and whatever the interleaving. Sessions
    /// share the history table: ids from one counter, capacity split
    /// evenly. The TPC-B invariant holds afterwards — each operation
    /// applies one delta to exactly one account, teller and branch — and
    /// is checked by [`TpcbDriver::verify_invariant`].
    pub fn run_sessions<S: Session + Send>(
        &mut self,
        sessions: Vec<S>,
        contended: bool,
        n_ops: usize,
    ) -> Result<RunStats> {
        let n = sessions.len();
        if n == 0 {
            return Err(DaliError::InvalidArg("run_sessions: no sessions".into()));
        }
        if !contended && n > self.cfg.branches {
            return Err(DaliError::InvalidArg(format!(
                "run_sessions: {n} partitioned sessions but only {} branches; \
                 a session's branch partition would be empty",
                self.cfg.branches
            )));
        }
        let run_seed = self.rng.next_u64();
        let op_counter = AtomicU64::new(self.op_counter);
        // Hand each worker a contiguous slice of the live history records,
        // so they stay eligible for trimming.
        let mut ring = std::mem::take(&mut self.history_ring);
        let rows = self.cfg.rows();
        let workers: Vec<Worker<S>> = sessions
            .into_iter()
            .enumerate()
            .map(|(k, session)| Worker {
                session,
                tables: self.tables,
                rows: rows.map(|len| {
                    if contended {
                        0..len
                    } else {
                        partition(len, n, k)
                    }
                }),
                history: self.history,
                ops_per_txn: self.cfg.ops_per_txn,
                ring_share: self.cfg.history_capacity / n,
                rng: StdRng::seed_from_u64(worker_seed(run_seed, k)),
                ring: ring.drain(..ring.len() / (n - k)).collect(),
                op_counter: &op_counter,
                lock_for_update: contended,
                ops: 0,
                txns: 0,
            })
            .collect();

        let start = Instant::now();
        let finished: Vec<(Worker<S>, Result<()>)> = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(k, mut w)| {
                    let ops = n_ops / n + usize::from(k < n_ops % n);
                    s.spawn(move || {
                        let res = w.run(ops);
                        (w, res)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut stats = RunStats {
            ops: 0,
            txns: 0,
            elapsed_secs: start.elapsed().as_secs_f64(),
        };
        self.op_counter = op_counter.load(Ordering::Relaxed);
        let mut result = Ok(());
        for (w, res) in finished {
            // A failed worker's ring holds only committed records too.
            self.history_ring.extend(w.ring);
            stats.ops += w.ops;
            stats.txns += w.txns;
            result = result.and(res);
        }
        result.map(|()| stats)
    }

    /// Check the TPC-B consistency invariant: the sums of account, teller
    /// and branch balances are equal (each history delta was applied to
    /// exactly one of each). Returns the common sum.
    pub fn verify_invariant(&self) -> Result<i64> {
        let mut session = EngineSession::new(&self.engine);
        session.begin()?;
        let mut sums = [0i64; 3];
        for ((sum, table), n) in sums.iter_mut().zip(self.tables).zip(self.cfg.rows()) {
            for i in 0..n {
                *sum += balance_of(&session.read(row(table, i))?);
            }
        }
        session.commit()?;
        let [sa, st, sb] = sums;
        if sa != st || st != sb {
            return Err(DaliError::InvalidArg(format!(
                "TPC-B invariant violated: accounts {sa}, tellers {st}, branches {sb}"
            )));
        }
        Ok(sa)
    }
}

/// Populate a table with `n` zero-balance rows in slot order, committed
/// in batches of 2 000 so the local logs stay small.
fn populate(
    session: &mut impl Session,
    table: TableId,
    n: usize,
    encode: fn(u64, i64) -> Vec<u8>,
) -> Result<()> {
    for batch in (0..n).step_by(2_000) {
        session.begin()?;
        for k in batch..(batch + 2_000).min(n) {
            let rec = session.insert(table, &encode(k as u64, 0))?;
            assert_eq!(rec, row(table, k), "population left slot order");
        }
        session.commit()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::{DaliConfig, ProtectionScheme};
    use std::sync::atomic::AtomicUsize;

    use dali_testutil::TempDir;

    /// Engine plus the guard keeping its scratch directory alive.
    fn engine(scheme: ProtectionScheme, name: &str, cfg: &TpcbConfig) -> (DaliEngine, TempDir) {
        let dir = TempDir::new(&format!("tpcb-{name}"));
        let mut c = DaliConfig::small(dir.path()).with_scheme(scheme);
        c.db_pages = cfg.required_pages(c.page_size);
        let (db, _) = DaliEngine::create(c).unwrap();
        (db, dir)
    }

    /// `n` in-process sessions on `db`.
    fn sessions(db: &DaliEngine, n: usize) -> Vec<EngineSession> {
        (0..n).map(|_| EngineSession::new(db)).collect()
    }

    #[test]
    fn setup_populates_tables() {
        let cfg = TpcbConfig::small();
        let (db, _dir) = engine(ProtectionScheme::Baseline, "setup", &cfg);
        let d = TpcbDriver::setup(&db, cfg.clone()).unwrap();
        let (a, t, b, h) = d.tables();
        assert_eq!(db.record_count(a).unwrap(), cfg.accounts);
        assert_eq!(db.record_count(t).unwrap(), cfg.tellers);
        assert_eq!(db.record_count(b).unwrap(), cfg.branches);
        assert_eq!(db.record_count(h).unwrap(), 0);
        assert_eq!(d.verify_invariant().unwrap(), 0);
    }

    #[test]
    fn ops_preserve_invariant() {
        let cfg = TpcbConfig::small();
        let (db, _dir) = engine(ProtectionScheme::DataCodeword, "inv", &cfg);
        let mut d = TpcbDriver::setup(&db, cfg).unwrap();
        let stats = d.run_ops(200).unwrap();
        assert_eq!(stats.ops, 200);
        assert_eq!(stats.txns, 4);
        d.verify_invariant().unwrap();
        let (_, _, _, h) = d.tables();
        assert_eq!(db.record_count(h).unwrap(), 200);
        assert!(db.audit().unwrap().clean());
    }

    #[test]
    fn runs_under_every_scheme() {
        for scheme in ProtectionScheme::ALL {
            let cfg = TpcbConfig::small();
            let (db, _dir) = engine(scheme, &format!("all-{scheme:?}"), &cfg);
            let mut d = TpcbDriver::setup(&db, cfg).unwrap();
            d.run_ops(60).unwrap();
            d.verify_invariant()
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TpcbConfig::small();
        let (db1, _dir1) = engine(ProtectionScheme::Baseline, "det1", &cfg);
        let mut d1 = TpcbDriver::setup(&db1, cfg.clone()).unwrap();
        d1.run_ops(100).unwrap();
        let v1 = d1.verify_invariant().unwrap();

        let (db2, _dir2) = engine(ProtectionScheme::Baseline, "det2", &cfg);
        let mut d2 = TpcbDriver::setup(&db2, cfg).unwrap();
        d2.run_ops(100).unwrap();
        assert_eq!(v1, d2.verify_invariant().unwrap());
    }

    #[test]
    fn invariant_survives_crash_recovery() {
        let cfg = TpcbConfig::small();
        let dir = TempDir::new("tpcb-crashinv");
        let mut dbcfg = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::ReadLogging);
        dbcfg.db_pages = cfg.required_pages(dbcfg.page_size);
        let (db, _) = DaliEngine::create(dbcfg.clone()).unwrap();
        let mut d = TpcbDriver::setup(&db, cfg.clone()).unwrap();
        d.run_ops(150).unwrap();
        db.crash();

        let (db, _) = DaliEngine::open(dbcfg).unwrap();
        let d = TpcbDriver::attach(&db, cfg).unwrap();
        d.verify_invariant().unwrap();
    }

    #[test]
    fn concurrent_preserves_invariant() {
        let cfg = TpcbConfig::small();
        let (db, _dir) = engine(ProtectionScheme::DataCodeword, "conc-inv", &cfg);
        let mut d = TpcbDriver::setup(&db, cfg).unwrap();
        let stats = d.run_sessions(sessions(&db, 4), false, 400).unwrap();
        assert_eq!(stats.ops, 400);
        d.verify_invariant().unwrap();
        let (_, _, _, h) = d.tables();
        assert_eq!(db.record_count(h).unwrap(), 400);
        assert!(db.audit().unwrap().clean());
    }

    #[test]
    fn concurrent_deterministic_given_seed_and_threads() {
        let cfg = TpcbConfig::small();
        let (db1, _dir1) = engine(ProtectionScheme::Baseline, "conc-det1", &cfg);
        let mut d1 = TpcbDriver::setup(&db1, cfg.clone()).unwrap();
        d1.run_sessions(sessions(&db1, 3), false, 300).unwrap();
        let v1 = d1.verify_invariant().unwrap();

        let (db2, _dir2) = engine(ProtectionScheme::Baseline, "conc-det2", &cfg);
        let mut d2 = TpcbDriver::setup(&db2, cfg).unwrap();
        d2.run_sessions(sessions(&db2, 3), false, 300).unwrap();
        assert_eq!(v1, d2.verify_invariant().unwrap());
    }

    #[test]
    fn concurrent_runs_under_every_scheme() {
        for scheme in ProtectionScheme::ALL {
            let cfg = TpcbConfig::small();
            let (db, _dir) = engine(scheme, &format!("conc-all-{scheme:?}"), &cfg);
            let mut d = TpcbDriver::setup(&db, cfg).unwrap();
            d.run_sessions(sessions(&db, 4), false, 200)
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            d.verify_invariant()
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
        }
    }

    #[test]
    fn concurrent_then_serial_shares_history_ring() {
        // A long mixed run must keep the history table within capacity:
        // ring shares hand off between serial and concurrent phases.
        let cfg = TpcbConfig::small();
        let (db, _dir) = engine(ProtectionScheme::Baseline, "conc-ring", &cfg);
        let mut d = TpcbDriver::setup(&db, cfg.clone()).unwrap();
        d.run_ops(500).unwrap();
        d.run_sessions(sessions(&db, 4), false, 4_000).unwrap();
        d.run_ops(500).unwrap();
        d.verify_invariant().unwrap();
        let (_, _, _, h) = d.tables();
        assert!(db.record_count(h).unwrap() <= cfg.history_capacity);
    }

    /// An in-process session that denies every `every`-th history insert
    /// once `armed_after` of them have gone through — a lock conflict in
    /// the middle of an operation, which the caller must abort.
    struct DenyHistoryInserts<'a> {
        inner: EngineSession,
        history: TableId,
        inserts: usize,
        armed_after: usize,
        every: usize,
        denied: &'a AtomicUsize,
    }

    impl Session for DenyHistoryInserts<'_> {
        fn begin(&mut self) -> Result<()> {
            self.inner.begin()
        }
        fn read(&mut self, rec: RecId) -> Result<Vec<u8>> {
            self.inner.read(rec)
        }
        fn update(&mut self, rec: RecId, data: &[u8]) -> Result<()> {
            self.inner.update(rec, data)
        }
        fn insert(&mut self, table: TableId, data: &[u8]) -> Result<RecId> {
            if table == self.history {
                self.inserts += 1;
                if self.inserts > self.armed_after && self.inserts.is_multiple_of(self.every) {
                    self.denied.fetch_add(1, Ordering::Relaxed);
                    return Err(DaliError::LockDenied {
                        txn: dali_common::TxnId(0),
                        rec: row(table, 0),
                    });
                }
            }
            self.inner.insert(table, data)
        }
        fn delete(&mut self, rec: RecId) -> Result<()> {
            self.inner.delete(rec)
        }
        fn lock_exclusive(&mut self, rec: RecId) -> Result<()> {
            self.inner.lock_exclusive(rec)
        }
        fn commit(&mut self) -> Result<()> {
            self.inner.commit()
        }
        fn abort(&mut self) -> Result<()> {
            self.inner.abort()
        }
        fn create_table(&mut self, name: &str, rec_size: usize, cap: usize) -> Result<TableId> {
            self.inner.create_table(name, rec_size, cap)
        }
        fn table(&mut self, name: &str) -> Result<TableId> {
            self.inner.table(name)
        }
    }

    #[test]
    fn aborts_at_a_full_history_ring_leave_it_at_steady_state() {
        // Aborted transactions must neither keep the history slots they
        // inserted (freed by the rollback, then handed out again) nor
        // forget the records whose deletes they rolled back.
        let mut cfg = TpcbConfig::small();
        cfg.history_capacity = 256;
        cfg.ops_per_txn = 5;
        let n_ops = 5 * cfg.history_capacity; // wraps the ring several times

        let (clean_db, _clean_dir) = engine(ProtectionScheme::Baseline, "ring-clean", &cfg);
        let mut clean = TpcbDriver::setup(&clean_db, cfg.clone()).unwrap();
        clean.run_ops(n_ops).unwrap();
        let steady = clean_db.record_count(clean.tables().3).unwrap();
        assert!(steady < cfg.history_capacity);

        let (db, _dir) = engine(ProtectionScheme::Baseline, "ring-abort", &cfg);
        let mut d = TpcbDriver::setup(&db, cfg.clone()).unwrap();
        let denied = AtomicUsize::new(0);
        let session = DenyHistoryInserts {
            inner: EngineSession::new(&db),
            history: d.tables().3,
            inserts: 0,
            armed_after: cfg.history_capacity,
            // More than `ops_per_txn`, so every retry can get through.
            every: 7,
            denied: &denied,
        };
        let stats = d.run_sessions(vec![session], false, n_ops).unwrap();
        assert_eq!(stats.ops, n_ops);
        assert!(denied.load(Ordering::Relaxed) > 50);
        assert_eq!(db.record_count(d.tables().3).unwrap(), steady);
        d.verify_invariant().unwrap();
        // The driver's ring is the table's content: another run trims it.
        d.run_ops(n_ops).unwrap();
        assert_eq!(db.record_count(d.tables().3).unwrap(), steady);
    }

    #[test]
    fn contended_preserves_invariant() {
        let mut cfg = TpcbConfig::small();
        cfg.ops_per_txn = 5; // short transactions: conflicts resolve fast
        let dir = TempDir::new("tpcb-cont-inv");
        // Multiple shards so the cross-shard unlock sweep is exercised
        // even on a single-CPU host (where auto-sharding picks 1).
        let mut c = DaliConfig::small(dir.path())
            .with_scheme(ProtectionScheme::DataCodeword)
            .with_lock_shards(8);
        c.db_pages = cfg.required_pages(c.page_size);
        let (db, _) = DaliEngine::create(c).unwrap();
        let mut d = TpcbDriver::setup(&db, cfg).unwrap();
        let stats = d.run_sessions(sessions(&db, 4), true, 400).unwrap();
        assert_eq!(stats.ops, 400);
        d.verify_invariant().unwrap();
        let (_, _, _, h) = d.tables();
        assert_eq!(db.record_count(h).unwrap(), 400);
        // Quiesced: every lock was released.
        assert_eq!(db.db().locks.locked_records(), 0);
    }

    #[test]
    fn contended_deterministic_total_given_seed_and_threads() {
        // Interleavings differ run to run, but each worker's deltas are
        // applied exactly once, so the common balance sum is a function
        // of (seed, threads, n_ops) only.
        let mut cfg = TpcbConfig::small();
        cfg.ops_per_txn = 5;
        let (db1, _dir1) = engine(ProtectionScheme::Baseline, "cont-det1", &cfg);
        let mut d1 = TpcbDriver::setup(&db1, cfg.clone()).unwrap();
        d1.run_sessions(sessions(&db1, 3), true, 300).unwrap();
        let v1 = d1.verify_invariant().unwrap();

        let (db2, _dir2) = engine(ProtectionScheme::Baseline, "cont-det2", &cfg);
        let mut d2 = TpcbDriver::setup(&db2, cfg).unwrap();
        d2.run_sessions(sessions(&db2, 3), true, 300).unwrap();
        assert_eq!(v1, d2.verify_invariant().unwrap());
    }

    #[test]
    fn contended_allows_more_threads_than_branches() {
        // No partitioning, so the branch-count cap does not apply.
        let mut cfg = TpcbConfig::small();
        cfg.branches = 2;
        cfg.ops_per_txn = 5;
        let (db, _dir) = engine(ProtectionScheme::Baseline, "cont-wide", &cfg);
        let mut d = TpcbDriver::setup(&db, cfg).unwrap();
        d.run_sessions(sessions(&db, 4), true, 100).unwrap();
        d.verify_invariant().unwrap();
    }

    #[test]
    fn concurrent_rejects_bad_thread_counts() {
        let cfg = TpcbConfig::small();
        let (db, _dir) = engine(ProtectionScheme::Baseline, "conc-bad", &cfg);
        let mut d = TpcbDriver::setup(&db, cfg.clone()).unwrap();
        assert!(d.run_sessions(sessions(&db, 0), false, 10).is_err());
        // More threads than branches → empty partition, refused.
        assert!(d
            .run_sessions(sessions(&db, cfg.branches + 1), false, 10)
            .is_err());
    }

    #[test]
    fn required_pages_fits() {
        let cfg = TpcbConfig::paper();
        // ~23 MB of data → a few thousand 8K pages.
        let pages = cfg.required_pages(8192);
        assert!(pages > 2000 && pages < 5000, "{pages}");
    }
}
