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

pub mod records;
pub mod varlen;

use dali_common::{DaliError, RecId, Result, TableId};
use dali_engine::{DaliEngine, TxnHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use records::{balance_of, encode_account, encode_branch, encode_history, encode_teller, REC_SIZE};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

    /// Configuration for thread-scaling runs: 10% of the paper's table
    /// sizes (so per-cell setup stays cheap across a sweep) and short
    /// transactions. Commit-heavy transactions put the run in the
    /// durable-commit-dominated regime where multi-threaded overlap of
    /// commit fsyncs is visible even on a single CPU; the paper's
    /// 500-op transactions amortize commit cost away entirely.
    pub fn scale() -> TpcbConfig {
        TpcbConfig {
            accounts: 10_000,
            tellers: 1_000,
            branches: 100,
            history_capacity: 30_000,
            ops_per_txn: 10,
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
}

/// Result of a timed run.
#[derive(Clone, Debug)]
pub struct RunStats {
    pub ops: usize,
    pub txns: usize,
    pub elapsed_secs: f64,
}

impl RunStats {
    /// Operations per second — the metric of Table 2.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed_secs
    }
}

/// Statistics from one worker thread of [`TpcbDriver::run_concurrent`].
#[derive(Clone, Debug)]
pub struct ThreadStats {
    pub thread: usize,
    pub ops: usize,
    pub txns: usize,
    /// Transactions re-run after a lock denial.
    pub retries: usize,
    /// CPU time this worker thread consumed (`CLOCK_THREAD_CPUTIME_ID`).
    pub cpu_secs: f64,
}

/// Aggregate result of [`TpcbDriver::run_concurrent`].
#[derive(Clone, Debug)]
pub struct ConcurrentStats {
    pub threads: usize,
    pub ops: usize,
    pub txns: usize,
    pub retries: usize,
    /// Wall-clock time from first spawn to last join.
    pub elapsed_secs: f64,
    /// Total CPU time summed over the worker threads.
    pub cpu_secs: f64,
    pub per_thread: Vec<ThreadStats>,
}

impl ConcurrentStats {
    /// Aggregate operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed_secs
    }

    /// CPU microseconds per operation (preemption-immune cost metric).
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_secs * 1e6 / self.ops as f64
    }
}

/// CPU time consumed by the calling thread, in seconds.
fn thread_cpu_seconds() -> f64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime with a valid clock id and out-pointer.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Thread `k`'s contiguous share of `n` row indices.
///
/// Public so other drivers (the networked TPC-B driver in `dali-net`)
/// partition identically to the in-process one.
pub fn partition(n: usize, threads: usize, k: usize) -> std::ops::Range<usize> {
    (k * n / threads)..((k + 1) * n / threads)
}

/// RNG seed of worker `k` for a run seeded with `seed` — the per-worker
/// stream derivation shared by [`TpcbDriver::run_concurrent`] and the
/// networked driver, so both produce the same deterministic balance sums
/// for a given `(seed, workers, n_ops)` triple.
pub fn worker_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Back-off before re-running a lock-denied transaction: a victim
/// restarts with a fresh (larger) TxnId, so the youngest-victim deadlock
/// policy dooms an immediate retry again in any repeat collision; a
/// short, growing pause breaks these retry storms. Sleeping changes only
/// timing, never the replayed operation sequence.
pub fn retry_backoff(retries: usize) {
    std::thread::sleep(Duration::from_micros(50u64 << retries.min(6)));
}

/// One worker thread's state: a slice of the account, teller and branch
/// rows plus its own RNG stream and history-ring share. In partitioned
/// mode the slices are disjoint, keeping TPC-B workers conflict-free in
/// the lock manager (protection latches on shared region boundaries
/// still contend); in contended mode every worker gets the full ranges
/// and lock conflicts are resolved by abort-and-retry. Either way a run
/// is deterministic for a given `(seed, threads)` pair: each worker's
/// operation sequence depends only on its own RNG, and retries rewind
/// it.
struct Worker {
    engine: DaliEngine,
    history: TableId,
    account_recs: Vec<RecId>,
    teller_recs: Vec<RecId>,
    branch_recs: Vec<RecId>,
    /// Global index of the first row of each partition, so history
    /// records carry table-wide indices.
    a_base: usize,
    t_base: usize,
    b_base: usize,
    ops_per_txn: usize,
    /// This worker's slice of the history table's capacity.
    ring_share: usize,
    rng: StdRng,
    ring: VecDeque<RecId>,
    /// Shared monotonic op counter feeding history record ids.
    op_counter: Arc<AtomicU64>,
    /// Contended workers exclusive-lock a record before the
    /// read-modify-write (read-for-update), because two workers taking
    /// shared locks on the same record and then upgrading deadlock every
    /// time. Partitioned workers never share rows, so they keep the
    /// plain shared-read path.
    lock_for_update: bool,
}

impl Worker {
    /// Run one transaction of `ops` operations; returns the number of
    /// retries. A lock denial aborts the transaction and re-runs it from
    /// the same RNG state. Partitioned workers only conflict with
    /// concurrent ad-hoc transactions (e.g. invariant checks); contended
    /// workers also conflict — and deadlock — with each other.
    fn run_txn(&mut self, ops: usize) -> Result<usize> {
        let margin = 2 * self.ops_per_txn + 64;
        let mut retries = 0usize;
        loop {
            let rng_snapshot = self.rng.clone();
            let txn = self.engine.begin()?;
            // Ring mutations are staged and applied only on commit so an
            // aborted transaction leaves the ring (and RNG) untouched.
            let mut inserted: Vec<RecId> = Vec::with_capacity(ops);
            let mut drop_front = 0usize;
            let res = (|| -> Result<()> {
                for _ in 0..ops {
                    let a = self.rng.gen_range(0..self.account_recs.len());
                    let t = self.rng.gen_range(0..self.teller_recs.len());
                    let b = self.rng.gen_range(0..self.branch_recs.len());
                    let delta = self.rng.gen_range(-999_999i64..=999_999);
                    for (rec, encode) in [
                        (
                            self.account_recs[a],
                            encode_account as fn(u64, i64) -> Vec<u8>,
                        ),
                        (
                            self.teller_recs[t],
                            encode_teller as fn(u64, i64) -> Vec<u8>,
                        ),
                        (
                            self.branch_recs[b],
                            encode_branch as fn(u64, i64) -> Vec<u8>,
                        ),
                    ] {
                        if self.lock_for_update {
                            txn.lock_exclusive(rec)?;
                        }
                        let cur = txn.read_vec(rec)?;
                        let bal = balance_of(&cur);
                        txn.update(rec, &encode(rec.slot.0 as u64, bal + delta))?;
                    }
                    let op = self.op_counter.fetch_add(1, Ordering::Relaxed);
                    let h = txn.insert(
                        self.history,
                        &encode_history(
                            op,
                            (self.a_base + a) as u64,
                            (self.t_base + t) as u64,
                            (self.b_base + b) as u64,
                            delta,
                        ),
                    )?;
                    inserted.push(h);
                    let live = self.ring.len() - drop_front + inserted.len();
                    if live + margin >= self.ring_share && drop_front < self.ring.len() {
                        txn.delete(self.ring[drop_front])?;
                        drop_front += 1;
                    }
                }
                Ok(())
            })();
            match res {
                Ok(()) => {
                    txn.commit()?;
                    self.ring.drain(..drop_front);
                    self.ring.extend(inserted);
                    return Ok(retries);
                }
                Err(DaliError::LockDenied { .. }) => {
                    txn.abort()?;
                    self.rng = rng_snapshot;
                    retries += 1;
                    if retries > 1_000 {
                        return Err(DaliError::InvalidArg(
                            "concurrent TPC-B worker starved: 1000 lock denials".into(),
                        ));
                    }
                    retry_backoff(retries);
                }
                Err(e) => {
                    let _ = txn.abort();
                    return Err(e);
                }
            }
        }
    }

    /// Run `n` operations in transactions of `ops_per_txn`.
    fn run(mut self, thread: usize, n: usize) -> Result<(Worker, ThreadStats)> {
        let cpu0 = thread_cpu_seconds();
        let mut done = 0usize;
        let mut txns = 0usize;
        let mut retries = 0usize;
        while done < n {
            let in_this = self.ops_per_txn.min(n - done);
            retries += self.run_txn(in_this)?;
            txns += 1;
            done += in_this;
        }
        let cpu_secs = thread_cpu_seconds() - cpu0;
        let stats = ThreadStats {
            thread,
            ops: done,
            txns,
            retries,
            cpu_secs,
        };
        Ok((self, stats))
    }
}

/// The TPC-B driver bound to an engine.
pub struct TpcbDriver {
    engine: DaliEngine,
    cfg: TpcbConfig,
    accounts: TableId,
    tellers: TableId,
    branches: TableId,
    history: TableId,
    account_recs: Vec<RecId>,
    teller_recs: Vec<RecId>,
    branch_recs: Vec<RecId>,
    rng: StdRng,
    /// Monotonic op counter (feeds history records).
    op_counter: u64,
    /// FIFO of live history records; when the table approaches capacity
    /// the oldest entry is deleted in the same transaction (circular
    /// history). Keeps unbounded benchmark loops from exhausting the
    /// heap; never triggers in the paper-sized 50 000-op run.
    history_ring: std::collections::VecDeque<RecId>,
}

impl TpcbDriver {
    /// Create the four tables and populate them with zero balances.
    pub fn setup(engine: &DaliEngine, cfg: TpcbConfig) -> Result<TpcbDriver> {
        let accounts = engine.create_table("account", REC_SIZE, cfg.accounts)?;
        let tellers = engine.create_table("teller", REC_SIZE, cfg.tellers)?;
        let branches = engine.create_table("branch", REC_SIZE, cfg.branches)?;
        let history = engine.create_table("history", REC_SIZE, cfg.history_capacity)?;

        let mut driver = TpcbDriver {
            engine: engine.clone(),
            cfg,
            accounts,
            tellers,
            branches,
            history,
            account_recs: Vec::new(),
            teller_recs: Vec::new(),
            branch_recs: Vec::new(),
            rng: StdRng::seed_from_u64(0),
            op_counter: 0,
            history_ring: std::collections::VecDeque::new(),
        };
        driver.rng = StdRng::seed_from_u64(driver.cfg.seed);

        driver.account_recs = populate(engine, accounts, driver.cfg.accounts, encode_account)?;
        driver.teller_recs = populate(engine, tellers, driver.cfg.tellers, encode_teller)?;
        driver.branch_recs = populate(engine, branches, driver.cfg.branches, encode_branch)?;
        Ok(driver)
    }

    /// Attach to an existing, already-populated database (e.g. after a
    /// crash/recovery cycle). Record ids are reconstructed positionally:
    /// population inserts rows in slot order.
    pub fn attach(engine: &DaliEngine, cfg: TpcbConfig) -> Result<TpcbDriver> {
        let accounts = engine.table("account")?;
        let tellers = engine.table("teller")?;
        let branches = engine.table("branch")?;
        let history = engine.table("history")?;
        let recs = |t: TableId, n: usize| -> Vec<RecId> {
            (0..n)
                .map(|i| RecId::new(t, dali_common::SlotId(i as u32)))
                .collect()
        };
        Ok(TpcbDriver {
            engine: engine.clone(),
            cfg: cfg.clone(),
            accounts,
            tellers,
            branches,
            history,
            account_recs: recs(accounts, cfg.accounts),
            teller_recs: recs(tellers, cfg.tellers),
            branch_recs: recs(branches, cfg.branches),
            rng: StdRng::seed_from_u64(cfg.seed),
            op_counter: 0,
            history_ring: std::collections::VecDeque::new(),
        })
    }

    /// The engine this driver runs against.
    pub fn engine(&self) -> &DaliEngine {
        &self.engine
    }

    /// Table ids (account, teller, branch, history).
    pub fn tables(&self) -> (TableId, TableId, TableId, TableId) {
        (self.accounts, self.tellers, self.branches, self.history)
    }

    /// A random account record id (for fault-injection targeting).
    pub fn random_account(&mut self) -> RecId {
        self.account_recs[self.rng.gen_range(0..self.account_recs.len())]
    }

    /// A deterministic account record id (for fault-injection tests that
    /// must corrupt the same record across separate engines).
    pub fn account(&self, i: usize) -> RecId {
        self.account_recs[i % self.account_recs.len()]
    }

    /// Execute one TPC-B operation inside `txn`.
    pub fn run_op(&mut self, txn: &TxnHandle) -> Result<()> {
        let a = self.rng.gen_range(0..self.account_recs.len());
        let t = self.rng.gen_range(0..self.teller_recs.len());
        let b = self.rng.gen_range(0..self.branch_recs.len());
        let delta = self.rng.gen_range(-999_999i64..=999_999);

        for (rec, encode) in [
            (
                self.account_recs[a],
                encode_account as fn(u64, i64) -> Vec<u8>,
            ),
            (
                self.teller_recs[t],
                encode_teller as fn(u64, i64) -> Vec<u8>,
            ),
            (
                self.branch_recs[b],
                encode_branch as fn(u64, i64) -> Vec<u8>,
            ),
        ] {
            let cur = txn.read_vec(rec)?;
            let bal = balance_of(&cur);
            txn.update(rec, &encode(rec.slot.0 as u64, bal + delta))?;
        }
        let h = txn.insert(
            self.history,
            &encode_history(self.op_counter, a as u64, t as u64, b as u64, delta),
        )?;
        self.history_ring.push_back(h);
        // Circular history: keep enough slack that deferred frees within
        // the current transaction cannot exhaust the heap.
        let margin = 2 * self.cfg.ops_per_txn + 64;
        if self.history_ring.len() + margin >= self.cfg.history_capacity {
            if let Some(old) = self.history_ring.pop_front() {
                txn.delete(old)?;
            }
        }
        self.op_counter += 1;
        Ok(())
    }

    /// Run `n` operations in transactions of `ops_per_txn`, timed.
    pub fn run_ops(&mut self, n: usize) -> Result<RunStats> {
        let start = Instant::now();
        let mut done = 0usize;
        let mut txns = 0usize;
        while done < n {
            let txn = self.engine.begin()?;
            let in_this = self.cfg.ops_per_txn.min(n - done);
            for _ in 0..in_this {
                self.run_op(&txn)?;
            }
            txn.commit()?;
            txns += 1;
            done += in_this;
        }
        Ok(RunStats {
            ops: done,
            txns,
            elapsed_secs: start.elapsed().as_secs_f64(),
        })
    }

    /// Run `n_ops` operations split across `threads` worker threads.
    ///
    /// Each worker owns a disjoint contiguous partition of the account,
    /// teller and branch rows and its own RNG stream derived from
    /// `cfg.seed` and the thread index, so a run is deterministic for a
    /// given `(seed, threads, n_ops)` triple: the final balance sums do
    /// not depend on scheduling. Workers share the history table (ids
    /// from one atomic counter, capacity split evenly) and commit every
    /// `ops_per_txn` operations, as in the serial driver.
    ///
    /// The TPC-B invariant holds afterwards — each operation applies one
    /// delta to exactly one account, teller and branch — and is checked
    /// by callers via [`TpcbDriver::verify_invariant`].
    pub fn run_concurrent(&mut self, threads: usize, n_ops: usize) -> Result<ConcurrentStats> {
        self.run_workers(threads, n_ops, false)
    }

    /// Run `n_ops` operations split across `threads` workers that all
    /// draw from the *full* account, teller and branch ranges — the
    /// contended counterpart of [`TpcbDriver::run_concurrent`].
    ///
    /// Overlapping ranges make record-lock conflicts (and genuine
    /// deadlocks: each operation locks an account, a teller and a branch
    /// in that order, but a transaction's operations interleave those
    /// orders across rows) a routine event rather than an impossibility.
    /// A denied worker aborts, rewinds its RNG, and re-runs the
    /// transaction, so every planned operation still executes exactly
    /// once; the balance sums — and therefore the TPC-B invariant — stay
    /// deterministic for a given `(seed, threads, n_ops)` triple because
    /// each delta is applied to its row exactly once regardless of
    /// interleaving.
    pub fn run_concurrent_contended(
        &mut self,
        threads: usize,
        n_ops: usize,
    ) -> Result<ConcurrentStats> {
        self.run_workers(threads, n_ops, true)
    }

    fn run_workers(
        &mut self,
        threads: usize,
        n_ops: usize,
        contended: bool,
    ) -> Result<ConcurrentStats> {
        if threads == 0 {
            return Err(DaliError::InvalidArg("run_concurrent: zero threads".into()));
        }
        if !contended && threads > self.branch_recs.len() {
            return Err(DaliError::InvalidArg(format!(
                "run_concurrent: {threads} threads but only {} branches; \
                 a worker's branch partition would be empty",
                self.branch_recs.len()
            )));
        }

        let op_counter = Arc::new(AtomicU64::new(self.op_counter));
        // Hand each worker a contiguous slice of any history records the
        // serial driver already owns, so they stay eligible for ring
        // reclamation.
        let mut existing: VecDeque<RecId> = std::mem::take(&mut self.history_ring);
        let mut workers = Vec::with_capacity(threads);
        for k in 0..threads {
            // Contended workers share every row; partitioned workers own
            // disjoint contiguous slices.
            let (ar, tr, br) = if contended {
                (
                    0..self.account_recs.len(),
                    0..self.teller_recs.len(),
                    0..self.branch_recs.len(),
                )
            } else {
                (
                    partition(self.account_recs.len(), threads, k),
                    partition(self.teller_recs.len(), threads, k),
                    partition(self.branch_recs.len(), threads, k),
                )
            };
            let ring_take = existing.len() / (threads - k);
            workers.push(Worker {
                engine: self.engine.clone(),
                history: self.history,
                a_base: ar.start,
                t_base: tr.start,
                b_base: br.start,
                account_recs: self.account_recs[ar].to_vec(),
                teller_recs: self.teller_recs[tr].to_vec(),
                branch_recs: self.branch_recs[br].to_vec(),
                ops_per_txn: self.cfg.ops_per_txn,
                ring_share: self.cfg.history_capacity / threads,
                rng: StdRng::seed_from_u64(worker_seed(self.cfg.seed, k)),
                ring: existing.drain(..ring_take).collect(),
                op_counter: Arc::clone(&op_counter),
                lock_for_update: contended,
            });
        }

        let start = Instant::now();
        let results: Vec<Result<(Worker, ThreadStats)>> = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(k, w)| {
                    let ops = n_ops / threads + usize::from(k < n_ops % threads);
                    s.spawn(move || w.run(k, ops))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let elapsed_secs = start.elapsed().as_secs_f64();

        self.op_counter = op_counter.load(Ordering::Relaxed);
        let mut per_thread = Vec::with_capacity(threads);
        let mut err = None;
        for res in results {
            match res {
                Ok((w, stats)) => {
                    // Reclaim the worker's ring so later serial ops (or
                    // another concurrent run) keep trimming history.
                    self.history_ring.extend(w.ring);
                    per_thread.push(stats);
                }
                Err(e) => err = Some(e),
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
        Ok(ConcurrentStats {
            threads,
            ops: per_thread.iter().map(|t| t.ops).sum(),
            txns: per_thread.iter().map(|t| t.txns).sum(),
            retries: per_thread.iter().map(|t| t.retries).sum(),
            elapsed_secs,
            cpu_secs: per_thread.iter().map(|t| t.cpu_secs).sum(),
            per_thread,
        })
    }

    /// Check the TPC-B consistency invariant: the sums of account, teller
    /// and branch balances are equal (each history delta was applied to
    /// exactly one of each). Returns the common sum.
    pub fn verify_invariant(&self) -> Result<i64> {
        let txn = self.engine.begin()?;
        let sum = |recs: &[RecId]| -> Result<i64> {
            let mut s = 0i64;
            for &r in recs {
                s += balance_of(&txn.read_vec(r)?);
            }
            Ok(s)
        };
        let sa = sum(&self.account_recs)?;
        let st = sum(&self.teller_recs)?;
        let sb = sum(&self.branch_recs)?;
        txn.commit()?;
        if sa != st || st != sb {
            return Err(DaliError::InvalidArg(format!(
                "TPC-B invariant violated: accounts {sa}, tellers {st}, branches {sb}"
            )));
        }
        Ok(sa)
    }
}

/// Populate a table with `n` zero-balance rows (committed in batches so
/// the local logs stay small).
fn populate(
    engine: &DaliEngine,
    table: TableId,
    n: usize,
    encode: fn(u64, i64) -> Vec<u8>,
) -> Result<Vec<RecId>> {
    let mut recs = Vec::with_capacity(n);
    let mut i = 0usize;
    while i < n {
        let txn = engine.begin()?;
        let batch_end = (i + 2_000).min(n);
        for k in i..batch_end {
            recs.push(txn.insert(table, &encode(k as u64, 0))?);
        }
        txn.commit()?;
        i = batch_end;
    }
    Ok(recs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::{DaliConfig, ProtectionScheme};

    use dali_testutil::TempDir;

    /// Engine plus the guard keeping its scratch directory alive.
    fn engine(scheme: ProtectionScheme, name: &str, cfg: &TpcbConfig) -> (DaliEngine, TempDir) {
        let dir = TempDir::new(&format!("tpcb-{name}"));
        let mut c = DaliConfig::small(dir.path()).with_scheme(scheme);
        c.db_pages = cfg.required_pages(c.page_size);
        let (db, _) = DaliEngine::create(c).unwrap();
        (db, dir)
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
        let stats = d.run_concurrent(4, 400).unwrap();
        assert_eq!(stats.ops, 400);
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.per_thread.len(), 4);
        assert_eq!(stats.per_thread.iter().map(|t| t.ops).sum::<usize>(), 400);
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
        d1.run_concurrent(3, 300).unwrap();
        let v1 = d1.verify_invariant().unwrap();

        let (db2, _dir2) = engine(ProtectionScheme::Baseline, "conc-det2", &cfg);
        let mut d2 = TpcbDriver::setup(&db2, cfg).unwrap();
        d2.run_concurrent(3, 300).unwrap();
        assert_eq!(v1, d2.verify_invariant().unwrap());
    }

    #[test]
    fn concurrent_runs_under_every_scheme() {
        for scheme in ProtectionScheme::ALL {
            let cfg = TpcbConfig::small();
            let (db, _dir) = engine(scheme, &format!("conc-all-{scheme:?}"), &cfg);
            let mut d = TpcbDriver::setup(&db, cfg).unwrap();
            d.run_concurrent(4, 200)
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
        d.run_concurrent(4, 4_000).unwrap();
        d.run_ops(500).unwrap();
        d.verify_invariant().unwrap();
        let (_, _, _, h) = d.tables();
        assert!(db.record_count(h).unwrap() <= cfg.history_capacity);
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
        let stats = d.run_concurrent_contended(4, 400).unwrap();
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
        d1.run_concurrent_contended(3, 300).unwrap();
        let v1 = d1.verify_invariant().unwrap();

        let (db2, _dir2) = engine(ProtectionScheme::Baseline, "cont-det2", &cfg);
        let mut d2 = TpcbDriver::setup(&db2, cfg).unwrap();
        d2.run_concurrent_contended(3, 300).unwrap();
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
        d.run_concurrent_contended(4, 100).unwrap();
        d.verify_invariant().unwrap();
    }

    #[test]
    fn concurrent_rejects_bad_thread_counts() {
        let cfg = TpcbConfig::small();
        let (db, _dir) = engine(ProtectionScheme::Baseline, "conc-bad", &cfg);
        let mut d = TpcbDriver::setup(&db, cfg.clone()).unwrap();
        assert!(d.run_concurrent(0, 10).is_err());
        // More threads than branches → empty partition, refused.
        assert!(d.run_concurrent(cfg.branches + 1, 10).is_err());
    }

    #[test]
    fn required_pages_fits() {
        let cfg = TpcbConfig::paper();
        // ~23 MB of data → a few thousand 8K pages.
        let pages = cfg.required_pages(8192);
        assert!(pages > 2000 && pages < 5000, "{pages}");
    }
}
