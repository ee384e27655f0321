//! Heap allocations on the engine's update path, counted.
//!
//! A counting global allocator tallies every allocation made by the
//! thread that makes it, so the log worker, the deadlock detector and
//! tests running in parallel cannot perturb the count. After one
//! warm-up transaction, one transaction of TPC-B operations (three
//! read-modify-writes and a history insert each) runs through
//! `TxnHandle` on this thread, and the allocations it made are divided
//! by its operations; then updates alone are counted the same way.
//! Nothing here is timed: the count is a property of the code.

use dali::workload::{TpcbConfig, TpcbDriver};
use dali::{DaliConfig, DaliEngine, ProtectionScheme, RecId, SlotId, TableId};
use dali_testutil::TempDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Operations in the measured transaction.
const OPS: usize = 500;

/// Run one transaction of `ops` TPC-B operations on this thread, without
/// allocating in the driver itself: records are read into and written
/// from stack buffers.
fn tpcb_txn(db: &DaliEngine, tables: [TableId; 3], history: TableId, ops: usize, seed: usize) {
    let rows = [1_000, 100, 10];
    let txn = db.begin().unwrap();
    let mut buf = [0u8; 100];
    for i in 0..ops {
        let k = seed * OPS + i;
        for (table, n) in tables.into_iter().zip(rows) {
            let rec = RecId::new(table, SlotId(((k * 7919) % n) as u32));
            txn.read(rec, &mut buf).unwrap();
            buf[..8].copy_from_slice(&(k as u64).to_le_bytes());
            txn.update(rec, &buf).unwrap();
        }
        buf[..8].copy_from_slice(&(k as u64).to_le_bytes());
        txn.insert(history, &buf).unwrap();
    }
    txn.commit().unwrap();
}

/// A TPC-B database under `scheme`, its tables, and one warm-up
/// transaction run.
fn warm_engine(dir: &TempDir, scheme: ProtectionScheme) -> (DaliEngine, [TableId; 3], TableId) {
    let wl = TpcbConfig::small();
    let mut config = DaliConfig::small(dir.path()).with_scheme(scheme);
    config.db_pages = wl.required_pages(config.page_size);
    let (db, _) = DaliEngine::create(config).unwrap();
    let (a, t, b, h) = TpcbDriver::setup(&db, wl).unwrap().tables();
    tpcb_txn(&db, [a, t, b], h, OPS, 0);
    (db, [a, t, b], h)
}

/// Allocations per TPC-B operation, transaction begin and commit
/// included. A lock keeps its first holder inline and the update path
/// reuses its buffers, so what is left is the few allocations a
/// transaction makes once (its begin and commit, its buffers growing
/// from empty), spread over its operations.
const TPCB_BOUND: f64 = 0.1;

/// Allocations per update of a record the transaction already holds:
/// the undo arena, the undo stack and the redo frame buffer only grow,
/// doubling, so the update path itself allocates nothing per call.
const UPDATE_BOUND: f64 = 0.05;

#[test]
fn tpcb_operations_allocate_within_bound_under_baseline_and_data_codeword() {
    for scheme in [ProtectionScheme::Baseline, ProtectionScheme::DataCodeword] {
        let dir = TempDir::new("update-path-allocs");
        let (db, tables, history) = warm_engine(&dir, scheme);
        let before = allocs();
        tpcb_txn(&db, tables, history, OPS, 1);
        let per_op = (allocs() - before) as f64 / OPS as f64;
        eprintln!("{scheme:?}: {per_op:.3} allocations per TPC-B operation");
        assert!(
            per_op <= TPCB_BOUND,
            "{scheme:?}: {per_op:.3} allocations per operation, bound {TPCB_BOUND}"
        );

        // Updates alone, of records this transaction has locked already.
        let txn = db.begin().unwrap();
        let recs: Vec<RecId> = (0..10).map(|i| RecId::new(tables[0], SlotId(i))).collect();
        let mut buf = [7u8; 100];
        for &rec in &recs {
            txn.update(rec, &buf).unwrap();
        }
        let before = allocs();
        for i in 0..OPS {
            buf[0] = i as u8;
            txn.update(recs[i % recs.len()], &buf).unwrap();
        }
        let per_update = (allocs() - before) as f64 / OPS as f64;
        txn.commit().unwrap();
        eprintln!("{scheme:?}: {per_update:.3} allocations per update");
        assert!(
            per_update <= UPDATE_BOUND,
            "{scheme:?}: {per_update:.3} allocations per update, bound {UPDATE_BOUND}"
        );
    }
}

/// Allocations per short transaction — begin, one update, commit — once
/// a few have run: the transaction's undo arena, undo stacks, redo
/// buffer and side lists come back from the ones finished before it, so
/// what is left is the handle's shared state and nothing that grows.
const CYCLE_BOUND: u64 = 1;

#[test]
fn a_warmed_begin_update_commit_cycle_reuses_its_buffers() {
    const CYCLES: u64 = 200;
    for scheme in [ProtectionScheme::Baseline, ProtectionScheme::DataCodeword] {
        let dir = TempDir::new("cycle-allocs");
        let (db, tables, _) = warm_engine(&dir, scheme);
        let mut buf = [3u8; 100];
        let cycle = |i: u64, buf: &mut [u8; 100]| {
            buf[..8].copy_from_slice(&i.to_le_bytes());
            let txn = db.begin().unwrap();
            txn.update(RecId::new(tables[0], SlotId((i % 100) as u32)), buf)
                .unwrap();
            txn.commit().unwrap();
        };
        for i in 0..CYCLES {
            cycle(i, &mut buf);
        }
        let before = allocs();
        for i in 0..CYCLES {
            cycle(CYCLES + i, &mut buf);
        }
        let total = allocs() - before;
        eprintln!(
            "{scheme:?}: {:.2} allocations per begin, update and commit",
            total as f64 / CYCLES as f64
        );
        assert!(
            total <= CYCLE_BOUND * CYCLES,
            "{scheme:?}: {total} allocations in {CYCLES} cycles, bound {CYCLE_BOUND} each"
        );
    }
}
