//! The crash simulator: one seeded loop in place of hand-built crash
//! and corruption states.
//!
//! Each seed runs a random single-threaded workload — inserts, updates,
//! deletes, reads, commits, aborts, checkpoints (some with a transaction
//! open), tiny log segments with retirement on, `sync_commit` either way,
//! either codeword algebra — against an
//! engine whose files live on a [`SimStore`]. At a seeded storage call
//! the store fails with `EIO` (the workload carries on past a failed
//! checkpoint, and stops at any other failure) or the process dies, or
//! the machine loses power (see the store's crash model). The disk that
//! is left is reopened through `open`, or `open_prior_state` at a seeded
//! earlier position, sometimes crashing again inside recovery, and the
//! result is held against a shadow model:
//!
//! * every acknowledged-durable commit is present, and under a process
//!   death every commit whose `flush` returned;
//! * uncommitted work is absent, and the transaction in flight at the
//!   crash is all or nothing — the table equals the shadow state after
//!   some commit in between;
//! * the audit is clean, the recovered engine takes a new transaction
//!   and a checkpoint, and no call panics;
//! * the new transaction and the recovered state survive a crash right
//!   after it — on half the seeds (drawn from a stream of their own)
//!   before the checkpoint, so that the log alone holds what recovery
//!   did, rollback included;
//! * the roll protocol's invariants (DESIGN.md §10) hold on the
//!   post-crash disk: a `.seg` name follows only a sealed, intact
//!   predecessor, and the log directory no longer changes once
//!   `settle()` and the crash have returned.
//!
//! Under the codeword schemes the workload also makes *corruption moves*
//! between transactions, with the scheduled fault held: a seeded
//! [`CorruptionPattern`] lands in the arena (a [`FaultInjector`] wild
//! write into a live record, sometimes a single flip in another region of
//! its 8-region block too, then 0–2 committed *carriers* that read or
//! write it, then
//! an audit, a checkpoint or a crash and reopen), in the anchored
//! checkpoint image (judged by `scrub_anchored_image`) or in a stable log
//! frame's payload (judged by a `LogReader` scan). The verdict is
//! predicted from the bytes: arena and image damage is detected iff the
//! fold of a damaged region moves (maintenance moves a codeword by
//! `fold(old)` → `fold(new)`, so the mismatch survives later updates);
//! log damage is rejected iff the frame checksum moves or the payload no
//! longer decodes. Detected damage leaves the shadow's latest table under
//! `DataCodeword` (online repair from the anchored checkpoint plus the
//! log, which rewrites the whole page, the second region included), and
//! the shadow replayed without the deleted
//! transactions, every carrier among them, under `CwReadLogging`. A
//! predicted miss runs no carriers and puts the bytes back. Half the
//! arena moves hold a transaction open across detection, with 1–3
//! updates of live records the damage missed (often the damaged
//! region's other record); once the rung has run it commits or aborts,
//! and its writes must be whole or absent whatever resolved the damage. Those
//! draws come from a stream of their own, so the others are as before.
//!
//! `cargo test --test crash_sim` runs a small fixed seed range.
//! `CRASH_SIM_SEEDS=n` runs seeds `0..n` (`CRASH_SIM_FIRST` moves the
//! start) and prints what the moves injected and detected,
//! `CRASH_SIM_SEED=s` runs one. The store runs no background threads, so
//! a seed replays call for call. A failure names its seed and writes the
//! post-crash files to a directory it prints: opening that directory with
//! the printed configuration on the OS store replays the recovery half.

#[path = "support/sim_store.rs"]
mod sim_store;

use dali_common::storage::{Open, Storage, StorageFile};
use dali_common::{
    CodewordAlgebraKind, DaliConfig, DbAddr, Lsn, ProtectionScheme, RecId, SlotId, TableId, TxnId,
};
use dali_engine::db::Db;
use dali_engine::{CheckpointOutcome, DaliEngine, RecoveryMode, RecoveryOutcome};
use dali_faultinject::{algebra_expected_detected, CorruptionPattern, FaultInjector};
use dali_wal::record::{checksum_with, FRAME_HDR};
use dali_wal::{segment, LogReader, LogRecord, LogRecordRef, SegmentBuf, SystemLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_store::{Fault, SimStore};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;

/// Seeds `cargo test` runs when no variable says otherwise.
const DEFAULT_SEEDS: u64 = 64;
/// Seeds that found a bug, run besides the range: each fails on the tree
/// without its fix.
const REGRESSION_SEEDS: [u64; 12] = [
    96,    // a failed checkpoint dropped its dirty pages
    493,   // (the same, seen by a checkpoint-image move)
    37,    // prior-state recovery replayed onto a half-overwritten image
    681,   // a retirement gap stopped restart
    144,   // restart logged its aborts before the exit checkpoint held the rollback
    330,   // open claimed durable a log tail a process death left unsynced
    41,    // a wild write a committed update overwrote, repaired from the log
    124, // the log rung rolled back an open transaction; a repair left a carrier's commit unsynced
    4192, // a delta certification anchored past read-logged carriers
    559, // a torn batch's writes resurfaced at the abort a restart logged
    1128, // (the same, under another configuration)
    10494, // a deleted carrier's rollback restored damage the fold missed
];
const REC: usize = 32;
const CAPACITY: usize = 48;
/// The database directory on the simulated disk.
const ROOT: &str = "/sim/db";

type Table = BTreeMap<RecId, Vec<u8>>;

/// A committed transaction, as the delete-transaction oracle needs it.
struct Commit {
    txn: TxnId,
    /// Its writes in order: a new value, or `None` for a delete.
    writes: Vec<(RecId, Option<Vec<u8>>)>,
    /// Records whose bytes it read or wrote (§4.3 treats a write as a
    /// read).
    touched: Vec<RecId>,
}

/// What the workload did, as far as recovery is concerned.
struct Shadow {
    /// The table after each commit, in commit order; the last may belong
    /// to a commit that failed (its outcome is unknown).
    states: Vec<Table>,
    /// The transaction behind each state after the first.
    commits: Vec<Commit>,
    /// A power loss keeps at least `states[durable]`.
    durable: usize,
    /// A process death keeps at least `states[written]`.
    written: usize,
    /// Prior-state targets: a log position and the last commit before it.
    points: Vec<(Lsn, usize)>,
}

impl Shadow {
    fn new(table: Table) -> Shadow {
        Shadow {
            states: vec![table],
            commits: Vec::new(),
            durable: 0,
            written: 0,
            points: Vec::new(),
        }
    }

    fn last(&self) -> usize {
        self.states.len() - 1
    }

    fn committed(&mut self, sync: bool) {
        self.written = self.last();
        if sync {
            self.durable = self.last();
        }
    }

    fn certified(&mut self, ck_end: Lsn) {
        self.durable = self.written;
        self.points.push((ck_end, self.written));
    }

    /// The table had the transactions in `deleted` never run.
    fn without(&self, deleted: &[TxnId]) -> Table {
        let mut table = self.states[0].clone();
        for c in self.commits.iter().filter(|c| !deleted.contains(&c.txn)) {
            for (rec, v) in &c.writes {
                match v {
                    Some(v) => table.insert(*rec, v.clone()),
                    None => table.remove(rec),
                };
            }
        }
        table
    }
}

/// What the corruption moves did over a run of seeds.
#[derive(Default)]
struct Tally {
    /// `target pattern algebra` → (injected, detected).
    cells: BTreeMap<String, (u64, u64)>,
    /// How detected damage was resolved, and predicted misses per target:
    /// (moves, moves that held a transaction open across detection).
    rungs: BTreeMap<&'static str, (u64, u64)>,
}

/// A transaction an arena move holds open across detection, and the
/// values it wrote.
struct OpenTxn {
    txn: dali_engine::TxnHandle,
    writes: Vec<(RecId, Vec<u8>)>,
}

fn config(rng: &mut StdRng) -> DaliConfig {
    let schemes = [
        ProtectionScheme::Baseline,
        ProtectionScheme::DataCodeword,
        ProtectionScheme::CwReadLogging,
    ];
    let mut c = DaliConfig::small(ROOT)
        .with_scheme(schemes[rng.gen_range(0..schemes.len())])
        .with_log_segment_bytes(1024);
    c.page_size = 4096;
    c.db_pages = 16;
    c.sync_commit = rng.gen_bool(0.5);
    c.full_certify_every = if rng.gen_bool(0.5) { 0 } else { 3 };
    c.codeword_algebra = CodewordAlgebraKind::ALL[rng.gen_range(0..2usize)];
    // This draw chose a parity-stripe layout when the engine kept one;
    // it stays so that every seed, the regression seeds above among
    // them, keeps the run it was recorded with.
    let _ = rng.gen_bool(0.5);
    c
}

fn value(rng: &mut StdRng) -> Vec<u8> {
    let mut v = vec![0u8; REC];
    rng.fill(&mut v[..]);
    v
}

fn pick(table: &Table, rng: &mut StdRng) -> RecId {
    *table.keys().nth(rng.gen_range(0..table.len())).unwrap()
}

/// The rows of the detection table that hold whatever the bytes: one
/// flip and three flips in a column always move the fold, and a
/// same-column pair inside one region cancels exactly under XOR. (A burst
/// or a torn page moves it or not with the contents.)
fn detection_rows(p: CorruptionPattern, k: CodewordAlgebraKind, moved: bool) -> Result<(), String> {
    let content_free = !matches!(p, CorruptionPattern::Burst | CorruptionPattern::TornPage);
    match content_free && moved != algebra_expected_detected(k, p) {
        true => Err(format!("{p:?} under {k:?}: the fold moved = {moved}")),
        false => Ok(()),
    }
}

fn read_table(engine: &DaliEngine) -> Result<Table, String> {
    let t = engine.table("t").map_err(err)?;
    let txn = engine.begin().map_err(err)?;
    let mut table = Table::new();
    for slot in 0..CAPACITY as u32 {
        let rec = RecId::new(t, SlotId(slot));
        match txn.read_vec(rec) {
            Ok(v) => {
                table.insert(rec, v);
            }
            Err(dali_common::DaliError::NotFound(_)) => {}
            Err(e) => return Err(format!("reading {rec}: {e}")),
        }
    }
    txn.commit().map_err(err)?;
    Ok(table)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A live engine on its simulated disk, with everything the workload and
/// its moves change.
struct Run<'a> {
    engine: DaliEngine,
    sim: SimStore,
    config: &'a DaliConfig,
    t: TableId,
    rng: &'a mut StdRng,
    /// The draws for transactions held open across detection, apart from
    /// `rng` so that adding them moved no other draw.
    side: StdRng,
    /// Does the current move hold a transaction open?
    txn_open: bool,
    shadow: Shadow,
    tally: &'a mut Tally,
}

/// A damaged arena window: the bytes it held and the bytes written.
struct Damage {
    rec: RecId,
    addr: DbAddr,
    before: Vec<u8>,
    after: Vec<u8>,
}

/// Damage the fold misses, in a record carriers wrote.
struct Leak {
    rec: RecId,
    /// Where the damage starts in the record.
    at: usize,
    /// The damaged bytes XOR their values.
    xor: Vec<u8>,
    /// The carriers that wrote the record.
    writers: Vec<TxnId>,
}

impl Run<'_> {
    /// A checkpoint: `Ok(true)` if certified, `Ok(false)` if it failed
    /// (the workload carries on), `Err` if it was refused, which nothing
    /// here should cause.
    fn checkpoint(&mut self) -> Result<bool, String> {
        match self.engine.checkpoint() {
            Ok(CheckpointOutcome::Certified { ck_end, .. }) => {
                self.shadow.certified(ck_end);
                Ok(true)
            }
            Ok(other) => Err(format!("checkpoint refused: {other:?}")),
            Err(_) => Ok(false),
        }
    }

    /// One transaction. `Ok(false)` stops the workload: something failed,
    /// and what the engine holds in memory may no longer be what the
    /// shadow says. A carrier starts by reading or writing one of
    /// `carrier`'s records, and commits: an abort's rollback would log
    /// the damaged before-image as a restore, and replay would write the
    /// damage back, which is carried corruption no cache recovery undoes.
    fn transaction(&mut self, carrier: Option<&[RecId]>) -> Result<bool, String> {
        let Ok(txn) = self.engine.begin() else {
            return Ok(false);
        };
        let t = self.t;
        let mut next = self.shadow.states[self.shadow.written].clone();
        let mut c = Commit {
            txn: txn.id(),
            writes: Vec::new(),
            touched: Vec::new(),
        };
        for i in 0..self.rng.gen_range(1..=3) {
            let rng = &mut *self.rng;
            let v = value(rng);
            let first = carrier.filter(|_| i == 0);
            // 0 insert, 1 delete, 2 update, 3 read; a carrier's first op
            // updates or reads.
            let done = match rng.gen_range(if first.is_some() { 2 } else { 0 }..4) {
                0 if next.len() < CAPACITY - 8 => txn.insert(t, &v).map(|rec| {
                    next.insert(rec, v.clone());
                    c.touched.push(rec);
                    c.writes.push((rec, Some(v)));
                }),
                1 if next.len() > 1 => {
                    let rec = pick(&next, rng);
                    next.remove(&rec);
                    c.writes.push((rec, None));
                    txn.delete(rec)
                }
                op => {
                    let rec = match first {
                        Some(recs) => recs[rng.gen_range(0..recs.len())],
                        None => pick(&next, rng),
                    };
                    c.touched.push(rec);
                    if op == 3 {
                        txn.read_vec(rec).map(drop)
                    } else {
                        next.insert(rec, v.clone());
                        c.writes.push((rec, Some(v)));
                        txn.update(rec, &next[&rec])
                    }
                }
            };
            if done.is_err() {
                return Ok(false);
            }
        }
        // Its records reach the log and the checkpoint's ATT uncommitted.
        if carrier.is_none() && self.rng.gen_bool(0.1) && !self.checkpoint()? {
            return Ok(false);
        }
        if carrier.is_none() && self.rng.gen_bool(0.2) {
            return Ok(txn.abort().is_ok());
        }
        self.shadow.states.push(next);
        self.shadow.commits.push(c);
        let ok = txn.commit().is_ok();
        if ok {
            self.shadow.committed(self.config.sync_commit);
        }
        Ok(ok)
    }

    fn workload(&mut self) -> Result<(), String> {
        let corrupts = self.config.scheme.maintains_codewords();
        for _ in 0..self.rng.gen_range(10..60) {
            if self.sim.is_dead() {
                break;
            }
            let go_on = match self.rng.gen_range(0..100) {
                // A failed checkpoint is often retried at once.
                0..8 => {
                    self.checkpoint()? || !self.rng.gen_bool(0.5) || {
                        self.checkpoint()?;
                        true
                    }
                }
                8..12 => match self.engine.current_lsn() {
                    Ok(lsn) => {
                        self.shadow.points.push((lsn, self.shadow.written));
                        true
                    }
                    Err(_) => false,
                },
                12..14 => self.engine.settle().is_ok(),
                14..20 if corrupts => self.corruption()?,
                _ => self.transaction(None)?,
            };
            if !go_on {
                break;
            }
        }
        Ok(())
    }

    /// One corruption move, on a live engine and a healthy log, with the
    /// fault held.
    fn corruption(&mut self) -> Result<bool, String> {
        if self.engine.db().check_alive().is_err() || self.engine.settle().is_err() {
            return Ok(false);
        }
        let held = self.sim.hold();
        self.txn_open = false;
        let pattern = CorruptionPattern::ALL[self.rng.gen_range(0..5usize)];
        let (target, detected) = match self.rng.gen_range(0..3) {
            0 => ("arena", self.arena(pattern)?),
            1 => ("image", self.image(pattern)?),
            _ => ("wal", self.wal(pattern)?),
        };
        if let Some(hit) = detected {
            let kind = self.config.codeword_algebra;
            let cell = format!(
                "{target:<6} {:<17} {:<8}",
                format!("{pattern:?}"),
                format!("{kind:?}")
            );
            let (n, hits) = self.tally.cells.entry(cell).or_default();
            (*n, *hits) = (*n + 1, *hits + u64::from(hit));
        }
        self.sim.resume(held);
        Ok(true)
    }

    /// Count a rung for the current move.
    fn rung(&mut self, rung: &'static str) {
        let (n, open) = self.tally.rungs.entry(rung).or_default();
        (*n, *open) = (*n + 1, *open + u64::from(self.txn_open));
    }

    /// Perhaps (the side stream decides) begin a transaction that updates
    /// 1–3 live records the damage missed, the first maybe the one
    /// sharing a damaged region, and leave it open. Each update reaches
    /// the log at its operation's commit.
    fn open_txn(&mut self, damaged: &[RecId]) -> Result<Option<OpenTxn>, String> {
        let now = &self.shadow.states[self.shadow.written];
        let live: Vec<RecId> = (now.keys().copied())
            .filter(|r| !damaged.contains(r))
            .collect();
        if live.is_empty() || !self.side.gen_bool(0.5) {
            return Ok(None);
        }
        let region = self.rec_region(damaged[0]);
        let neighbour = live.iter().copied().find(|&r| self.rec_region(r) == region);
        let txn = self.engine.begin().map_err(err)?;
        let mut writes = Vec::new();
        for i in 0..self.side.gen_range(1..=3) {
            let rec = match neighbour {
                Some(rec) if i == 0 && self.side.gen_bool(0.5) => rec,
                _ => live[self.side.gen_range(0..live.len())],
            };
            let v = value(&mut self.side);
            txn.update(rec, &v).map_err(err)?;
            writes.push((rec, v));
        }
        self.txn_open = true;
        Ok(Some(OpenTxn { txn, writes }))
    }

    /// Commit or abort the open transaction, as the side stream says.
    fn finish(&mut self, open: OpenTxn) -> Result<(), String> {
        let OpenTxn { txn, writes } = open;
        if self.side.gen_bool(0.5) {
            return txn.abort().map_err(err);
        }
        let mut next = self.shadow.states[self.shadow.written].clone();
        let mut c = Commit {
            txn: txn.id(),
            writes: Vec::new(),
            touched: Vec::new(),
        };
        for (rec, v) in writes {
            next.insert(rec, v.clone());
            c.touched.push(rec);
            c.writes.push((rec, Some(v)));
        }
        self.shadow.states.push(next);
        self.shadow.commits.push(c);
        txn.commit().map_err(err)?;
        self.shadow.committed(self.config.sync_commit);
        Ok(())
    }

    fn region(&self, addr: DbAddr) -> usize {
        addr.0 / self.config.region_size
    }

    fn addr(&self, rec: RecId) -> DbAddr {
        self.engine.record_addr(rec).expect("a record slot")
    }

    fn rec_region(&self, rec: RecId) -> usize {
        self.region(self.addr(rec))
    }

    fn file(&self, path: &Path) -> Result<Box<dyn StorageFile>, String> {
        self.sim.open(path, Open::Write).map_err(err)
    }

    /// `pattern` over a seeded window of a live record's bytes `rec`:
    /// the window's offset in the record and its damaged bytes.
    fn window(&mut self, pattern: CorruptionPattern, rec: &[u8]) -> Option<(usize, Vec<u8>)> {
        let off = self.rng.gen_range(0..=REC / 2);
        Some((off, pattern.apply(&rec[off..])?))
    }

    /// Does writing `bytes` at `addr` move the fold of its region, which
    /// holds `region`?
    fn moves_fold(&self, addr: DbAddr, bytes: &[u8], region: &[u8]) -> bool {
        let mut after = region.to_vec();
        let at = addr.0 % self.config.region_size;
        after[at..at + bytes.len()].copy_from_slice(bytes);
        let fold = |bytes| dali_common::fold::fold(self.config.codeword_algebra, bytes);
        fold(region) != fold(&after)
    }

    /// Write `bytes` into the arena behind the codewords' back.
    fn poke(&self, addr: DbAddr, bytes: &[u8]) -> Result<(), String> {
        self.engine.raw_image().write(addr, bytes).map_err(err)
    }

    /// An arena move: whether the engine flagged the damage, or `None` if
    /// the pattern found nothing to change.
    fn arena(&mut self, pattern: CorruptionPattern) -> Result<Option<bool>, String> {
        let (kind, size) = (self.config.codeword_algebra, self.config.region_size);
        let latest = self.shadow.states[self.shadow.written].clone();
        let rec = pick(&latest, self.rng);
        let Some((off, bytes)) = self.window(pattern, &latest[&rec]) else {
            return Ok(None);
        };
        let mut hits = vec![(rec, self.addr(rec).add(off), bytes)];
        // A double fault: a single flip in another region of the block.
        let first = self.rec_region(rec);
        let siblings: Vec<RecId> = (latest.keys().copied())
            .filter(|&o| self.rec_region(o) != first && self.rec_region(o) / 8 == first / 8)
            .collect();
        if !siblings.is_empty() && self.rng.gen_bool(0.3) {
            let other = siblings[self.rng.gen_range(0..siblings.len())];
            let flip = CorruptionPattern::SingleFlip.apply(&latest[&other][..1]);
            hits.push((other, self.addr(other), flip.unwrap()));
        }
        let (mut moved, mut damage) = (Vec::new(), Vec::new());
        for (rec, addr, after) in hits {
            let mut region = vec![0u8; size];
            let image = self.engine.raw_image();
            image
                .read(DbAddr(addr.0 / size * size), &mut region)
                .map_err(err)?;
            if self.moves_fold(addr, &after, &region) {
                moved.push(addr.0 / size);
            }
            let before = region[addr.0 % size..][..after.len()].to_vec();
            FaultInjector::new(&self.engine)
                .wild_write_bytes(addr, &after)
                .map_err(err)?;
            damage.push(Damage {
                rec,
                addr,
                before,
                after,
            });
        }
        detection_rows(pattern, kind, moved.contains(&first))?;
        let predicted = !moved.is_empty();

        // ---- carriers ----
        let mark = self.shadow.commits.len();
        let recs: Vec<RecId> = damage.iter().map(|d| d.rec).collect();
        let n = if predicted {
            self.rng.gen_range(0..=2)
        } else {
            0
        };
        for _ in 0..n {
            let now = &self.shadow.states[self.shadow.written];
            let live: Vec<RecId> = recs
                .iter()
                .copied()
                .filter(|r| now.contains_key(r))
                .collect();
            if live.is_empty() {
                break;
            }
            if !self.transaction(Some(&live))? {
                return Err("a carrier transaction failed".into());
            }
        }
        // Open only now: a carrier would wait on its locks.
        let open = self.open_txn(&recs)?;
        let carried = &self.shadow.commits[mark..];
        // The commits the delete-transaction model must remove: every
        // carrier that touched a region whose fold moved.
        let carriers: Vec<TxnId> = (carried.iter())
            .filter(|c| {
                c.touched
                    .iter()
                    .any(|&r| moved.contains(&self.rec_region(r)))
            })
            .filter(|_| self.config.scheme == ProtectionScheme::CwReadLogging)
            .map(|c| c.txn)
            .collect();
        let blind = |d: &Damage| !moved.contains(&(d.addr.0 / size));
        // A carrier that writes a record whose damage the fold misses takes
        // the damage into its before-image. If the §4.3 scan deletes that
        // carrier, its rollback writes the image back, damage and all,
        // unless the scan tainted it before that write. The model does not
        // replay the scan, so either value is the shadow's.
        let leaks: Vec<Leak> = (damage.iter().filter(|d| blind(d)))
            .map(|d| Leak {
                rec: d.rec,
                at: d.addr.0 - self.addr(d.rec).0,
                xor: d.before.iter().zip(&d.after).map(|(b, a)| b ^ a).collect(),
                writers: (carried.iter())
                    .filter(|c| c.writes.iter().any(|(r, _)| *r == d.rec))
                    .map(|c| c.txn)
                    .collect(),
            })
            .collect();

        // ---- detection ----
        let delta = self.engine.stats().certify_delta.load(Relaxed);
        let detected = match self.rng.gen_range(0..3) {
            0 => !self.engine.audit().map_err(err)?.clean(),
            1 => match self.engine.checkpoint().map_err(err)? {
                CheckpointOutcome::Certified { ck_end, .. } if predicted => {
                    // Only a delta certification may skip the damaged page,
                    // and only without read logging: it anchors past the
                    // carriers, which no restart looks at again. An audit
                    // must find the damage.
                    self.shadow.certified(ck_end);
                    if self.config.scheme.logs_reads() {
                        return Err("a certification anchored past read-logged carriers".into());
                    }
                    if self.engine.stats().certify_delta.load(Relaxed) == delta {
                        return Err("a full certification missed detectable damage".into());
                    }
                    self.rung("a delta certification skipped it");
                    !self.engine.audit().map_err(err)?.clean()
                }
                CheckpointOutcome::Certified { ck_end, .. } => {
                    // What the image certified must leave both images.
                    self.shadow.certified(ck_end);
                    for d in damage.drain(..) {
                        self.poke(d.addr, &d.before)?;
                        let pages = self.engine.raw_image().pages_overlapping(d.addr, REC);
                        self.engine.db().syslog.dirty().note_all(pages);
                    }
                    if !(self.checkpoint()? && self.checkpoint()?) {
                        return Err("a checkpoint after a miss failed".into());
                    }
                    false
                }
                _ => true,
            },
            // The open transaction, if any, dies with the process.
            _ => return self.reopen(&carriers, &leaks, false).map(Some),
        };
        // Detection has run: the transaction open across it ends now,
        // unless detection poisoned the engine and takes it down.
        let alive = self.engine.db().check_alive().is_ok();
        if let Some(open) = open.filter(|_| alive) {
            self.finish(open)?;
        }
        if detected != predicted {
            return Err(format!("arena: detected {detected}, predicted {predicted}"));
        }
        let latest = self.shadow.states[self.shadow.written].clone();
        if !detected {
            for d in &damage {
                self.poke(d.addr, &d.before)?;
            }
            self.rung("miss: arena");
            return self.holds(latest, "a missed write").map(|()| Some(false));
        }
        if self.engine.db().check_alive().is_err() {
            // Poisoned: a read-logging scheme; online repair refuses there.
            if self.config.scheme == ProtectionScheme::DataCodeword {
                return Err("online repair gave up".into());
            }
            return self.reopen(&carriers, &leaks, true).map(|_| Some(true));
        }
        self.rung("repaired from the log");
        self.holds(latest, "a repair").map(|()| Some(true))
    }

    /// Crash and reopen in place; the table must be the shadow without the
    /// deleted transactions, which include `carriers`; a record of `leaks`
    /// that a deleted transaction wrote may also hold its damage. Returns
    /// whether recovery deleted any.
    fn reopen(
        &mut self,
        carriers: &[TxnId],
        leaks: &[Leak],
        poisoned: bool,
    ) -> Result<bool, String> {
        self.engine.clone().crash();
        let (engine, outcome) =
            DaliEngine::open_on(self.config.clone(), self.sim.store()).map_err(err)?;
        self.engine = engine;
        let RecoveryOutcome {
            mode, deleted_txns, ..
        } = outcome;
        let want = match (self.config.scheme, poisoned) {
            (ProtectionScheme::CwReadLogging, _) => RecoveryMode::DeleteTxn,
            (_, true) => RecoveryMode::CacheRecovery,
            (_, false) => RecoveryMode::Normal,
        };
        if mode != want {
            return Err(format!("recovered in {mode:?}, expected {want:?}"));
        }
        if let Some(c) = carriers.iter().find(|c| !deleted_txns.contains(c)) {
            return Err(format!("carrier {c:?} survived, deleted {deleted_txns:?}"));
        }
        self.rung(match mode {
            RecoveryMode::Normal => "discarded by restart",
            RecoveryMode::CacheRecovery => "CacheRecovery",
            _ => "DeleteTxn",
        });
        let mut want = self.shadow.without(&deleted_txns);
        let got = read_table(&self.engine)?;
        for l in leaks
            .iter()
            .filter(|l| l.writers.iter().any(|t| deleted_txns.contains(t)))
        {
            if let (Some(w), Some(g)) = (want.get_mut(&l.rec), got.get(&l.rec)) {
                let mut leaked = w.clone();
                leaked[l.at..]
                    .iter_mut()
                    .zip(&l.xor)
                    .for_each(|(b, x)| *b ^= x);
                if *g == leaked {
                    *w = leaked;
                }
            }
        }
        self.holds(want.clone(), "recovery")?;
        self.shadow = Shadow::new(want);
        Ok(!deleted_txns.is_empty())
    }

    /// The engine holds `want` and audits clean.
    fn holds(&self, want: Table, after: &str) -> Result<(), String> {
        let got = read_table(&self.engine)?;
        if got != want {
            return Err(format!("after {after}: {}", diff(&got, &want)));
        }
        match self.engine.audit() {
            Ok(report) if report.clean() => Ok(()),
            other => Err(format!("audit after {after}: {other:?}")),
        }
    }

    /// A checkpoint-image move: whether the scrub flagged the damage.
    fn image(&mut self, pattern: CorruptionPattern) -> Result<Option<bool>, String> {
        if !self.checkpoint()? {
            return Err("a checkpoint with the fault held failed".into());
        }
        let latest = self.shadow.states[self.shadow.written].clone();
        let rec = pick(&latest, self.rng);
        let Some((off, bytes)) = self.window(pattern, &latest[&rec]) else {
            return Ok(None);
        };
        let (addr, size) = (self.addr(rec).add(off), self.config.region_size);
        let dir = Path::new(ROOT);
        let (image, _) = dali_engine::ckpt::read_anchor(&self.sim, dir).map_err(err)?;
        let f = self.file(&Db::img_path(dir, image))?;
        let (region, base) = (addr.0 / size, (addr.0 / size * size) as u64);
        let mut bytes_before = vec![0u8; size];
        f.read_at(&mut bytes_before, base).map_err(err)?;
        let moved = self.moves_fold(addr, &bytes, &bytes_before);
        detection_rows(pattern, self.config.codeword_algebra, moved)?;
        f.write_at(&bytes, addr.0 as u64).map_err(err)?;
        let report = dali_engine::ckpt::scrub_anchored_image(self.engine.db()).map_err(err)?;
        f.write_at(&bytes_before, base).map_err(err)?;
        let flagged: Vec<usize> = report.corrupt.iter().map(|c| c.region).collect();
        if flagged != [region][..usize::from(moved)] {
            return Err(format!(
                "image: the scrub flagged {flagged:?}, moved {moved}"
            ));
        }
        if !moved {
            self.rung("miss: image");
        }
        Ok(Some(moved))
    }

    /// The LSN of every record a scan of the stable log from `from` returns.
    fn scan(&self, log: &Path, from: Lsn) -> Result<Vec<Lsn>, String> {
        let mut lsns = Vec::new();
        let reader = LogReader::open_on(&self.sim, log, from, self.config.codeword_algebra);
        let scan = reader.and_then(|r| {
            r.for_each(|lsn, _| {
                lsns.push(lsn);
                Ok(())
            })
        });
        scan.map(|()| lsns).map_err(err)
    }

    /// A WAL move: whether the scan rejected the damaged frame.
    fn wal(&mut self, pattern: CorruptionPattern) -> Result<Option<bool>, String> {
        let kind = self.config.codeword_algebra;
        self.engine.current_lsn().map_err(err)?;
        self.engine.settle().map_err(err)?;
        let log = Path::new(ROOT).join("system.log");
        let first = segment::list_on(&self.sim, &log).map_err(err)?[0].base;
        let frames = self.scan(&log, first)?;
        let frame = frames[self.rng.gen_range(0..frames.len())];
        let segments = segment::list_on(&self.sim, &log).map_err(err)?;
        let seg = segments.iter().rfind(|s| s.base <= frame).unwrap().base;
        let mut file = Vec::new();
        let path = segment::path(&log, seg);
        self.sim.read(&path, &mut file).map_err(err)?;
        let at = (frame.0 - seg.0) as usize;
        let len = u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
        let payload = &file[at + FRAME_HDR..at + FRAME_HDR + len];
        let off = self.rng.gen_range(0..len);
        let window = off..(off + 16).min(len);
        let Some(bytes) = pattern.apply(&payload[window.clone()]) else {
            return Ok(None);
        };
        let mut altered = payload.to_vec();
        altered[window.clone()].copy_from_slice(&bytes);
        let predicted = checksum_with(kind, payload) != checksum_with(kind, &altered)
            || LogRecordRef::decode(&altered).is_err();
        let (f, pos) = (self.file(&path)?, (at + FRAME_HDR + off) as u64);
        f.write_at(&bytes, pos).map_err(err)?;
        let kept = self.scan(&log, first)?.contains(&frame);
        f.write_at(&payload[window], pos).map_err(err)?;
        if kept == predicted {
            return Err(format!("WAL: rejected {}, predicted {predicted}", !kept));
        }
        if kept
            && matches!(
                pattern,
                CorruptionPattern::SingleFlip | CorruptionPattern::ThreeFlip
            )
        {
            return Err("WAL: a frame with one or three flips was accepted".into());
        }
        if kept {
            self.rung("miss: wal");
        }
        Ok(Some(!kept))
    }
}

/// Roll invariant 2, read off a disk: every named segment whose chain
/// predecessor is present follows a predecessor that is sealed and
/// intact.
fn named_segments_follow_seals(disk: &SimStore, config: &DaliConfig) -> Result<(), String> {
    let log = Path::new(ROOT).join("system.log");
    let segments = segment::list_on(disk, &log).map_err(err)?;
    for pair in segments.windows(2).filter(|w| w[0].end() == w[1].base) {
        let seg =
            SegmentBuf::load(disk, &log, pair[0].base, 0, config.codeword_algebra).map_err(err)?;
        if !seg.ends_with_seal() || seg.torn_bytes() > 0 {
            return Err(format!(
                "{} is named but {} is not sealed and intact",
                segment::file_name(pair[1].base),
                segment::file_name(pair[0].base)
            ));
        }
    }
    Ok(())
}

/// The records where `got` and `want` differ, each with the first offset
/// where they do and both values' bytes from there on (up to 8).
fn diff(got: &Table, want: &Table) -> String {
    let keys: BTreeSet<_> = got.keys().chain(want.keys()).collect();
    let show = |v: Option<&Vec<u8>>, at: usize| {
        v.map_or("absent".to_string(), |v| {
            format!("{:02x?}", &v[at..(at + 8).min(REC)])
        })
    };
    keys.into_iter()
        .filter(|k| got.get(k) != want.get(k))
        .map(|k| {
            let (g, w) = (got.get(k), want.get(k));
            let at = g.zip(w).map_or(0, |(g, w)| {
                g.iter().zip(w).position(|(a, b)| a != b).unwrap_or(0)
            });
            format!(
                "{k} from byte {at}: got {} want {}",
                show(g, at),
                show(w, at)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// A refusal prior-state recovery may give instead of a state.
fn refusal(e: &dali_common::DaliError) -> bool {
    let msg = e.to_string();
    msg.contains("old enough") || msg.contains("predates")
}

struct Case {
    seed: u64,
    rng: StdRng,
    config: DaliConfig,
    /// The disk as the crash left it, before any recovery touched it.
    crashed: Option<SimStore>,
    /// The hash of every storage call the case made.
    trace: u64,
}

fn reopen(
    config: &DaliConfig,
    disk: &SimStore,
    target: Option<Lsn>,
) -> dali_common::Result<(DaliEngine, RecoveryOutcome)> {
    match target {
        None => DaliEngine::open_on(config.clone(), disk.store()),
        Some(upto) => DaliEngine::open_prior_state_on(config.clone(), upto, disk.store()),
    }
}

impl Case {
    fn run(&mut self, tally: &mut Tally) -> Result<(), String> {
        let Case {
            seed,
            rng,
            config,
            crashed,
            ..
        } = self;
        let sim = SimStore::new();
        let (engine, _) = DaliEngine::create_on(config.clone(), sim.store()).map_err(err)?;
        let t = engine.create_table("t", REC, CAPACITY).unwrap();
        let setup = engine.begin().unwrap();
        let mut table = Table::new();
        for _ in 0..8 {
            let v = value(rng);
            table.insert(setup.insert(t, &v).unwrap(), v);
        }
        setup.commit().unwrap();
        let mut run = Run {
            engine,
            sim,
            config: &*config,
            t,
            rng,
            side: StdRng::seed_from_u64(!*seed),
            txn_open: false,
            shadow: Shadow::new(table),
            tally,
        };
        assert!(run.checkpoint()?, "setup checkpoint");

        // ---- the workload, with one fault scheduled ----
        let fault = if run.rng.gen_bool(0.4) {
            Fault::Eio
        } else {
            Fault::Crash
        };
        let power_loss = run.rng.gen_bool(0.5);
        run.sim.arm(run.rng.gen_range(1..=250), fault);
        run.workload()?;
        let Run {
            engine,
            sim,
            rng,
            shadow,
            ..
        } = run;
        sim.disarm();
        if !sim.is_dead() && engine.settle().is_ok() {
            // Roll invariant 4: at rest after settle(): the crash makes
            // no storage call.
            let at_rest = sim.trace();
            engine.clone().crash();
            if sim.trace() != at_rest {
                return Err("the log directory changed after settle() and crash()".into());
            }
        }
        sim.kill();
        engine.crash();
        let disk = sim.restart(power_loss.then_some(&mut *rng));
        *crashed = Some(disk.restart(None));
        named_segments_follow_seals(&disk, config)?;

        // ---- recovery, perhaps crashing again inside it ----
        let mut target = None;
        if !shadow.points.is_empty() && rng.gen_bool(0.3) {
            target = Some(shadow.points[rng.gen_range(0..shadow.points.len())]);
        }
        let upto = target.map(|(lsn, _)| lsn);
        let mut disk = disk;
        let second = rng.gen_bool(0.3).then(|| {
            let fault = if rng.gen_bool(0.3) {
                Fault::Eio
            } else {
                Fault::Crash
            };
            disk.arm(rng.gen_range(1..=80), fault);
            fault
        });
        let mut power_loss = power_loss;
        let mut opened = reopen(config, &disk, upto);
        disk.disarm();
        if disk.is_dead() {
            if let Ok((e, _)) = opened {
                e.crash();
            }
            // A power loss now also takes what the first crash left
            // unsynced.
            power_loss |= rng.gen_bool(0.5);
            disk = disk.restart(power_loss.then_some(&mut *rng));
            opened = reopen(config, &disk, upto);
        } else if second == Some(Fault::Eio) && opened.is_err() {
            opened = reopen(config, &disk, upto);
        }
        let lo = if power_loss {
            shadow.durable
        } else {
            shadow.written.max(shadow.durable)
        };
        let mut range = match target {
            None => lo..=shadow.last(),
            Some((_, k)) => lo.min(k)..=shadow.last().min(k),
        };
        let engine = match opened {
            Ok((engine, _)) => engine,
            Err(e) if target.is_some() && refusal(&e) => {
                // A refusal leaves the database as it was.
                range = lo..=shadow.last();
                reopen(config, &disk, None)
                    .map_err(|e| format!("open after a refused prior-state recovery: {e}"))?
                    .0
            }
            Err(e) => return Err(format!("recovery failed: {e}")),
        };

        // ---- the shadow model ----
        let got = read_table(&engine)?;
        let Some(k) = range.clone().find(|&k| shadow.states[k] == got) else {
            let nearest = (0..shadow.states.len()).find(|&k| shadow.states[k] == got);
            return Err(format!(
                "recovered table matches no commit in {range:?} (of {}; it matches {nearest:?}), \
                 target {target:?}; against the last: {}",
                shadow.states.len(),
                diff(&got, &shadow.states[*range.end()])
            ));
        };
        match engine.audit() {
            Ok(report) if report.clean() => {}
            other => return Err(format!("audit after recovery: {other:?}")),
        }

        // ---- and the recovered engine works ----
        let mut next = shadow.states[k].clone();
        let rec = pick(&next, rng);
        next.insert(rec, value(rng));
        let txn = engine.begin().map_err(err)?;
        txn.update(rec, &next[&rec]).map_err(err)?;
        txn.commit().map_err(err)?;
        let checkpointed = StdRng::seed_from_u64(*seed ^ 0x9e37_79b9_7f4a_7c15).gen_bool(0.5);
        if checkpointed && !matches!(engine.checkpoint(), Ok(CheckpointOutcome::Certified { .. })) {
            return Err("checkpoint after recovery failed".into());
        }
        engine.crash();
        let disk = disk.restart(None);
        let (engine, _) = reopen(config, &disk, None).map_err(err)?;
        if read_table(&engine)? != next {
            return Err("work done after recovery did not survive the next restart".into());
        }
        match engine.audit() {
            Ok(report) if report.clean() => {}
            other => return Err(format!("audit after the next restart: {other:?}")),
        }
        engine.crash();
        self.trace = disk.trace();
        Ok(())
    }
}

/// Run one seed and return the hash of its storage calls; on failure,
/// the message names the seed and where the post-crash files were
/// written.
fn run_seed(seed: u64, tally: &mut Tally) -> Result<u64, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = config(&mut rng);
    let mut case = Case {
        seed,
        rng,
        config,
        crashed: None,
        trace: 0,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| case.run(tally)))
        .unwrap_or_else(|panic| Err(format!("panicked: {panic:?}")));
    outcome.map(|()| case.trace).map_err(|why| {
        let dumped = case.crashed.as_ref().map(|disk| {
            let to = std::env::temp_dir().join(format!("dali-crash-sim-seed-{}", case.seed));
            let _ = std::fs::remove_dir_all(&to);
            match disk.dump(Path::new(ROOT), &to) {
                Ok(()) => format!("post-crash files in {}", to.display()),
                Err(e) => format!("could not dump the post-crash files: {e}"),
            }
        });
        let c = &case.config;
        format!(
            "seed {seed}: {why}\n  {}\n  config: scheme {:?}, sync_commit {}, \
             full_certify_every {}, algebra {:?}",
            dumped.unwrap_or_else(|| "the crash was not reached".into()),
            c.scheme,
            c.sync_commit,
            c.full_certify_every,
            c.codeword_algebra,
        )
    })
}

fn env(name: &str) -> Option<u64> {
    std::env::var(name)
        .ok()
        .map(|v| v.parse().expect("a number"))
}

#[test]
fn crash_anywhere_recovers_the_committed_prefix() {
    let seeds: Vec<u64> = match env("CRASH_SIM_SEED") {
        Some(seed) => vec![seed],
        None => {
            let first = env("CRASH_SIM_FIRST").unwrap_or(0);
            let range = first..first + env("CRASH_SIM_SEEDS").unwrap_or(DEFAULT_SEEDS);
            REGRESSION_SEEDS.into_iter().chain(range).collect()
        }
    };
    let mut tally = Tally::default();
    let failures: Vec<String> = seeds
        .iter()
        .filter_map(|&seed| run_seed(seed, &mut tally).err())
        .collect();
    if env("CRASH_SIM_SEEDS").is_some() {
        // Straight to the stream: the harness captures `println!`.
        let mut out = std::io::stderr().lock();
        let _ = writeln!(out, "target pattern           algebra  injected detected");
        for (cell, (n, hit)) in &tally.cells {
            let _ = writeln!(out, "{cell} {n:>8} {hit:>8}");
        }
        let _ = writeln!(out, "{:<40} {:>8} {:>8}", "rung", "moves", "txn open");
        for (rung, (n, open)) in &tally.rungs {
            let _ = writeln!(out, "{rung:<40} {n:>8} {open:>8}");
        }
    }
    assert!(
        failures.is_empty(),
        "{} seed(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A seed replays exactly: the same storage calls, with the same
/// arguments and bytes, in the same order.
#[test]
fn a_seed_replays_its_storage_calls_exactly() {
    for seed in 0..16 {
        let mut tally = Tally::default();
        let first = run_seed(seed, &mut tally).unwrap();
        assert_eq!(run_seed(seed, &mut tally).unwrap(), first, "seed {seed}");
    }
}

/// A repair makes every commit before it durable. An update of damaged
/// bytes takes the damage as its before-image; if a power loss took its
/// commit record, restart would roll it back and write the damage over
/// the repaired record.
#[test]
fn a_repair_makes_the_commits_before_it_durable() {
    let (clean, damage, carried) = (vec![1u8; REC], [0xaa; 4], vec![2u8; REC]);
    for seed in 0..16 {
        let mut config = DaliConfig::small(ROOT).with_scheme(ProtectionScheme::DataCodeword);
        config.sync_commit = false;
        let sim = SimStore::new();
        let (engine, _) = DaliEngine::create_on(config.clone(), sim.store()).unwrap();
        let t = engine.create_table("t", REC, CAPACITY).unwrap();
        let setup = engine.begin().unwrap();
        let rec = setup.insert(t, &clean).unwrap();
        setup.commit().unwrap();
        engine.checkpoint().unwrap();

        let addr = engine.record_addr(rec).unwrap().add(8);
        FaultInjector::new(&engine)
            .wild_write_bytes(addr, &damage)
            .unwrap();
        let carrier = engine.begin().unwrap();
        carrier.update(rec, &carried).unwrap();
        carrier.commit().unwrap();
        assert!(!engine.audit().unwrap().clean(), "seed {seed}");
        assert_eq!(engine.stats().repair_succeeded.load(Relaxed), 1);

        sim.kill();
        engine.crash();
        let disk = sim.restart(Some(&mut StdRng::seed_from_u64(seed)));
        let (engine, _) = DaliEngine::open_on(config, disk.store()).unwrap();
        let got = read_table(&engine).unwrap().remove(&rec);
        assert_eq!(got, Some(carried.clone()), "seed {seed}");
        assert!(engine.audit().unwrap().clean(), "seed {seed}");
    }
}

fn record(i: u64) -> LogRecord {
    LogRecord::PhysicalRedo {
        txn: dali_common::TxnId(i),
        op: dali_common::OpSeq(0),
        addr: dali_common::DbAddr(64 * i as usize),
        data: vec![i as u8; 40],
    }
}

/// A background job that fails is not forgotten: its error comes back
/// from every later durability request, while plain writes go on.
#[test]
fn background_failure_is_returned_by_every_later_durability_request() {
    let sim = SimStore::new();
    let kind = dali_common::CodewordAlgebraKind::XorFold;
    let log = SystemLog::create_on(sim.store(), "/sim/log", 4096, kind, 160).unwrap();
    let lsns: Vec<Lsn> = (0..14).map(|i| log.append(&record(i))).collect();
    log.flush(true).unwrap();
    log.settle().unwrap();

    // The retirement's first call — listing the directory, when settle()
    // runs the job — fails.
    sim.arm(1, Fault::Eio);
    log.post_retire(lsns[8]);
    let err = log.settle().unwrap_err().to_string();
    assert!(err.contains("os error 5"), "{err}");

    // Kept, not consumed: nothing durable is acknowledged from here on.
    log.append(&record(60));
    let end = log.current_lsn();
    for refused in [
        log.settle().map(drop),
        log.flush(true).map(drop),
        log.commit_durable(end).map(drop),
        log.wait_durable(end),
    ] {
        let err = refused.unwrap_err().to_string();
        assert!(err.contains("os error 5"), "{err}");
    }
    // Writing without a durability promise still works.
    log.flush(false).unwrap();
}
