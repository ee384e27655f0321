//! The single-threaded in-process workloads: `tpcb-baseline`,
//! `tpcb-datacw` and `read-precheck`.

use crate::bank::{self, Bank, Gate, TABLES, TABLE_NAMES, TABLE_ROWS};
use crate::spec::{Kind, WorkloadSpec, ACCOUNTS};
use crate::trace::{Probe, Untraced, Verb};
use crate::util::{Scratch, Stopwatch};
use crate::workload::{Counters, SliceTime, Workload};
use dali_common::{DaliError, RecId, Result};
use dali_engine::{CheckpointOutcome, DaliEngine, TxnHandle};
use dali_workload::records::{balance_of, encode_account, encode_history, REC_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Every how many `read-precheck` operations one is an update: 5 %, at
/// fixed positions rather than by lot, so that every slice holds the same
/// number of updates and the log bytes per operation repeat exactly.
const UPDATE_EVERY: u64 = 20;

/// The generator: draws operations, keeps the shadow, checks replies.
pub struct Teller {
    pub bank: Bank,
    rng: StdRng,
    /// History records inserted since the last trim.
    history: Vec<RecId>,
    next_seq: u64,
    /// `read-precheck` operations drawn so far.
    read_mostly_ops: u64,
    pub gate: Gate,
    buf: [u8; REC_SIZE],
}

impl Teller {
    pub fn new(bank: Bank, seed: u64) -> Teller {
        Teller {
            bank,
            rng: StdRng::seed_from_u64(seed),
            history: Vec::new(),
            next_seq: 0,
            read_mostly_ops: 0,
            gate: Gate::default(),
            buf: [0; REC_SIZE],
        }
    }

    /// One TPC-B operation: three read-modify-writes and a history
    /// insert. Every read is checked against the shadow.
    pub fn tpcb_op<P: Probe>(&mut self, txn: &TxnHandle, p: &mut P) -> Result<()> {
        let rows = TABLE_ROWS.map(|n| self.rng.gen_range(0..n));
        let delta = self.rng.gen_range(-999_999i64..=999_999);
        self.gate.attempted += 1;
        for table in 0..TABLES {
            let rec = self.bank.rec(table, rows[table]);
            p.span(Verb::Read, || txn.read(rec, &mut self.buf))?;
            let expect = &mut self.bank.shadow[table][rows[table]];
            let got = balance_of(&self.buf);
            if got != *expect {
                let (row, want) = (rows[table], *expect);
                self.gate.fail(|| {
                    format!(
                        "{} row {row}: read {got}, shadow {want}",
                        TABLE_NAMES[table]
                    )
                });
            }
            // The record is its id, balance and a filler derived from the
            // id: patching the balance yields the next record image.
            *expect = got + delta;
            self.buf[8..16].copy_from_slice(&expect.to_le_bytes());
            p.span(Verb::Update, || txn.update(rec, &self.buf))?;
        }
        let image = encode_history(
            self.next_seq,
            rows[0] as u64,
            rows[1] as u64,
            rows[2] as u64,
            delta,
        );
        self.next_seq += 1;
        let rec = p.span(Verb::Insert, || txn.insert(self.bank.history, &image))?;
        self.history.push(rec);
        Ok(())
    }

    /// One `read-precheck` operation: a checked read of a random account
    /// or, every twentieth time, a blind update of it from the shadow.
    fn read_mostly_op<P: Probe>(&mut self, txn: &TxnHandle, p: &mut P) -> Result<()> {
        let row = self.rng.gen_range(0..ACCOUNTS);
        let rec = self.bank.rec(0, row);
        self.gate.attempted += 1;
        self.read_mostly_ops += 1;
        let expect = &mut self.bank.shadow[0][row];
        if self.read_mostly_ops.is_multiple_of(UPDATE_EVERY) {
            *expect += self.rng.gen_range(-999_999i64..=999_999);
            let image = encode_account(row as u64, *expect);
            p.span(Verb::Update, || txn.update(rec, &image))?;
        } else {
            p.span(Verb::Read, || txn.read(rec, &mut self.buf))?;
            let got = balance_of(&self.buf);
            if got != *expect {
                let want = *expect;
                self.gate
                    .fail(|| format!("account row {row}: read {got}, shadow {want}"));
            }
        }
        Ok(())
    }

    /// Delete the history records inserted since the last trim.
    pub fn trim_history<P: Probe>(&mut self, engine: &DaliEngine, p: &mut P) -> Result<()> {
        delete_all(engine, &std::mem::take(&mut self.history), p)
    }
}

/// Delete `recs` in transactions of 500. The workloads empty the history
/// table between slices, untimed, so that it never fills and a timed
/// operation stays the paper's: no delete rides along.
pub fn delete_all<P: Probe>(engine: &DaliEngine, recs: &[RecId], p: &mut P) -> Result<()> {
    for chunk in recs.chunks(500) {
        let txn = engine.begin()?;
        for &rec in chunk {
            p.span(Verb::Delete, || txn.delete(rec))?;
        }
        txn.commit()?;
    }
    Ok(())
}

/// Run `ops` operations in transactions of `per_txn`, recording each
/// transaction's begin-to-commit latency.
pub fn run_txns<P: Probe>(
    engine: &DaliEngine,
    ops: usize,
    per_txn: usize,
    p: &mut P,
    latencies: &mut Vec<u64>,
    mut op: impl FnMut(&TxnHandle, &mut P) -> Result<()>,
) -> Result<()> {
    let mut done = 0;
    while done < ops {
        let n = per_txn.min(ops - done);
        let start = Instant::now();
        p.txn_open();
        let txn = p.span(Verb::Begin, || engine.begin())?;
        for _ in 0..n {
            op(&txn, p)?;
        }
        p.span(Verb::Commit, || txn.commit())?;
        p.txn_close();
        latencies.push(start.elapsed().as_nanos() as u64);
        done += n;
    }
    Ok(())
}

/// Checkpoint and insist it was certified.
pub fn certified_checkpoint<P: Probe>(engine: &DaliEngine, p: &mut P) -> Result<()> {
    match p.span(Verb::Checkpoint, || engine.checkpoint())? {
        CheckpointOutcome::Certified { .. } => Ok(()),
        other => Err(DaliError::InvalidArg(format!(
            "checkpoint was not certified: {other:?}"
        ))),
    }
}

pub struct InProc {
    spec: &'static WorkloadSpec,
    // Declared before `scratch`: the engine's files close before the
    // directory is removed.
    engine: DaliEngine,
    teller: Teller,
    latencies: Vec<u64>,
    _scratch: Scratch,
}

impl Workload for InProc {
    const LANES: usize = 1;

    fn setup(spec: &'static WorkloadSpec, seed: u64) -> Result<InProc> {
        let scratch = Scratch::new(spec.name);
        let history_capacity = match spec.kind {
            Kind::Tpcb => spec.slice_ops + 1024,
            _ => 1024,
        };
        let (engine, bank) = bank::create(spec, scratch.path(), history_capacity)?;
        let mut w = InProc {
            spec,
            engine,
            teller: Teller::new(bank, seed),
            latencies: Vec::new(),
            _scratch: scratch,
        };
        w.slice(&mut [Untraced])?;
        w.tidy(&mut [Untraced])?;
        w.latencies.clear();
        Ok(w)
    }

    fn slice<P: Probe + Send>(&mut self, lanes: &mut [P]) -> Result<SliceTime> {
        let p = &mut lanes[0];
        let (spec, engine, teller) = (self.spec, &self.engine, &mut self.teller);
        let watch = Stopwatch::start();
        match spec.kind {
            Kind::Tpcb => {
                run_txns(
                    engine,
                    spec.slice_ops,
                    spec.ops_per_txn,
                    p,
                    &mut self.latencies,
                    |txn, p| teller.tpcb_op(txn, p),
                )?;
                certified_checkpoint(engine, p)?;
            }
            Kind::ReadMostly => run_txns(
                engine,
                spec.slice_ops,
                spec.ops_per_txn,
                p,
                &mut self.latencies,
                |txn, p| teller.read_mostly_op(txn, p),
            )?,
            Kind::CrashRecover | Kind::Net { .. } => unreachable!("not an in-process slice"),
        }
        let (wall_s, cpu_s) = watch.stop();
        Ok(SliceTime {
            ops: spec.slice_ops as u64,
            wall_s,
            cpu_s,
        })
    }

    fn tidy<P: Probe + Send>(&mut self, lanes: &mut [P]) -> Result<()> {
        self.teller.trim_history(&self.engine, &mut lanes[0])
    }

    fn take_latencies(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.latencies)
    }

    fn counters(&mut self) -> Result<Counters> {
        Counters::of_engine(&self.engine)
    }

    fn spans_per_slice(&self) -> usize {
        // Per operation at most 3 reads + 3 updates + insert + the delete
        // that tidies it away; per transaction its own span, begin and
        // commit.
        self.spec.slice_ops * 8 + (self.spec.slice_ops / self.spec.ops_per_txn + 1) * 3 + 16
    }

    fn engine(&self) -> &DaliEngine {
        &self.engine
    }

    fn finish(self) -> Result<Gate> {
        let mut gate = self.teller.gate.clone();
        let tpcb_sums = self.spec.kind == Kind::Tpcb;
        bank::verify(&self.engine, &self.teller.bank, tpcb_sums, &mut gate)?;
        Ok(gate)
    }
}
