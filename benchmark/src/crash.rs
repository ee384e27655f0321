//! `crash-recover`: restart recovery of a crashed TPC-B database.

use crate::bank::{self, Bank, Gate};
use crate::inproc::{certified_checkpoint, run_txns, Teller};
use crate::spec::WorkloadSpec;
use crate::stats::Json;
use crate::trace::{Probe, Untraced, Verb};
use crate::util::{copy_tree, tree_bytes, Scratch, Stopwatch};
use crate::workload::{Counters, SliceTime, Workload};
use dali_common::{DaliConfig, Result};
use dali_engine::{DaliEngine, RecoveryMode};
use std::path::PathBuf;

/// Operations of the transaction left open at the crash; recovery must
/// roll every one of them back.
const LOSER_OPS: usize = 100;

pub struct CrashRecover {
    spec: &'static WorkloadSpec,
    config: DaliConfig,
    /// The engine of the latest recovery.
    engine: DaliEngine,
    /// The shadow as of the last committed transaction before the crash.
    committed: Bank,
    /// The crashed directory, copied back before every timed `open`
    /// because `open` checkpoints before it returns.
    pristine: PathBuf,
    pristine_bytes: u64,
    records_scanned: usize,
    gate: Gate,
    latencies: Vec<u64>,
    _scratch: Scratch,
}

impl Workload for CrashRecover {
    const LANES: usize = 1;

    fn setup(spec: &'static WorkloadSpec, seed: u64) -> Result<CrashRecover> {
        let scratch = Scratch::new(spec.name);
        let work = scratch.path().join("db");
        let pristine = scratch.path().join("pristine");
        let history_capacity = spec.slice_ops + LOSER_OPS + 1024;
        let config = bank::engine_config(spec, &work, history_capacity);
        let (engine, bank) = bank::create(spec, &work, history_capacity)?;
        certified_checkpoint(&engine, &mut Untraced)?;

        let mut teller = Teller::new(bank, seed);
        run_txns(
            &engine,
            spec.slice_ops,
            spec.ops_per_txn,
            &mut Untraced,
            &mut Vec::new(),
            |txn, p| teller.tpcb_op(txn, p),
        )?;
        let committed = teller.bank.clone();
        let loser = engine.begin()?;
        for _ in 0..LOSER_OPS {
            teller.tpcb_op(&loser, &mut Untraced)?;
        }
        engine.db().syslog.flush(true)?;
        engine.clone().crash();
        // After the crash the handle's drop no longer aborts: the open
        // transaction's effects stay in the log for recovery to undo.
        drop(loser);
        copy_tree(&work, &pristine)?;

        let mut w = CrashRecover {
            spec,
            config,
            engine,
            committed,
            pristine_bytes: tree_bytes(&pristine)?,
            pristine,
            records_scanned: 0,
            gate: teller.gate,
            latencies: Vec::new(),
            _scratch: scratch,
        };
        w.slice(&mut [Untraced])?;
        w.latencies.clear();
        Ok(w)
    }

    fn slice<P: Probe + Send>(&mut self, lanes: &mut [P]) -> Result<SliceTime> {
        let p = &mut lanes[0];
        std::fs::remove_dir_all(&self.config.dir)?;
        copy_tree(&self.pristine, &self.config.dir)?;

        let watch = Stopwatch::start();
        p.txn_open();
        let (engine, outcome) = p.span(Verb::Open, || DaliEngine::open(self.config.clone()))?;
        p.txn_close();
        let (wall_s, cpu_s) = watch.stop();
        self.latencies.push((wall_s * 1e9) as u64);

        self.gate.attempted += self.spec.slice_ops as u64;
        if outcome.mode != RecoveryMode::Normal {
            self.gate
                .fail(|| format!("recovery ran in mode {:?}, not Normal", outcome.mode));
        }
        if outcome.rolled_back_txns.len() != 1 {
            self.gate.fail(|| {
                format!(
                    "recovery rolled back {:?}, not the one open transaction",
                    outcome.rolled_back_txns
                )
            });
        }
        let history = engine.record_count(self.committed.history)?;
        if history != self.spec.slice_ops {
            let want = self.spec.slice_ops;
            self.gate
                .fail(|| format!("history holds {history} records, {want} were committed"));
        }
        bank::verify(&engine, &self.committed, true, &mut self.gate)?;
        self.records_scanned = outcome.records_scanned;
        self.engine = engine;
        Ok(SliceTime {
            ops: self.spec.slice_ops as u64,
            wall_s,
            cpu_s,
        })
    }

    fn take_latencies(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.latencies)
    }

    fn counters(&mut self) -> Result<Counters> {
        // Every slice opens a fresh engine whose counters restart, so
        // growth across a slice is not defined: report none.
        Ok(Counters::default())
    }

    fn spans_per_slice(&self) -> usize {
        4
    }

    fn engine(&self) -> &DaliEngine {
        &self.engine
    }

    fn facts(&self) -> Json {
        Json::obj([
            ("crashed_dir_bytes", Json::Int(self.pristine_bytes)),
            ("records_scanned", Json::Int(self.records_scanned as u64)),
            ("uncommitted_ops_at_crash", Json::Int(LOSER_OPS as u64)),
        ])
    }

    fn finish(self) -> Result<Gate> {
        Ok(self.gate)
    }
}
