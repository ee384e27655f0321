//! The TPC-B database every workload runs on, and the generator-side
//! shadow of its balances that the correctness gate compares against.

use crate::spec::{WorkloadSpec, ACCOUNTS, BRANCHES, TELLERS};
use dali_common::{DaliConfig, RecId, Result, SlotId, TableId};
use dali_engine::DaliEngine;
use dali_workload::records::balance_of;
use dali_workload::{TpcbConfig, TpcbDriver};
use std::path::Path;

/// The three balance tables, in the order an operation touches them.
pub const TABLES: usize = 3;
pub const TABLE_NAMES: [&str; TABLES] = ["account", "teller", "branch"];
pub const TABLE_ROWS: [usize; TABLES] = [ACCOUNTS, TELLERS, BRANCHES];

/// Engine configuration of a workload: repository defaults (64-byte
/// regions, XOR fold, parity groups of 8, full certification at every
/// checkpoint) under the workload's scheme and flush policy.
pub fn engine_config(spec: &WorkloadSpec, dir: &Path, history_capacity: usize) -> DaliConfig {
    let mut config = DaliConfig::small(dir).with_scheme(spec.scheme);
    config.sync_commit = spec.sync_commit;
    config.db_pages = tpcb_config(spec, history_capacity).required_pages(config.page_size);
    config
}

fn tpcb_config(spec: &WorkloadSpec, history_capacity: usize) -> TpcbConfig {
    TpcbConfig {
        accounts: ACCOUNTS,
        tellers: TELLERS,
        branches: BRANCHES,
        history_capacity,
        ops_per_txn: spec.ops_per_txn,
        // The repository's driver only populates here; the benchmark
        // generates every operation itself.
        seed: 0,
    }
}

/// Create a database in `dir` and populate the balance tables with zero
/// balances. Rows are inserted in slot order, so row `i` of a table is
/// slot `i`.
pub fn create(
    spec: &WorkloadSpec,
    dir: &Path,
    history_capacity: usize,
) -> Result<(DaliEngine, Bank)> {
    let (engine, _) = DaliEngine::create(engine_config(spec, dir, history_capacity))?;
    TpcbDriver::setup(&engine, tpcb_config(spec, history_capacity))?;
    let bank = Bank::attach(&engine)?;
    Ok((engine, bank))
}

/// Table ids plus the shadow balances.
#[derive(Clone)]
pub struct Bank {
    pub tables: [TableId; TABLES],
    pub history: TableId,
    /// `shadow[table][row]`: the balance the generator expects.
    pub shadow: [Vec<i64>; TABLES],
}

impl Bank {
    pub fn attach(engine: &DaliEngine) -> Result<Bank> {
        Ok(Bank {
            tables: [
                engine.table(TABLE_NAMES[0])?,
                engine.table(TABLE_NAMES[1])?,
                engine.table(TABLE_NAMES[2])?,
            ],
            history: engine.table("history")?,
            shadow: TABLE_ROWS.map(|n| vec![0; n]),
        })
    }

    pub fn rec(&self, table: usize, row: usize) -> RecId {
        RecId::new(self.tables[table], SlotId(row as u32))
    }
}

/// Outcome of a workload's correctness gate.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    /// Operations attempted over the whole run.
    pub attempted: u64,
    /// Operations that failed, were refused, or whose result disagreed
    /// with the shadow; each also counts as missing its latency.
    pub failed: u64,
    pub first_offender: Option<String>,
}

impl Gate {
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_offender.is_none() {
            self.first_offender = Some(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_offender.is_none() {
            self.first_offender = other.first_offender;
        }
    }
}

/// Compare every balance in the database with the shadow, check the
/// TPC-B sums and run a full audit; mismatches land in `gate`.
///
/// `tpcb_sums`: the workload ran whole TPC-B operations, so the three
/// table sums must agree with each other as well as with the shadow.
pub fn verify(engine: &DaliEngine, bank: &Bank, tpcb_sums: bool, gate: &mut Gate) -> Result<()> {
    let txn = engine.begin()?;
    let mut sums = [0i64; TABLES];
    let mut buf = [0u8; dali_workload::records::REC_SIZE];
    for (table, sum) in sums.iter_mut().enumerate() {
        for (row, &expect) in bank.shadow[table].iter().enumerate() {
            txn.read(bank.rec(table, row), &mut buf)?;
            let got = balance_of(&buf);
            *sum += got;
            if got != expect {
                gate.fail(|| {
                    format!(
                        "{} row {row}: balance {got}, shadow {expect}",
                        TABLE_NAMES[table]
                    )
                });
            }
        }
    }
    txn.commit()?;
    if tpcb_sums && (sums[0] != sums[1] || sums[1] != sums[2]) {
        gate.fail(|| format!("TPC-B invariant violated: sums {sums:?}"));
    }
    if engine.config().scheme.maintains_codewords() {
        let report = engine.audit()?;
        if !report.clean() {
            gate.fail(|| format!("audit found {} corrupt regions", report.corrupt.len()));
        }
    }
    Ok(())
}
