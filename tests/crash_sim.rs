//! The crash simulator: one seeded loop in place of hand-built crash
//! states.
//!
//! Each seed runs a random single-threaded workload — inserts, updates,
//! deletes, commits, aborts, checkpoints (some with a transaction open),
//! tiny log segments with retirement on, `sync_commit` either way —
//! against an engine whose files live on a [`SimStore`]. At a seeded
//! storage call the store fails with `EIO` (the workload carries on past
//! a failed checkpoint, and stops at any other failure) or the process
//! dies, or the machine loses power (see the store's crash model). The
//! disk that is left is reopened through `open`, or `open_prior_state`
//! at a seeded earlier position, sometimes crashing again inside
//! recovery, and the result is held against a shadow model:
//!
//! * every acknowledged-durable commit is present, and under a process
//!   death every commit whose `flush` returned;
//! * uncommitted work is absent, and the transaction in flight at the
//!   crash is all or nothing — the table equals the shadow state after
//!   some commit in between;
//! * the audit is clean, the recovered engine takes a new transaction
//!   and a checkpoint, and no call panics;
//! * the roll protocol's invariants (DESIGN.md §10) hold on the
//!   post-crash disk: a `.seg` name follows only a sealed, intact
//!   predecessor, and the log directory no longer changes once
//!   `settle()` and the crash have returned.
//!
//! `cargo test --test crash_sim` runs a small fixed seed range.
//! `CRASH_SIM_SEEDS=n` runs seeds `0..n` (`CRASH_SIM_FIRST` moves the
//! start), `CRASH_SIM_SEED=s` runs one. A failure names its seed and
//! writes the post-crash files to a directory it prints: opening that
//! directory with the printed configuration on the OS store replays the
//! recovery half exactly, whatever the log worker's interleaving was.

#[path = "support/sim_store.rs"]
mod sim_store;

use dali_common::{DaliConfig, Lsn, ProtectionScheme, RecId, SlotId, TableId};
use dali_engine::{CheckpointOutcome, DaliEngine, RecoveryOutcome};
use dali_wal::{segment, LogRecord, SegmentBuf, SystemLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_store::{Fault, SimStore};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

/// Seeds `cargo test` runs when no variable says otherwise.
const DEFAULT_SEEDS: u64 = 64;
/// Seeds that found a bug, run besides the range: each fails on the tree
/// without its fix.
const REGRESSION_SEEDS: [u64; 6] = [
    2184, // a failed checkpoint dropped its dirty pages
    2581, // (the same)
    67,   // prior-state recovery replayed onto a half-overwritten image
    313,  // a retirement gap stopped restart
    113,  // restart logged its aborts before the exit checkpoint held the rollback
    399,  // open claimed durable a log tail a process death left unsynced
];
const REC: usize = 32;
const CAPACITY: usize = 48;
/// The database directory on the simulated disk.
const ROOT: &str = "/sim/db";

type Table = BTreeMap<RecId, Vec<u8>>;

/// What the workload did, as far as recovery is concerned.
struct Shadow {
    /// The table after each commit, in commit order; the last may belong
    /// to a commit that failed (its outcome is unknown).
    states: Vec<Table>,
    /// A power loss keeps at least `states[durable]`.
    durable: usize,
    /// A process death keeps at least `states[written]`.
    written: usize,
    /// Prior-state targets: a log position and the last commit before it.
    points: Vec<(Lsn, usize)>,
}

impl Shadow {
    fn last(&self) -> usize {
        self.states.len() - 1
    }

    fn committed(&mut self, sync: bool) {
        self.written = self.last();
        if sync {
            self.durable = self.last();
        }
    }
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

/// A checkpoint: `Ok(true)` if certified, `Ok(false)` if it failed (the
/// workload carries on), `Err` if it was refused, which nothing here
/// should cause.
fn checkpoint(engine: &DaliEngine, shadow: &mut Shadow) -> Result<bool, String> {
    match engine.checkpoint() {
        Ok(CheckpointOutcome::Certified { ck_end, .. }) => {
            shadow.durable = shadow.written;
            shadow.points.push((ck_end, shadow.written));
            Ok(true)
        }
        Ok(other) => Err(format!("checkpoint refused: {other:?}")),
        Err(_) => Ok(false),
    }
}

/// One transaction. `Ok(false)` stops the workload: something failed,
/// and what the engine holds in memory may no longer be what the shadow
/// says.
fn transaction(
    engine: &DaliEngine,
    t: TableId,
    rng: &mut StdRng,
    shadow: &mut Shadow,
) -> Result<bool, String> {
    let Ok(txn) = engine.begin() else {
        return Ok(false);
    };
    let mut next = shadow.states[shadow.written].clone();
    for _ in 0..rng.gen_range(1..=3) {
        let v = value(rng);
        let done = match rng.gen_range(0..3) {
            0 if next.len() < CAPACITY - 8 => txn.insert(t, &v).map(|rec| {
                next.insert(rec, v);
            }),
            1 if next.len() > 1 => {
                let rec = pick(&next, rng);
                next.remove(&rec);
                txn.delete(rec)
            }
            _ => {
                let rec = pick(&next, rng);
                next.insert(rec, v);
                txn.update(rec, &next[&rec])
            }
        };
        if done.is_err() {
            return Ok(false);
        }
    }
    // Its records reach the log and the checkpoint's ATT uncommitted.
    if rng.gen_bool(0.1) && !checkpoint(engine, shadow)? {
        return Ok(false);
    }
    if rng.gen_bool(0.2) {
        return Ok(txn.abort().is_ok());
    }
    shadow.states.push(next);
    let ok = txn.commit().is_ok();
    if ok {
        shadow.committed(engine.config().sync_commit);
    }
    Ok(ok)
}

fn workload(
    engine: &DaliEngine,
    t: TableId,
    sim: &SimStore,
    rng: &mut StdRng,
    shadow: &mut Shadow,
) -> Result<(), String> {
    for _ in 0..rng.gen_range(10..60) {
        if sim.is_dead() {
            break;
        }
        let go_on = match rng.gen_range(0..100) {
            // A failed checkpoint is often retried at once.
            0..8 => {
                checkpoint(engine, shadow)? || !rng.gen_bool(0.5) || {
                    checkpoint(engine, shadow)?;
                    true
                }
            }
            8..12 => match engine.current_lsn() {
                Ok(lsn) => {
                    shadow.points.push((lsn, shadow.written));
                    true
                }
                Err(_) => false,
            },
            12..14 => engine.settle().is_ok(),
            _ => transaction(engine, t, rng, shadow)?,
        };
        if !go_on {
            break;
        }
    }
    Ok(())
}

fn read_table(engine: &DaliEngine) -> Result<Table, String> {
    let t = engine.table("t").map_err(|e| e.to_string())?;
    let txn = engine.begin().map_err(|e| e.to_string())?;
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
    txn.commit().map_err(|e| e.to_string())?;
    Ok(table)
}

/// Roll invariant 2, read off a disk: every named segment whose chain
/// predecessor is present follows a predecessor that is sealed and
/// intact.
fn named_segments_follow_seals(disk: &SimStore, config: &DaliConfig) -> Result<(), String> {
    let log = Path::new(ROOT).join("system.log");
    let segments = segment::list_on(disk, &log).map_err(|e| e.to_string())?;
    for pair in segments.windows(2).filter(|w| w[0].end() == w[1].base) {
        let seg = SegmentBuf::load(disk, &log, pair[0].base, 0, config.codeword_algebra)
            .map_err(|e| e.to_string())?;
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

/// The records where `got` and `want` differ.
fn diff(got: &Table, want: &Table) -> String {
    let keys: std::collections::BTreeSet<_> = got.keys().chain(want.keys()).collect();
    let show =
        |v: Option<&Vec<u8>>| v.map_or("absent".to_string(), |v| format!("{:02x?}", &v[..4]));
    keys.into_iter()
        .filter(|k| got.get(k) != want.get(k))
        .map(|k| format!("{k}: got {} want {}", show(got.get(k)), show(want.get(k))))
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
    fn run(&mut self) -> Result<(), String> {
        let Case {
            rng,
            config,
            crashed,
            ..
        } = self;
        let sim = SimStore::new();
        let (engine, _) =
            DaliEngine::create_on(config.clone(), sim.store()).map_err(|e| e.to_string())?;
        let t = engine.create_table("t", REC, CAPACITY).unwrap();
        let setup = engine.begin().unwrap();
        let mut table = Table::new();
        for _ in 0..8 {
            let v = value(rng);
            table.insert(setup.insert(t, &v).unwrap(), v);
        }
        setup.commit().unwrap();
        let mut shadow = Shadow {
            states: vec![table],
            durable: 0,
            written: 0,
            points: Vec::new(),
        };
        assert!(checkpoint(&engine, &mut shadow)?, "setup checkpoint");

        // ---- the workload, with one fault scheduled ----
        let fault = if rng.gen_bool(0.4) {
            Fault::Eio
        } else {
            Fault::Crash
        };
        let power_loss = rng.gen_bool(0.5);
        sim.arm(rng.gen_range(1..=250), fault);
        workload(&engine, t, &sim, rng, &mut shadow)?;
        sim.disarm();
        if !sim.is_dead() && engine.settle().is_ok() {
            // Roll invariant 4: at rest after settle(), and the crash
            // does not change that.
            let at_rest = sim.mutations();
            engine.clone().crash();
            if sim.mutations() != at_rest {
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
        let txn = engine.begin().map_err(|e| e.to_string())?;
        txn.update(rec, &next[&rec]).map_err(|e| e.to_string())?;
        txn.commit().map_err(|e| e.to_string())?;
        let mut after = Shadow {
            states: vec![next],
            durable: 0,
            written: 0,
            points: Vec::new(),
        };
        if !checkpoint(&engine, &mut after)? {
            return Err("checkpoint after recovery failed".into());
        }
        engine.crash();
        let disk = disk.restart(None);
        let (engine, _) = reopen(config, &disk, None).map_err(|e| e.to_string())?;
        if read_table(&engine)? != after.states[0] {
            return Err("work done after recovery did not survive the next restart".into());
        }
        engine.crash();
        Ok(())
    }
}

/// Run one seed; on failure, the message names the seed and where the
/// post-crash files were written.
fn run_seed(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = config(&mut rng);
    let mut case = Case {
        seed,
        rng,
        config,
        crashed: None,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| case.run()))
        .unwrap_or_else(|panic| Err(format!("panicked: {panic:?}")));
    outcome.map_err(|why| {
        let dumped = case.crashed.as_ref().map(|disk| {
            let to = std::env::temp_dir().join(format!("dali-crash-sim-seed-{}", case.seed));
            let _ = std::fs::remove_dir_all(&to);
            match disk.dump(Path::new(ROOT), &to) {
                Ok(()) => format!("post-crash files in {}", to.display()),
                Err(e) => format!("could not dump the post-crash files: {e}"),
            }
        });
        format!(
            "seed {seed}: {why}\n  {}\n  config: scheme {:?}, sync_commit {}, full_certify_every {}",
            dumped.unwrap_or_else(|| "the crash was not reached".into()),
            case.config.scheme,
            case.config.sync_commit,
            case.config.full_certify_every,
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
    let failures: Vec<String> = seeds
        .into_iter()
        .filter_map(|seed| run_seed(seed).err())
        .collect();
    assert!(
        failures.is_empty(),
        "{} seed(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
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

    // The retirement's first call — listing the directory, on the log
    // worker — fails.
    sim.arm(1, Fault::Eio);
    log.post_retire(lsns[8]);
    let err = log.settle().unwrap_err().to_string();
    assert!(err.contains("os error 5"), "{err}");

    // Kept, not consumed: nothing durable is acknowledged from here on.
    let (_, end) = log.append_batch(&[record(60)]);
    for refused in [
        log.settle().map(drop),
        log.flush(true).map(drop),
        log.commit_durable(end, Duration::ZERO).map(drop),
        log.commit_durable(end, Duration::from_millis(1)).map(drop),
        log.wait_durable(end),
    ] {
        let err = refused.unwrap_err().to_string();
        assert!(err.contains("os error 5"), "{err}");
    }
    // Writing without a durability promise still works.
    log.flush(false).unwrap();
}
