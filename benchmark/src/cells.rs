//! Per-layer cells: one public function of one crate, called in a tight
//! loop at the sizes the workloads use, timed from outside. Each value
//! is the median of [`REPS`] repetitions. Cells do not depend on the
//! workload; they are what a layer costs in isolation, to set against
//! the spans of the traced slice.

use crate::util::Scratch;
use bytes::BytesMut;
use dali_codeword::{algebra, CodewordProtection, DeferredConfig, LatchMode};
use dali_common::{
    CodewordAlgebraKind, DaliConfig, DbAddr, Lsn, OpSeq, ProtectionScheme, RecId, Result, SlotId,
    TableId, TxnId,
};
use dali_engine::{DaliEngine, LockManager, LockMode};
use dali_mem::DbImage;
use dali_net::protocol::{encode_request, frame, parse_frame};
use dali_net::{DaliClient, DaliServer, Request};
use dali_wal::record::frame_with;
use dali_wal::{LocalRedoLog, LocalUndoLog, LogRecord, SystemLog};
use dali_workload::records::REC_SIZE;
use std::hint::black_box;
use std::time::{Duration, Instant};

const REPS: usize = 5;
/// Cells in [`run_all`], for sharing the time budget out.
const CELLS: u32 = 19;
const REGION: usize = 64;
const FOLD_BULK: usize = 8192;
/// Image the codeword cells run over: 1024 pages of 8 KiB.
const IMAGE_PAGES: usize = 1024;
const PAGE: usize = 8192;
const GIB: f64 = (1u64 << 30) as f64;
const MIB: f64 = (1u64 << 20) as f64;

/// Median over [`REPS`] repetitions of nanoseconds per call; each
/// repetition calls `f` for about `rep_budget`.
fn ns_per_call(rep_budget: Duration, mut f: impl FnMut()) -> f64 {
    // Size a batch so the clock is read about a hundred times per
    // repetition.
    let mut batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        if start.elapsed() * 100 >= rep_budget || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let (mut calls, start) = (0u64, Instant::now());
            while start.elapsed() < rep_budget {
                for _ in 0..batch {
                    f();
                }
                calls += batch;
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    crate::stats::median(&reps)
}

/// Median over [`REPS`] repetitions of nanoseconds per round, for calls
/// whose side effects must stay bounded: each repetition runs `rounds`
/// rounds of `timed`, `prepare` running untimed before each.
fn ns_per_round(rounds: usize, mut prepare: impl FnMut(), mut timed: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut spent = Duration::ZERO;
            for _ in 0..rounds {
                prepare();
                let start = Instant::now();
                timed();
                spent += start.elapsed();
            }
            spent.as_nanos() as f64 / rounds as f64
        })
        .collect();
    crate::stats::median(&reps)
}

fn rec(slot: u32) -> RecId {
    RecId::new(TableId(1), SlotId(slot))
}

/// A 100-byte physical redo record, the one every update logs.
fn redo_record() -> LogRecord {
    LogRecord::PhysicalRedo {
        txn: TxnId(7),
        op: OpSeq(3),
        addr: DbAddr(REC_SIZE),
        data: vec![0x5A; REC_SIZE],
    }
}

/// The two record images the update cell alternates between.
const RECORD_IMAGES: [[u8; REC_SIZE]; 2] = [[0x11; REC_SIZE], [0xEE; REC_SIZE]];

/// An image filled with `RECORD_IMAGES[0]` under the protection the
/// engine would build for `scheme` (64-byte regions, XOR fold, parity
/// groups of 8).
fn protected_image(scheme: ProtectionScheme) -> Result<(DbImage, CodewordProtection)> {
    let image = DbImage::new(IMAGE_PAGES, PAGE)?;
    let page = [RECORD_IMAGES[0][0]; PAGE];
    for p in 0..IMAGE_PAGES {
        image.write(DbAddr(p * PAGE), &page)?;
    }
    let config = DaliConfig::small("");
    let mut prot = CodewordProtection::with_config(
        &image,
        scheme,
        REGION,
        config.regions_per_latch,
        DeferredConfig {
            shards: config.resolved_deferred_shards(),
            watermark: config.deferred_shard_watermark,
        },
        config.resolved_audit_threads(),
        config.codeword_algebra,
    )?;
    prot.enable_parity(
        &image,
        config.resolved_parity_group_size(),
        config.resolved_deferred_shards(),
        config.deferred_shard_watermark,
    )?;
    Ok((image, prot))
}

fn codeword_cells(rep: Duration, out: &mut Vec<(&'static str, f64)>) -> Result<()> {
    let small = [0xA5u8; REGION];
    let bulk = vec![0x3Cu8; FOLD_BULK];
    for (kind, ns_name, gib_name) in [
        (
            CodewordAlgebraKind::XorFold,
            "cw.fold64_xor_ns",
            "cw.fold8k_xor_gib_s",
        ),
        (
            CodewordAlgebraKind::Residue,
            "cw.fold64_residue_ns",
            "cw.fold8k_residue_gib_s",
        ),
    ] {
        let ns = ns_per_call(rep, || {
            black_box(algebra::fold(kind, black_box(&small)));
        });
        out.push((ns_name, ns));
        let ns = ns_per_call(rep, || {
            black_box(algebra::fold(kind, black_box(&bulk)));
        });
        out.push((gib_name, FOLD_BULK as f64 / ns * 1e9 / GIB));
    }

    let (image, prot) = protected_image(ProtectionScheme::DataCodeword)?;
    let slots = image.len() / REC_SIZE;
    // The update bracket without its latch: the record write, then
    // apply_update folding before- and after-image and publishing the
    // delta (and the parity delta). Two images alternate so every call
    // really changes the record.
    let images = RECORD_IMAGES;
    let (mut slot, mut flip) = (0, 0);
    let ns = ns_per_call(rep, || {
        let addr = DbAddr(slot * REC_SIZE);
        image
            .write(addr, &images[1 - flip])
            .expect("in-bounds write");
        prot.apply_update(&image, addr, &images[flip])
            .expect("apply_update");
        slot += 1;
        if slot == slots {
            (slot, flip) = (0, 1 - flip);
        }
    });
    out.push(("cw.apply_update_ns", ns));

    let mut slot = 0;
    let ns = ns_per_call(rep, || {
        let (first, last) = prot
            .geometry()
            .region_span(DbAddr(slot * REC_SIZE), REC_SIZE);
        prot.latches()
            .with_span(first, last, LatchMode::Shared, || black_box(()));
        slot = (slot + 1) % slots;
    });
    out.push(("cw.latch_span_ns", ns));

    let ns = ns_per_call(rep, || {
        assert!(
            prot.audit(&image).expect("audit").clean(),
            "cell image audits dirty"
        );
    });
    out.push(("cw.audit_mib_s", image.len() as f64 / MIB / (ns / 1e9)));

    let (image, prot) = protected_image(ProtectionScheme::ReadPrecheck)?;
    let mut buf = [0u8; REC_SIZE];
    let mut slot = 0;
    let ns = ns_per_call(rep, || {
        prot.checked_read(&image, DbAddr(slot * REC_SIZE), &mut buf)
            .expect("checked_read");
        slot = (slot + 1) % slots;
    });
    out.push(("cw.checked_read_ns", ns));
    Ok(())
}

fn wal_cells(rep: Duration, out: &mut Vec<(&'static str, f64)>) -> Result<()> {
    let record = redo_record();
    let mut framed = BytesMut::with_capacity(256);
    let ns = ns_per_call(rep, || {
        framed.clear();
        black_box(frame_with(
            CodewordAlgebraKind::XorFold,
            &record,
            &mut framed,
        ));
    });
    out.push(("wal.encode_ns", ns));

    // What physical_update pushes per update: the before-image onto the
    // undo stack, the redo record onto the local redo log. The logs are
    // emptied every 500 pushes, as an operation or commit would.
    let before = vec![0x5Au8; REC_SIZE];
    let (mut undo, mut redo) = (LocalUndoLog::new(), LocalRedoLog::new());
    let ns = ns_per_call(rep, || {
        undo.push_physical(OpSeq(3), DbAddr(REC_SIZE), before.clone());
        redo.push(record.clone());
        if redo.len() == 500 {
            undo = LocalUndoLog::new();
            redo.discard();
        }
    });
    out.push(("wal.locallog_push_ns", ns));

    // The log cells share one log directory and keep what they write
    // bounded: it is the input of the scan cell.
    let scratch = Scratch::new("cells-wal");
    let log_dir = scratch.path().join("system.log");
    let config = DaliConfig::small(scratch.path());
    let syslog = SystemLog::create_with(
        &log_dir,
        config.page_size,
        config.codeword_algebra,
        config.log_segment_bytes,
    )?;
    const APPENDS: usize = 500;
    let ns = ns_per_round(
        16,
        || {
            syslog.flush(false).expect("flush");
        },
        || {
            for _ in 0..APPENDS {
                black_box(syslog.append(&record));
            }
        },
    );
    out.push(("wal.append_ns", ns / APPENDS as f64));

    // One networked transaction's records, then the flush a commit
    // issues: buffered (`sync_commit = false`) and durable.
    let one_txn = |syslog: &SystemLog| {
        for _ in 0..crate::spec::FRAMES_PER_NET_TXN {
            syslog.append(&record);
        }
    };
    let ns = ns_per_round(
        200,
        || one_txn(&syslog),
        || {
            syslog.flush(false).expect("flush");
        },
    );
    out.push(("wal.flush_us", ns / 1e3));
    let ns = ns_per_round(
        60,
        || one_txn(&syslog),
        || {
            syslog.flush(true).expect("durable flush");
        },
    );
    out.push(("wal.fsync_us", ns / 1e3));
    let log_bytes = syslog.current_lsn().0;
    drop(syslog);

    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let records = SystemLog::scan_stable_with(&log_dir, Lsn::ZERO, config.codeword_algebra)
                .expect("scan");
            black_box(records.len());
            start.elapsed().as_secs_f64()
        })
        .collect();
    out.push((
        "wal.scan_mib_s",
        log_bytes as f64 / MIB / crate::stats::median(&reps),
    ));
    Ok(())
}

fn engine_cells(rep: Duration, out: &mut Vec<(&'static str, f64)>) -> Result<()> {
    // Uncontended: one transaction takes 500 exclusive record locks and
    // releases them all, as a commit does.
    let config = DaliConfig::small("");
    let locks = LockManager::with_config(
        config.lock_timeout,
        config.resolved_lock_shards(),
        config.deadlock_detect_interval,
    );
    const HELD: u32 = 500;
    let ns = ns_per_call(rep, || {
        for slot in 0..HELD {
            locks
                .lock(TxnId(1), rec(slot), LockMode::Exclusive)
                .expect("uncontended lock");
        }
        locks.unlock_all(TxnId(1));
    });
    out.push(("eng.lock_ns", ns / HELD as f64));

    // Paper Table 1: mprotect pairs, the hardware comparator.
    let pairs_per_s = dali_mem::protect::measure_protect_pairs(256, 4)?;
    out.push(("mem.protect_pair_us", 1e6 / pairs_per_s));
    Ok(())
}

fn net_cells(rep: Duration, out: &mut Vec<(&'static str, f64)>) -> Result<()> {
    let request = Request::Update {
        rec: rec(17),
        data: vec![0x5A; REC_SIZE],
    };
    let ns = ns_per_call(rep, || {
        black_box(frame(&encode_request(black_box(&request))));
    });
    out.push(("net.encode_ns", ns));

    let wire = frame(&encode_request(&request));
    let ns = ns_per_call(rep, || {
        let (payload, _) = parse_frame(black_box(&wire))
            .expect("valid frame")
            .expect("complete frame");
        black_box(Request::decode(&payload).expect("valid request"));
    });
    out.push(("net.decode_ns", ns));

    let scratch = Scratch::new("cells-net");
    let (engine, _) = DaliEngine::create(DaliConfig::small(scratch.path()))?;
    let server = DaliServer::start(engine, "127.0.0.1:0")?;
    let mut client = DaliClient::connect(server.addr())?;
    let ns = ns_per_round(
        200,
        || (),
        || {
            client.ping().expect("ping");
        },
    );
    out.push(("net.ping_rtt_us", ns / 1e3));
    drop(client);
    server.shutdown();
    Ok(())
}

/// Run every cell, spending about `budget` in total.
pub fn run_all(budget: Duration) -> Result<Vec<(&'static str, f64)>> {
    let rep = budget / (CELLS * REPS as u32);
    let mut out = Vec::with_capacity(CELLS as usize);
    codeword_cells(rep, &mut out)?;
    wal_cells(rep, &mut out)?;
    engine_cells(rep, &mut out)?;
    net_cells(rep, &mut out)?;
    assert_eq!(out.len(), CELLS as usize, "CELLS shares the budget out");
    Ok(out)
}
