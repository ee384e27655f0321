//! Dump a database's segmented stable system log in human-readable form.
//!
//! A small operator tool in the spirit of the paper's audit-trail view of
//! the log (§4.2: read log records make the transaction log "a limited
//! form of audit trail"). The log is a directory of fixed-size segment
//! files; this prints a per-segment summary (LSN range, frame-type
//! histogram, sealed/active/torn status; a segment a roll left without
//! its name shows as `PENDING`) followed by every record with its global
//! LSN, so one can follow exactly which transactions read and
//! wrote what, where audits ran, and where checkpoints completed.
//!
//! Usage: cargo run -p dali-bench --bin logdump -- <db-dir> [--from LSN] [--txn N] [--residue] [--segments-only]

use dali_common::{CodewordAlgebraKind, Lsn};
use dali_wal::segment::{self, SegmentBuf};
use dali_wal::{LogRecordRef, LogicalUndoRef};

/// Histogram of a segment's frames keyed by record kind (plus "Seal").
fn histogram(seg: &SegmentBuf) -> std::collections::BTreeMap<&'static str, usize> {
    let mut histogram = std::collections::BTreeMap::new();
    for (_, rec) in seg.records() {
        *histogram.entry(kind(&rec)).or_default() += 1;
    }
    if seg.ends_with_seal() {
        histogram.insert("Seal", 1);
    }
    histogram
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: logdump <db-dir> [--from LSN] [--txn N] [--residue] [--segments-only]");
        std::process::exit(2);
    };
    let get = |flag: &str| -> Option<u64> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|s| s.parse().expect("numeric argument"))
    };
    let from = Lsn(get("--from").unwrap_or(0));
    let txn_filter = get("--txn");
    let segments_only = args.iter().any(|a| a == "--segments-only");
    // Frame checksums follow the database's codeword algebra; a log
    // written by a residue-configured engine needs --residue to verify.
    let algebra = if args.iter().any(|a| a == "--residue") {
        CodewordAlgebraKind::Residue
    } else {
        CodewordAlgebraKind::XorFold
    };

    let path = std::path::Path::new(dir).join("system.log");
    let segments = segment::list(&path).unwrap_or_else(|e| {
        eprintln!("cannot list segments in {}: {e}", path.display());
        std::process::exit(1);
    });
    if segments.is_empty() {
        eprintln!("no log segments in {}", path.display());
        std::process::exit(1);
    }

    // ---- per-segment summary ----
    // Every segment is loaded on its own: the dump should describe what
    // sits behind a torn segment too, where a recovery scan stops.
    let dumps: Vec<(segment::SegmentInfo, SegmentBuf)> = segments
        .iter()
        .map(|&info| {
            let seg = SegmentBuf::load(&path, info.base, 0, algebra).unwrap_or_else(|e| {
                eprintln!("cannot read {}: {e}", segment::file_name(info.base));
                std::process::exit(1);
            });
            (info, seg)
        })
        .collect();
    eprintln!(
        "{} segment(s), {} bytes on disk:",
        dumps.len(),
        segment::bytes_on_disk(&path).unwrap_or(0)
    );
    for (i, (info, seg)) in dumps.iter().enumerate() {
        // Trailing bytes that do not parse as a frame (a torn final
        // flush), or bytes after a seal (open() refuses mid-file seals).
        let status = if seg.torn_bytes() > 0 {
            format!("TORN ({} trailing bytes)", seg.torn_bytes())
        } else if seg.ends_with_seal() {
            "sealed".into()
        } else if i == dumps.len() - 1 {
            "active".into()
        } else {
            // Interior segment without a seal: open() would reject this
            // chain, but the dump should still describe it.
            "UNSEALED".into()
        };
        let hist = histogram(seg)
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(" ");
        eprintln!(
            "  {:>24}  lsn {:>10}..{:<10}  {:>8}B  {:<10} {}",
            segment::file_name(info.base),
            info.base.0,
            info.end().0,
            info.len,
            status,
            hist
        );
    }
    // Segments a crash caught between creation and naming: restart will
    // adopt or unlink them (`segment::adopt_pending`); no scan reads them.
    for info in segment::list_pending(&path).unwrap_or_default() {
        let pending = segment::pending_path(&path, info.base);
        eprintln!(
            "  {:>24}  lsn {:>10}..{:<10}  {:>8}B  PENDING",
            pending.file_name().unwrap_or_default().to_string_lossy(),
            info.base.0,
            info.end().0,
            info.len,
        );
    }
    if segments_only {
        return;
    }

    // ---- record dump (global LSN order, across segments) ----
    let mut counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    let mut total = 0usize;
    println!();
    for (_, seg) in &dumps {
        for (lsn, rec) in seg.records() {
            if lsn < from {
                continue;
            }
            total += 1;
            if let Some(t) = txn_filter {
                if rec.txn().map(|x| x.0) != Some(t) {
                    continue;
                }
            }
            *counts.entry(kind(&rec)).or_default() += 1;
            println!("{:>10}  {}", lsn.0, render(&rec));
        }
    }
    eprintln!("\n{total} records:");
    for (k, n) in counts {
        eprintln!("  {k:<14} {n}");
    }
}

fn kind(rec: &LogRecordRef<'_>) -> &'static str {
    match rec {
        LogRecordRef::TxnBegin { .. } => "TxnBegin",
        LogRecordRef::OpBegin { .. } => "OpBegin",
        LogRecordRef::PhysicalRedo { .. } => "PhysicalRedo",
        LogRecordRef::ReadLog { .. } => "ReadLog",
        LogRecordRef::OpCommit { .. } => "OpCommit",
        LogRecordRef::TxnCommit { .. } => "TxnCommit",
        LogRecordRef::TxnAbort { .. } => "TxnAbort",
        LogRecordRef::AuditBegin { .. } => "AuditBegin",
        LogRecordRef::AuditEnd { .. } => "AuditEnd",
        LogRecordRef::CkptComplete { .. } => "CkptComplete",
        LogRecordRef::CreateTable { .. } => "CreateTable",
    }
}

fn render(rec: &LogRecordRef<'_>) -> String {
    match rec {
        LogRecordRef::TxnBegin { txn } => format!("BEGIN       {txn}"),
        LogRecordRef::OpBegin { txn, op, kind, rec } => {
            format!("OP-BEGIN    {txn} op{} {kind:?} {rec}", op.0)
        }
        LogRecordRef::PhysicalRedo {
            txn,
            op,
            addr,
            data,
        } => format!("REDO        {txn} op{} {addr}+{}", op.0, data.len()),
        LogRecordRef::ReadLog {
            txn,
            addr,
            len,
            codewords,
        } => {
            if codewords.is_empty() {
                format!("READ        {txn} {addr}+{len}")
            } else {
                format!(
                    "READ        {txn} {addr}+{len} cw={:08x?}",
                    codewords.iter().collect::<Vec<_>>()
                )
            }
        }
        LogRecordRef::OpCommit { txn, op, undo } => format!(
            "OP-COMMIT   {txn} op{} undo {}",
            op.0,
            match undo {
                LogicalUndoRef::HeapInsert { rec } => format!("delete {rec}"),
                LogicalUndoRef::HeapDelete { rec, .. } => format!("reinsert {rec}"),
                LogicalUndoRef::HeapUpdate { rec, .. } => format!("writeback {rec}"),
            }
        ),
        LogRecordRef::TxnCommit { txn } => format!("COMMIT      {txn}"),
        LogRecordRef::TxnAbort { txn } => format!("ABORT       {txn}"),
        LogRecordRef::AuditBegin { audit_id } => format!("AUDIT-BEGIN #{audit_id}"),
        LogRecordRef::AuditEnd { audit_id, clean } => {
            format!(
                "AUDIT-END   #{audit_id} {}",
                if *clean { "clean" } else { "CORRUPT" }
            )
        }
        LogRecordRef::CkptComplete { ckpt_lsn } => format!("CKPT        at {ckpt_lsn}"),
        LogRecordRef::CreateTable {
            table,
            name,
            rec_size,
            capacity,
            ..
        } => format!("DDL         create {table} '{name}' rec={rec_size}B cap={capacity}"),
    }
}
