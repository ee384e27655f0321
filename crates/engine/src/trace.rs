//! Logical-corruption tracing (paper §7).
//!
//! The paper's closing observation: the read-logging machinery built for
//! *physical* corruption recovery is also "a significant aid" for
//! *logical* corruption — wrong data entered by buggy application code or
//! bad user input, which no codeword can detect. Once a user or auditor
//! identifies the offending transaction(s), the read log records let the
//! DBMS compute the **taint closure**: every transaction that
//! (transitively) read data written by an offending transaction, and
//! every byte range whose current value derives from one.
//!
//! This module implements that tracing as a pure scan over the stable
//! log. It does not modify the database — the paper leaves repair of
//! logical corruption to out-of-band compensation — but the report tells
//! the operator exactly which transactions and data to look at, and can
//! seed a prior-state recovery decision.

use crate::corruption::RangeSet;
use dali_common::{DbAddr, Lsn, Result, TxnId};
use dali_wal::{Entry, LogReader};
use std::collections::HashSet;
use std::path::Path;

/// Result of a taint trace.
#[derive(Clone, Debug, Default)]
pub struct TaintReport {
    /// The seed transactions plus every transaction that transitively
    /// read tainted data.
    pub tainted_txns: Vec<TxnId>,
    /// Byte ranges whose values derive from a tainted transaction.
    pub tainted_data: Vec<(DbAddr, usize)>,
    /// Log records examined.
    pub records_scanned: usize,
    /// Read log records found (zero means the scheme wasn't logging reads
    /// and the trace saw only writes — a warning sign for completeness).
    pub read_records_seen: usize,
}

impl TaintReport {
    /// Is the transaction in the closure?
    pub fn contains(&self, txn: TxnId) -> bool {
        self.tainted_txns.contains(&txn)
    }
}

/// Compute the taint closure of `seeds` over the stable log, scanning
/// from `from` (typically the `ck_end` of the oldest retained checkpoint,
/// or `Lsn::ZERO` if the log has never been truncated).
///
/// Mechanics mirror the delete-transaction redo scan (§4.3), but no state
/// is modified:
///
/// * a write (an entry of an operation or rollback frame) by a tainted
///   transaction taints its range;
/// * a read (`ReadLog`, or CW ReadLog's write-as-read entry) or a write
///   overlapping tainted data taints the transaction;
/// * a tainted transaction's rollback (abort) *un*taints nothing — the
///   trace is conservative.
pub fn trace_taint(
    store: &dyn dali_common::Storage,
    log_path: &Path,
    from: Lsn,
    seeds: &[TxnId],
    kind: dali_common::CodewordAlgebraKind,
) -> Result<TaintReport> {
    let mut tainted: HashSet<TxnId> = seeds.iter().copied().collect();
    let mut data = RangeSet::new();
    let mut read_records_seen = 0usize;
    let mut records_scanned = 0usize;
    // One forward pass is exactly right: taint at log position L can only
    // affect records after L. Seeds are tainted from the start, so their
    // earliest writes taint in order; transitive readers appear after the
    // tainting write in the log (strict 2PL serializes conflicting
    // operations in log order, the same property §4.3's recovery scan
    // leans on). A fixpoint loop would be WRONG, not just wasteful: it
    // would re-apply taint to writes that happened before the taint
    // existed and cascade over the entire history.
    LogReader::open_on(store, log_path, from, kind)?.for_each(|_lsn, rec| {
        records_scanned += 1;
        let Some(txn) = rec.txn() else {
            return Ok(());
        };
        for entry in rec.entries() {
            match entry {
                Entry::Write { addr, data: d } => {
                    if tainted.contains(&txn) {
                        data.insert(addr, d.len());
                    } else if data.overlaps(addr, d.len()) {
                        // Overwrote tainted bytes without (necessarily)
                        // reading them: conservatively taint the writer,
                        // as the basic §4.3 scan does for write records.
                        tainted.insert(txn);
                        data.insert(addr, d.len());
                    }
                }
                Entry::Read { addr, len, .. } => {
                    read_records_seen += 1;
                    if !tainted.contains(&txn) && data.overlaps(addr, len as usize) {
                        tainted.insert(txn);
                    }
                }
            }
        }
        Ok(())
    })?;
    let mut tainted_txns: Vec<TxnId> = tainted.into_iter().collect();
    tainted_txns.sort_unstable();
    Ok(TaintReport {
        tainted_txns,
        tainted_data: data.ranges(),
        records_scanned,
        read_records_seen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::{DaliConfig, ProtectionScheme};

    #[test]
    fn taint_closure_follows_reads() {
        let dir = dali_testutil::TempDir::new("trace-closure");
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::ReadLogging);
        let (db, _) = crate::DaliEngine::create(config).unwrap();
        let t = db.create_table("t", 128, 32).unwrap();

        let setup = db.begin().unwrap();
        let a = setup.insert(t, &[1u8; 128]).unwrap();
        let b = setup.insert(t, &[2u8; 128]).unwrap();
        let c = setup.insert(t, &[3u8; 128]).unwrap();
        let d = setup.insert(t, &[4u8; 128]).unwrap();
        setup.commit().unwrap();

        // T1 (the "fat finger") writes a bogus value to A.
        let t1 = db.begin().unwrap();
        let t1_id = t1.id();
        t1.update(a, &[9u8; 128]).unwrap();
        t1.commit().unwrap();

        // T2 reads A, writes B (tainted transitively).
        let t2 = db.begin().unwrap();
        let t2_id = t2.id();
        let v = t2.read_vec(a).unwrap();
        t2.update(b, &v).unwrap();
        t2.commit().unwrap();

        // T3 reads C, writes D (clean).
        let t3 = db.begin().unwrap();
        let t3_id = t3.id();
        let v = t3.read_vec(c).unwrap();
        t3.update(d, &v).unwrap();
        t3.commit().unwrap();

        // T4 reads B (tainted via T2).
        let t4 = db.begin().unwrap();
        let t4_id = t4.id();
        let _ = t4.read_vec(b).unwrap();
        t4.commit().unwrap();

        db.db().syslog.flush(false).unwrap();
        let report = trace_taint(
            &dali_common::OsStorage,
            &db.config().dir.join("system.log"),
            Lsn::ZERO,
            &[t1_id],
            db.config().codeword_algebra,
        )
        .unwrap();
        assert!(report.contains(t1_id));
        assert!(report.contains(t2_id), "{report:?}");
        assert!(report.contains(t4_id), "{report:?}");
        assert!(!report.contains(t3_id), "{report:?}");
        assert!(report.read_records_seen > 0);
        assert!(!report.tainted_data.is_empty());
    }

    #[test]
    fn empty_seed_taints_nothing() {
        let dir = dali_testutil::TempDir::new("trace-empty");
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::ReadLogging);
        let (db, _) = crate::DaliEngine::create(config).unwrap();
        let t = db.create_table("t", 8, 8).unwrap();
        let txn = db.begin().unwrap();
        txn.insert(t, &[1u8; 8]).unwrap();
        txn.commit().unwrap();
        db.db().syslog.flush(false).unwrap();
        let report = trace_taint(
            &dali_common::OsStorage,
            &db.config().dir.join("system.log"),
            Lsn::ZERO,
            &[],
            db.config().codeword_algebra,
        )
        .unwrap();
        assert!(report.tainted_txns.is_empty());
        assert!(report.tainted_data.is_empty());
    }

    #[test]
    fn trace_without_read_logging_flags_it() {
        let dir = dali_testutil::TempDir::new("trace-noreads");
        let config = DaliConfig::small(dir.path()).with_scheme(ProtectionScheme::Baseline);
        let (db, _) = crate::DaliEngine::create(config).unwrap();
        let t = db.create_table("t", 8, 8).unwrap();
        let t1 = db.begin().unwrap();
        let t1_id = t1.id();
        let rec = t1.insert(t, &[1u8; 8]).unwrap();
        t1.commit().unwrap();
        let t2 = db.begin().unwrap();
        let _ = t2.read_vec(rec).unwrap(); // not logged under Baseline
        t2.commit().unwrap();
        db.db().syslog.flush(false).unwrap();
        let report = trace_taint(
            &dali_common::OsStorage,
            &db.config().dir.join("system.log"),
            Lsn::ZERO,
            &[t1_id],
            db.config().codeword_algebra,
        )
        .unwrap();
        assert_eq!(
            report.read_records_seen, 0,
            "caller can tell the trace is blind"
        );
        assert!(report.contains(t1_id));
    }
}
