//! Corruption bookkeeping: the CorruptDataTable range set, the corruption
//! marker that carries a failed audit across the deliberate crash, and the
//! online cache-recovery repair (paper §4.2's cache-recovery model).

use crate::att::TxnStatus;
use crate::ckpt;
use crate::db::Db;
use bytes::BufMut;
use dali_common::codec;
use dali_common::{CrashPoints, DaliError, DbAddr, Lsn, PageId, Result};
use dali_wal::{LogReader, LogRecord, LogRecordRef};
use std::collections::BTreeMap;
use std::path::Path;

/// A set of byte ranges with merge-on-insert and overlap queries — the
/// paper's *CorruptDataTable* (§4.3).
#[derive(Clone, Debug, Default)]
pub struct RangeSet {
    /// start -> end (exclusive), non-overlapping, non-adjacent.
    map: BTreeMap<usize, usize>,
}

impl RangeSet {
    /// Empty set.
    pub fn new() -> RangeSet {
        RangeSet::default()
    }

    /// Insert `[start, start+len)`, merging with overlapping or adjacent
    /// ranges.
    pub fn insert(&mut self, addr: DbAddr, len: usize) {
        if len == 0 {
            return;
        }
        let mut start = addr.0;
        let mut end = addr.0 + len;
        // Absorb the predecessor if it touches us.
        if let Some((&s, &e)) = self.map.range(..=start).next_back() {
            if e >= start {
                start = s;
                end = end.max(e);
                self.map.remove(&s);
            }
        }
        // Absorb successors.
        loop {
            let next = self.map.range(start..).next().map(|(&s, &e)| (s, e));
            match next {
                Some((s, e)) if s <= end => {
                    end = end.max(e);
                    self.map.remove(&s);
                }
                _ => break,
            }
        }
        self.map.insert(start, end);
    }

    /// Does `[start, start+len)` overlap any range in the set?
    pub fn overlaps(&self, addr: DbAddr, len: usize) -> bool {
        if len == 0 {
            return false;
        }
        let start = addr.0;
        let end = start + len;
        if let Some((_, &e)) = self.map.range(..=start).next_back() {
            if e > start {
                return true;
            }
        }
        self.map.range(start..end).next().is_some()
    }

    /// Number of disjoint ranges.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The ranges as `(addr, len)` pairs.
    pub fn ranges(&self) -> Vec<(DbAddr, usize)> {
        self.map.iter().map(|(&s, &e)| (DbAddr(s), e - s)).collect()
    }

    /// Total bytes covered.
    pub fn covered_bytes(&self) -> usize {
        self.map.iter().map(|(&s, &e)| e - s).sum()
    }
}

const MARKER_MAGIC: u32 = 0xDA11_BAD1;

/// Persisted note of a failed audit: written before the deliberate crash,
/// consumed by corruption recovery at the next open (paper §4.3: "we
/// simply note the region(s) failing the audit, and cause the database to
/// crash").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorruptionMarker {
    /// `Audit_SN`: LSN of the begin record of the last *clean* audit.
    /// Recovery conservatively assumes the corruption happened right
    /// after this point.
    pub audit_sn: Option<Lsn>,
    /// Regions the failing audit flagged.
    pub ranges: Vec<(DbAddr, usize)>,
}

impl CorruptionMarker {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u32_le(MARKER_MAGIC);
        ckpt::put_opt_lsn(&mut buf, self.audit_sn);
        buf.put_u32_le(self.ranges.len() as u32);
        for (a, l) in &self.ranges {
            buf.put_u64_le(a.0 as u64);
            buf.put_u64_le(*l as u64);
        }
        codec::seal(&mut buf);
        buf
    }

    fn decode(bytes: &[u8]) -> Result<CorruptionMarker> {
        let mut r = codec::unseal(bytes, |msg| {
            DaliError::RecoveryFailed(format!("corruption marker: {msg}"))
        })?;
        if r.u32()? != MARKER_MAGIC {
            return Err(r.fail("bad magic"));
        }
        let audit_sn = ckpt::get_opt_lsn(&mut r)?;
        let n = r.count(16)?;
        let mut ranges = Vec::with_capacity(n);
        for _ in 0..n {
            ranges.push((DbAddr(r.u64()? as usize), r.u64()? as usize));
        }
        r.finish()?;
        Ok(CorruptionMarker { audit_sn, ranges })
    }
}

/// Write the corruption marker for `dir` (durably: the marker is what
/// tells a restart to run corruption recovery instead of plain restart
/// recovery, so it must survive a crash that follows the report — see
/// [`crate::ckpt`]'s `atomic_write` on why the rename alone is not
/// enough).
pub fn write_marker(
    dir: &Path,
    marker: &CorruptionMarker,
    crash_points: &CrashPoints,
) -> Result<()> {
    crate::ckpt::atomic_write(&Db::marker_path(dir), &marker.encode(), crash_points)
}

/// Read the corruption marker, if present.
pub fn read_marker(dir: &Path) -> Result<Option<CorruptionMarker>> {
    match std::fs::read(Db::marker_path(dir)) {
        Ok(bytes) => Ok(Some(CorruptionMarker::decode(&bytes)?)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Remove the corruption marker (recovery completed). The removal is
/// fsynced like the write: a resurfacing marker would send the next
/// restart back into corruption recovery it already finished (harmless
/// but wasteful), while losing one is only possible before recovery
/// declared itself done.
pub fn clear_marker(dir: &Path) -> Result<()> {
    match std::fs::remove_file(Db::marker_path(dir)) {
        Ok(()) => crate::ckpt::sync_parent_dir(&Db::marker_path(dir)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Note detected corruption and bring the database down for recovery:
/// flush the log tail (in Dali the tail lives in shared memory and
/// survives the crash — flushing models that), persist the marker, and
/// poison the engine.
pub fn report_corruption(db: &Db, ranges: &[(DbAddr, usize)]) -> Result<()> {
    let marker = CorruptionMarker {
        audit_sn: *db.last_clean_audit.lock(),
        ranges: ranges.to_vec(),
    };
    db.syslog.flush(false)?;
    write_marker(&db.config.dir, &marker, &db.crash_points)?;
    db.poison();
    Ok(())
}

/// Online cache recovery (paper §4.2 cache-recovery model): repair
/// directly corrupted regions in place, without a restart, assuming no
/// indirect corruption (valid when every checkpoint is certified and the
/// corruption was caught by a precheck or audit before any transaction
/// read it).
///
/// Active transactions with updates on the affected pages cannot be
/// disentangled from the on-disk state cheaply, so every active
/// transaction is rolled back first; then the affected pages are rebuilt
/// from the certified checkpoint plus a physical-redo replay of the
/// stable log, and the region codewords are recomputed.
pub fn cache_repair(db: &std::sync::Arc<Db>, ranges: &[(DbAddr, usize)]) -> Result<usize> {
    db.check_alive()?;
    let _q = db.quiesce.write();

    // Roll back every active transaction (their compensations are logged).
    for id in db.att.ids() {
        if let Some(state) = db.att.get(id) {
            let mut st = state.lock();
            if st.status != TxnStatus::Active {
                continue;
            }
            crate::txn::rollback_txn(db, &mut st, id)?;
            let mut batch = st.redo.drain();
            batch.push(LogRecord::TxnAbort { txn: id });
            db.syslog.append_batch(&batch);
            st.status = TxnStatus::Aborted;
            for rec in std::mem::take(&mut st.deferred_frees) {
                if let Ok(h) = db.heap(rec.table) {
                    h.release(rec.slot);
                }
            }
            drop(st);
            db.locks.unlock_all(id);
            db.att.remove(id);
        }
    }
    db.syslog.flush(false)?;
    // The replay below lists the live log directory: every segment just
    // written must carry its name first.
    db.syslog.settle()?;

    // Pages to repair.
    let mut pages: Vec<PageId> = ranges
        .iter()
        .flat_map(|&(a, l)| db.image.pages_overlapping(a, l))
        .collect();
    pages.sort_unstable();
    pages.dedup();

    // Rebuild from the certified checkpoint...
    let (image_idx, _serial) = ckpt::read_anchor(&db.config.dir)?;
    let meta = ckpt::read_meta(&db.config.dir, image_idx)?;
    let ckpt_pages = ckpt::read_ckpt_pages(&db.config.dir, image_idx, db.config.page_size, &pages)?;
    for (p, data) in &ckpt_pages {
        db.image.write_page(*p, data)?;
    }

    // ...replay committed history onto them (physical redo is positional
    // and idempotent, so replaying every record touching these pages
    // repeats history exactly)...
    let mut replayed = 0usize;
    LogReader::open(db.syslog.path(), meta.ck_end, db.config.codeword_algebra)?.for_each(
        |_lsn, rec| {
            if let LogRecordRef::PhysicalRedo { addr, data, .. } = rec {
                let touched = db.image.pages_overlapping(addr, data.len());
                if touched.iter().any(|p| pages.binary_search(p).is_ok()) {
                    db.image.write(addr, data)?;
                    replayed += 1;
                }
            }
            Ok(())
        },
    )?;

    // ...and resynchronize the maintained codewords of the repaired pages.
    if db.config.scheme.maintains_codewords() {
        // Queued deferred deltas for the repaired regions are superseded;
        // apply the whole queue first so unrelated regions stay correct,
        // then recompute the repaired ones from the image.
        db.prot.drain_deferred();
        let geom = db.prot.geometry();
        for &p in &pages {
            let base = p.base(db.config.page_size);
            let (first, last) = geom.region_span(base, db.config.page_size);
            for r in first..=last {
                db.prot.table().recompute_region(&db.image, geom, r)?;
            }
        }
        // The page rewrites above bypassed parity maintenance, so the
        // stripe groups covering the repaired span are stale; rebuild
        // them from the image so the next in-place repair can trust them.
        if let Some(stripe) = db.prot.parity() {
            let mut groups: Vec<_> = pages
                .iter()
                .flat_map(|&p| {
                    let base = p.base(db.config.page_size);
                    let (first, last) = geom.region_span(base, db.config.page_size);
                    stripe.group_of(first)..=stripe.group_of(last)
                })
                .collect();
            groups.sort_unstable();
            groups.dedup();
            for g in groups {
                db.prot.resync_parity_group(&db.image, g)?;
            }
        }
    }

    // Repaired pages differ from both checkpoint images now.
    db.syslog.dirty().note_all(pages.iter().copied());
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rangeset_insert_and_overlap() {
        let mut s = RangeSet::new();
        s.insert(DbAddr(100), 50);
        assert!(s.overlaps(DbAddr(100), 1));
        assert!(s.overlaps(DbAddr(149), 1));
        assert!(!s.overlaps(DbAddr(150), 10));
        assert!(!s.overlaps(DbAddr(0), 100));
        assert!(s.overlaps(DbAddr(0), 101));
        assert!(s.overlaps(DbAddr(90), 1000));
    }

    #[test]
    fn rangeset_merges_overlapping() {
        let mut s = RangeSet::new();
        s.insert(DbAddr(100), 50);
        s.insert(DbAddr(120), 100);
        assert_eq!(s.len(), 1);
        assert_eq!(s.ranges(), vec![(DbAddr(100), 120)]);
    }

    #[test]
    fn rangeset_merges_adjacent() {
        let mut s = RangeSet::new();
        s.insert(DbAddr(0), 10);
        s.insert(DbAddr(10), 10);
        assert_eq!(s.len(), 1);
        assert_eq!(s.covered_bytes(), 20);
    }

    #[test]
    fn rangeset_keeps_disjoint() {
        let mut s = RangeSet::new();
        s.insert(DbAddr(0), 10);
        s.insert(DbAddr(100), 10);
        s.insert(DbAddr(50), 10);
        assert_eq!(s.len(), 3);
        assert_eq!(s.covered_bytes(), 30);
    }

    #[test]
    fn rangeset_absorbs_multiple() {
        let mut s = RangeSet::new();
        s.insert(DbAddr(0), 10);
        s.insert(DbAddr(20), 10);
        s.insert(DbAddr(40), 10);
        s.insert(DbAddr(5), 40); // swallows all three
        assert_eq!(s.len(), 1);
        assert_eq!(s.ranges(), vec![(DbAddr(0), 50)]);
    }

    #[test]
    fn rangeset_zero_len_noop() {
        let mut s = RangeSet::new();
        s.insert(DbAddr(5), 0);
        assert!(s.is_empty());
        assert!(!s.overlaps(DbAddr(5), 0));
    }

    #[test]
    fn marker_round_trip() {
        let scratch = dali_testutil::TempDir::new("marker");
        let dir = scratch.path();
        assert_eq!(read_marker(dir).unwrap(), None);
        let m = CorruptionMarker {
            audit_sn: Some(Lsn(777)),
            ranges: vec![(DbAddr(64), 64), (DbAddr(4096), 128)],
        };
        write_marker(dir, &m, &CrashPoints::default()).unwrap();
        assert_eq!(read_marker(dir).unwrap(), Some(m));
        clear_marker(dir).unwrap();
        assert_eq!(read_marker(dir).unwrap(), None);
        clear_marker(dir).unwrap(); // idempotent
    }

    #[test]
    fn marker_detects_tampering() {
        let scratch = dali_testutil::TempDir::new("marker-tamper");
        let dir = scratch.path();
        let m = CorruptionMarker {
            audit_sn: None,
            ranges: vec![(DbAddr(0), 64)],
        };
        write_marker(dir, &m, &CrashPoints::default()).unwrap();
        let p = Db::marker_path(dir);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[5] ^= 1;
        std::fs::write(&p, bytes).unwrap();
        assert!(read_marker(dir).is_err());
    }
}
