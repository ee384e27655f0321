//! Corruption bookkeeping: the CorruptDataTable range set and the
//! corruption marker that carries a failed audit across the deliberate
//! crash. Only a ReadLog restart reads the marker: its §4.3 scan needs the
//! failing audit's ranges and `Audit_SN`. Every other restart deletes one
//! it finds. Online repair is [`crate::repair`].

use crate::db::Db;
use dali_common::codec::{self, Wire};
use dali_common::storage;
use dali_common::{DaliError, DbAddr, Lsn, Result, Storage};
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

    /// The ranges as `(addr, len)` pairs.
    pub fn ranges(&self) -> Vec<(DbAddr, usize)> {
        self.map.iter().map(|(&s, &e)| (DbAddr(s), e - s)).collect()
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
        MARKER_MAGIC.put(&mut buf);
        self.audit_sn.put(&mut buf);
        (self.ranges.len() as u32).put(&mut buf);
        for (addr, len) in &self.ranges {
            addr.put(&mut buf);
            (*len as u64).put(&mut buf);
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
        let audit_sn = Wire::get(&mut r)?;
        let n = r.count(16)?;
        let mut ranges = Vec::with_capacity(n);
        for _ in 0..n {
            ranges.push((DbAddr::get(&mut r)?, r.u64()? as usize));
        }
        r.finish()?;
        Ok(CorruptionMarker { audit_sn, ranges })
    }
}

/// Write the corruption marker for `dir` (durably: under ReadLog the
/// marker is what tells a restart to run corruption recovery instead of
/// plain restart recovery, so it must survive a crash that follows the
/// report).
pub fn write_marker(store: &dyn Storage, dir: &Path, marker: &CorruptionMarker) -> Result<()> {
    Ok(storage::atomic_write(
        store,
        &Db::marker_path(dir),
        &marker.encode(),
    )?)
}

/// Read the corruption marker, if present.
pub fn read_marker(store: &dyn Storage, dir: &Path) -> Result<Option<CorruptionMarker>> {
    let mut bytes = Vec::new();
    match store.read(&Db::marker_path(dir), &mut bytes) {
        Ok(()) => CorruptionMarker::decode(&bytes).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Whether `dir` holds a corruption marker; its bytes are not read.
pub(crate) fn marker_present(store: &dyn Storage, dir: &Path) -> Result<bool> {
    match store.open(&Db::marker_path(dir), storage::Open::Read) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        opened => Ok(opened.map(|_| true)?),
    }
}

/// Remove the corruption marker (recovery completed). The removal is
/// fsynced like the write: a resurfacing marker would send the next
/// restart back into corruption recovery it already finished (harmless
/// but wasteful), while losing one is only possible before recovery
/// declared itself done.
pub fn clear_marker(store: &dyn Storage, dir: &Path) -> Result<()> {
    Ok(storage::remove_durably(store, &Db::marker_path(dir))?)
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
    write_marker(&*db.store, &db.config.dir, &marker)?;
    db.poison();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::OsStorage;

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
        assert_eq!(s.ranges(), vec![(DbAddr(100), 120)]);
    }

    #[test]
    fn rangeset_merges_adjacent() {
        let mut s = RangeSet::new();
        s.insert(DbAddr(0), 10);
        s.insert(DbAddr(10), 10);
        assert_eq!(s.ranges(), vec![(DbAddr(0), 20)]);
    }

    #[test]
    fn rangeset_keeps_disjoint() {
        let mut s = RangeSet::new();
        s.insert(DbAddr(0), 10);
        s.insert(DbAddr(100), 10);
        s.insert(DbAddr(50), 10);
        assert_eq!(s.ranges().len(), 3);
        assert_eq!(s.ranges().iter().map(|r| r.1).sum::<usize>(), 30);
    }

    #[test]
    fn rangeset_absorbs_multiple() {
        let mut s = RangeSet::new();
        s.insert(DbAddr(0), 10);
        s.insert(DbAddr(20), 10);
        s.insert(DbAddr(40), 10);
        s.insert(DbAddr(5), 40); // swallows all three
        assert_eq!(s.ranges(), vec![(DbAddr(0), 50)]);
    }

    #[test]
    fn rangeset_zero_len_noop() {
        let mut s = RangeSet::new();
        s.insert(DbAddr(5), 0);
        assert!(s.ranges().is_empty());
        assert!(!s.overlaps(DbAddr(5), 0));
    }

    #[test]
    fn marker_round_trip() {
        let scratch = dali_testutil::TempDir::new("marker");
        let dir = scratch.path();
        assert_eq!(read_marker(&OsStorage, dir).unwrap(), None);
        let m = CorruptionMarker {
            audit_sn: Some(Lsn(777)),
            ranges: vec![(DbAddr(64), 64), (DbAddr(4096), 128)],
        };
        write_marker(&OsStorage, dir, &m).unwrap();
        assert_eq!(read_marker(&OsStorage, dir).unwrap(), Some(m));
        clear_marker(&OsStorage, dir).unwrap();
        assert_eq!(read_marker(&OsStorage, dir).unwrap(), None);
        clear_marker(&OsStorage, dir).unwrap(); // idempotent
    }

    #[test]
    fn marker_detects_tampering() {
        let scratch = dali_testutil::TempDir::new("marker-tamper");
        let dir = scratch.path();
        let m = CorruptionMarker {
            audit_sn: None,
            ranges: vec![(DbAddr(0), 64)],
        };
        write_marker(&OsStorage, dir, &m).unwrap();
        let p = Db::marker_path(dir);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[5] ^= 1;
        std::fs::write(&p, bytes).unwrap();
        assert!(read_marker(&OsStorage, dir).is_err());
    }
}
