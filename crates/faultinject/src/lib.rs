//! Addressing-error fault injection (paper §1).
//!
//! The class of software error the paper defends against — "copy overruns
//! and wild writes through uninitialized pointers" — is simulated here by
//! writing into the database image through raw pointers, bypassing the
//! prescribed `beginUpdate`/`endUpdate` interface entirely. Codewords are
//! therefore *not* maintained for these writes, which is exactly the
//! signature an audit or precheck detects.
//!
//! For the Hardware Protection scheme the injector consults the page
//! protection bitmap first: a write to a protected page reports
//! [`InjectionEffect::Trapped`] instead of crashing the test process with
//! a real SIGSEGV, which models the trap semantics ("the offending write
//! is not completed").

use dali_common::{DbAddr, PageId, Result};
use dali_engine::DaliEngine;
use rand::Rng;

pub mod campaign;
pub use campaign::{
    algebra_expected_detected, assert_matrix, assert_repair_matrix, campaign_payload,
    run_arena_round, run_ckpt_image_round, run_double_fault_round, run_matrix, run_repair_matrix,
    run_repair_round, run_wal_round, wal_expected_verdict, CampaignTarget, CampaignVerdict,
    CorruptionPattern, RepairRound, RepairVerdict, WalScanOutcome,
};

/// What happened when a fault was injected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectionEffect {
    /// The stray write landed: `changed` bytes actually differ from the
    /// previous contents.
    Written {
        addr: DbAddr,
        len: usize,
        changed: usize,
    },
    /// The hardware-protection scheme would have trapped the write; the
    /// image is untouched.
    Trapped { addr: DbAddr },
}

impl InjectionEffect {
    /// Did the injection modify the image?
    pub fn landed(&self) -> bool {
        matches!(self, InjectionEffect::Written { changed, .. } if *changed > 0)
    }
}

/// Fault injector bound to an engine.
pub struct FaultInjector {
    engine: DaliEngine,
}

impl FaultInjector {
    /// Build an injector for `engine`.
    pub fn new(engine: &DaliEngine) -> FaultInjector {
        FaultInjector {
            engine: engine.clone(),
        }
    }

    fn inject(&self, addr: DbAddr, bytes: &[u8]) -> Result<InjectionEffect> {
        let image = self.engine.raw_image();
        // Hardware protection: writes to protected pages trap. Check every
        // page the write touches; a trap on the first page kills the whole
        // write (real hardware faults at the first protected byte; for
        // simplicity we model all-or-nothing).
        let pages = image.pages_overlapping(addr, bytes.len());
        for p in pages {
            let base = p.base(image.page_size());
            if !self.engine.page_writable(base) {
                return Ok(InjectionEffect::Trapped { addr });
            }
        }
        let mut old = vec![0u8; bytes.len()];
        image.read(addr, &mut old)?;
        // The actual wild write: a raw copy through the arena pointer,
        // exactly what a stray memcpy in application code would do.
        image.write(addr, bytes)?;
        let changed = old.iter().zip(bytes).filter(|(a, b)| a != b).count();
        Ok(InjectionEffect::Written {
            addr,
            len: bytes.len(),
            changed,
        })
    }

    /// A wild write: `len` bytes of `value` at an arbitrary address.
    ///
    /// Note for experiment design: a *uniform* pattern longer than one
    /// word can fall into the XOR codeword's parity blind spot when the
    /// overwritten data is itself word-periodic (the per-word deltas
    /// cancel). Use [`wild_write_noise`](Self::wild_write_noise) when the
    /// experiment requires guaranteed detectability.
    pub fn wild_write(&self, addr: DbAddr, value: u8, len: usize) -> Result<InjectionEffect> {
        self.inject(addr, &vec![value; len])
    }

    /// A wild write of a non-periodic byte pattern, guaranteed to change
    /// the XOR fold of the containing region(s) for any prior contents
    /// (each 32-bit word of the pattern is distinct, so the per-word
    /// deltas cannot all cancel).
    pub fn wild_write_noise(&self, addr: DbAddr, len: usize) -> Result<InjectionEffect> {
        let bytes: Vec<u8> = (0..len)
            .map(|i| {
                (i as u8)
                    .wrapping_mul(0x9D)
                    .wrapping_add(0xE1 ^ (i as u8 >> 3))
            })
            .collect();
        self.inject(addr, &bytes)
    }

    /// A wild write with the given bytes.
    pub fn wild_write_bytes(&self, addr: DbAddr, bytes: &[u8]) -> Result<InjectionEffect> {
        self.inject(addr, bytes)
    }

    /// A copy overrun: a legitimate-looking copy of `intended` bytes that
    /// keeps writing `overrun` additional garbage bytes past the end.
    pub fn copy_overrun(
        &self,
        addr: DbAddr,
        intended: &[u8],
        overrun: usize,
    ) -> Result<InjectionEffect> {
        let mut bytes = intended.to_vec();
        bytes.extend((0..overrun).map(|i| (i as u8).wrapping_mul(37).wrapping_add(11)));
        self.inject(addr, &bytes)
    }

    /// Flip a single bit.
    pub fn bit_flip(&self, addr: DbAddr, bit: u8) -> Result<InjectionEffect> {
        let image = self.engine.raw_image();
        let mut b = [0u8; 1];
        image.read(addr, &mut b)?;
        self.inject(addr, &[b[0] ^ (1 << (bit % 8))])
    }

    /// A wild write at a uniformly random in-bounds address.
    pub fn random_wild_write<R: Rng>(&self, rng: &mut R, len: usize) -> Result<InjectionEffect> {
        let image = self.engine.raw_image();
        let max = image.len().saturating_sub(len).max(1);
        let addr = DbAddr(rng.gen_range(0..max));
        let mut bytes = vec![0u8; len];
        rng.fill(&mut bytes[..]);
        self.inject(addr, &bytes)
    }

    /// Pages of the image (for targeting specific pages).
    pub fn pages(&self) -> usize {
        self.engine.raw_image().pages()
    }

    /// Address of the first byte of a page.
    pub fn page_base(&self, page: u32) -> DbAddr {
        PageId(page).base(self.engine.raw_image().page_size())
    }
}

/// Outcome summary of an injection campaign.
#[derive(Debug, Default, Clone)]
pub struct CampaignReport {
    pub injected: usize,
    pub landed: usize,
    pub trapped: usize,
}

/// Run a campaign of `n` random wild writes of `len` bytes each.
pub fn random_campaign<R: Rng>(
    inj: &FaultInjector,
    rng: &mut R,
    n: usize,
    len: usize,
) -> Result<CampaignReport> {
    let mut report = CampaignReport {
        injected: n,
        ..Default::default()
    };
    for _ in 0..n {
        match inj.random_wild_write(rng, len)? {
            e @ InjectionEffect::Written { .. } => {
                if e.landed() {
                    report.landed += 1;
                }
            }
            InjectionEffect::Trapped { .. } => report.trapped += 1,
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::{DaliConfig, ProtectionScheme};
    use rand::SeedableRng;

    /// Engine plus the guard keeping its scratch directory alive.
    fn engine(scheme: ProtectionScheme, name: &str) -> (DaliEngine, dali_testutil::TempDir) {
        let dir = dali_testutil::TempDir::new(&format!("fi-{name}"));
        let (db, _) =
            DaliEngine::create(DaliConfig::small(dir.path()).with_scheme(scheme)).unwrap();
        (db, dir)
    }

    #[test]
    fn wild_write_lands_and_audit_catches_it() {
        let (db, _dir) = engine(ProtectionScheme::DataCodeword, "audit");
        let t = db.create_table("t", 100, 64).unwrap();
        let txn = db.begin().unwrap();
        let rec = txn.insert(t, &[3u8; 100]).unwrap();
        txn.commit().unwrap();

        let inj = FaultInjector::new(&db);
        let addr = db.record_addr(rec).unwrap();
        let effect = inj.wild_write(addr.add(10), 0xEE, 4).unwrap();
        assert!(effect.landed());

        let report = db.audit().unwrap();
        assert!(!report.clean());
    }

    #[test]
    fn hardware_protection_traps_wild_write() {
        let (db, _dir) = engine(ProtectionScheme::MemoryProtection, "trap");
        let t = db.create_table("t", 100, 64).unwrap();
        let txn = db.begin().unwrap();
        let rec = txn.insert(t, &[3u8; 100]).unwrap();
        txn.commit().unwrap();

        let inj = FaultInjector::new(&db);
        let addr = db.record_addr(rec).unwrap();
        let effect = inj.wild_write(addr, 0xEE, 4).unwrap();
        assert_eq!(effect, InjectionEffect::Trapped { addr });
        // Data unharmed.
        let txn = db.begin().unwrap();
        assert_eq!(txn.read_vec(rec).unwrap(), vec![3u8; 100]);
        txn.commit().unwrap();
    }

    #[test]
    fn baseline_scheme_lets_wild_writes_through_silently() {
        let (db, _dir) = engine(ProtectionScheme::Baseline, "silent");
        let t = db.create_table("t", 100, 64).unwrap();
        let txn = db.begin().unwrap();
        let rec = txn.insert(t, &[3u8; 100]).unwrap();
        txn.commit().unwrap();

        let inj = FaultInjector::new(&db);
        let addr = db.record_addr(rec).unwrap();
        assert!(inj.wild_write(addr, 0xEE, 4).unwrap().landed());
        // The corrupted value is served to readers with no complaint.
        let txn = db.begin().unwrap();
        let got = txn.read_vec(rec).unwrap();
        assert_eq!(&got[..4], &[0xEE; 4]);
        txn.commit().unwrap();
        // And the (codeword-less) audit has nothing to check.
        assert!(db.audit().unwrap().clean());
    }

    #[test]
    fn copy_overrun_spills_into_neighbor() {
        let (db, _dir) = engine(ProtectionScheme::DataCodeword, "overrun");
        let t = db.create_table("t", 8, 64).unwrap();
        let txn = db.begin().unwrap();
        let a = txn.insert(t, &[1u8; 8]).unwrap();
        let b = txn.insert(t, &[2u8; 8]).unwrap();
        txn.commit().unwrap();
        let inj = FaultInjector::new(&db);
        let addr = db.record_addr(a).unwrap();
        inj.copy_overrun(addr, &[9u8; 8], 4).unwrap();
        // Neighbor's first bytes clobbered.
        let baddr = db.record_addr(b).unwrap();
        let mut buf = [0u8; 4];
        db.raw_image().read(baddr, &mut buf).unwrap();
        assert_ne!(buf, [2u8; 4]);
        assert!(!db.audit().unwrap().clean());
    }

    #[test]
    fn bit_flip_detected() {
        let (db, _dir) = engine(ProtectionScheme::DataCodeword, "flip");
        let t = db.create_table("t", 8, 64).unwrap();
        let txn = db.begin().unwrap();
        let rec = txn.insert(t, &[0u8; 8]).unwrap();
        txn.commit().unwrap();
        let inj = FaultInjector::new(&db);
        inj.bit_flip(db.record_addr(rec).unwrap(), 3).unwrap();
        assert!(!db.audit().unwrap().clean());
    }

    #[test]
    fn random_campaign_against_mprotect_mostly_traps() {
        let (db, _dir) = engine(ProtectionScheme::MemoryProtection, "campaign");
        db.create_table("t", 100, 64).unwrap();
        let inj = FaultInjector::new(&db);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let report = random_campaign(&inj, &mut rng, 50, 8).unwrap();
        assert_eq!(report.injected, 50);
        // Everything is protected outside update windows, and no update is
        // running: every write must trap.
        assert_eq!(report.trapped, 50);
        assert_eq!(report.landed, 0);
    }

    #[test]
    fn precheck_prevents_reading_corrupt_data() {
        let (db, _dir) = engine(ProtectionScheme::ReadPrecheck, "precheck");
        let t = db.create_table("t", 100, 64).unwrap();
        let txn = db.begin().unwrap();
        let rec = txn.insert(t, &[7u8; 100]).unwrap();
        txn.commit().unwrap();

        let inj = FaultInjector::new(&db);
        inj.wild_write(db.record_addr(rec).unwrap(), 0xAB, 2)
            .unwrap();

        let txn = db.begin().unwrap();
        let err = txn.read_vec(rec).unwrap_err();
        assert!(matches!(
            err,
            dali_common::DaliError::CorruptionDetected { .. }
        ));
        // The engine is down pending recovery.
        assert!(matches!(db.begin(), Err(dali_common::DaliError::Crashed)));
    }
}
