//! Model-based test of eager codeword maintenance.
//!
//! Generates arbitrary scripts of prescribed updates and applies each
//! script to one shared database image through two `DataCodeword`
//! protections at once: one under the paper's XOR fold, one under the
//! mod-(2^32−1) residue code. Every update publishes its codeword delta
//! inside `apply_update`; nothing is queued.
//!
//! Checked invariant, after every update and for both algebras: a full
//! audit is clean — every delta is in the table once `apply_update`
//! returns.
//!
//! At the end of every script each maintained codeword table must equal
//! the table a fresh protection folds from the image — incremental
//! maintenance never diverges from a recompute.
//!
//! CI raises the case count via `PROPTEST_CASES`, as with the lock-model
//! suite.

use dali::codeword::{CodewordAlgebraKind, CodewordProtection, DeferredConfig};
use dali::mem::DbImage;
use dali::{DbAddr, ProtectionScheme};
use proptest::prelude::*;

/// 4 pages x 4096 bytes, 64-byte regions => 256 regions.
const PAGES: usize = 4;
const PAGE: usize = 4096;
const REGION: usize = 64;
const NREGIONS: usize = PAGES * PAGE / REGION;

/// A prescribed update: `len` bytes at `addr`, filled with `fill`.
type Update = (usize, usize, u8);

fn update() -> impl Strategy<Value = Update> {
    // Lengths up to 100 bytes cross region boundaries (region size 64)
    // and word-widen unaligned edges.
    (0..PAGES * PAGE - 100, 1..100usize, any::<u8>())
}

/// A `DataCodeword` protection of `image` under `kind`, folded from the
/// image's current contents.
fn protect(image: &DbImage, kind: CodewordAlgebraKind) -> CodewordProtection {
    CodewordProtection::with_config(
        image,
        ProtectionScheme::DataCodeword,
        REGION,
        1,
        DeferredConfig::default(),
        1,
        kind,
    )
    .unwrap()
}

struct Harness {
    image: DbImage,
    prots: Vec<CodewordProtection>,
}

impl Harness {
    fn new() -> Harness {
        let image = DbImage::new(PAGES, PAGE).unwrap();
        let prots = CodewordAlgebraKind::ALL
            .into_iter()
            .map(|kind| protect(&image, kind))
            .collect();
        Harness { image, prots }
    }

    /// One prescribed update: capture the widened before-image once,
    /// write the image once, publish the delta through every protection
    /// (the delta math is pure, so sharing the image is exactly "the same
    /// writes" the model requires).
    fn update(&self, addr: usize, data: &[u8]) {
        let (ws, wl) = dali::common::align::widen_to_words(addr, data.len());
        let mut old = vec![0u8; wl];
        self.image.read(DbAddr(ws), &mut old).unwrap();
        self.image.write(DbAddr(addr), data).unwrap();
        for prot in &self.prots {
            prot.apply_update(&self.image, DbAddr(ws), &old).unwrap();
        }
    }

    fn run(&self, script: &[Update]) -> Result<(), String> {
        for (i, &(addr, len, fill)) in script.iter().enumerate() {
            self.update(addr, &vec![fill; len]);
            for prot in &self.prots {
                let kind = prot.kind();
                let rep = prot.audit(&self.image).map_err(|e| e.to_string())?;
                if !rep.clean() {
                    return Err(format!("update {i}: {kind:?} audit unclean: {rep:?}"));
                }
            }
        }
        for prot in &self.prots {
            let kind = prot.kind();
            let fresh = protect(&self.image, kind);
            for r in 0..NREGIONS {
                let (kept, folded) = (prot.table().get(r), fresh.table().get(r));
                if kept != folded {
                    return Err(format!(
                        "{kind:?} region {r}: maintained {kept:#010x}, recomputed {folded:#010x}"
                    ));
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn maintained_tables_match_recompute(
        script in proptest::collection::vec(update(), 1..24),
    ) {
        Harness::new().run(&script).map_err(TestCaseError::fail)?;
    }
}

/// Pinned scripts for the interesting corners, kept deterministic so a
/// regression reproduces without the property runner.
#[test]
fn pinned_maintenance_scripts() {
    let scripts: &[&[Update]] = &[
        // Two updates in different pages.
        &[(5, 90, 0xab), (700, 3, 0x11)],
        // Same region updated repeatedly, overlapping words.
        &[(64, 4, 3), (68, 4, 4), (64, 4, 5)],
        // Unaligned cross-region update: word widening at both edges.
        &[(101, 70, 7)],
        // An update straddling regions 7 and 8, another in region 2,
        // then region 7 again.
        &[(488, 40, 8), (130, 12, 9), (500, 8, 10)],
    ];
    for (i, script) in scripts.iter().enumerate() {
        if let Err(e) = Harness::new().run(script) {
            panic!("pinned script {i}: {e}");
        }
    }
}
