//! The codeword table: one atomic `u32` per protection region.
//!
//! Codeword deltas commute under their algebra's `combine` — XOR deltas
//! publish with a single `fetch_xor`, residue deltas with a small
//! compare-exchange loop performing the end-around-carry addition — so
//! updaters need no mutual exclusion among themselves. This implements the
//! paper's §3.2 refinement where a separate *codeword latch* lets updaters
//! hold the protection latch in shared mode. Consistency between a region's
//! *contents* and its codeword is only guaranteed to an observer holding
//! the protection latch exclusively (an auditor or a prechecking reader).

use crate::region::{striped, RegionGeometry, RegionId};
use dali_common::{CodewordAlgebraKind, Result};
use dali_mem::DbImage;
use std::sync::atomic::{AtomicU32, Ordering};

/// Maintained codewords for every protection region of an image.
pub struct CodewordTable {
    words: Vec<AtomicU32>,
    kind: CodewordAlgebraKind,
}

impl CodewordTable {
    /// A table of `n` identity codewords under `kind` (correct for a
    /// zeroed image: both algebras fold zeros to 0).
    pub fn new_zeroed(n: usize, kind: CodewordAlgebraKind) -> CodewordTable {
        let mut words = Vec::with_capacity(n);
        words.resize_with(n, || AtomicU32::new(kind.identity()));
        CodewordTable { words, kind }
    }

    /// Build a table by folding every region of `image` with `threads`
    /// scoped workers (startup cost on a large image is one full-image
    /// fold; see [`recompute_all_parallel`](CodewordTable::recompute_all_parallel)).
    pub fn from_image_parallel(
        image: &DbImage,
        geom: &RegionGeometry,
        threads: usize,
        kind: CodewordAlgebraKind,
    ) -> Result<CodewordTable> {
        let table = CodewordTable::new_zeroed(geom.num_regions(), kind);
        table.recompute_all_parallel(image, geom, threads)?;
        Ok(table)
    }

    /// The algebra this table's codewords and deltas live in.
    #[inline]
    pub fn kind(&self) -> CodewordAlgebraKind {
        self.kind
    }

    /// Number of regions tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the table tracks no regions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The maintained codeword for `region`.
    #[inline]
    pub fn get(&self, region: RegionId) -> u32 {
        self.words[region].load(Ordering::Acquire)
    }

    /// Overwrite the maintained codeword for `region`.
    #[inline]
    pub fn set(&self, region: RegionId, value: u32) {
        self.words[region].store(value, Ordering::Release);
    }

    /// Publish an update delta for `region`. XOR deltas use one atomic
    /// `fetch_xor`; residue deltas run a compare-exchange loop around the
    /// modular addition. Both commute, so concurrent publishers converge
    /// to the same codeword in any interleaving.
    #[inline]
    pub fn apply_delta(&self, region: RegionId, delta: u32) {
        if delta == self.kind.identity() {
            return;
        }
        match self.kind {
            CodewordAlgebraKind::XorFold => {
                self.words[region].fetch_xor(delta, Ordering::AcqRel);
            }
            kind => {
                let _ =
                    self.words[region].fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                        Some(kind.combine(cur, delta))
                    });
            }
        }
    }

    /// Recompute every codeword from the image (at initialization and
    /// after recovery rebuilds the image) with `threads` scoped workers,
    /// each folding a contiguous stripe of regions. Slot stores are atomic
    /// and the stripes are disjoint, so the result is identical to the
    /// serial recompute; the caller must quiesce updaters since a
    /// recompute is not an incremental delta.
    pub fn recompute_all_parallel(
        &self,
        image: &DbImage,
        geom: &RegionGeometry,
        threads: usize,
    ) -> Result<()> {
        striped(geom.num_regions(), threads, |mut stripe| {
            stripe.try_for_each(|r| self.recompute_region(image, geom, r))
        })?;
        Ok(())
    }

    /// Recompute the codeword of a single region from the image.
    pub fn recompute_region(
        &self,
        image: &DbImage,
        geom: &RegionGeometry,
        region: RegionId,
    ) -> Result<()> {
        let cw = image.fold(self.kind, geom.region_base(region), geom.region_size())?;
        self.set(region, cw);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::DbAddr;

    fn setup_kind(kind: CodewordAlgebraKind) -> (DbImage, RegionGeometry, CodewordTable) {
        let image = DbImage::new(2, 4096).unwrap();
        let geom = RegionGeometry::new(image.len(), 64).unwrap();
        let table = CodewordTable::from_image_parallel(&image, &geom, 1, kind).unwrap();
        (image, geom, table)
    }

    fn setup() -> (DbImage, RegionGeometry, CodewordTable) {
        setup_kind(CodewordAlgebraKind::XorFold)
    }

    #[test]
    fn zeroed_image_zeroed_table() {
        for kind in CodewordAlgebraKind::ALL {
            let (_i, geom, t) = setup_kind(kind);
            assert_eq!(t.kind(), kind);
            assert_eq!(t.len(), geom.num_regions());
            for r in 0..t.len() {
                assert_eq!(t.get(r), 0);
            }
        }
    }

    #[test]
    fn delta_maintenance_tracks_image_both_algebras() {
        for kind in CodewordAlgebraKind::ALL {
            let (image, geom, t) = setup_kind(kind);
            // Simulate a prescribed update: capture old, write new, publish delta.
            let addr = DbAddr(128);
            let old = [0u8; 8];
            let new = [1u8, 2, 3, 4, 5, 6, 7, 8];
            image.write(addr, &new).unwrap();
            let d = crate::algebra::delta(kind, &old, &new);
            let region = geom.region_of(addr);
            t.apply_delta(region, d);
            let computed = image
                .fold(kind, geom.region_base(region), geom.region_size())
                .unwrap();
            assert_eq!(t.get(region), computed, "{kind:?}");
        }
    }

    #[test]
    fn zero_delta_is_noop() {
        for kind in CodewordAlgebraKind::ALL {
            let (_i, _g, t) = setup_kind(kind);
            t.set(5, 0xabcd);
            t.apply_delta(5, 0);
            assert_eq!(t.get(5), 0xabcd, "{kind:?}");
        }
    }

    #[test]
    fn deltas_commute() {
        for kind in CodewordAlgebraKind::ALL {
            let (_i, _g, t) = setup_kind(kind);
            t.apply_delta(0, 0x1111);
            t.apply_delta(0, 0x2222);
            let a = t.get(0);
            t.set(0, 0);
            t.apply_delta(0, 0x2222);
            t.apply_delta(0, 0x1111);
            assert_eq!(t.get(0), a, "{kind:?}");
        }
    }

    #[test]
    fn recompute_region_fixes_mismatch() {
        for kind in CodewordAlgebraKind::ALL {
            let (image, geom, t) = setup_kind(kind);
            // Wild write; avoid 0xFFFF_FFFF, which the residue algebra
            // canonicalizes to 0 (M ≡ 0 mod M) and so cannot distinguish
            // from the zeroed region.
            image.write(DbAddr(0), &[0xff, 0xff, 0xff, 0x7f]).unwrap();
            assert_ne!(t.get(0), image.fold(kind, geom.region_base(0), 64).unwrap());
            t.recompute_region(&image, &geom, 0).unwrap();
            assert_eq!(t.get(0), image.fold(kind, geom.region_base(0), 64).unwrap());
        }
    }

    #[test]
    fn parallel_recompute_matches_serial() {
        for kind in CodewordAlgebraKind::ALL {
            let (image, geom, _t) = setup_kind(kind);
            let noise: Vec<u8> = (0..image.len() as u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
                .collect();
            image.write(DbAddr(0), &noise).unwrap();
            let serial = CodewordTable::from_image_parallel(&image, &geom, 1, kind).unwrap();
            for threads in [2, 3, 8, geom.num_regions() + 1] {
                let par = CodewordTable::from_image_parallel(&image, &geom, threads, kind).unwrap();
                for r in 0..geom.num_regions() {
                    assert_eq!(
                        par.get(r),
                        serial.get(r),
                        "{kind:?} region {r}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_deltas_from_threads() {
        let (_i, _g, t) = setup();
        let t = std::sync::Arc::new(t);
        let mut handles = vec![];
        for k in 0..8u32 {
            let t2 = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for j in 0..1000u32 {
                    t2.apply_delta(3, k.wrapping_mul(j) | 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The exact value is the XOR of all applied deltas; recompute it.
        let mut expect = 0u32;
        for k in 0..8u32 {
            for j in 0..1000u32 {
                expect ^= k.wrapping_mul(j) | 1;
            }
        }
        assert_eq!(t.get(3), expect);
    }

    #[test]
    fn concurrent_residue_deltas_from_threads() {
        // The CAS loop publishes modular additions; commutativity means
        // the final codeword is the mod-sum of every delta regardless of
        // interleaving.
        let (_i, _g, t) = setup_kind(CodewordAlgebraKind::Residue);
        let t = std::sync::Arc::new(t);
        let mut handles = vec![];
        for k in 0..8u32 {
            let t2 = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for j in 0..1000u32 {
                    t2.apply_delta(3, k.wrapping_mul(j) | 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let r = CodewordAlgebraKind::Residue;
        let mut expect = 0u32;
        for k in 0..8u32 {
            for j in 0..1000u32 {
                expect = r.combine(expect, k.wrapping_mul(j) | 1);
            }
        }
        assert_eq!(t.get(3), expect);
    }
}
