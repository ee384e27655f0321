//! Protection-region geometry.
//!
//! Regions are fixed-size, power-of-two byte ranges tiling the database
//! image. The region size is the central time/space trade-off of the
//! Read Prechecking scheme (Table 2 evaluates 64 B, 512 B and 8 K regions):
//! small regions make prechecks cheap but need more codeword space; large
//! regions amortize space but every read folds the whole region.

use dali_common::align::split_by_chunks;
use dali_common::{DaliError, DbAddr, Result};
use std::ops::Range;

/// Index of a protection region.
pub type RegionId = usize;

/// Split `0..n` into `threads` contiguous stripes of `ceil(n / threads)`
/// (clamped to `1..=n`), run `work` on each — on scoped workers when
/// there is more than one stripe — and return the results in stripe
/// order. The one stripe-and-merge pool behind full-image scans: audits
/// and the codeword-table recompute.
pub(crate) fn striped<T: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(Range<usize>) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return Ok(vec![work(0..n)?]);
    }
    let per = n.div_ceil(threads);
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || work((t * per).min(n)..((t + 1) * per).min(n))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stripe worker panicked"))
            .collect()
    })
}

/// Geometry of the protection regions tiling an address space.
#[derive(Clone, Copy, Debug)]
pub struct RegionGeometry {
    region_size: usize,
    total_bytes: usize,
}

impl RegionGeometry {
    /// Tile `total_bytes` of address space with `region_size`-byte regions.
    /// `region_size` must be a power of two dividing `total_bytes`.
    pub fn new(total_bytes: usize, region_size: usize) -> Result<RegionGeometry> {
        if !region_size.is_power_of_two() || region_size < dali_common::align::WORD {
            return Err(DaliError::InvalidArg(format!(
                "region size {region_size} must be a power of two >= 4"
            )));
        }
        if !total_bytes.is_multiple_of(region_size) || total_bytes == 0 {
            return Err(DaliError::InvalidArg(format!(
                "total bytes {total_bytes} not a positive multiple of region size {region_size}"
            )));
        }
        Ok(RegionGeometry {
            region_size,
            total_bytes,
        })
    }

    /// Size of each region in bytes.
    #[inline]
    pub fn region_size(&self) -> usize {
        self.region_size
    }

    /// Number of regions.
    #[inline]
    pub fn num_regions(&self) -> usize {
        self.total_bytes / self.region_size
    }

    /// Total bytes covered.
    #[inline]
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// The region containing `addr`.
    #[inline]
    pub fn region_of(&self, addr: DbAddr) -> RegionId {
        debug_assert!(addr.0 < self.total_bytes);
        addr.0 / self.region_size
    }

    /// Base address of region `id`.
    #[inline]
    pub fn region_base(&self, id: RegionId) -> DbAddr {
        DbAddr(id * self.region_size)
    }

    /// Inclusive range of region ids overlapped by `[addr, addr+len)`.
    /// A zero-length range maps to the single region containing `addr`.
    #[inline]
    pub fn region_span(&self, addr: DbAddr, len: usize) -> (RegionId, RegionId) {
        let first = addr.0 / self.region_size;
        let last = if len == 0 {
            first
        } else {
            (addr.0 + len - 1) / self.region_size
        };
        (first, last)
    }

    /// Iterate `(region, absolute_start, len)` pieces of `[addr, addr+len)`
    /// split at region boundaries.
    pub fn split(
        &self,
        addr: DbAddr,
        len: usize,
    ) -> impl Iterator<Item = (RegionId, DbAddr, usize)> {
        split_by_chunks(addr.0, len, self.region_size).map(|(ci, s, l)| (ci, DbAddr(s), l))
    }

    /// Bytes of codeword storage for this geometry (one `u32` per region).
    pub fn codeword_bytes(&self) -> usize {
        self.num_regions() * 4
    }

    /// Space overhead of codewords relative to the data they protect.
    pub fn space_overhead(&self) -> f64 {
        self.codeword_bytes() as f64 / self.total_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basics() {
        let g = RegionGeometry::new(4096, 64).unwrap();
        assert_eq!(g.num_regions(), 64);
        assert_eq!(g.region_size(), 64);
        assert_eq!(g.region_of(DbAddr(0)), 0);
        assert_eq!(g.region_of(DbAddr(63)), 0);
        assert_eq!(g.region_of(DbAddr(64)), 1);
        assert_eq!(g.region_base(3), DbAddr(192));
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(RegionGeometry::new(4096, 48).is_err());
        assert!(RegionGeometry::new(4096, 2).is_err());
        assert!(RegionGeometry::new(100, 64).is_err());
        assert!(RegionGeometry::new(0, 64).is_err());
    }

    #[test]
    fn span_and_split_agree() {
        let g = RegionGeometry::new(4096, 64).unwrap();
        let (f, l) = g.region_span(DbAddr(60), 10);
        assert_eq!((f, l), (0, 1));
        let parts: Vec<_> = g.split(DbAddr(60), 10).collect();
        assert_eq!(parts, vec![(0, DbAddr(60), 4), (1, DbAddr(64), 6)]);
    }

    #[test]
    fn zero_length_span() {
        let g = RegionGeometry::new(4096, 64).unwrap();
        assert_eq!(g.region_span(DbAddr(130), 0), (2, 2));
        assert_eq!(g.split(DbAddr(130), 0).count(), 0);
    }

    #[test]
    fn space_overhead_matches_paper_64b() {
        // 4-byte codeword per 64-byte region = 6.25%, the ~6% quoted in
        // §5.3 for the small-domain precheck configuration.
        let g = RegionGeometry::new(1 << 20, 64).unwrap();
        assert!((g.space_overhead() - 0.0625).abs() < 1e-9);
    }

    #[test]
    fn space_overhead_shrinks_with_region_size() {
        let small = RegionGeometry::new(1 << 20, 64).unwrap();
        let large = RegionGeometry::new(1 << 20, 8192).unwrap();
        assert!(large.space_overhead() < small.space_overhead() / 100.0);
    }
}
