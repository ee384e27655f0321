//! The database image: the arena viewed as an array of pages.
//!
//! The image is the unit the checkpointer copies to disk page by page and
//! the unit `mprotect` guards. Record data is addressed by flat [`DbAddr`]
//! and may span page boundaries (Dali stores objects larger than a page
//! contiguously, paper §2).

use crate::arena::Arena;
use dali_common::{CodewordAlgebraKind, DaliError, DbAddr, PageId, Result};

/// The in-memory database image.
pub struct DbImage {
    arena: Arena,
    page_size: usize,
    pages: usize,
}

impl DbImage {
    /// Create a zeroed image of `pages` pages of `page_size` bytes each.
    pub fn new(pages: usize, page_size: usize) -> Result<DbImage> {
        if !page_size.is_power_of_two() {
            return Err(DaliError::InvalidArg(format!(
                "page size {page_size} must be a power of two"
            )));
        }
        let arena = Arena::new(pages * page_size)?;
        Ok(DbImage {
            arena,
            page_size,
            pages,
        })
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages.
    #[inline]
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Total size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.pages * self.page_size
    }

    /// True if the image holds no pages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// The underlying arena (for the protector and the fault injector).
    #[inline]
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// The image's bytes as one mutable slice: bulk-load access for a
    /// recovery that still owns the image exclusively.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.arena.as_mut_slice()
    }

    /// Copy bytes out of the image.
    #[inline]
    pub fn read(&self, addr: DbAddr, buf: &mut [u8]) -> Result<()> {
        self.arena.read(addr.0, buf)
    }

    /// Copy bytes into the image. This is the *physical write* primitive;
    /// only the prescribed update interface (beginUpdate/endUpdate) and
    /// recovery should call it.
    #[inline]
    pub fn write(&self, addr: DbAddr, data: &[u8]) -> Result<()> {
        self.arena.write(addr.0, data)
    }

    /// Read a page into `buf` (which must be exactly one page long).
    pub fn read_page(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(DaliError::InvalidArg(format!(
                "page buffer is {} bytes, page size is {}",
                buf.len(),
                self.page_size
            )));
        }
        self.read(page.base(self.page_size), buf)
    }

    /// Overwrite a page from `buf` (which must be exactly one page long).
    pub fn write_page(&self, page: PageId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(DaliError::InvalidArg(format!(
                "page buffer is {} bytes, page size is {}",
                buf.len(),
                self.page_size
            )));
        }
        self.write(page.base(self.page_size), buf)
    }

    /// Fold the words of `[addr, addr+len)` under `kind` — the codeword
    /// computation primitive. `addr` and `len` must be 4-byte aligned.
    #[inline]
    pub fn fold(&self, kind: CodewordAlgebraKind, addr: DbAddr, len: usize) -> Result<u32> {
        self.arena.fold(kind, addr.0, len)
    }

    /// The pages overlapped by `[addr, addr+len)`.
    pub fn pages_overlapping(&self, addr: DbAddr, len: usize) -> Vec<PageId> {
        dali_common::align::split_by_chunks(addr.0, len, self.page_size)
            .map(|(ci, _, _)| PageId(ci as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::fold;

    fn img() -> DbImage {
        DbImage::new(8, 4096).unwrap()
    }

    #[test]
    fn geometry() {
        let i = img();
        assert_eq!(i.page_size(), 4096);
        assert_eq!(i.pages(), 8);
        assert_eq!(i.len(), 32768);
        assert!(!i.is_empty());
    }

    #[test]
    fn page_round_trip() {
        let i = img();
        let mut page = vec![0u8; 4096];
        page[0] = 0xab;
        page[4095] = 0xcd;
        i.write_page(PageId(3), &page).unwrap();
        let mut out = vec![0u8; 4096];
        i.read_page(PageId(3), &mut out).unwrap();
        assert_eq!(out, page);
        // Neighboring pages untouched.
        i.read_page(PageId(2), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn page_buffer_size_enforced() {
        let i = img();
        let mut small = vec![0u8; 100];
        assert!(i.read_page(PageId(0), &mut small).is_err());
        assert!(i.write_page(PageId(0), &small).is_err());
    }

    #[test]
    fn cross_page_write_and_read() {
        let i = img();
        let data = vec![7u8; 100];
        // Straddle pages 0 and 1.
        i.write(DbAddr(4096 - 50), &data).unwrap();
        let mut out = vec![0u8; 100];
        i.read(DbAddr(4096 - 50), &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(
            i.pages_overlapping(DbAddr(4096 - 50), 100),
            vec![PageId(0), PageId(1)]
        );
    }

    #[test]
    fn bounds() {
        let i = img();
        assert!(i.write(DbAddr(i.len()), &[1]).is_err());
        assert!(i.read_page(PageId(8), &mut vec![0u8; 4096]).is_err());
    }

    #[test]
    fn xor_fold_detects_change() {
        let i = img();
        let xor = CodewordAlgebraKind::XorFold;
        let before = i.fold(xor, DbAddr(0), 64).unwrap();
        i.write(DbAddr(8), &[1, 0, 0, 0]).unwrap();
        let after = i.fold(xor, DbAddr(0), 64).unwrap();
        assert_eq!(after, before ^ 1);
    }

    #[test]
    fn fold_dispatches_by_algebra() {
        let i = img();
        i.write(DbAddr(8), &0x8000_0001u32.to_le_bytes()).unwrap();
        i.write(DbAddr(12), &0x8000_0002u32.to_le_bytes()).unwrap();
        assert_eq!(
            i.fold(CodewordAlgebraKind::XorFold, DbAddr(0), 64).unwrap(),
            0x0000_0003
        );
        assert_eq!(
            i.fold(CodewordAlgebraKind::Residue, DbAddr(0), 64).unwrap(),
            0x0000_0004, // 2^32 + 3 ≡ 4 (mod 2^32 − 1)
        );
    }

    /// The raw entry ≡ the one-word-at-a-time slice reference of each
    /// algebra over the same bytes, for every word-aligned offset mod 8
    /// and every tail shape through a few 32-byte blocks.
    #[test]
    fn wide_fold_matches_scalar_every_shape() {
        let i = img();
        let noise: Vec<u8> = (0..512u32)
            .map(|n| (n.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        i.write(DbAddr(0), &noise).unwrap();
        for off in [0usize, 4, 8, 12, 36] {
            for len in (0..=3 * 32 + 4).step_by(4) {
                let bytes = &noise[off..off + len];
                assert_eq!(
                    i.fold(CodewordAlgebraKind::XorFold, DbAddr(off), len)
                        .unwrap(),
                    fold::xor_fold_scalar(bytes),
                    "XOR offset {off} len {len}"
                );
                assert_eq!(
                    i.fold(CodewordAlgebraKind::Residue, DbAddr(off), len)
                        .unwrap(),
                    fold::residue_fold_scalar(bytes),
                    "residue offset {off} len {len}"
                );
            }
        }
    }

    #[test]
    fn bounds_are_the_image_not_the_os_page() {
        let mut i = DbImage::new(3, 1024).unwrap();
        assert_eq!(i.len(), 3072);
        assert!(i.write(DbAddr(3070), &[0; 4]).is_err());
        assert!(i
            .fold(CodewordAlgebraKind::XorFold, DbAddr(3068), 8)
            .is_err());
        assert_eq!(i.bytes_mut().len(), 3072);
    }

    #[test]
    fn pages_overlapping_single() {
        let i = img();
        assert_eq!(i.pages_overlapping(DbAddr(10), 16), vec![PageId(0)]);
        assert_eq!(i.pages_overlapping(DbAddr(8191), 1), vec![PageId(1)]);
    }

    #[test]
    fn bad_page_size_rejected() {
        assert!(DbImage::new(4, 1000).is_err());
    }
}
