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
        let len = self.len();
        &mut self.arena.as_mut_slice()[..len]
    }

    #[inline]
    fn check(&self, addr: DbAddr, len: usize) -> Result<()> {
        if addr.0.checked_add(len).is_none_or(|end| end > self.len()) {
            return Err(DaliError::InvalidArg(format!(
                "range {addr}+{len} out of image bounds ({})",
                self.len()
            )));
        }
        Ok(())
    }

    /// Copy bytes out of the image.
    #[inline]
    pub fn read(&self, addr: DbAddr, buf: &mut [u8]) -> Result<()> {
        self.check(addr, buf.len())?;
        self.arena.read(addr.0, buf)
    }

    /// Copy bytes into the image. This is the *physical write* primitive;
    /// only the prescribed update interface (beginUpdate/endUpdate) and
    /// recovery should call it.
    #[inline]
    pub fn write(&self, addr: DbAddr, data: &[u8]) -> Result<()> {
        self.check(addr, data.len())?;
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

    /// XOR-fold the words of `[addr, addr+len)` — the codeword computation
    /// primitive. `addr` and `len` must be 4-byte aligned.
    #[inline]
    pub fn xor_fold(&self, addr: DbAddr, len: usize) -> Result<u32> {
        self.check(addr, len)?;
        self.arena.xor_fold(addr.0, len)
    }

    /// [`xor_fold`](Self::xor_fold) through the one-word-at-a-time kernel
    /// — the baseline the wide kernel is benchmarked against.
    #[inline]
    pub fn xor_fold_scalar(&self, addr: DbAddr, len: usize) -> Result<u32> {
        self.check(addr, len)?;
        self.arena.xor_fold_scalar(addr.0, len)
    }

    /// Residue-fold the words of `[addr, addr+len)`: their sum modulo
    /// `2^32 - 1`, canonical in `[0, 2^32 - 1)`. Same alignment contract
    /// as [`xor_fold`](Self::xor_fold).
    #[inline]
    pub fn residue_fold(&self, addr: DbAddr, len: usize) -> Result<u32> {
        self.check(addr, len)?;
        self.arena.residue_fold(addr.0, len)
    }

    /// [`residue_fold`](Self::residue_fold) through the one-word-at-a-time
    /// kernel — the baseline the wide kernel is benchmarked against.
    #[inline]
    pub fn residue_fold_scalar(&self, addr: DbAddr, len: usize) -> Result<u32> {
        self.check(addr, len)?;
        self.arena.residue_fold_scalar(addr.0, len)
    }

    /// Fold `[addr, addr+len)` under the given codeword algebra.
    #[inline]
    pub fn fold(&self, kind: CodewordAlgebraKind, addr: DbAddr, len: usize) -> Result<u32> {
        match kind {
            CodewordAlgebraKind::XorFold => self.xor_fold(addr, len),
            CodewordAlgebraKind::Residue => self.residue_fold(addr, len),
        }
    }

    /// [`fold`](Self::fold) through the one-word-at-a-time kernels.
    #[inline]
    pub fn fold_scalar(&self, kind: CodewordAlgebraKind, addr: DbAddr, len: usize) -> Result<u32> {
        match kind {
            CodewordAlgebraKind::XorFold => self.xor_fold_scalar(addr, len),
            CodewordAlgebraKind::Residue => self.residue_fold_scalar(addr, len),
        }
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
        let before = i.xor_fold(DbAddr(0), 64).unwrap();
        i.write(DbAddr(8), &[1, 0, 0, 0]).unwrap();
        let after = i.xor_fold(DbAddr(0), 64).unwrap();
        assert_ne!(before, after);
        assert_eq!(after, before ^ 1);
    }

    #[test]
    fn fold_dispatches_by_algebra() {
        let i = img();
        i.write(DbAddr(8), &0x8000_0001u32.to_le_bytes()).unwrap();
        i.write(DbAddr(12), &0x8000_0002u32.to_le_bytes()).unwrap();
        for kind in CodewordAlgebraKind::ALL {
            let direct = match kind {
                CodewordAlgebraKind::XorFold => i.xor_fold(DbAddr(0), 64).unwrap(),
                CodewordAlgebraKind::Residue => i.residue_fold(DbAddr(0), 64).unwrap(),
            };
            assert_eq!(i.fold(kind, DbAddr(0), 64).unwrap(), direct);
            assert_eq!(i.fold_scalar(kind, DbAddr(0), 64).unwrap(), direct);
        }
        // The two algebras genuinely differ on this content.
        assert_ne!(
            i.fold(CodewordAlgebraKind::XorFold, DbAddr(0), 64).unwrap(),
            i.fold(CodewordAlgebraKind::Residue, DbAddr(0), 64).unwrap()
        );
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
