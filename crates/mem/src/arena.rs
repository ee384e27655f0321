//! A page-aligned anonymous memory mapping.
//!
//! The arena is allocated with `mmap(MAP_ANONYMOUS | MAP_PRIVATE)` so that
//! it is page-aligned (a requirement for `mprotect`) and zero-initialized.
//! Access is deliberately raw: the database image is shared mutable state
//! that application code can (and, in this reproduction, deliberately does)
//! corrupt with stray writes, so we never create Rust references into it —
//! every read and write is a bounds-checked raw-pointer copy.

use dali_common::{DaliError, Result};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, Ordering};

/// A fixed-size, page-aligned, zero-initialized memory region.
///
/// `Arena` is `Send + Sync`; synchronization of *contents* is the
/// responsibility of higher layers (protection latches, the update
/// interface). Concurrent raw access to overlapping ranges is a data race
/// in the C++ sense — exactly the failure mode the paper's schemes defend
/// against — and the engine only performs it under latches.
pub struct Arena {
    ptr: NonNull<u8>,
    len: usize,
    /// True when the memory came from mmap (and must be munmap'd).
    mapped: bool,
}

// SAFETY: the arena is just memory; all access is via raw pointers with the
// caller responsible for synchronization, as documented.
unsafe impl Send for Arena {}
unsafe impl Sync for Arena {}

impl Arena {
    /// Allocate `len` bytes of page-aligned, zeroed memory.
    ///
    /// Falls back to the global allocator (with page alignment) if `mmap`
    /// fails; the fallback is still compatible with `mprotect` on Linux.
    pub fn new(len: usize) -> Result<Arena> {
        if len == 0 {
            return Err(DaliError::InvalidArg(
                "arena length must be positive".into(),
            ));
        }
        let page = os_page_size();
        let len = dali_common::align::round_up(len, page);
        // SAFETY: standard anonymous private mapping.
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_ANONYMOUS | libc::MAP_PRIVATE,
                -1,
                0,
            )
        };
        if ptr != libc::MAP_FAILED {
            let nn = NonNull::new(ptr as *mut u8)
                .ok_or_else(|| DaliError::OutOfSpace("mmap returned null".into()))?;
            return Ok(Arena {
                ptr: nn,
                len,
                mapped: true,
            });
        }
        // Fallback: aligned allocation from the global allocator.
        let layout = std::alloc::Layout::from_size_align(len, page)
            .map_err(|e| DaliError::InvalidArg(format!("bad layout: {e}")))?;
        // SAFETY: layout has non-zero size.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let nn = NonNull::new(raw)
            .ok_or_else(|| DaliError::OutOfSpace(format!("allocating {len} bytes failed")))?;
        Ok(Arena {
            ptr: nn,
            len,
            mapped: false,
        })
    }

    /// Length of the arena in bytes (rounded up to the OS page size).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the arena has zero length (never the case post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base pointer of the arena.
    ///
    /// This is the "direct access" door the paper worries about: anything
    /// holding this pointer can write anywhere in the database image. The
    /// fault injector uses it; well-behaved code goes through
    /// [`read`](Arena::read)/[`write`](Arena::write).
    #[inline]
    pub fn base_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// The whole arena as one mutable slice, for bulk-loading it (a
    /// checkpoint image read straight from its file) before it is shared.
    /// The exclusive borrow is what makes a Rust reference into the
    /// arena sound here, where [`base_ptr`](Arena::base_ptr) users must
    /// stay on raw pointers.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: `ptr` is valid for `len` initialized (zeroed or since
        // written) bytes for the arena's lifetime, and `&mut self` rules
        // out every other access for the slice's lifetime.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    fn check(&self, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(DaliError::InvalidArg(format!(
                "range {offset}+{len} out of arena bounds ({})",
                self.len
            )));
        }
        Ok(())
    }

    /// Copy `buf.len()` bytes out of the arena starting at `offset`.
    #[inline]
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.check(offset, buf.len())?;
        // SAFETY: bounds checked above; raw copy avoids creating &[u8] into
        // memory that other threads may concurrently mutate.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.ptr.as_ptr().add(offset),
                buf.as_mut_ptr(),
                buf.len(),
            );
        }
        Ok(())
    }

    /// Copy `data` into the arena at `offset`.
    #[inline]
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.check(offset, data.len())?;
        // SAFETY: bounds checked above.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.as_ptr().add(offset), data.len());
        }
        Ok(())
    }

    /// Read a single little-endian `u32` at a 4-byte-aligned offset.
    #[inline]
    pub fn read_u32(&self, offset: usize) -> Result<u32> {
        self.check(offset, 4)?;
        debug_assert!(offset.is_multiple_of(4));
        // SAFETY: bounds checked; alignment asserted (the base is
        // page-aligned so offset alignment suffices).
        Ok(unsafe { (self.ptr.as_ptr().add(offset) as *const u32).read() }.to_le())
    }

    /// XOR-fold the 32-bit words of `[offset, offset+len)`.
    ///
    /// `offset` and `len` must be 4-byte aligned. This is the codeword
    /// computation primitive (paper §3: "the codeword is the bitwise
    /// exclusive-or of the words in the region").
    ///
    /// The fold runs wide: after an optional one-word head that 8-aligns
    /// the pointer (the base is page-aligned, so offset alignment governs),
    /// 32-byte blocks are XOR-ed into four independent `u64` accumulators.
    /// XOR works bit-column by bit-column, so a `u64` lane just carries two
    /// 32-bit words side by side; folding the combined lane with
    /// `lo ^ hi` at the end yields exactly the XOR of all the words, while
    /// the four independent chains let LLVM auto-vectorize and keep loads
    /// in flight instead of serializing on one accumulator.
    #[inline]
    pub fn xor_fold(&self, offset: usize, len: usize) -> Result<u32> {
        self.check(offset, len)?;
        if !offset.is_multiple_of(4) || !len.is_multiple_of(4) {
            return Err(DaliError::InvalidArg(format!(
                "xor_fold range {offset}+{len} not word aligned"
            )));
        }
        let mut acc: u32 = 0;
        // SAFETY: bounds checked above; reads raw words without forming a
        // slice reference. All pointer advances stay within [offset,
        // offset+len), tracked by `rem`.
        unsafe {
            let mut p = self.ptr.as_ptr().add(offset);
            let mut rem = len;
            if !(p as usize).is_multiple_of(8) && rem >= 4 {
                acc ^= (p as *const u32).read();
                p = p.add(4);
                rem -= 4;
            }
            let mut lanes = [0u64; 4];
            while rem >= 32 {
                let q = p as *const u64;
                lanes[0] ^= q.read();
                lanes[1] ^= q.add(1).read();
                lanes[2] ^= q.add(2).read();
                lanes[3] ^= q.add(3).read();
                p = p.add(32);
                rem -= 32;
            }
            let mut acc64 = (lanes[0] ^ lanes[1]) ^ (lanes[2] ^ lanes[3]);
            while rem >= 8 {
                acc64 ^= (p as *const u64).read();
                p = p.add(8);
                rem -= 8;
            }
            // Folding lanes lo^hi is order-oblivious, so this equals the
            // word-at-a-time XOR regardless of endianness.
            acc ^= (acc64 as u32) ^ ((acc64 >> 32) as u32);
            if rem >= 4 {
                acc ^= (p as *const u32).read();
            }
        }
        Ok(acc)
    }

    /// Residue-fold the 32-bit words of `[offset, offset+len)`: their sum
    /// modulo `2^32 - 1`, canonical in `[0, 2^32 - 1)`.
    ///
    /// `offset` and `len` must be 4-byte aligned, as for
    /// [`xor_fold`](Arena::xor_fold). The kernel runs wide like the XOR
    /// path — an optional one-word head 8-aligns the pointer, then 32-byte
    /// blocks feed four independent `u64` accumulators — but addition
    /// carries across bit columns, so each `u64` load is split into its
    /// two 32-bit words (`v & MASK` + `v >> 32`) before accumulating.
    /// The fold processes at most 1 GiB between modular reductions, so the
    /// lane accumulators stay far from `u64` overflow at any arena size.
    #[inline]
    pub fn residue_fold(&self, offset: usize, len: usize) -> Result<u32> {
        self.check(offset, len)?;
        if !offset.is_multiple_of(4) || !len.is_multiple_of(4) {
            return Err(DaliError::InvalidArg(format!(
                "residue_fold range {offset}+{len} not word aligned"
            )));
        }
        const M: u64 = dali_common::config::RESIDUE_MODULUS;
        // 1 GiB = 2^25 32-byte blocks; each block adds < 2^34 per lane, so
        // a lane stays < 2^59 within a chunk.
        const CHUNK: usize = 1 << 30;
        let mut acc: u64 = 0;
        let mut off = offset;
        let mut remaining = len;
        loop {
            let chunk = remaining.min(CHUNK);
            // SAFETY: bounds checked above; reads raw words without
            // forming a slice reference. Pointer advances stay within
            // [off, off+chunk), tracked by `rem`.
            let part = unsafe {
                const MASK: u64 = 0xFFFF_FFFF;
                let mut p = self.ptr.as_ptr().add(off);
                let mut rem = chunk;
                let mut sum: u64 = 0;
                if !(p as usize).is_multiple_of(8) && rem >= 4 {
                    sum += u32::from_le((p as *const u32).read()) as u64;
                    p = p.add(4);
                    rem -= 4;
                }
                let mut lanes = [0u64; 4];
                while rem >= 32 {
                    let q = p as *const u64;
                    let v0 = u64::from_le(q.read());
                    let v1 = u64::from_le(q.add(1).read());
                    let v2 = u64::from_le(q.add(2).read());
                    let v3 = u64::from_le(q.add(3).read());
                    lanes[0] += (v0 & MASK) + (v0 >> 32);
                    lanes[1] += (v1 & MASK) + (v1 >> 32);
                    lanes[2] += (v2 & MASK) + (v2 >> 32);
                    lanes[3] += (v3 & MASK) + (v3 >> 32);
                    p = p.add(32);
                    rem -= 32;
                }
                while rem >= 8 {
                    let v = u64::from_le((p as *const u64).read());
                    sum += (v & MASK) + (v >> 32);
                    p = p.add(8);
                    rem -= 8;
                }
                if rem >= 4 {
                    sum += u32::from_le((p as *const u32).read()) as u64;
                }
                (sum + lanes[0] + lanes[1] + lanes[2] + lanes[3]) % M
            };
            acc = (acc + part) % M;
            if remaining == chunk {
                return Ok(acc as u32);
            }
            off += chunk;
            remaining -= chunk;
        }
    }

    /// One-word-at-a-time scalar reference for
    /// [`residue_fold`](Arena::residue_fold): same contract and result,
    /// kept as the reference of the kernel equivalence suites.
    #[inline]
    pub fn residue_fold_scalar(&self, offset: usize, len: usize) -> Result<u32> {
        self.check(offset, len)?;
        if !offset.is_multiple_of(4) || !len.is_multiple_of(4) {
            return Err(DaliError::InvalidArg(format!(
                "residue_fold range {offset}+{len} not word aligned"
            )));
        }
        const M: u64 = dali_common::config::RESIDUE_MODULUS;
        let mut sum: u64 = 0;
        // SAFETY: bounds checked above; reads raw words without forming a
        // slice reference.
        unsafe {
            let mut p = self.ptr.as_ptr().add(offset) as *const u32;
            let end = self.ptr.as_ptr().add(offset + len) as *const u32;
            while p < end {
                sum += u32::from_le(p.read()) as u64;
                if sum >= u64::MAX - u32::MAX as u64 {
                    sum %= M; // unreachable below ~16 GiB; keeps any size safe
                }
                p = p.add(1);
            }
        }
        Ok((sum % M) as u32)
    }

    /// One-word-at-a-time scalar reference for [`xor_fold`](Arena::xor_fold):
    /// the kernel the wide path replaced, kept as the reference of the
    /// kernel equivalence suites. Same contract and result.
    #[inline]
    pub fn xor_fold_scalar(&self, offset: usize, len: usize) -> Result<u32> {
        self.check(offset, len)?;
        if !offset.is_multiple_of(4) || !len.is_multiple_of(4) {
            return Err(DaliError::InvalidArg(format!(
                "xor_fold range {offset}+{len} not word aligned"
            )));
        }
        let mut acc: u32 = 0;
        // SAFETY: bounds checked above; reads raw words without forming a
        // slice reference.
        unsafe {
            let mut p = self.ptr.as_ptr().add(offset) as *const u32;
            let end = self.ptr.as_ptr().add(offset + len) as *const u32;
            while p < end {
                acc ^= p.read();
                p = p.add(1);
            }
        }
        Ok(acc)
    }

    /// Zero the whole arena.
    pub fn zero(&self) {
        // SAFETY: in-bounds by construction.
        unsafe { std::ptr::write_bytes(self.ptr.as_ptr(), 0, self.len) };
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        if self.mapped {
            // SAFETY: ptr/len came from a successful mmap.
            unsafe { libc::munmap(self.ptr.as_ptr() as *mut libc::c_void, self.len) };
        } else {
            let layout =
                std::alloc::Layout::from_size_align(self.len, os_page_size()).expect("layout");
            // SAFETY: allocated with the same layout in `new`.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr(), layout) };
        }
    }
}

/// The operating system page size, cached after the first query.
pub fn os_page_size() -> usize {
    static CACHE: AtomicPtr<()> = AtomicPtr::new(std::ptr::null_mut());
    let cached = CACHE.load(Ordering::Relaxed) as usize;
    if cached != 0 {
        return cached;
    }
    // SAFETY: sysconf is always safe to call.
    let sz = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
    let sz = if sz > 0 { sz as usize } else { 4096 };
    CACHE.store(sz as *mut (), Ordering::Relaxed);
    sz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_arena_is_zeroed_and_page_aligned() {
        let a = Arena::new(10_000).unwrap();
        assert!(a.len() >= 10_000);
        assert_eq!(a.base_ptr() as usize % os_page_size(), 0);
        let mut buf = vec![0xffu8; 128];
        a.read(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_round_trips() {
        let a = Arena::new(4096).unwrap();
        let data = [1u8, 2, 3, 4, 5];
        a.write(100, &data).unwrap();
        let mut out = [0u8; 5];
        a.read(100, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn bounds_are_enforced() {
        let a = Arena::new(4096).unwrap();
        let len = a.len();
        assert!(a.write(len - 2, &[0u8; 4]).is_err());
        let mut b = [0u8; 8];
        assert!(a.read(len, &mut b).is_err());
        assert!(a.read(usize::MAX - 3, &mut b).is_err());
        // Exactly at the end is fine.
        a.write(len - 4, &[9u8; 4]).unwrap();
    }

    #[test]
    fn xor_fold_matches_manual() {
        let a = Arena::new(4096).unwrap();
        a.write(0, &0xdead_beefu32.to_le_bytes()).unwrap();
        a.write(4, &0x0101_0101u32.to_le_bytes()).unwrap();
        a.write(8, &0x0000_ffffu32.to_le_bytes()).unwrap();
        let cw = a.xor_fold(0, 12).unwrap();
        assert_eq!(cw, 0xdead_beef ^ 0x0101_0101 ^ 0x0000_ffff);
    }

    #[test]
    fn xor_fold_zero_region_is_zero() {
        let a = Arena::new(4096).unwrap();
        assert_eq!(a.xor_fold(64, 64).unwrap(), 0);
        assert_eq!(a.xor_fold(0, 0).unwrap(), 0);
    }

    #[test]
    fn xor_fold_rejects_misalignment() {
        let a = Arena::new(4096).unwrap();
        assert!(a.xor_fold(2, 8).is_err());
        assert!(a.xor_fold(0, 6).is_err());
        assert!(a.xor_fold_scalar(2, 8).is_err());
        assert!(a.xor_fold_scalar(0, 6).is_err());
    }

    /// Wide kernel == scalar reference for every word-aligned offset mod 8
    /// (exercising the alignment head) and every tail shape through a few
    /// 32-byte blocks.
    #[test]
    fn wide_xor_fold_matches_scalar_every_shape() {
        let a = Arena::new(4096).unwrap();
        let noise: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        a.write(0, &noise).unwrap();
        for off in [0usize, 4, 8, 12, 36] {
            for len in (0..=3 * 32 + 4).step_by(4) {
                assert_eq!(
                    a.xor_fold(off, len).unwrap(),
                    a.xor_fold_scalar(off, len).unwrap(),
                    "offset {off} len {len}"
                );
            }
        }
    }

    #[test]
    fn residue_fold_matches_manual() {
        let a = Arena::new(4096).unwrap();
        a.write(0, &0xdead_beefu32.to_le_bytes()).unwrap();
        a.write(4, &0x0101_0101u32.to_le_bytes()).unwrap();
        a.write(8, &0xffff_fff0u32.to_le_bytes()).unwrap();
        let m = 0xFFFF_FFFFu64;
        let want = ((0xdead_beefu64 + 0x0101_0101 + 0xffff_fff0) % m) as u32;
        assert_eq!(a.residue_fold(0, 12).unwrap(), want);
        assert_eq!(a.residue_fold_scalar(0, 12).unwrap(), want);
        assert_eq!(a.residue_fold(64, 64).unwrap(), 0);
        assert_eq!(a.residue_fold(0, 0).unwrap(), 0);
    }

    #[test]
    fn residue_fold_canonicalizes_all_ones() {
        // A single 0xFFFF_FFFF word is congruent to 0 mod 2^32-1: the
        // canonical fold is 0, never the modulus itself.
        let a = Arena::new(4096).unwrap();
        a.write(0, &0xffff_ffffu32.to_le_bytes()).unwrap();
        assert_eq!(a.residue_fold(0, 4).unwrap(), 0);
        assert_eq!(a.residue_fold_scalar(0, 4).unwrap(), 0);
    }

    #[test]
    fn residue_fold_rejects_misalignment() {
        let a = Arena::new(4096).unwrap();
        assert!(a.residue_fold(2, 8).is_err());
        assert!(a.residue_fold(0, 6).is_err());
        assert!(a.residue_fold_scalar(2, 8).is_err());
        assert!(a.residue_fold_scalar(0, 6).is_err());
    }

    /// Wide residue kernel == scalar reference for every word-aligned
    /// offset mod 8 and every tail shape through a few 32-byte blocks.
    #[test]
    fn wide_residue_fold_matches_scalar_every_shape() {
        let a = Arena::new(4096).unwrap();
        let noise: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .collect();
        a.write(0, &noise).unwrap();
        for off in [0usize, 4, 8, 12, 36] {
            for len in (0..=3 * 32 + 4).step_by(4) {
                assert_eq!(
                    a.residue_fold(off, len).unwrap(),
                    a.residue_fold_scalar(off, len).unwrap(),
                    "offset {off} len {len}"
                );
            }
        }
    }

    #[test]
    fn residue_fold_sees_paired_same_column_flip() {
        // Two identical same-direction bit flips in one column cancel in
        // the XOR fold but move the residue sum by 2^(k+1) != 0.
        let a = Arena::new(4096).unwrap();
        let before_x = a.xor_fold(0, 64).unwrap();
        let before_r = a.residue_fold(0, 64).unwrap();
        for addr in [8usize, 12] {
            let w = a.read_u32(addr).unwrap();
            a.write(addr, &(w ^ (1 << 9)).to_le_bytes()).unwrap();
        }
        assert_eq!(a.xor_fold(0, 64).unwrap(), before_x, "XOR blind");
        assert_ne!(a.residue_fold(0, 64).unwrap(), before_r, "residue sees");
    }

    #[test]
    fn read_u32_little_endian() {
        let a = Arena::new(4096).unwrap();
        a.write(8, &[0x78, 0x56, 0x34, 0x12]).unwrap();
        assert_eq!(a.read_u32(8).unwrap(), 0x1234_5678);
    }

    #[test]
    fn zero_clears() {
        let a = Arena::new(4096).unwrap();
        a.write(10, &[0xaa; 16]).unwrap();
        a.zero();
        assert_eq!(a.xor_fold(0, 4096).unwrap(), 0);
    }

    #[test]
    fn zero_length_rejected() {
        assert!(Arena::new(0).is_err());
    }
}
