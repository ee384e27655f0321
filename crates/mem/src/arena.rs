//! A page-aligned anonymous memory mapping.
//!
//! The arena is allocated with `mmap(MAP_ANONYMOUS | MAP_PRIVATE)` so that
//! it is page-aligned (a requirement for `mprotect`) and zero-initialized.
//! An arena of at least 2 MiB is mapped on whole 2 MiB pages
//! at a 2 MiB-aligned address and advised `MADV_HUGEPAGE`: loading a
//! checkpoint image then takes one fault per 2 MiB instead of per 4 KiB,
//! and random writes into it miss the TLB far less. `mprotect` still works
//! per OS page; the kernel splits a huge page it protects in part.
//! Access is deliberately raw: the database image is shared mutable state
//! that application code can (and, in this reproduction, deliberately does)
//! corrupt with stray writes, so we never create Rust references into it —
//! every read and write is a bounds-checked raw-pointer copy, and a fold
//! reads its words through the same kind of copy, one unaligned load at a
//! time, into the kernels of `dali_common::fold`.

use dali_common::align::WORD;
use dali_common::fold::Words;
use dali_common::{CodewordAlgebraKind, DaliError, Result};
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, Ordering};

/// A fixed-size, page-aligned, zero-initialized memory region. Its
/// mapping is rounded up to whole OS pages (whole 2 MiB pages from
/// 2 MiB on); its bounds are the length asked for.
///
/// `Arena` is `Send + Sync`; synchronization of *contents* is the
/// responsibility of higher layers (protection latches, the update
/// interface). Concurrent raw access to overlapping ranges is a data race
/// in the C++ sense — exactly the failure mode the paper's schemes defend
/// against — and the engine only performs it under latches.
pub struct Arena {
    ptr: NonNull<u8>,
    len: usize,
    /// Bytes mapped (or allocated): `len` rounded up to whole pages.
    map_len: usize,
    /// True when the memory came from mmap (and must be munmap'd).
    mapped: bool,
}

/// The transparent huge page size: an arena at least this long is mapped
/// on whole, aligned huge pages.
const HUGE_PAGE: usize = 2 << 20;

// SAFETY: the arena is just memory; all access is via raw pointers with the
// caller responsible for synchronization, as documented.
unsafe impl Send for Arena {}
// SAFETY: `&Arena` hands out no references into the memory, only
// bounds-checked raw-pointer copies, so sharing it across threads adds no
// aliasing; ordering concurrent copies of one range is the latches' job.
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
        if let Some((ptr, map_len)) = map_huge(len) {
            return Ok(Arena {
                ptr,
                len,
                map_len,
                mapped: true,
            });
        }
        let page = os_page_size();
        let map_len = dali_common::align::round_up(len, page);
        if let Some(ptr) = map_anonymous(map_len) {
            return Ok(Arena {
                ptr: ptr.cast(),
                len,
                map_len,
                mapped: true,
            });
        }
        // Fallback: aligned allocation from the global allocator.
        let layout = std::alloc::Layout::from_size_align(map_len, page)
            .map_err(|e| DaliError::InvalidArg(format!("bad layout: {e}")))?;
        // SAFETY: layout has non-zero size.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let nn = NonNull::new(raw)
            .ok_or_else(|| DaliError::OutOfSpace(format!("allocating {map_len} bytes failed")))?;
        Ok(Arena {
            ptr: nn,
            len,
            map_len,
            mapped: false,
        })
    }

    /// Length of the arena in bytes, as asked for.
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

    /// Read a single little-endian `u32` at `offset` (any alignment).
    #[inline]
    pub fn read_u32(&self, offset: usize) -> Result<u32> {
        let word = self
            .words(offset, WORD)?
            .take()
            .expect("range holds one word");
        Ok(u32::from_le_bytes(word))
    }

    /// Fold the 32-bit words of `[offset, offset+len)` under `kind` — the
    /// codeword computation primitive (paper §3: "the codeword is the
    /// bitwise exclusive-or of the words in the region"). `offset` and
    /// `len` must be 4-byte aligned.
    ///
    /// The words reach the wide kernels of [`dali_common::fold`] by raw
    /// unaligned loads; no `&[u8]` is formed over memory a concurrent
    /// writer may be changing.
    #[inline]
    pub fn fold(&self, kind: CodewordAlgebraKind, offset: usize, len: usize) -> Result<u32> {
        if !offset.is_multiple_of(WORD) || !len.is_multiple_of(WORD) {
            return Err(DaliError::InvalidArg(format!(
                "fold range {offset}+{len} not word aligned"
            )));
        }
        Ok(self.words(offset, len)?.fold(kind))
    }

    /// The bounds-checked raw range `[offset, offset+len)`.
    #[inline]
    fn words(&self, offset: usize, len: usize) -> Result<RawWords<'_>> {
        self.check(offset, len)?;
        Ok(RawWords {
            at: self.ptr.as_ptr().wrapping_add(offset),
            len,
            _arena: PhantomData,
        })
    }
}

/// A bounds-checked raw range of an [`Arena`], read front to back by
/// unaligned copies and never through a `&[u8]`.
struct RawWords<'a> {
    at: *const u8,
    len: usize,
    _arena: PhantomData<&'a Arena>,
}

impl Words for RawWords<'_> {
    #[inline(always)]
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        if self.len < N {
            return None;
        }
        // SAFETY: `at..at + len` lies inside the arena, which the borrow
        // keeps mapped (checked by `Arena::words`, kept by every take),
        // and `N <= len`, so the read and the advanced pointer stay in
        // bounds; `read_unaligned` needs no alignment.
        let bytes = unsafe {
            let bytes = self.at.cast::<[u8; N]>().read_unaligned();
            self.at = self.at.add(N);
            bytes
        };
        self.len -= N;
        Some(bytes)
    }
}

/// A fresh read-write anonymous private mapping of `len` bytes, or `None`
/// if `mmap` fails.
fn map_anonymous(len: usize) -> Option<NonNull<libc::c_void>> {
    // SAFETY: a new anonymous private mapping aliases no existing memory.
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
    (ptr != libc::MAP_FAILED)
        .then(|| NonNull::new(ptr))
        .flatten()
}

/// Map `len` (at least [`HUGE_PAGE`]) bytes on whole huge pages at a
/// huge-page-aligned address and advise `MADV_HUGEPAGE`; returns the base
/// and the mapped length. `None` — the arena is too small, or the mapping
/// or the advice fails — leaves nothing mapped, and the caller maps OS
/// pages instead.
fn map_huge(len: usize) -> Option<(NonNull<u8>, usize)> {
    if len < HUGE_PAGE {
        return None;
    }
    let map_len = dali_common::align::round_up(len, HUGE_PAGE);
    // One huge page more than needed holds an aligned window of
    // `map_len`; the ends on either side of it are unmapped again.
    let span = map_len + HUGE_PAGE;
    let raw = map_anonymous(span)?.as_ptr() as usize;
    let base = dali_common::align::round_up(raw, HUGE_PAGE);
    let (head, tail) = (base - raw, span - (base - raw) - map_len);
    // SAFETY: both ranges lie inside the mapping just made and outside
    // the window kept; `head` and `tail` are multiples of the OS page
    // size, since `raw`, `base`, `span` and `map_len` are.
    unsafe {
        if head > 0 {
            libc::munmap(raw as *mut libc::c_void, head);
        }
        if tail > 0 {
            libc::munmap((base + map_len) as *mut libc::c_void, tail);
        }
    }
    let base = base as *mut libc::c_void;
    // SAFETY: `base..base + map_len` is the window just kept, used by
    // nothing else yet.
    if unsafe { libc::madvise(base, map_len, libc::MADV_HUGEPAGE) } != 0 {
        // SAFETY: the same window, given back unused.
        unsafe { libc::munmap(base, map_len) };
        return None;
    }
    Some((NonNull::new(base.cast())?, map_len))
}

impl Drop for Arena {
    fn drop(&mut self) {
        if self.mapped {
            // SAFETY: ptr/map_len came from a successful mmap.
            unsafe { libc::munmap(self.ptr.as_ptr() as *mut libc::c_void, self.map_len) };
        } else {
            let layout =
                std::alloc::Layout::from_size_align(self.map_len, os_page_size()).expect("layout");
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

    const XOR: CodewordAlgebraKind = CodewordAlgebraKind::XorFold;
    const RES: CodewordAlgebraKind = CodewordAlgebraKind::Residue;

    #[test]
    fn fold_matches_manual() {
        let a = Arena::new(4096).unwrap();
        a.write(0, &0xdead_beefu32.to_le_bytes()).unwrap();
        a.write(4, &0x0101_0101u32.to_le_bytes()).unwrap();
        a.write(8, &0xffff_fff0u32.to_le_bytes()).unwrap();
        let m = 0xFFFF_FFFFu64;
        let sum = ((0xdead_beefu64 + 0x0101_0101 + 0xffff_fff0) % m) as u32;
        assert_eq!(
            a.fold(XOR, 0, 12).unwrap(),
            0xdead_beef ^ 0x0101_0101 ^ 0xffff_fff0
        );
        assert_eq!(a.fold(RES, 0, 12).unwrap(), sum);
        for kind in CodewordAlgebraKind::ALL {
            assert_eq!(a.fold(kind, 64, 64).unwrap(), 0);
            assert_eq!(a.fold(kind, 0, 0).unwrap(), 0);
        }
    }

    #[test]
    fn residue_fold_canonicalizes_all_ones() {
        // A single 0xFFFF_FFFF word is congruent to 0 mod 2^32-1: the
        // canonical fold is 0, never the modulus itself.
        let a = Arena::new(4096).unwrap();
        a.write(0, &0xffff_ffffu32.to_le_bytes()).unwrap();
        assert_eq!(a.fold(RES, 0, 4).unwrap(), 0);
    }

    #[test]
    fn fold_rejects_misalignment_and_out_of_bounds() {
        let a = Arena::new(4096).unwrap();
        for kind in CodewordAlgebraKind::ALL {
            assert!(a.fold(kind, 2, 8).is_err());
            assert!(a.fold(kind, 0, 6).is_err());
            assert!(a.fold(kind, 4092, 8).is_err());
            assert!(a.fold(kind, usize::MAX - 3, 8).is_err());
            assert!(a.fold(kind, 4092, 4).is_ok());
        }
    }

    #[test]
    fn residue_fold_sees_paired_same_column_flip() {
        // Two identical same-direction bit flips in one column cancel in
        // the XOR fold but move the residue sum by 2^(k+1) != 0.
        let a = Arena::new(4096).unwrap();
        let before_x = a.fold(XOR, 0, 64).unwrap();
        let before_r = a.fold(RES, 0, 64).unwrap();
        for addr in [8usize, 12] {
            let w = a.read_u32(addr).unwrap();
            a.write(addr, &(w ^ (1 << 9)).to_le_bytes()).unwrap();
        }
        assert_eq!(a.fold(XOR, 0, 64).unwrap(), before_x, "XOR blind");
        assert_ne!(a.fold(RES, 0, 64).unwrap(), before_r, "residue sees");
    }

    #[test]
    fn read_u32_little_endian_at_any_offset() {
        let a = Arena::new(4096).unwrap();
        a.write(8, &[0x78, 0x56, 0x34, 0x12, 0x9a]).unwrap();
        assert_eq!(a.read_u32(8).unwrap(), 0x1234_5678);
        assert_eq!(a.read_u32(9).unwrap(), 0x9a12_3456);
        assert!(a.read_u32(a.len() - 3).is_err());
    }

    #[test]
    fn zero_length_rejected() {
        assert!(Arena::new(0).is_err());
    }

    /// The `VmFlags` of the `/proc/self/smaps` entry that holds `addr`.
    fn vm_flags(addr: usize) -> Vec<String> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps");
        let mut inside = false;
        for line in smaps.lines() {
            let first = line.split_whitespace().next().unwrap_or("");
            let range = first.split_once('-').and_then(|(lo, hi)| {
                let lo = usize::from_str_radix(lo, 16).ok()?;
                Some(lo..usize::from_str_radix(hi, 16).ok()?)
            });
            if let Some(range) = range {
                inside = range.contains(&addr);
            } else if let Some(flags) = line.strip_prefix("VmFlags:").filter(|_| inside) {
                return flags.split_whitespace().map(str::to_string).collect();
            }
        }
        panic!("no smaps entry holds {addr:#x}");
    }

    /// An arena of 2 MiB or more sits on whole, aligned huge pages advised
    /// `MADV_HUGEPAGE`; a smaller one on OS pages. Whether the kernel
    /// actually backs them with huge pages is its choice, so only the
    /// advice (`hg`) is checked, and only where THP can be used at all.
    #[test]
    fn a_large_arena_is_mapped_on_aligned_huge_pages() {
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok();
        let advised = |a: &Arena| vm_flags(a.base_ptr() as usize).contains(&"hg".to_string());
        for len in [HUGE_PAGE, 3 * HUGE_PAGE + 4096] {
            let a = Arena::new(len).unwrap();
            a.write(len - 4, &[7; 4]).unwrap();
            assert_eq!(a.len(), len);
            if thp.is_none() {
                // No THP in this kernel: the advice fails, and the arena
                // keeps OS pages.
                assert_eq!(a.map_len, len.next_multiple_of(os_page_size()));
                continue;
            }
            assert_eq!(a.base_ptr() as usize % HUGE_PAGE, 0, "{len}");
            assert_eq!(a.map_len % HUGE_PAGE, 0, "{len}");
            assert!(a.map_len >= len && a.map_len - len < HUGE_PAGE, "{len}");
            if thp.as_ref().is_some_and(|m| !m.contains("[never]")) {
                assert!(advised(&a), "{len}: {:?}", vm_flags(a.base_ptr() as usize));
            }
        }
        let small = Arena::new(HUGE_PAGE - 4096).unwrap();
        assert_eq!(
            small.map_len,
            (HUGE_PAGE - 4096).next_multiple_of(os_page_size())
        );
        assert!(!advised(&small));
    }
}
