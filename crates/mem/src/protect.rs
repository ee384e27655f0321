//! Hardware protection: mprotect pages, expose them around updates.
//!
//! This implements the paper's comparison scheme (§3 "Hardware
//! Protection"), which follows the *Expose Page Update Model* of Sullivan &
//! Stonebraker: all database pages are kept read-only; `beginUpdate`
//! unprotects the page(s) being updated and `endUpdate` reprotects them.
//!
//! Two aspects are separated:
//!
//! * **Cost** — real `mprotect` syscalls are issued (when
//!   [`PageProtector::new`] is constructed with `real = true`), so
//!   benchmarks pay the true syscall price this scheme is famous for.
//! * **Semantics** — a per-page expose counter doubles as a protection
//!   bitmap. The fault injector consults it via
//!   [`PageProtector::is_writable`] to decide whether a wild write would
//!   have trapped, instead of actually segfaulting the process.
//!
//! [`ProtectStats`] counts syscalls and exposed pages, reproducing the §5.3
//! observation that a TPC-B style operation touches ~11 pages when control
//!   information does not share pages with tuple data.

use crate::arena::os_page_size;
use crate::image::DbImage;
use dali_common::{DaliError, DbAddr, PageId, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters for mprotect activity.
#[derive(Default, Debug)]
pub struct ProtectStats {
    /// Number of mprotect calls that made pages writable (beginUpdate side).
    pub unprotect_calls: AtomicU64,
    /// Number of mprotect calls that made pages read-only (endUpdate side).
    pub protect_calls: AtomicU64,
    /// Total pages exposed across all beginUpdate calls (with multiplicity).
    pub pages_exposed: AtomicU64,
}

impl ProtectStats {
    /// Snapshot of (unprotect, protect, pages_exposed).
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.unprotect_calls.load(Ordering::Relaxed),
            self.protect_calls.load(Ordering::Relaxed),
            self.pages_exposed.load(Ordering::Relaxed),
        )
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.unprotect_calls.store(0, Ordering::Relaxed);
        self.protect_calls.store(0, Ordering::Relaxed);
        self.pages_exposed.store(0, Ordering::Relaxed);
    }
}

/// Guards the database image with page-granularity write protection.
pub struct PageProtector {
    image: Arc<DbImage>,
    /// Per-page expose counts; a page is writable iff its count is > 0 or
    /// protection is disabled. Guarded by a mutex because the counter
    /// transition and the mprotect call must be atomic together.
    counts: Mutex<ProtectorState>,
    real: bool,
    stats: ProtectStats,
}

struct ProtectorState {
    counts: Vec<u32>,
    enabled: bool,
}

impl PageProtector {
    /// Create a protector for `image`. With `real = true`, mprotect
    /// syscalls are actually issued (requires the database page size to be
    /// a multiple of the OS page size; otherwise falls back to
    /// bitmap-only).
    pub fn new(image: Arc<DbImage>, real: bool) -> PageProtector {
        let real = real && image.page_size().is_multiple_of(os_page_size());
        let pages = image.pages();
        PageProtector {
            image,
            counts: Mutex::new(ProtectorState {
                counts: vec![0; pages],
                enabled: false,
            }),
            real,
            stats: ProtectStats::default(),
        }
    }

    /// Whether real mprotect syscalls are issued.
    #[inline]
    pub fn is_real(&self) -> bool {
        self.real
    }

    /// Access the syscall statistics.
    #[inline]
    pub fn stats(&self) -> &ProtectStats {
        &self.stats
    }

    fn mprotect(&self, page: PageId, writable: bool) -> Result<()> {
        if !self.real {
            return Ok(());
        }
        let ps = self.image.page_size();
        let base = self.image.arena().base_ptr();
        let prot = if writable {
            libc::PROT_READ | libc::PROT_WRITE
        } else {
            libc::PROT_READ
        };
        // SAFETY: page is validated against image bounds by callers; the
        // arena base is page-aligned and page_size is a multiple of the OS
        // page size (checked in `new`).
        let rc = unsafe {
            libc::mprotect(
                base.add(page.0 as usize * ps) as *mut libc::c_void,
                ps,
                prot,
            )
        };
        if rc != 0 {
            return Err(DaliError::Io(std::io::Error::last_os_error()));
        }
        Ok(())
    }

    /// Turn protection on: every page becomes read-only.
    pub fn enable(&self) -> Result<()> {
        let mut st = self.counts.lock();
        for c in st.counts.iter_mut() {
            *c = 0;
        }
        st.enabled = true;
        if self.real {
            // One syscall for the whole arena.
            let base = self.image.arena().base_ptr();
            // SAFETY: whole-arena range, page-aligned by construction.
            let rc = unsafe {
                libc::mprotect(base as *mut libc::c_void, self.image.len(), libc::PROT_READ)
            };
            if rc != 0 {
                st.enabled = false;
                return Err(DaliError::Io(std::io::Error::last_os_error()));
            }
        }
        Ok(())
    }

    /// Turn protection off: every page becomes writable.
    pub fn disable(&self) -> Result<()> {
        let mut st = self.counts.lock();
        st.enabled = false;
        if self.real {
            let base = self.image.arena().base_ptr();
            // SAFETY: whole-arena range, page-aligned by construction.
            let rc = unsafe {
                libc::mprotect(
                    base as *mut libc::c_void,
                    self.image.len(),
                    libc::PROT_READ | libc::PROT_WRITE,
                )
            };
            if rc != 0 {
                return Err(DaliError::Io(std::io::Error::last_os_error()));
            }
        }
        Ok(())
    }

    /// Whether protection is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.counts.lock().enabled
    }

    /// Make the pages overlapping `[addr, addr+len)` writable
    /// (beginUpdate side of the Expose Page Update Model).
    pub fn expose(&self, addr: DbAddr, len: usize) -> Result<()> {
        let pages = self.image.pages_overlapping(addr, len);
        let mut st = self.counts.lock();
        if !st.enabled {
            return Ok(());
        }
        for page in pages {
            let idx = page.0 as usize;
            if idx >= st.counts.len() {
                return Err(DaliError::InvalidArg(format!("page {page} out of range")));
            }
            st.counts[idx] += 1;
            self.stats.pages_exposed.fetch_add(1, Ordering::Relaxed);
            if st.counts[idx] == 1 {
                self.stats.unprotect_calls.fetch_add(1, Ordering::Relaxed);
                self.mprotect(page, true)?;
            }
        }
        Ok(())
    }

    /// Reprotect the pages overlapping `[addr, addr+len)` (endUpdate side).
    pub fn reprotect(&self, addr: DbAddr, len: usize) -> Result<()> {
        let pages = self.image.pages_overlapping(addr, len);
        let mut st = self.counts.lock();
        if !st.enabled {
            return Ok(());
        }
        for page in pages {
            let idx = page.0 as usize;
            if idx >= st.counts.len() || st.counts[idx] == 0 {
                return Err(DaliError::InvalidArg(format!(
                    "reprotect of page {page} without matching expose"
                )));
            }
            st.counts[idx] -= 1;
            if st.counts[idx] == 0 {
                self.stats.protect_calls.fetch_add(1, Ordering::Relaxed);
                self.mprotect(page, false)?;
            }
        }
        Ok(())
    }

    /// Would a write to `page` succeed right now? (Used by the fault
    /// injector to simulate the hardware trap without crashing the
    /// process.)
    pub fn is_writable(&self, page: PageId) -> bool {
        let st = self.counts.lock();
        !st.enabled || st.counts.get(page.0 as usize).copied().unwrap_or(0) > 0
    }
}

impl Drop for PageProtector {
    fn drop(&mut self) {
        // Leave the arena writable so the image can be dropped/reused freely.
        let _ = self.disable();
    }
}

/// Measure protect/unprotect pairs per second, reproducing Table 1 of the
/// paper: `pages` pages are protected and then unprotected, repeated
/// `reps` times; the result is pairs per wall-clock second.
///
/// The paper used 2000 pages and 50 repetitions.
pub fn measure_protect_pairs(pages: usize, reps: usize) -> Result<f64> {
    let ps = os_page_size();
    let image = Arc::new(DbImage::new(pages, ps)?);
    // Touch every page so the mapping is populated before timing.
    for p in 0..pages {
        image.write(DbAddr(p * ps), &[1])?;
    }
    let base = image.arena().base_ptr();
    let start = std::time::Instant::now();
    for _ in 0..reps {
        for p in 0..pages {
            // SAFETY: in-bounds page within the arena.
            let addr = unsafe { base.add(p * ps) } as *mut libc::c_void;
            // SAFETY: `addr` is page-aligned (the arena is, and `ps` is the
            // OS page size) and one page lies within the live mapping;
            // `image` is local, so no other thread writes while the page is
            // read-only.
            let rc = unsafe { libc::mprotect(addr, ps, libc::PROT_READ) };
            if rc != 0 {
                return Err(DaliError::Io(std::io::Error::last_os_error()));
            }
            // SAFETY: the same page, restored to the arena's original
            // protection.
            let rc = unsafe { libc::mprotect(addr, ps, libc::PROT_READ | libc::PROT_WRITE) };
            if rc != 0 {
                return Err(DaliError::Io(std::io::Error::last_os_error()));
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    Ok((pages * reps) as f64 / elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(real: bool) -> (Arc<DbImage>, PageProtector) {
        let image = Arc::new(DbImage::new(8, os_page_size()).unwrap());
        let prot = PageProtector::new(Arc::clone(&image), real);
        (image, prot)
    }

    #[test]
    fn disabled_protector_lets_everything_through() {
        let (_img, p) = setup(false);
        assert!(!p.is_enabled());
        assert!(p.is_writable(PageId(0)));
        p.expose(DbAddr(0), 10).unwrap();
        p.reprotect(DbAddr(0), 10).unwrap();
    }

    #[test]
    fn enable_makes_pages_unwritable() {
        let (_img, p) = setup(false);
        p.enable().unwrap();
        assert!(!p.is_writable(PageId(0)));
        assert!(!p.is_writable(PageId(7)));
    }

    #[test]
    fn expose_reprotect_cycle_with_bitmap() {
        let (_img, p) = setup(false);
        p.enable().unwrap();
        p.expose(DbAddr(10), 16).unwrap();
        assert!(p.is_writable(PageId(0)));
        assert!(!p.is_writable(PageId(1)));
        p.reprotect(DbAddr(10), 16).unwrap();
        assert!(!p.is_writable(PageId(0)));
    }

    #[test]
    fn nested_exposes_refcount() {
        let (_img, p) = setup(false);
        p.enable().unwrap();
        p.expose(DbAddr(0), 8).unwrap();
        p.expose(DbAddr(16), 8).unwrap(); // same page
        p.reprotect(DbAddr(0), 8).unwrap();
        assert!(p.is_writable(PageId(0)), "still exposed once");
        p.reprotect(DbAddr(16), 8).unwrap();
        assert!(!p.is_writable(PageId(0)));
        let (unprot, prot, exposed) = p.stats().snapshot();
        assert_eq!(unprot, 1, "one 0->1 transition");
        assert_eq!(prot, 1, "one 1->0 transition");
        assert_eq!(exposed, 2);
    }

    #[test]
    fn unmatched_reprotect_is_an_error() {
        let (_img, p) = setup(false);
        p.enable().unwrap();
        assert!(p.reprotect(DbAddr(0), 8).is_err());
    }

    #[test]
    fn cross_page_expose_touches_both_pages() {
        let (img, p) = setup(false);
        p.enable().unwrap();
        let ps = img.page_size();
        p.expose(DbAddr(ps - 4), 8).unwrap();
        assert!(p.is_writable(PageId(0)));
        assert!(p.is_writable(PageId(1)));
        assert!(!p.is_writable(PageId(2)));
        p.reprotect(DbAddr(ps - 4), 8).unwrap();
    }

    #[test]
    fn real_mprotect_round_trip() {
        let (img, p) = setup(true);
        assert!(p.is_real());
        p.enable().unwrap();
        // Writing through the image while exposed must succeed (this would
        // SIGSEGV if expose did not really mprotect).
        p.expose(DbAddr(100), 4).unwrap();
        img.write(DbAddr(100), &[1, 2, 3, 4]).unwrap();
        p.reprotect(DbAddr(100), 4).unwrap();
        // Reading a protected page is fine.
        let mut b = [0u8; 4];
        img.read(DbAddr(100), &mut b).unwrap();
        assert_eq!(b, [1, 2, 3, 4]);
        p.disable().unwrap();
        img.write(DbAddr(100), &[9]).unwrap();
    }

    #[test]
    fn stats_reset() {
        let (_img, p) = setup(false);
        p.enable().unwrap();
        p.expose(DbAddr(0), 4).unwrap();
        p.reprotect(DbAddr(0), 4).unwrap();
        p.stats().reset();
        assert_eq!(p.stats().snapshot(), (0, 0, 0));
    }

    #[test]
    fn measure_pairs_runs() {
        // Tiny sizes to keep the test fast; just verifies plumbing.
        let rate = measure_protect_pairs(16, 2).unwrap();
        assert!(rate > 0.0);
    }
}
