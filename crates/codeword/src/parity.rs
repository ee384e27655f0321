//! Parity stripe for online repair: rebuild a corrupted region in place.
//!
//! Codewords *detect* direct corruption; they cannot say what the bytes
//! used to be. The stripe adds the redundancy that can: every group of
//! `group_size` consecutive protection regions is XOR-accumulated into a
//! region-sized *parity buffer*, so any single member region is
//! reconstructible as `parity ⊕ (⊕ siblings)` — no checkpoint read, no
//! WAL replay (the Pangolin approach, grafted onto the paper's region
//! geometry).
//!
//! Maintenance is eager and rides the codeword path: an updater, still
//! inside its protection-latch bracket, hands each written region piece
//! to [`ParityStripe::apply_update`], which XORs the piece's `old ⊕ new`
//! straight into its group's buffer under the group mutex and moves the
//! group's maintained *parity codeword* by the configured
//! [`CodewordAlgebraKind`]'s `delta_of_folds` of the touched window —
//! the contract the codeword table uses for region pieces. The stripe is
//! itself codeword-protected, so a wild write into parity memory is
//! detected (stale parity) instead of being trusted by a repair.
//!
//! Consistency: updaters hold their latch span across write + apply, so
//! any holder of a group's protection latches exclusively sees the
//! parity buffer equal to the XOR of the member regions' bytes, with
//! nothing to drain first. That is precisely the bracket
//! [`crate::protection::CodewordProtection`] takes to repair. Lock
//! order: latches → group buffer.

use crate::algebra;
use crate::region::{RegionGeometry, RegionId};
use dali_common::{CodewordAlgebraKind, DaliError, DbAddr, Result};
use dali_mem::DbImage;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Index of a parity group (`region / group_size`).
pub type ParityGroupId = usize;

struct Group {
    /// XOR of the member regions' bytes whenever no updater of the group
    /// is inside its latch bracket.
    buf: Mutex<Vec<u8>>,
    /// Maintained codeword of `buf` under the stripe's algebra; moved
    /// under the `buf` mutex by every update, verified against a fresh
    /// fold before any repair trusts the buffer.
    word: AtomicU32,
    /// Set when an update mutates `buf`; the delta-certification sweep
    /// collects and verifies dirty groups (parity buffers are not backed
    /// by image pages, so the dirty-page → region footprint cannot see
    /// them — this flag is their certification channel).
    dirty: AtomicBool,
}

/// Point-in-time view of the stripe's gauges and lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParityStatsSnapshot {
    /// Number of parity groups.
    pub groups: u64,
    /// Regions per group (the configured `parity_group_size`).
    pub group_size: u64,
    /// Lifetime: delta bytes XORed into the stripe (the parity write
    /// amplification numerator).
    pub delta_bytes: u64,
    /// Groups currently flagged dirty for certification.
    pub dirty_groups: u64,
}

/// `dst ^= src`, byte by byte.
fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// The parity stripe: one region-sized XOR accumulator per group of
/// `group_size` consecutive regions.
pub struct ParityStripe {
    group_size: usize,
    region_size: usize,
    num_regions: usize,
    kind: CodewordAlgebraKind,
    groups: Box<[Group]>,
    delta_bytes: AtomicU64,
}

impl ParityStripe {
    /// Build a stripe over `geom` with `group_size` regions per group.
    pub fn new(
        geom: &RegionGeometry,
        group_size: usize,
        kind: CodewordAlgebraKind,
    ) -> Result<ParityStripe> {
        if group_size == 0 {
            return Err(DaliError::InvalidArg("parity group size 0".into()));
        }
        let num_regions = geom.num_regions();
        let region_size = geom.region_size();
        Ok(ParityStripe {
            group_size,
            region_size,
            num_regions,
            kind,
            groups: (0..num_regions.div_ceil(group_size))
                .map(|_| Group {
                    buf: Mutex::new(vec![0u8; region_size]),
                    word: AtomicU32::new(kind.identity()),
                    dirty: AtomicBool::new(false),
                })
                .collect(),
            delta_bytes: AtomicU64::new(0),
        })
    }

    /// Regions per parity group.
    #[inline]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of parity groups (`ceil(num_regions / group_size)`).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The algebra the maintained parity codewords live in.
    #[inline]
    pub fn kind(&self) -> CodewordAlgebraKind {
        self.kind
    }

    /// The parity group containing `region`.
    #[inline]
    pub fn group_of(&self, region: RegionId) -> ParityGroupId {
        region / self.group_size
    }

    /// Inclusive member-region span of `group` (the last group may be
    /// short when the region count is not a multiple of the group size).
    #[inline]
    pub fn members(&self, group: ParityGroupId) -> (RegionId, RegionId) {
        let first = group * self.group_size;
        let last = (first + self.group_size).min(self.num_regions) - 1;
        (first, last)
    }

    /// Fold one completed region piece into its group: the word-aligned
    /// bytes at `at` (within one region) changed from `old` to what the
    /// image now holds. XORs `old ⊕ new` into the parity buffer and moves
    /// the parity codeword by `delta_of_folds` of the touched window,
    /// both under the group mutex, and flags the group dirty. Called by
    /// updaters inside their protection-latch bracket, after the
    /// codeword delta of the same piece.
    pub fn apply_update(&self, image: &DbImage, at: DbAddr, old: &[u8]) -> Result<()> {
        let rel = at.0 % self.region_size;
        debug_assert!(
            rel + old.len() <= self.region_size,
            "piece crosses a region"
        );
        let group = &self.groups[self.group_of(at.0 / self.region_size)];
        let mut buf = group.buf.lock();
        let window = &mut buf[rel..rel + old.len()];
        let before = algebra::fold(self.kind, window);
        // The new bytes come from the image a stack chunk at a time; a
        // failed read leaves the word unmoved, so the group reads as stale
        // parity rather than being trusted.
        const CHUNK: usize = 64;
        let mut new = [0u8; CHUNK];
        for (i, (w, o)) in window.chunks_mut(CHUNK).zip(old.chunks(CHUNK)).enumerate() {
            let new = &mut new[..o.len()];
            image.read(at.add(i * CHUNK), new)?;
            for (d, (o, n)) in w.iter_mut().zip(o.iter().zip(new.iter())) {
                *d ^= o ^ n;
            }
        }
        let after = algebra::fold(self.kind, window);
        let word = group.word.load(Ordering::Acquire);
        group.word.store(
            self.kind
                .combine(word, self.kind.delta_of_folds(before, after)),
            Ordering::Release,
        );
        group.dirty.store(true, Ordering::Release);
        self.delta_bytes
            .fetch_add(old.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Verify `group`'s parity buffer against its maintained codeword.
    /// `false` means the stripe itself took a wild write (or missed
    /// maintenance): *stale parity* — repair must fall back.
    pub fn verify_group(&self, group: ParityGroupId) -> bool {
        let buf = self.groups[group].buf.lock();
        algebra::fold(self.kind, &buf) == self.groups[group].word.load(Ordering::Acquire)
    }

    /// The maintained parity codeword of `group`.
    #[inline]
    pub fn parity_word(&self, group: ParityGroupId) -> u32 {
        self.groups[group].word.load(Ordering::Acquire)
    }

    /// Copy `group`'s parity buffer into `out`.
    pub fn copy_group(&self, group: ParityGroupId, out: &mut [u8]) {
        out.copy_from_slice(&self.groups[group].buf.lock());
    }

    /// XOR into `out` the image bytes of every member of `group` except
    /// `skip`, read through the reusable buffer `span`.
    fn xor_members(
        &self,
        image: &DbImage,
        geom: &RegionGeometry,
        group: ParityGroupId,
        skip: Option<RegionId>,
        out: &mut [u8],
        span: &mut Vec<u8>,
    ) -> Result<()> {
        let (first, last) = self.members(group);
        span.resize((last - first + 1) * self.region_size, 0);
        image.read(geom.region_base(first), span)?;
        for (r, bytes) in (first..).zip(span.chunks_exact(self.region_size)) {
            if Some(r) != skip {
                xor_into(out, bytes);
            }
        }
        Ok(())
    }

    /// Reconstruct the bytes of `exclude` from its group: the parity
    /// buffer XOR every *sibling* region's current image bytes. The
    /// caller holds the whole group's latches exclusively; it must verify
    /// the siblings' codewords and [`verify_group`](Self::verify_group)
    /// before trusting the result.
    pub fn reconstruct(
        &self,
        image: &DbImage,
        geom: &RegionGeometry,
        exclude: RegionId,
        out: &mut [u8],
    ) -> Result<()> {
        debug_assert_eq!(out.len(), self.region_size);
        let g = self.group_of(exclude);
        self.copy_group(g, out);
        self.xor_members(image, geom, g, Some(exclude), out, &mut Vec::new())
    }

    /// Rebuild the whole stripe from the image:
    /// [`rebuild_group`](Self::rebuild_group) every group. The caller
    /// quiesces updaters (recovery resync, initial build).
    pub fn resync(&self, image: &DbImage, geom: &RegionGeometry) -> Result<()> {
        let mut span = Vec::new();
        (0..self.groups.len()).try_for_each(|g| self.rebuild(image, geom, g, &mut span))
    }

    /// Rebuild one group's parity buffer and codeword from the image.
    /// The caller holds the group's protection latches exclusively
    /// (otherwise an updater between its write and its `apply_update`
    /// would be counted twice) — the online complement of
    /// [`resync`](Self::resync) for healing a single stale group whose
    /// members are known clean.
    pub fn rebuild_group(
        &self,
        image: &DbImage,
        geom: &RegionGeometry,
        group: ParityGroupId,
    ) -> Result<()> {
        self.rebuild(image, geom, group, &mut Vec::new())
    }

    fn rebuild(
        &self,
        image: &DbImage,
        geom: &RegionGeometry,
        group: ParityGroupId,
        span: &mut Vec<u8>,
    ) -> Result<()> {
        let grp = &self.groups[group];
        let mut buf = grp.buf.lock();
        buf.fill(0);
        self.xor_members(image, geom, group, None, &mut buf, span)?;
        grp.word
            .store(algebra::fold(self.kind, &buf), Ordering::Release);
        grp.dirty.store(false, Ordering::Release);
        Ok(())
    }

    /// XOR `bytes` into `group`'s parity buffer at offset `rel` *without*
    /// maintaining the parity codeword — a wild write into stripe memory.
    /// Fault-injection campaigns and tests use this to manufacture the
    /// stale-parity fallback case.
    pub fn wild_xor_group(&self, group: ParityGroupId, rel: usize, bytes: &[u8]) {
        let mut buf = self.groups[group].buf.lock();
        xor_into(&mut buf[rel..rel + bytes.len()], bytes);
    }

    /// Collect and clear the groups flagged dirty since the last call,
    /// sorted ascending — the certification footprint of the stripe
    /// (parity buffers live outside the image, so the dirty-page → region
    /// mapping cannot cover them).
    pub fn take_dirty_groups(&self) -> Vec<ParityGroupId> {
        (0..self.groups.len())
            .filter(|&g| self.groups[g].dirty.swap(false, Ordering::AcqRel))
            .collect()
    }

    /// The dirty-group gauge without clearing.
    pub fn dirty_group_count(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.dirty.load(Ordering::Acquire))
            .count()
    }

    /// Snapshot the gauges and lifetime counters.
    pub fn snapshot(&self) -> ParityStatsSnapshot {
        ParityStatsSnapshot {
            groups: self.groups.len() as u64,
            group_size: self.group_size as u64,
            delta_bytes: self.delta_bytes.load(Ordering::Relaxed),
            dirty_groups: self.dirty_group_count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(kind: CodewordAlgebraKind) -> (DbImage, RegionGeometry, ParityStripe) {
        let image = DbImage::new(2, 4096).unwrap();
        let geom = RegionGeometry::new(image.len(), 64).unwrap();
        let stripe = ParityStripe::new(&geom, 8, kind).unwrap();
        (image, geom, stripe)
    }

    /// One maintained write of `new` at the word-aligned `addr` (within
    /// one region): capture the before-image, write, apply.
    fn update(image: &DbImage, stripe: &ParityStripe, addr: DbAddr, new: &[u8]) {
        let mut old = vec![0u8; new.len()];
        image.read(addr, &mut old).unwrap();
        image.write(addr, new).unwrap();
        stripe.apply_update(image, addr, &old).unwrap();
    }

    /// Reference parity: XOR of all member regions read straight from
    /// the image.
    fn expect_parity(
        image: &DbImage,
        geom: &RegionGeometry,
        stripe: &ParityStripe,
        g: usize,
    ) -> Vec<u8> {
        let mut out = vec![0u8; geom.region_size()];
        let (first, last) = stripe.members(g);
        let mut region = vec![0u8; geom.region_size()];
        for r in first..=last {
            image.read(geom.region_base(r), &mut region).unwrap();
            xor_into(&mut out, &region);
        }
        out
    }

    /// Every group's buffer equals the XOR of its members and verifies.
    fn assert_exact(image: &DbImage, geom: &RegionGeometry, stripe: &ParityStripe, ctx: &str) {
        let mut buf = vec![0u8; geom.region_size()];
        for g in 0..stripe.num_groups() {
            stripe.copy_group(g, &mut buf);
            assert_eq!(
                buf,
                expect_parity(image, geom, stripe, g),
                "{ctx}: group {g}"
            );
            assert!(stripe.verify_group(g), "{ctx}: group {g} word maintained");
        }
    }

    #[test]
    fn geometry_of_groups() {
        let (_i, geom, stripe) = setup(CodewordAlgebraKind::XorFold);
        assert_eq!(geom.num_regions(), 128);
        assert_eq!(stripe.num_groups(), 16);
        assert_eq!(stripe.group_of(0), 0);
        assert_eq!(stripe.group_of(7), 0);
        assert_eq!(stripe.group_of(8), 1);
        assert_eq!(stripe.members(0), (0, 7));
        assert_eq!(stripe.members(15), (120, 127));
    }

    #[test]
    fn ragged_last_group() {
        let geom = RegionGeometry::new(64 * 10, 64).unwrap();
        let stripe = ParityStripe::new(&geom, 4, CodewordAlgebraKind::XorFold).unwrap();
        assert_eq!(stripe.num_groups(), 3);
        assert_eq!(stripe.members(2), (8, 9), "short last group");
    }

    #[test]
    fn maintained_updates_track_image_both_algebras() {
        for kind in CodewordAlgebraKind::ALL {
            let (image, geom, stripe) = setup(kind);
            // Eager: the group is exact right after the update returns.
            update(
                &image,
                &stripe,
                DbAddr(64 * 3 + 16),
                &[1, 2, 3, 4, 5, 6, 7, 8],
            );
            assert_exact(&image, &geom, &stripe, &format!("{kind:?}"));
            // Rewriting one window repeatedly moves the word by the
            // window's directed delta each time, never the whole buffer.
            for round in 1..=3u8 {
                update(&image, &stripe, DbAddr(64 * 9), &[round; 4]);
                assert_exact(&image, &geom, &stripe, &format!("{kind:?} round {round}"));
            }
            assert_eq!(stripe.snapshot().delta_bytes, 8 + 3 * 4, "{kind:?}");
        }
    }

    #[test]
    fn pieces_longer_than_one_read_chunk_stay_exact() {
        // 256-byte regions: a 200-byte piece spans four 64-byte image
        // reads inside `apply_update`.
        for kind in CodewordAlgebraKind::ALL {
            let image = DbImage::new(2, 4096).unwrap();
            let geom = RegionGeometry::new(image.len(), 256).unwrap();
            let stripe = ParityStripe::new(&geom, 4, kind).unwrap();
            let ramp: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
            update(&image, &stripe, DbAddr(256 * 5 + 52), &ramp);
            update(&image, &stripe, DbAddr(256 * 6 + 4), &[0xFF; 252]);
            assert_exact(&image, &geom, &stripe, &format!("{kind:?}"));
        }
    }

    #[test]
    fn reconstruct_recovers_wild_written_region() {
        for kind in CodewordAlgebraKind::ALL {
            let (image, geom, stripe) = setup(kind);
            // Populate the group with maintained writes.
            for r in 0..8usize {
                update(&image, &stripe, geom.region_base(r), &[r as u8 + 10; 16]);
            }
            // Save intended content of region 5, then corrupt it.
            let mut intended = vec![0u8; 64];
            image.read(geom.region_base(5), &mut intended).unwrap();
            image.write(geom.region_base(5), &[0xEE; 64]).unwrap();
            let mut rebuilt = vec![0u8; 64];
            stripe.reconstruct(&image, &geom, 5, &mut rebuilt).unwrap();
            assert_eq!(rebuilt, intended, "{kind:?}");
        }
    }

    #[test]
    fn wild_xor_makes_group_stale() {
        let (_i, _g, stripe) = setup(CodewordAlgebraKind::XorFold);
        assert!(stripe.verify_group(0));
        stripe.wild_xor_group(0, 8, &[0xFF, 0x01]);
        assert!(
            !stripe.verify_group(0),
            "unmaintained stripe write detected"
        );
    }

    #[test]
    fn resync_rebuilds_from_image() {
        let (image, geom, stripe) = setup(CodewordAlgebraKind::Residue);
        // An unmaintained image write plus a stale buffer: resync
        // supersedes both.
        image.write(DbAddr(64 * 2), &[7u8; 64]).unwrap();
        update(&image, &stripe, DbAddr(64 * 40), &[9u8; 4]);
        stripe.wild_xor_group(3, 0, &[0xAA]);
        stripe.resync(&image, &geom).unwrap();
        assert_exact(&image, &geom, &stripe, "after resync");
        assert_eq!(stripe.take_dirty_groups(), Vec::<usize>::new());
    }

    #[test]
    fn dirty_groups_flag_and_clear() {
        let (image, _g, stripe) = setup(CodewordAlgebraKind::XorFold);
        update(&image, &stripe, DbAddr(0), &[1u8; 4]);
        assert_eq!(stripe.dirty_group_count(), 1, "dirty as the update lands");
        update(&image, &stripe, DbAddr(64 * 17), &[2u8; 4]);
        assert_eq!(stripe.take_dirty_groups(), vec![0, 2]);
        assert_eq!(stripe.take_dirty_groups(), Vec::<usize>::new());
    }

    #[test]
    fn rejects_zero_group_size() {
        let geom = RegionGeometry::new(4096, 64).unwrap();
        assert!(ParityStripe::new(&geom, 0, CodewordAlgebraKind::XorFold).is_err());
    }
}
