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
//! Maintenance rides the codeword path:
//!
//! * Updaters, still inside their shared protection-latch bracket, push
//!   the *directed byte delta* `old ⊕ new` of each region piece into the
//!   stripe's [`crate::deferred`] delta set — the same sharded,
//!   coalescing set that queues deferred codeword deltas, here with a
//!   region-sized byte payload that coalesces by XOR.
//! * Drains fold the coalesced delta into the group's parity buffer and
//!   move the group's maintained *parity codeword* through the configured
//!   [`CodewordAlgebraKind`]'s `combine`/`delta_of_folds` contract — the
//!   stripe itself is codeword-protected, so a wild write into parity
//!   memory is detected (stale parity) instead of being trusted by a
//!   repair.
//!
//! Consistency: for an observer holding the whole group's protection
//! latches exclusively, [`ParityStripe::drain_group`] makes the parity
//! buffer exactly the XOR of the member regions' bytes (updaters hold
//! the latch shared across write+push, so no delta can be in flight).
//! That is precisely the bracket [`crate::protection::CodewordProtection`]
//! takes to repair. Lock order: latches → drain mutex → map mutex →
//! group buffer.

use crate::algebra;
use crate::deferred::{DeferredConfig, DeferredSet};
use crate::region::{RegionGeometry, RegionId};
use dali_common::{CodewordAlgebraKind, DaliError, Result};
use dali_mem::DbImage;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Index of a parity group (`region / group_size`).
pub type ParityGroupId = usize;

struct Group {
    /// XOR of the member regions' bytes (once the group's shards are
    /// drained under the group's exclusive latches).
    buf: Mutex<Vec<u8>>,
    /// Maintained codeword of `buf` under the stripe's algebra; moved by
    /// `delta_of_folds` on every drain, verified against a fresh fold
    /// before any repair trusts the buffer.
    word: AtomicU32,
    /// Set when a drain mutates `buf`; the delta-certification sweep
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
    /// Raw byte-deltas currently queued (before coalescing).
    pub pending_deltas: u64,
    /// Lifetime: non-empty shard drains performed.
    pub drains: u64,
    /// Lifetime: pushes absorbed into an existing entry.
    pub coalesced_deltas: u64,
    /// Lifetime: delta bytes XORed toward the stripe (the parity write
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
/// `group_size` consecutive regions, plus the delta set feeding it.
pub struct ParityStripe {
    group_size: usize,
    region_size: usize,
    num_regions: usize,
    kind: CodewordAlgebraKind,
    groups: Box<[Group]>,
    deltas: DeferredSet<Vec<u8>>,
    delta_bytes: AtomicU64,
}

impl ParityStripe {
    /// Build a stripe over `geom` with `group_size` regions per group.
    /// `shards` and `watermark` size its delta set exactly as
    /// [`DeferredConfig`] sizes the codeword one.
    pub fn new(
        geom: &RegionGeometry,
        group_size: usize,
        shards: usize,
        watermark: usize,
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
            deltas: DeferredSet::new(DeferredConfig { shards, watermark }),
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

    /// Enqueue the directed byte delta of overwriting `old` with `new` at
    /// region-relative offset `rel` of `region`. Called by updaters under
    /// their shared protection-latch bracket, right next to the codeword
    /// delta. Returns `true` when the shard is over its watermark and the
    /// caller should [`drain_region`](Self::drain_region) inline.
    pub fn record_delta(&self, region: RegionId, rel: usize, old: &[u8], new: &[u8]) -> bool {
        debug_assert_eq!(old.len(), new.len());
        debug_assert!(rel + new.len() <= self.region_size);
        let window = |delta: &mut [u8]| {
            for (d, (o, n)) in delta[rel..rel + new.len()]
                .iter_mut()
                .zip(old.iter().zip(new))
            {
                *d ^= o ^ n;
            }
        };
        let over = self.deltas.push(
            region,
            || {
                let mut delta = vec![0u8; self.region_size];
                window(&mut delta);
                delta
            },
            |delta| window(delta),
        );
        self.delta_bytes
            .fetch_add(new.len() as u64, Ordering::Relaxed);
        over
    }

    /// Fold a coalesced region delta into its group: XOR the bytes into
    /// the parity buffer and move the maintained parity codeword by the
    /// algebra's directed delta (`combine(word, delta_of_folds(before,
    /// after))` — the same contract codeword maintenance uses, so a
    /// stale/corrupt word stays inconsistent and is caught by
    /// [`verify_group`](Self::verify_group)).
    fn apply_to_group(&self, region: RegionId, delta: &[u8]) {
        let group = &self.groups[self.group_of(region)];
        let mut buf = group.buf.lock();
        let before = algebra::fold(self.kind, &buf);
        xor_into(&mut buf, delta);
        let after = algebra::fold(self.kind, &buf);
        let word = group.word.load(Ordering::Acquire);
        group.word.store(
            self.kind
                .combine(word, self.kind.delta_of_folds(before, after)),
            Ordering::Release,
        );
        group.dirty.store(true, Ordering::Release);
    }

    /// Drain the shard holding `region`'s parity deltas.
    pub fn drain_region(&self, region: RegionId) {
        self.deltas
            .drain_span(region, region, |r, d| self.apply_to_group(r, &d));
    }

    /// Drain every shard covering the members of `group`. The caller
    /// holds the group's protection latches exclusively; on return the
    /// parity buffer reflects every update to the group.
    pub fn drain_group(&self, group: ParityGroupId) {
        let (first, last) = self.members(group);
        self.deltas
            .drain_span(first, last, |r, d| self.apply_to_group(r, &d));
    }

    /// Drain every shard, one at a time.
    pub fn drain_all(&self) {
        self.deltas.drain_all(|r, d| self.apply_to_group(r, &d));
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
    /// caller holds the whole group's latches exclusively and has drained
    /// the group's shards; it must verify the siblings' codewords and
    /// [`verify_group`](Self::verify_group) before trusting the result.
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

    /// Rebuild the whole stripe from the image: discard queued deltas
    /// (they are superseded) and [`rebuild_group`](Self::rebuild_group)
    /// every group. The caller quiesces updaters (recovery resync,
    /// initial build).
    pub fn resync(&self, image: &DbImage, geom: &RegionGeometry) -> Result<()> {
        self.deltas.clear();
        let mut span = Vec::new();
        (0..self.groups.len()).try_for_each(|g| self.rebuild(image, geom, g, &mut span))
    }

    /// Rebuild one group's parity buffer and codeword from the image.
    /// The caller holds the group's protection latches exclusively and
    /// has drained the group's shards (otherwise an in-flight or queued
    /// delta would be double-counted when it later drains) — the online
    /// complement of [`resync`](Self::resync) for healing a single stale
    /// group whose members are known clean.
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

    /// Raw byte-deltas currently queued (before coalescing).
    #[inline]
    pub fn pending_deltas(&self) -> u64 {
        self.deltas.snapshot().pending_deltas
    }

    /// Snapshot the gauges and lifetime counters.
    pub fn snapshot(&self) -> ParityStatsSnapshot {
        let deltas = self.deltas.snapshot();
        ParityStatsSnapshot {
            groups: self.groups.len() as u64,
            group_size: self.group_size as u64,
            pending_deltas: deltas.pending_deltas,
            drains: deltas.drains,
            coalesced_deltas: deltas.coalesced_deltas,
            delta_bytes: self.delta_bytes.load(Ordering::Relaxed),
            dirty_groups: self.dirty_group_count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dali_common::DbAddr;

    fn setup(kind: CodewordAlgebraKind) -> (DbImage, RegionGeometry, ParityStripe) {
        let image = DbImage::new(2, 4096).unwrap();
        let geom = RegionGeometry::new(image.len(), 64).unwrap();
        let stripe = ParityStripe::new(&geom, 8, 4, 0, kind).unwrap();
        (image, geom, stripe)
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
            for (o, s) in out.iter_mut().zip(&region) {
                *o ^= s;
            }
        }
        out
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
        let stripe = ParityStripe::new(&geom, 4, 2, 0, CodewordAlgebraKind::XorFold).unwrap();
        assert_eq!(stripe.num_groups(), 3);
        assert_eq!(stripe.members(2), (8, 9), "short last group");
    }

    #[test]
    fn maintained_deltas_track_image_both_algebras() {
        for kind in CodewordAlgebraKind::ALL {
            let (image, geom, stripe) = setup(kind);
            // A maintained write: old bytes, new bytes, delta enqueued.
            let addr = DbAddr(64 * 3 + 16);
            let old = [0u8; 8];
            let new = [1u8, 2, 3, 4, 5, 6, 7, 8];
            image.write(addr, &new).unwrap();
            stripe.record_delta(3, 16, &old, &new);
            stripe.drain_region(3);
            let g = stripe.group_of(3);
            let mut buf = vec![0u8; 64];
            stripe.copy_group(g, &mut buf);
            assert_eq!(buf, expect_parity(&image, &geom, &stripe, g), "{kind:?}");
            assert!(stripe.verify_group(g), "{kind:?} word maintained");
        }
    }

    #[test]
    fn coalesced_deltas_drain_once() {
        let (image, geom, stripe) = setup(CodewordAlgebraKind::XorFold);
        let mut old = [0u8; 4];
        for round in 1..=3u8 {
            let new = [round; 4];
            image.write(DbAddr(64 * 9), &new).unwrap();
            stripe.record_delta(9, 0, &old, &new);
            old = new;
        }
        assert_eq!(stripe.pending_deltas(), 3);
        let snap = stripe.snapshot();
        assert_eq!(snap.coalesced_deltas, 2);
        assert_eq!(snap.delta_bytes, 12);
        stripe.drain_all();
        let g = stripe.group_of(9);
        let mut buf = vec![0u8; 64];
        stripe.copy_group(g, &mut buf);
        assert_eq!(buf, expect_parity(&image, &geom, &stripe, g));
        assert_eq!(stripe.pending_deltas(), 0);
    }

    #[test]
    fn reconstruct_recovers_wild_written_region() {
        for kind in CodewordAlgebraKind::ALL {
            let (image, geom, stripe) = setup(kind);
            // Populate the group with maintained writes.
            for r in 0..8usize {
                let new = [r as u8 + 10; 16];
                image.write(geom.region_base(r), &new).unwrap();
                stripe.record_delta(r, 0, &[0u8; 16], &new);
            }
            stripe.drain_all();
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
    fn resync_rebuilds_from_image_and_discards_queued() {
        let (image, geom, stripe) = setup(CodewordAlgebraKind::Residue);
        image.write(DbAddr(64 * 2), &[7u8; 64]).unwrap();
        // A queued delta that resync must supersede, plus a stale buffer.
        stripe.record_delta(40, 0, &[0u8; 4], &[9u8; 4]);
        stripe.wild_xor_group(3, 0, &[0xAA]);
        stripe.resync(&image, &geom).unwrap();
        assert_eq!(stripe.pending_deltas(), 0);
        for g in 0..stripe.num_groups() {
            assert!(stripe.verify_group(g), "group {g}");
            let mut buf = vec![0u8; 64];
            stripe.copy_group(g, &mut buf);
            assert_eq!(buf, expect_parity(&image, &geom, &stripe, g), "group {g}");
        }
        assert_eq!(stripe.take_dirty_groups(), Vec::<usize>::new());
    }

    #[test]
    fn dirty_groups_flag_and_clear() {
        let (_i, _g, stripe) = setup(CodewordAlgebraKind::XorFold);
        stripe.record_delta(0, 0, &[0u8; 4], &[1u8; 4]);
        stripe.record_delta(17, 0, &[0u8; 4], &[2u8; 4]);
        assert_eq!(stripe.dirty_group_count(), 0, "dirty only after drain");
        stripe.drain_all();
        assert_eq!(stripe.take_dirty_groups(), vec![0, 2]);
        assert_eq!(stripe.take_dirty_groups(), Vec::<usize>::new());
    }

    #[test]
    fn watermark_signals_inline_drain() {
        let geom = RegionGeometry::new(4096, 64).unwrap();
        let stripe = ParityStripe::new(&geom, 8, 1, 2, CodewordAlgebraKind::XorFold).unwrap();
        assert!(!stripe.record_delta(1, 0, &[0u8; 4], &[1u8; 4]));
        assert!(!stripe.record_delta(2, 0, &[0u8; 4], &[1u8; 4]));
        assert!(stripe.record_delta(3, 0, &[0u8; 4], &[1u8; 4]));
    }

    #[test]
    fn rejects_zero_group_size() {
        let geom = RegionGeometry::new(4096, 64).unwrap();
        assert!(ParityStripe::new(&geom, 0, 1, 0, CodewordAlgebraKind::XorFold).is_err());
    }
}
