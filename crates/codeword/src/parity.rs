//! Parity stripe for online repair: rebuild a corrupted region in place.
//!
//! Codewords *detect* direct corruption; they cannot say what the bytes
//! used to be. This module adds the redundancy that can: every group of
//! `group_size` consecutive protection regions is XOR-accumulated into a
//! region-sized *parity buffer*, so any single member region is
//! reconstructible as `parity ⊕ (⊕ siblings)` — no checkpoint read, no
//! WAL replay (the Pangolin approach, grafted onto the paper's region
//! geometry).
//!
//! Maintenance rides the exact discipline of the codeword path:
//!
//! * Updaters, still inside their shared protection-latch bracket,
//!   enqueue the *directed byte delta* `old ⊕ new` of each region piece
//!   into a sharded, coalescing dirty set (the [`crate::deferred`]
//!   pattern: region-hash shards, per-shard map mutex, deltas coalesce by
//!   XOR — XOR byte vectors form a commutative group just like codeword
//!   deltas, so order never matters).
//! * Drains fold the coalesced delta into the group's parity buffer and
//!   move the group's maintained *parity codeword* through the configured
//!   [`CodewordAlgebraKind`]'s `combine`/`delta_of_folds` contract — the
//!   stripe itself is codeword-protected, so a wild write into parity
//!   memory is detected (stale parity) instead of being trusted by a
//!   repair.
//!
//! Consistency: for an observer holding the whole group's protection
//! latches exclusively, draining the group's shards makes the parity
//! buffer exactly the XOR of the member regions' bytes (updaters hold
//! the latch shared across write+enqueue, so no delta can be in flight).
//! That is precisely the bracket [`crate::protection::CodewordProtection`]
//! takes to repair.
//!
//! Lock ordering: protection latches → per-shard drain mutex → per-shard
//! map mutex → per-group buffer mutex. Pushes take only the map mutex;
//! drains hold the drain mutex across swap *and* apply (same catch-up
//! guarantee as [`crate::deferred::DeferredSet::drain_shard`]).

use crate::algebra;
use crate::deferred::RegionHasher;
use crate::region::{RegionGeometry, RegionId};
use dali_common::{CodewordAlgebraKind, DaliError, Result};
use dali_mem::DbImage;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Index of a parity group (`region / group_size`).
pub type ParityGroupId = usize;

/// Same Fibonacci multiplicative-hash constant as the deferred dirty set.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

type ParityMap = HashMap<RegionId, PendingParity, BuildHasherDefault<RegionHasher>>;

/// Coalesced byte delta for one dirty region: the XOR of every
/// `old ⊕ new` window enqueued since the last drain, positioned at its
/// region-relative offset in a region-sized buffer.
struct PendingParity {
    delta: Vec<u8>,
    pushes: u64,
}

struct ParityShard {
    dirty: Mutex<ParityMap>,
    /// Serializes whole drains (swap **and** apply), for the same reason
    /// as the deferred set's drain mutex: a completed drain call must
    /// mean *applied to the stripe*, not merely *swapped out*.
    draining: Mutex<()>,
}

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

/// The parity stripe: one region-sized XOR accumulator per group of
/// `group_size` consecutive regions, plus the sharded dirty set feeding
/// it.
pub struct ParityStripe {
    group_size: usize,
    region_size: usize,
    num_regions: usize,
    kind: CodewordAlgebraKind,
    groups: Box<[Group]>,
    shards: Box<[ParityShard]>,
    mask: usize,
    watermark: usize,
    pending: AtomicU64,
    drains: AtomicU64,
    coalesced: AtomicU64,
    delta_bytes: AtomicU64,
}

impl ParityStripe {
    /// Build a stripe over `geom` with `group_size` regions per group.
    /// `shards` follows the deferred set's rule (rounded up to a power of
    /// two; `0` = one per CPU with a floor of four); `watermark` bounds a
    /// shard's dirty-region depth before a push asks its caller to drain
    /// inline (`0` = unbounded).
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
        let num_groups = num_regions.div_ceil(group_size);
        let region_size = geom.region_size();
        let groups = (0..num_groups)
            .map(|_| Group {
                buf: Mutex::new(vec![0u8; region_size]),
                word: AtomicU32::new(kind.identity()),
                dirty: AtomicBool::new(false),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let n = if shards == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .max(4)
        } else {
            shards
        }
        .next_power_of_two();
        let shards = (0..n)
            .map(|_| ParityShard {
                dirty: Mutex::new(ParityMap::default()),
                draining: Mutex::new(()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ok(ParityStripe {
            group_size,
            region_size,
            num_regions,
            kind,
            groups,
            shards,
            mask: n - 1,
            watermark,
            pending: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
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

    /// The shard a region's parity deltas land in (same multiplicative
    /// hash as the codeword dirty set).
    #[inline]
    pub fn shard_of(&self, region: RegionId) -> usize {
        (((region as u64).wrapping_mul(HASH_MUL)) >> 33) as usize & self.mask
    }

    /// Enqueue the directed byte delta of overwriting `old` with `new` at
    /// region-relative offset `rel` of `region`. Called by updaters under
    /// their shared protection-latch bracket, right next to the codeword
    /// delta push. Returns `true` when the shard is over its watermark
    /// and the caller should [`drain_shard`](Self::drain_shard) inline.
    pub fn record_delta(&self, region: RegionId, rel: usize, old: &[u8], new: &[u8]) -> bool {
        debug_assert_eq!(old.len(), new.len());
        debug_assert!(rel + new.len() <= self.region_size);
        let s = self.shard_of(region);
        let depth = {
            let mut map = self.shards[s].dirty.lock();
            let (entry, coalesced) = match map.entry(region) {
                std::collections::hash_map::Entry::Occupied(e) => (e.into_mut(), true),
                std::collections::hash_map::Entry::Vacant(v) => (
                    v.insert(PendingParity {
                        delta: vec![0u8; self.region_size],
                        pushes: 0,
                    }),
                    false,
                ),
            };
            for i in 0..new.len() {
                entry.delta[rel + i] ^= old[i] ^ new[i];
            }
            entry.pushes += 1;
            if coalesced {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            map.len() as u64
        };
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.delta_bytes
            .fetch_add(new.len() as u64, Ordering::Relaxed);
        self.watermark != 0 && depth as usize > self.watermark
    }

    /// Fold a coalesced region delta into its group: XOR the bytes into
    /// the parity buffer and move the maintained parity codeword by the
    /// algebra's directed delta (`combine(word, delta_of_folds(before,
    /// after))` — the same contract codeword maintenance uses, so a
    /// stale/corrupt word stays inconsistent and is caught by
    /// [`verify_group`](Self::verify_group)).
    fn apply_to_group(&self, region: RegionId, delta: &[u8]) {
        let g = self.group_of(region);
        let group = &self.groups[g];
        let mut buf = group.buf.lock();
        let before = algebra::fold(self.kind, &buf);
        for (b, d) in buf.iter_mut().zip(delta) {
            *b ^= d;
        }
        let after = algebra::fold(self.kind, &buf);
        let word = group.word.load(Ordering::Acquire);
        group.word.store(
            self.kind
                .combine(word, self.kind.delta_of_folds(before, after)),
            Ordering::Release,
        );
        group.dirty.store(true, Ordering::Release);
    }

    /// Drain one shard: swap its map out under the map mutex, apply the
    /// coalesced byte deltas to the group buffers outside it. Whole
    /// drains serialize on the shard's drain mutex, so a completed call
    /// means every delta pushed before it has reached the stripe.
    pub fn drain_shard(&self, shard: usize) {
        let _drain = self.shards[shard].draining.lock();
        let drained: ParityMap = {
            let mut map = self.shards[shard].dirty.lock();
            if map.is_empty() {
                return;
            }
            std::mem::take(&mut *map)
        };
        let mut pushes = 0u64;
        for (region, p) in drained {
            self.apply_to_group(region, &p.delta);
            pushes += p.pushes;
        }
        self.pending.fetch_sub(pushes, Ordering::Relaxed);
        self.drains.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain the shard holding `region`'s parity deltas.
    #[inline]
    pub fn drain_region(&self, region: RegionId) {
        self.drain_shard(self.shard_of(region));
    }

    /// Drain every shard covering the members of `group`, deduplicated.
    /// The caller holds the group's protection latches exclusively; on
    /// return the parity buffer reflects every update to the group.
    pub fn drain_group(&self, group: ParityGroupId) {
        let (first, last) = self.members(group);
        let mut shards: Vec<usize> = (first..=last).map(|r| self.shard_of(r)).collect();
        shards.sort_unstable();
        shards.dedup();
        for s in shards {
            self.drain_shard(s);
        }
    }

    /// Drain every shard, one at a time.
    pub fn drain_all(&self) {
        for s in 0..self.shards.len() {
            self.drain_shard(s);
        }
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
        out.copy_from_slice(&self.groups[g].buf.lock());
        let (first, last) = self.members(g);
        let mut sibling = vec![0u8; self.region_size];
        for r in first..=last {
            if r == exclude {
                continue;
            }
            image.read(geom.region_base(r), &mut sibling)?;
            for (o, s) in out.iter_mut().zip(&sibling) {
                *o ^= s;
            }
        }
        Ok(())
    }

    /// Rebuild the whole stripe from the image: zero every buffer, XOR
    /// every region's bytes into its group, recompute the parity
    /// codewords, and discard queued deltas (they are superseded, exactly
    /// like the codeword dirty set under
    /// [`crate::deferred::DeferredSet::clear`]). The caller quiesces
    /// updaters (recovery resync, initial build).
    pub fn resync(&self, image: &DbImage, geom: &RegionGeometry) -> Result<()> {
        for shard in self.shards.iter() {
            let _drain = shard.draining.lock();
            let dropped: ParityMap = std::mem::take(&mut *shard.dirty.lock());
            let pushes: u64 = dropped.values().map(|p| p.pushes).sum();
            self.pending.fetch_sub(pushes, Ordering::Relaxed);
        }
        let mut region = vec![0u8; self.region_size];
        for (g, group) in self.groups.iter().enumerate() {
            let mut buf = group.buf.lock();
            buf.fill(0);
            let (first, last) = self.members(g);
            for r in first..=last {
                image.read(geom.region_base(r), &mut region)?;
                for (b, s) in buf.iter_mut().zip(&region) {
                    *b ^= s;
                }
            }
            group
                .word
                .store(algebra::fold(self.kind, &buf), Ordering::Release);
            group.dirty.store(false, Ordering::Release);
        }
        Ok(())
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
        let grp = &self.groups[group];
        let mut buf = grp.buf.lock();
        buf.fill(0);
        let (first, last) = self.members(group);
        let mut region = vec![0u8; self.region_size];
        for r in first..=last {
            image.read(geom.region_base(r), &mut region)?;
            for (b, s) in buf.iter_mut().zip(&region) {
                *b ^= s;
            }
        }
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
        for (i, b) in bytes.iter().enumerate() {
            buf[rel + i] ^= b;
        }
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
        self.pending.load(Ordering::Relaxed)
    }

    /// Snapshot the gauges and lifetime counters.
    pub fn snapshot(&self) -> ParityStatsSnapshot {
        ParityStatsSnapshot {
            groups: self.groups.len() as u64,
            group_size: self.group_size as u64,
            pending_deltas: self.pending_deltas(),
            drains: self.drains.load(Ordering::Relaxed),
            coalesced_deltas: self.coalesced.load(Ordering::Relaxed),
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
