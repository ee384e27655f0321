//! The sharded, coalescing delta set: one implementation, two payloads.
//!
//! Deferred codeword maintenance (§4.3 extension) queues a region's `u32`
//! codeword delta instead of applying it at `endUpdate`; the parity
//! stripe ([`crate::parity`]) queues the region-sized `old ⊕ new` byte
//! delta every updater hands it. Both ride `DeferredSet<P>`, generic
//! over the pending payload `P`:
//!
//! * The set is split into `shards` (power of two, region-hash
//!   partitioned) so concurrent updaters almost never contend on the
//!   same mutex.
//! * Deltas *coalesce*: both payloads form commutative groups (the
//!   codeword algebra's `combine`, byte-wise XOR), so N updates to a hot
//!   region cost one map entry and one apply at drain time.
//! * Drains are *incremental*: a drain swaps one shard's map out under
//!   its map mutex and applies the payloads outside it. An audit or
//!   repair of `first..=last` latches the span exclusively and drains
//!   only the shards covering it (`DeferredSet::drain_span`); it never
//!   quiesces writers globally.
//!
//! Lock ordering: protection latches → per-shard drain mutex → per-shard
//! map mutex → (parity) group buffer. Updaters push while holding their
//! shared latch span; auditors drain while holding the exclusive one;
//! no shard mutex is held while acquiring a latch, so the order is
//! acyclic. Pushes take only the map mutex; drains take the drain mutex
//! for the whole swap+apply so that a completed drain means *applied*,
//! not merely *swapped out* (the audit catch-up guarantee).

use crate::region::RegionId;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fibonacci multiplicative-hash constant (same idiom as the lock-table
/// shards): odd, so multiplication permutes `u64`, and high bits mix
/// well for sequential region ids.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimal multiplicative hasher for `RegionId` keys. Region ids are
/// small sequential integers; SipHash (the `HashMap` default) is
/// pointless overhead on the update hot path.
#[derive(Default)]
struct RegionHasher(u64);

impl Hasher for RegionHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold high bits down: the multiply mixes upward, HashMap
        // buckets index with the low bits.
        self.0 ^ (self.0 >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(HASH_MUL);
        }
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = (self.0 ^ i as u64).wrapping_mul(HASH_MUL);
    }
}

/// Sizing knobs for a delta set (mirrored by `DaliConfig`).
#[derive(Clone, Copy, Debug)]
pub struct DeferredConfig {
    /// Shard count; rounded up to a power of two. `0` = auto: one per
    /// available CPU, with a floor of 4 (contention is driven by writer
    /// *threads*, which may oversubscribe a small host).
    pub shards: usize,
    /// Per-shard dirty-region high-watermark: a push that leaves its
    /// shard deeper than this asks its caller to drain the shard inline
    /// (backpressure so an idle drainer cannot let the set grow without
    /// bound). `0` = unbounded.
    pub watermark: usize,
}

impl Default for DeferredConfig {
    fn default() -> DeferredConfig {
        DeferredConfig {
            shards: 0,
            watermark: 4096,
        }
    }
}

/// Point-in-time view of a delta set and its lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeferredStatsSnapshot {
    /// Number of shards.
    pub shards: u64,
    /// Distinct regions currently dirty (map entries across shards).
    pub dirty_regions: u64,
    /// Raw deltas currently queued (before coalescing).
    pub pending_deltas: u64,
    /// Lifetime: non-empty shard drains performed.
    pub drains: u64,
    /// Lifetime: pushes absorbed into an existing entry (the savings
    /// coalescing bought over a flat queue).
    pub coalesced_deltas: u64,
    /// High-watermark of any shard's dirty-region depth.
    pub max_shard_depth: u64,
}

/// One dirty region's coalesced payload and the raw pushes it absorbed.
struct Pending<P> {
    delta: P,
    pushes: u64,
}

struct Shard<P> {
    dirty: Mutex<HashMap<RegionId, Pending<P>, BuildHasherDefault<RegionHasher>>>,
    /// Serializes whole drains (swap **and** apply). Without it a
    /// drainer could swap the map out and still be applying its payloads
    /// when an auditor — already holding a region's exclusive latch —
    /// drains the now-empty shard and folds the image against state that
    /// does not yet include the in-flight deltas: a false corruption
    /// report. Pushes never touch this mutex, so writers are not blocked
    /// by the apply phase.
    draining: Mutex<()>,
}

/// The sharded, coalescing set of per-region pending payloads `P`.
pub(crate) struct DeferredSet<P> {
    shards: Box<[Shard<P>]>,
    /// `shards.len() - 1`; shard index = mixed hash masked.
    mask: usize,
    watermark: usize,
    /// Raw deltas currently queued (pushes minus drained pushes).
    pending: AtomicU64,
    drains: AtomicU64,
    coalesced: AtomicU64,
    max_depth: AtomicU64,
}

impl<P> DeferredSet<P> {
    /// Build a set per `cfg` (see [`DeferredConfig`] for the `shards = 0`
    /// auto rule).
    pub(crate) fn new(cfg: DeferredConfig) -> DeferredSet<P> {
        let n = match cfg.shards {
            0 => std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .max(4),
            n => n,
        }
        .next_power_of_two();
        DeferredSet {
            shards: (0..n)
                .map(|_| Shard {
                    dirty: Mutex::new(HashMap::default()),
                    draining: Mutex::new(()),
                })
                .collect(),
            mask: n - 1,
            watermark: cfg.watermark,
            pending: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
        }
    }

    /// The shard a region's deltas land in.
    #[inline]
    pub(crate) fn shard_of(&self, region: RegionId) -> usize {
        (((region as u64).wrapping_mul(HASH_MUL)) >> 33) as usize & self.mask
    }

    /// Queue a delta against `region`: `absorb` coalesces it into the
    /// region's pending payload, `fresh` builds the payload of a region
    /// not yet dirty. Returns `true` if the shard is now over its
    /// high-watermark and the caller should drain it.
    #[inline]
    pub(crate) fn push(
        &self,
        region: RegionId,
        fresh: impl FnOnce() -> P,
        absorb: impl FnOnce(&mut P),
    ) -> bool {
        let (depth, coalesced) = {
            let mut map = self.shards[self.shard_of(region)].dirty.lock();
            let coalesced = match map.entry(region) {
                Entry::Occupied(mut e) => {
                    let p = e.get_mut();
                    absorb(&mut p.delta);
                    p.pushes += 1;
                    true
                }
                Entry::Vacant(v) => {
                    v.insert(Pending {
                        delta: fresh(),
                        pushes: 1,
                    });
                    false
                }
            };
            (map.len() as u64, coalesced)
        };
        // Counters outside the shard lock: they are monotonic
        // diagnostics, not part of the dirty-set invariant.
        self.pending.fetch_add(1, Ordering::Relaxed);
        if coalesced {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        if depth > self.max_depth.load(Ordering::Relaxed) {
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
        }
        self.watermark != 0 && depth as usize > self.watermark
    }

    /// Drain one shard: swap its map out under the map mutex, `apply`
    /// each coalesced payload outside it (a pusher that races the swap
    /// lands its delta in the fresh map, still strictly after its image
    /// bytes, so the maintained state only ever *lags* the image by what
    /// remains queued). Concurrent drains of the same shard serialize on
    /// the drain mutex: when this returns, every delta pushed before the
    /// call — including any swapped out by a racing drainer — has been
    /// applied.
    fn drain_shard(&self, shard: usize, apply: &mut impl FnMut(RegionId, P)) {
        let shard = &self.shards[shard];
        let _drain = shard.draining.lock();
        let drained = {
            let mut map = shard.dirty.lock();
            if map.is_empty() {
                return;
            }
            std::mem::take(&mut *map)
        };
        let mut pushes = 0u64;
        for (region, p) in drained {
            apply(region, p.delta);
            pushes += p.pushes;
        }
        self.pending.fetch_sub(pushes, Ordering::Relaxed);
        self.drains.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain every shard covering regions `first..=last`, each once. A
    /// caller holding the span's protection latches exclusively sees,
    /// on return, state that includes every delta for the span (updaters
    /// hold the latch shared across write+push, so none is in flight).
    pub(crate) fn drain_span(
        &self,
        first: RegionId,
        last: RegionId,
        mut apply: impl FnMut(RegionId, P),
    ) {
        let mut shards: Vec<usize> = (first..=last).map(|r| self.shard_of(r)).collect();
        shards.sort_unstable();
        shards.dedup();
        for s in shards {
            self.drain_shard(s, &mut apply);
        }
    }

    /// Drain every shard, one at a time (no global quiesce).
    pub(crate) fn drain_all(&self, mut apply: impl FnMut(RegionId, P)) {
        for s in 0..self.shards.len() {
            self.drain_shard(s, &mut apply);
        }
    }

    /// Discard every queued delta without applying (resync: the state is
    /// about to be rebuilt from the image, superseding them). Takes each
    /// drain mutex so an in-flight drain's apply phase lands *before* the
    /// rebuild, never after.
    pub(crate) fn clear(&self) {
        for shard in self.shards.iter() {
            let _drain = shard.draining.lock();
            let dropped = std::mem::take(&mut *shard.dirty.lock());
            let pushes: u64 = dropped.values().map(|p| p.pushes).sum();
            self.pending.fetch_sub(pushes, Ordering::Relaxed);
        }
    }

    /// The ids of the currently dirty regions, sorted ascending. The
    /// snapshot is per-shard (no global freeze): a region pushed while
    /// this walks may or may not appear, which is fine for the delta-
    /// certification caller — any delta pushed after the checkpoint's
    /// quiesce point belongs to the *next* certification, and the audit
    /// drains each covered shard under the region latch regardless.
    pub(crate) fn dirty_region_ids(&self) -> Vec<RegionId> {
        let mut ids: Vec<RegionId> = self
            .shards
            .iter()
            .flat_map(|s| s.dirty.lock().keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Snapshot the gauges and lifetime counters.
    pub(crate) fn snapshot(&self) -> DeferredStatsSnapshot {
        DeferredStatsSnapshot {
            shards: self.shards.len() as u64,
            dirty_regions: self
                .shards
                .iter()
                .map(|s| s.dirty.lock().len() as u64)
                .sum(),
            pending_deltas: self.pending.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            coalesced_deltas: self.coalesced.load(Ordering::Relaxed),
            max_shard_depth: self.max_depth.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::CodewordTable;
    use dali_common::CodewordAlgebraKind;

    /// The codeword payload exactly as `CodewordProtection` drives it.
    struct Codewords {
        set: DeferredSet<u32>,
        table: CodewordTable,
    }

    impl Codewords {
        fn new(shards: usize, watermark: usize, kind: CodewordAlgebraKind) -> Codewords {
            Codewords {
                set: DeferredSet::new(DeferredConfig { shards, watermark }),
                table: CodewordTable::new_zeroed(64, kind),
            }
        }

        fn push(&self, region: RegionId, delta: u32) -> bool {
            let kind = self.table.kind();
            self.set
                .push(region, || delta, |d| *d = kind.combine(*d, delta))
        }

        fn drain(&self, first: RegionId, last: RegionId) {
            self.set
                .drain_span(first, last, |r, d| self.table.apply_delta(r, d));
        }

        fn drain_all(&self) {
            self.set.drain_all(|r, d| self.table.apply_delta(r, d));
        }
    }

    fn xor(shards: usize, watermark: usize) -> Codewords {
        Codewords::new(shards, watermark, CodewordAlgebraKind::XorFold)
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let shards = |n| {
            DeferredSet::<u32>::new(DeferredConfig {
                shards: n,
                watermark: 0,
            })
            .snapshot()
            .shards
        };
        assert_eq!(shards(1), 1);
        assert_eq!(shards(3), 4);
        assert_eq!(shards(8), 8);
        let auto = shards(0);
        assert!(auto >= 4 && auto.is_power_of_two());
    }

    #[test]
    fn push_coalesces_per_region() {
        let d = xor(4, 0);
        d.push(7, 0xaaaa);
        d.push(7, 0x5555);
        d.push(9, 0x1111);
        let snap = d.set.snapshot();
        assert_eq!(snap.dirty_regions, 2);
        assert_eq!(snap.pending_deltas, 3);
        assert_eq!(snap.coalesced_deltas, 1);
        assert!(snap.max_shard_depth >= 1);
    }

    #[test]
    fn drain_applies_coalesced_delta_once() {
        let d = xor(2, 0);
        d.push(5, 0xff00);
        d.push(5, 0x00ff);
        d.drain(5, 5);
        assert_eq!(d.table.get(5), 0xffff);
        let snap = d.set.snapshot();
        assert_eq!(
            (snap.dirty_regions, snap.pending_deltas, snap.drains),
            (0, 0, 1)
        );
        // Second drain of an empty shard is a no-op and not counted.
        d.drain(5, 5);
        assert_eq!(d.set.snapshot().drains, 1);
    }

    #[test]
    fn drain_span_leaves_other_shards_queued() {
        let d = xor(8, 0);
        // Find two regions hashing to different shards.
        let a = 0;
        let b = (1..64)
            .find(|&r| d.set.shard_of(r) != d.set.shard_of(a))
            .expect("some region maps to another shard");
        d.push(a, 1);
        d.push(b, 2);
        d.drain(a, a);
        assert_eq!(d.table.get(a), 1);
        assert_eq!(d.table.get(b), 0, "other shard untouched");
        assert_eq!(d.set.snapshot().dirty_regions, 1);
        d.drain_all();
        assert_eq!(d.table.get(b), 2);
        assert_eq!(d.set.snapshot().dirty_regions, 0);
    }

    #[test]
    fn drain_span_drains_each_covering_shard_once() {
        let d = xor(4, 0);
        for r in 0..16 {
            d.push(r, 1 << r);
        }
        d.drain(2, 13);
        for r in 2..=13 {
            assert_eq!(d.table.get(r), 1 << r, "region {r}");
        }
        // 12 regions over 4 shards: every shard drained, each once.
        let snap = d.set.snapshot();
        assert_eq!(
            (snap.drains, snap.dirty_regions, snap.pending_deltas),
            (4, 0, 0)
        );
    }

    #[test]
    fn watermark_signals_overflow() {
        let d = xor(1, 2);
        assert!(!d.push(1, 1));
        assert!(!d.push(2, 1));
        assert!(d.push(3, 1), "third distinct region exceeds watermark 2");
        // Coalescing pushes do not deepen the shard.
        assert!(d.push(3, 5));
    }

    #[test]
    fn dirty_region_ids_sorted_across_shards() {
        let d = xor(4, 0);
        for r in [9usize, 1, 30, 9, 17] {
            d.push(r, 0xff);
        }
        assert_eq!(d.set.dirty_region_ids(), vec![1, 9, 17, 30]);
        d.drain_all();
        assert!(d.set.dirty_region_ids().is_empty());
    }

    #[test]
    fn residue_coalescing_matches_sequential_application() {
        // The deferred-shard invariant under the residue algebra: N
        // coalesced pushes drain to the same codeword as N eager
        // apply_delta calls.
        let kind = CodewordAlgebraKind::Residue;
        let d = Codewords::new(2, 0, kind);
        let eager = CodewordTable::new_zeroed(16, kind);
        for x in [0xFFFF_FFF0u32, 0x20, 1, 0x8000_0000, 0x7FFF_FFFF] {
            d.push(5, x);
            eager.apply_delta(5, x);
        }
        d.drain(5, 5);
        assert_eq!(d.table.get(5), eager.get(5));
        assert_eq!(d.set.snapshot().pending_deltas, 0);
    }

    #[test]
    fn clear_discards_without_applying() {
        let d = xor(2, 0);
        d.push(1, 0xdead);
        d.set.clear();
        let snap = d.set.snapshot();
        assert_eq!(
            (snap.pending_deltas, snap.dirty_regions, snap.drains),
            (0, 0, 0)
        );
        d.drain_all();
        assert_eq!(d.table.get(1), 0, "cleared delta must not apply");
    }
}
