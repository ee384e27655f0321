//! Per-verb latency histograms for the event-driven server.
//!
//! Fixed log₂-nanosecond buckets: a latency of `t` ns lands in bucket
//! `floor(log2(t))` (bucket 0 holds `t <= 1`). Recording is one atomic
//! add on a fixed-size array — no allocation, no locking — so the
//! execution pool can stamp every response without contending. Snapshots
//! are sparse [`VerbMetrics`] rows, and merging two reports is bucketwise
//! addition, which lets a scraper aggregate across servers or intervals
//! without losing percentile fidelity beyond the 2× bucket width.
//!
//! Latency is measured from frame decode to response enqueue, so queue
//! wait in the execution pool is *included*: the histogram reflects what
//! the client experiences, not just verb CPU time.

use crate::protocol::{MetricsReport, VerbMetrics};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: covers 1 ns .. ~584 years.
pub const BUCKETS: usize = 64;

/// Number of tracked verbs (request tags 0..=16).
pub const VERBS: usize = 17;

/// One verb's distribution: 64 log₂-ns cells plus count/total.
struct VerbHistogram {
    count: AtomicU64,
    total_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl VerbHistogram {
    const fn new() -> VerbHistogram {
        // `AtomicU64` is not Copy; build the array element by element.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        VerbHistogram {
            count: ZERO,
            total_ns: ZERO,
            buckets: [ZERO; BUCKETS],
        }
    }

    fn record(&self, ns: u64) {
        let bucket = 63u32.saturating_sub(ns.max(1).leading_zeros()) as usize;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, verb: u8) -> Option<VerbMetrics> {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let buckets: Vec<(u8, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect();
        Some(VerbMetrics {
            verb,
            count,
            total_ns: self.total_ns.load(Ordering::Relaxed),
            buckets,
        })
    }
}

/// Lock-free per-verb latency histograms, one cell array per request tag.
pub struct LatencyHistograms {
    verbs: [VerbHistogram; VERBS],
}

impl Default for LatencyHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistograms {
    pub const fn new() -> LatencyHistograms {
        #[allow(clippy::declare_interior_mutable_const)]
        const V: VerbHistogram = VerbHistogram::new();
        LatencyHistograms { verbs: [V; VERBS] }
    }

    /// Record one completed request of verb `tag` taking `ns` nanoseconds.
    /// Unknown tags are dropped (a decode that produced an unknown tag
    /// never executes anyway).
    pub fn record(&self, tag: u8, ns: u64) {
        if let Some(v) = self.verbs.get(tag as usize) {
            v.record(ns);
        }
    }

    /// Sparse snapshot: one [`VerbMetrics`] row per verb with traffic,
    /// ascending by tag.
    pub fn report(&self, uptime_ns: u64) -> MetricsReport {
        MetricsReport {
            uptime_ns,
            verbs: (0..VERBS as u8)
                .filter_map(|tag| self.verbs[tag as usize].snapshot(tag))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        let h = LatencyHistograms::new();
        h.record(13, 0); // clamps to 1 → bucket 0
        h.record(13, 1); // bucket 0
        h.record(13, 2); // bucket 1
        h.record(13, 3); // bucket 1
        h.record(13, 1024); // bucket 10
        h.record(13, 1025); // bucket 10
        h.record(13, u64::MAX); // bucket 63
        let rep = h.report(99);
        assert_eq!(rep.uptime_ns, 99);
        let v = rep.verb(13).expect("ping row");
        assert_eq!(v.count, 7);
        assert_eq!(v.buckets, vec![(0, 2), (1, 2), (10, 2), (63, 1)]);
    }

    #[test]
    fn empty_verbs_are_omitted() {
        let h = LatencyHistograms::new();
        h.record(6, 100);
        let rep = h.report(0);
        assert_eq!(rep.verbs.len(), 1);
        assert_eq!(rep.verbs[0].verb, 6);
        assert!(rep.verb(13).is_none());
    }

    #[test]
    fn unknown_tags_dropped() {
        let h = LatencyHistograms::new();
        h.record(200, 100);
        assert!(h.report(0).verbs.is_empty());
    }

    #[test]
    fn quantiles_from_recorded_latencies() {
        let h = LatencyHistograms::new();
        // 99 fast ops (~1 µs) and one slow outlier (~1 ms).
        for _ in 0..99 {
            h.record(13, 1_000);
        }
        h.record(13, 1_000_000);
        let v = h.report(0).verb(13).unwrap().clone();
        // p50 in the 2^9..2^10 bucket → upper bound 2^10 = 1024 ns.
        assert_eq!(v.quantile(0.50), 1 << 10);
        // p99 still within the fast bucket (99 of 100 ops).
        assert_eq!(v.quantile(0.99), 1 << 10);
        // p100 catches the outlier: 2^19..2^20 → 2^20 ≈ 1.05 ms.
        assert_eq!(v.quantile(1.0), 1 << 20);
        assert_eq!(v.mean_ns(), (99 * 1_000 + 1_000_000) / 100);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistograms::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(13, i + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.report(0).verb(13).unwrap().count, 4_000);
    }
}
