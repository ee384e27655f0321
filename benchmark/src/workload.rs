//! What the harness asks of a workload.

use crate::bank::Gate;
use crate::spec::WorkloadSpec;
use crate::stats::Json;
use crate::trace::Probe;
use dali_common::Result;
use dali_engine::DaliEngine;
use dali_net::{MetricsReport, ServerStats};
use std::sync::atomic::Ordering;

/// One timed slice: a fixed number of operations.
#[derive(Clone, Copy, Debug)]
pub struct SliceTime {
    pub ops: u64,
    pub wall_s: f64,
    /// Process CPU over the slice (on the `net-*` workloads this includes
    /// the in-process clients).
    pub cpu_s: f64,
}

impl SliceTime {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.ops as f64
    }
}

/// Monotonic counts read from the public stats snapshots; per-layer
/// count metrics are differences of two of these around one slice.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// End of the system log: its growth is the log bytes written.
    pub lsn: u64,
    pub commits: u64,
    pub checkpoints: u64,
    pub regions_audited: u64,
    pub bytes_folded: u64,
    pub fsyncs: u64,
    pub durable_commits: u64,
    /// The `Stats` verb's snapshot, on workloads that run a server.
    pub server: Option<ServerStats>,
}

impl Counters {
    pub fn of_engine(engine: &DaliEngine) -> Result<Counters> {
        let stats = engine.stats();
        let log = engine.log_stats();
        Ok(Counters {
            lsn: engine.current_lsn()?.0,
            commits: stats.commits.load(Ordering::Relaxed),
            checkpoints: stats.checkpoints.load(Ordering::Relaxed),
            regions_audited: stats.regions_audited.load(Ordering::Relaxed),
            bytes_folded: stats.bytes_folded.load(Ordering::Relaxed),
            fsyncs: log.fsyncs,
            durable_commits: log.durable_commits,
            server: None,
        })
    }
}

pub trait Workload: Sized {
    /// Load threads (and tracer lanes) the workload drives.
    const LANES: usize;

    /// Create, populate and warm up: everything before the first timed
    /// operation. `seed` feeds the generator only.
    fn setup(spec: &'static WorkloadSpec, seed: u64) -> Result<Self>;

    /// Run one timed slice, reporting every call into the system under
    /// test to `lanes[thread]`.
    fn slice<P: Probe + Send>(&mut self, lanes: &mut [P]) -> Result<SliceTime>;

    /// Untimed housekeeping after a slice, outside the counters taken
    /// around it: whatever returns the database to the state the next
    /// slice expects.
    fn tidy<P: Probe + Send>(&mut self, _lanes: &mut [P]) -> Result<()> {
        Ok(())
    }

    /// Caller-side transaction latencies (ns) recorded since the last
    /// call.
    fn take_latencies(&mut self) -> Vec<u64>;

    fn counters(&mut self) -> Result<Counters>;

    /// The server's per-verb histograms, on workloads that run a server.
    fn server_metrics(&mut self) -> Result<Option<MetricsReport>> {
        Ok(None)
    }

    /// Upper bound on the spans one lane records in one slice.
    fn spans_per_slice(&self) -> usize;

    fn engine(&self) -> &DaliEngine;

    /// Workload-specific facts for the result record.
    fn facts(&self) -> Json {
        Json::obj::<&str>([])
    }

    /// Stop, run the correctness gate, and remove the scratch directory.
    fn finish(self) -> Result<Gate>;
}
