//! The ledger's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` is generated
//! from these tables (`manifest`) and a test keeps the two identical.

use crate::stats::{Better, Json};
use dali_common::ProtectionScheme;

/// Default `--seed`; it feeds the generators only.
pub const DEFAULT_SEED: u64 = 0xDA11;
/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Paper §5.2 table sizes, 100-byte records.
pub const ACCOUNTS: usize = 100_000;
pub const TELLERS: usize = 10_000;
pub const BRANCHES: usize = 1_000;

/// The shape of a workload's timed slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// TPC-B operations in one thread, a checkpoint ending every slice.
    Tpcb,
    /// 95 % reads, 5 % updates over the accounts, no checkpoints.
    ReadMostly,
    /// Restore a crashed database directory, time `DaliEngine::open`.
    CrashRecover,
    /// Four loopback connections, `txns_per_batch` transactions pipelined
    /// per round trip.
    Net { txns_per_batch: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layer does the work here.
    pub why: &'static str,
    pub kind: Kind,
    pub scheme: ProtectionScheme,
    /// fsync the log at commit. The flush policy is part of a workload's
    /// definition and identical on both sides of any comparison.
    pub sync_commit: bool,
    /// Operations in one timed slice. Slices are operation counts, not
    /// durations, so per-operation counts repeat exactly; `--seconds`
    /// decides how many slices run.
    pub slice_ops: usize,
    pub ops_per_txn: usize,
}

/// Frames of one networked transaction:
/// `[Begin, 3 x (Read, Update), Insert, Commit]`.
pub const FRAMES_PER_NET_TXN: usize = 9;

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "tpcb-baseline",
        why: "Engine, locks, heap and WAL append do all the work and dali-codeword none: the bypass workload for every codeword change and the denominator of the paper's Table 2.",
        kind: Kind::Tpcb,
        scheme: ProtectionScheme::Baseline,
        sync_commit: false,
        slice_ops: 20_000,
        ops_per_txn: 500,
    },
    WorkloadSpec {
        name: "tpcb-datacw",
        why: "The paper's headline row: adds apply_update (latch, delta fold, table combine) to every update and a certification audit to every checkpoint.",
        kind: Kind::Tpcb,
        scheme: ProtectionScheme::DataCodeword,
        sync_commit: false,
        slice_ops: 20_000,
        ops_per_txn: 500,
    },
    WorkloadSpec {
        name: "read-precheck",
        why: "dali-codeword the other way round: a 64-byte fold under an exclusive latch on every read (checked_read) and almost no log traffic.",
        kind: Kind::ReadMostly,
        scheme: ProtectionScheme::ReadPrecheck,
        sync_commit: false,
        slice_ops: 200_000,
        ops_per_txn: 500,
    },
    WorkloadSpec {
        name: "net-durable",
        why: "One round trip plus one fsync per transaction over loopback: dali-wal flush and group commit dominate, the wire codec is a small share.",
        kind: Kind::Net { txns_per_batch: 1 },
        scheme: ProtectionScheme::DataCodeword,
        sync_commit: true,
        slice_ops: 600,
        ops_per_txn: 1,
    },
    WorkloadSpec {
        name: "net-pipelined",
        why: "54 frames per round trip and no fsync: CPU-bound in dali-net decode, encode, loop dispatch and the exec FIFO; a fsync-path change must show nothing here.",
        kind: Kind::Net { txns_per_batch: 6 },
        scheme: ProtectionScheme::DataCodeword,
        sync_commit: false,
        slice_ops: 3_000,
        ops_per_txn: 1,
    },
    WorkloadSpec {
        name: "crash-recover",
        why: "Restart after a crash: the only workload that runs SystemLog::scan_stable, frame decode, redo bucketing and the post-recovery resync.",
        kind: Kind::CrashRecover,
        scheme: ProtectionScheme::DataCodeword,
        sync_commit: false,
        slice_ops: 50_000,
        ops_per_txn: 500,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A gated metric: what a user of the system would see.
///
/// A bound belongs to a metric, not to a (workload, metric) pair, so the
/// noisiest workload sets it: on this shared two-vCPU host the `net-*`
/// workloads spread about 7 % between runs, and a bound must leave three
/// times the spread. `SPREADS.md` records the spread of every pair; the
/// single-threaded workloads repeat within 2-5 % and a reviewer can hold
/// them to that.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const OPS_PER_S: &str = "ops_per_s";
pub const CPU_US_PER_OP: &str = "cpu_us_per_op";
pub const TXN_P50_US: &str = "txn_p50_us";
pub const SETUP_S: &str = "setup_s";

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: CPU_US_PER_OP,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: TXN_P50_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// An ungated metric of one layer (a crate), or a count read from the
/// public stats snapshots.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 46] = [
    // Cells: a public function timed in a tight loop at the sizes the
    // workloads use.
    layer("cw.fold64_xor_ns", "ns", Lower),
    layer("cw.fold64_residue_ns", "ns", Lower),
    layer("cw.fold8k_xor_gib_s", "GiB/s", Higher),
    layer("cw.fold8k_residue_gib_s", "GiB/s", Higher),
    layer("cw.apply_update_ns", "ns", Lower),
    layer("cw.latch_span_ns", "ns", Lower),
    layer("cw.checked_read_ns", "ns", Lower),
    layer("cw.audit_mib_s", "MiB/s", Higher),
    layer("wal.encode_ns", "ns", Lower),
    layer("wal.locallog_push_ns", "ns", Lower),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.flush_us", "us", Lower),
    layer("wal.fsync_us", "us", Lower),
    layer("wal.scan_mib_s", "MiB/s", Higher),
    layer("eng.lock_ns", "ns", Lower),
    layer("mem.protect_pair_us", "us", Lower),
    layer("net.encode_ns", "ns", Lower),
    layer("net.decode_ns", "ns", Lower),
    layer("net.ping_rtt_us", "us", Lower),
    // Spans around the driver's own calls in the traced slice; 0 for a
    // verb the workload never calls.
    layer("eng.begin_ns", "ns", Lower),
    layer("eng.read_ns", "ns", Lower),
    layer("eng.update_ns", "ns", Lower),
    layer("eng.insert_ns", "ns", Lower),
    layer("eng.delete_ns", "ns", Lower),
    layer("eng.commit_us", "us", Lower),
    layer("eng.checkpoint_ms", "ms", Lower),
    layer("eng.open_ms", "ms", Lower),
    layer("net.batch_rtt_us", "us", Lower),
    // The server's own per-verb histograms (`Metrics` verb); 0 in process.
    layer("net.srv_update_p50_us", "us", Lower),
    layer("net.srv_update_p99_us", "us", Lower),
    layer("net.srv_commit_p50_us", "us", Lower),
    layer("net.srv_commit_p99_us", "us", Lower),
    // Counts over the traced slice, from the public stats snapshots.
    layer("cw.regions_audited_per_ckpt", "count", Lower),
    layer("cw.bytes_folded_per_op", "B", Lower),
    layer("cw.space_overhead_pct", "%", Lower),
    layer("wal.log_bytes_per_op", "B", Lower),
    layer("wal.fsyncs_per_txn", "count", Lower),
    layer("wal.durable_commits_per_txn", "count", Lower),
    layer("net.frames_per_round_trip", "count", Higher),
    layer("net.frames_pipelined_per_txn", "count", Higher),
    layer("net.read_parks", "count", Lower),
    layer("net.exec_queue_depth_max", "count", Lower),
    layer("net.loop_iterations_per_txn", "count", Lower),
    // Reported beside the end-to-end metrics, ungated: they did not
    // repeat within a tenth when probed.
    layer("txn_p99_us", "us", Lower),
    layer("recover_s", "s", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
    }

    #[test]
    fn setup_time_is_gated_with_the_widest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = crate::util::bench_dir().join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert_eq!(
            on_disk,
            manifest().render_pretty(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
