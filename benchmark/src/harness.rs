//! Set up, slice, trace, gate: the part every workload shares.

use crate::bank::Gate;
use crate::cells;
use crate::spec::{self, Kind, WorkloadSpec, FRAMES_PER_NET_TXN};
use crate::stats::{good_decile, median, Better, Json, Latency};
use crate::trace::{self, TraceSummary, Tracer, Untraced, Verb};
use crate::util;
use crate::workload::{Counters, SliceTime, Workload};
use dali_common::{RecId, Result, SlotId, TableId};
use dali_net::{MetricsReport, Request};
use std::time::{Duration, Instant};

/// Which metrics a run produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the end-to-end metrics, tracer off.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics from traced slices and cells.
    Layers,
    /// No `--trace`: both, one after the other on one database.
    Both,
}

#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed slices a run reports the good decile of.
const MIN_SLICES: usize = 10;
/// Fewest untraced/traced slice pairs behind `trace_overhead_pct`.
const MIN_TRACE_PAIRS: usize = 2;
/// Share of `--seconds` a traced run spends on slices; cells get the rest.
const TRACED_SLICE_SHARE: f64 = 0.5;

/// Everything one workload's run produced.
pub struct Outcome {
    pub spec: &'static WorkloadSpec,
    pub gate: Gate,
    /// `(name, value)` in `spec::END_TO_END` order; empty under `Layers`.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// `(name, value)` in `spec::PER_LAYER` order; empty under `EndToEnd`.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Sample counts, configuration and the trace summary.
    pub detail: Json,
}

struct Slices {
    times: Vec<SliceTime>,
    /// Median transaction latency of each slice, ns.
    txn_p50: Vec<f64>,
    /// Every transaction latency of every slice, ns.
    latencies: Vec<u64>,
}

impl Slices {
    fn new() -> Slices {
        Slices {
            times: Vec::new(),
            txn_p50: Vec::new(),
            latencies: Vec::new(),
        }
    }

    fn record(&mut self, time: SliceTime, mut latencies: Vec<u64>) {
        self.times.push(time);
        self.txn_p50.push(Latency::of(&mut latencies).p50 as f64);
        self.latencies.append(&mut latencies);
    }

    fn ops_per_s(&self) -> f64 {
        good_decile(&self.map(SliceTime::ops_per_s), Better::Higher)
    }

    fn cpu_us_per_op(&self) -> f64 {
        good_decile(&self.map(SliceTime::cpu_us_per_op), Better::Lower)
    }

    fn txn_p50_us(&self) -> f64 {
        good_decile(&self.txn_p50, Better::Lower) / 1e3
    }

    fn map(&self, f: impl Fn(&SliceTime) -> f64) -> Vec<f64> {
        self.times.iter().map(f).collect()
    }
}

pub fn run<W: Workload>(spec: &'static WorkloadSpec, opts: Opts) -> Result<Outcome> {
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut untraced: Vec<Untraced> = (0..W::LANES).map(|_| Untraced).collect();

    // Set-up, several times when it is being measured: the first one in
    // a process also pays for cold page tables and file-system caches.
    let setups = if opts.mode == Mode::Layers {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_s = Vec::with_capacity(setups);
    let mut w = None;
    for _ in 0..setups {
        drop(w.take());
        let start = Instant::now();
        w = Some(W::setup(spec, opts.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");

    let mut detail = vec![
        ("seed", Json::Int(opts.seed)),
        ("nproc", Json::Int(util::nproc() as u64)),
        ("git_rev", Json::str(util::git_rev())),
        ("config", config_json(spec, &w)),
    ];

    let mut plain = Slices::new();
    let mut end_to_end = Vec::new();
    if opts.mode != Mode::Layers {
        let start = Instant::now();
        while plain.times.len() < MIN_SLICES || start.elapsed() < budget {
            let time = w.slice(&mut untraced)?;
            plain.record(time, w.take_latencies());
            w.tidy(&mut untraced)?;
        }
        end_to_end = vec![
            (spec::OPS_PER_S, plain.ops_per_s()),
            (spec::CPU_US_PER_OP, plain.cpu_us_per_op()),
            (spec::TXN_P50_US, plain.txn_p50_us()),
            (spec::SETUP_S, median(&setup_s)),
        ];
        let nums = |values: Vec<f64>| Json::Arr(values.into_iter().map(Json::Num).collect());
        detail.push((
            "samples",
            Json::obj([
                ("setups", Json::Int(setups as u64)),
                ("slices", Json::Int(plain.times.len() as u64)),
                ("txn_latencies", Json::Int(plain.latencies.len() as u64)),
                ("slice_ops_per_s", nums(plain.map(SliceTime::ops_per_s))),
                (
                    "slice_cpu_us_per_op",
                    nums(plain.map(SliceTime::cpu_us_per_op)),
                ),
                (
                    "slice_txn_p50_us",
                    nums(plain.txn_p50.iter().map(|ns| ns / 1e3).collect()),
                ),
            ]),
        ));
    }

    let mut per_layer = Vec::new();
    if opts.mode != Mode::EndToEnd {
        let traced = traced_slices(
            spec,
            &mut w,
            &mut untraced,
            &mut plain,
            budget.mul_f64(TRACED_SLICE_SHARE),
        )?;
        let cell_budget = budget.mul_f64(1.0 - TRACED_SLICE_SHARE);
        let cell_values = cells::run_all(cell_budget)?;
        per_layer = layer_metrics(spec, &w, &plain, &traced, &cell_values);
        detail.push(("trace", traced.summary_json(spec)));
    }

    let gate = w.finish()?;
    Ok(Outcome {
        spec,
        gate,
        end_to_end,
        per_layer,
        detail: Json::obj(detail),
    })
}

fn config_json<W: Workload>(spec: &WorkloadSpec, w: &W) -> Json {
    let c = w.engine().config();
    Json::obj([
        ("scheme", Json::str(format!("{:?}", c.scheme))),
        ("region_size", Json::Int(c.region_size as u64)),
        ("algebra", Json::str(c.codeword_algebra.label())),
        ("parity_group_size", Json::Int(c.parity_group_size as u64)),
        ("sync_commit", Json::Bool(c.sync_commit)),
        (
            "commit_window_us",
            Json::Int(c.commit_window.as_micros() as u64),
        ),
        ("ops_per_slice", Json::Int(spec.slice_ops as u64)),
        ("ops_per_txn", Json::Int(spec.ops_per_txn as u64)),
        ("load_threads", Json::Int(W::LANES as u64)),
        ("facts", w.facts()),
    ])
}

/// What the traced part of a run measured.
struct Traced {
    /// Traced slices, to set against the untraced ones run in between.
    slices: Slices,
    summary: TraceSummary,
    /// Counter growth over the first traced slice.
    before: Counters,
    after: Counters,
    metrics: Option<MetricsReport>,
    trace_file: std::path::PathBuf,
}

impl Traced {
    fn summary_json(&self, spec: &WorkloadSpec) -> Json {
        Json::obj([
            ("file", Json::str(self.trace_file.display().to_string())),
            ("spans", Json::Int(self.summary.spans)),
            ("spans_dropped", Json::Int(self.summary.dropped)),
            ("verbs", self.summary.to_json(spec.slice_ops as u64)),
        ])
    }
}

/// Alternate untraced and traced slices for `budget`, keep the first
/// traced slice's counter growth and the last one's spans, and write the
/// trace file.
fn traced_slices<W: Workload>(
    spec: &WorkloadSpec,
    w: &mut W,
    untraced: &mut [Untraced],
    plain: &mut Slices,
    budget: Duration,
) -> Result<Traced> {
    let epoch = Instant::now();
    let mut lanes: Vec<Tracer> = (0..W::LANES)
        .map(|lane| Tracer::new(lane as u32, epoch, w.spans_per_slice()))
        .collect();
    let mut slices = Slices::new();
    let (mut before, mut after) = (Counters::default(), Counters::default());
    while slices.times.len() < MIN_TRACE_PAIRS || epoch.elapsed() < budget {
        let time = w.slice(untraced)?;
        plain.record(time, w.take_latencies());
        w.tidy(untraced)?;
        lanes.iter_mut().for_each(Tracer::clear);
        // Counts come from the first traced slice: under `--trace 1` it
        // is the same slice of the same log on every run of a seed, so
        // even the fsyncs of segment rolls repeat exactly.
        let first = slices.times.is_empty();
        if first {
            before = w.counters()?;
        }
        let time = w.slice(&mut lanes)?;
        if first {
            after = w.counters()?;
        }
        slices.record(time, w.take_latencies());
        w.tidy(&mut lanes)?;
    }
    let metrics = w.server_metrics()?;
    let trace_file = util::bench_dir()
        .join("results")
        .join(format!("trace-{}.jsonl", spec.name));
    trace::write_jsonl(&trace_file, &lanes)?;
    Ok(Traced {
        slices,
        summary: TraceSummary::of(&lanes),
        before,
        after,
        metrics,
        trace_file,
    })
}

/// Every per-layer metric, in `spec::PER_LAYER` order. A metric the
/// workload does not exercise reads 0, which is itself the statement
/// that the layer did no work here.
fn layer_metrics<W: Workload>(
    spec: &WorkloadSpec,
    w: &W,
    plain: &Slices,
    traced: &Traced,
    cell_values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let ops = spec.slice_ops as f64;
    let (b, a) = (&traced.before, &traced.after);
    let grew = |f: fn(&Counters) -> u64| (f(a) - f(b)) as f64;
    let txns = grew(|c| c.commits).max(1.0);
    let ckpts = grew(|c| c.checkpoints);
    let span_ns = |verb: Verb| traced.summary.verb(verb).per_call_ns();
    let srv = |f: fn(&dali_net::ServerStats) -> u64| match (&b.server, &a.server) {
        (Some(b), Some(a)) => (f(a) - f(b)) as f64,
        _ => 0.0,
    };
    let verb_us = |tag: u8, q: f64| {
        traced
            .metrics
            .as_ref()
            .and_then(|m| m.verb(tag))
            .map_or(0.0, |v| v.quantile(q) as f64 / 1e3)
    };
    let update_tag = Request::Update {
        rec: RecId::new(TableId(0), SlotId(0)),
        data: Vec::new(),
    }
    .tag();
    let commit_tag = Request::Commit.tag();
    let round_trips = traced.summary.verb(Verb::Batch).calls as f64;
    let mut lat = plain.latencies.clone();
    let p99 = Latency::of(&mut lat).p99;

    let mut values: Vec<(&'static str, f64)> = cell_values.to_vec();
    values.extend([
        ("eng.begin_ns", span_ns(Verb::Begin)),
        ("eng.read_ns", span_ns(Verb::Read)),
        ("eng.update_ns", span_ns(Verb::Update)),
        ("eng.insert_ns", span_ns(Verb::Insert)),
        ("eng.delete_ns", span_ns(Verb::Delete)),
        ("eng.commit_us", span_ns(Verb::Commit) / 1e3),
        ("eng.checkpoint_ms", span_ns(Verb::Checkpoint) / 1e6),
        ("eng.open_ms", span_ns(Verb::Open) / 1e6),
        ("net.batch_rtt_us", span_ns(Verb::Batch) / 1e3),
        ("net.srv_update_p50_us", verb_us(update_tag, 0.50)),
        ("net.srv_update_p99_us", verb_us(update_tag, 0.99)),
        ("net.srv_commit_p50_us", verb_us(commit_tag, 0.50)),
        ("net.srv_commit_p99_us", verb_us(commit_tag, 0.99)),
        (
            "cw.regions_audited_per_ckpt",
            if ckpts > 0.0 {
                grew(|c| c.regions_audited) / ckpts
            } else {
                0.0
            },
        ),
        ("cw.bytes_folded_per_op", grew(|c| c.bytes_folded) / ops),
        (
            "cw.space_overhead_pct",
            w.engine().codeword_space_overhead() * 100.0,
        ),
        ("wal.log_bytes_per_op", grew(|c| c.lsn) / ops),
        ("wal.fsyncs_per_txn", grew(|c| c.fsyncs) / txns),
        (
            "wal.durable_commits_per_txn",
            grew(|c| c.durable_commits) / txns,
        ),
        (
            "net.frames_per_round_trip",
            match spec.kind {
                Kind::Net { .. } if round_trips > 0.0 => {
                    ops * FRAMES_PER_NET_TXN as f64 / round_trips
                }
                _ => 0.0,
            },
        ),
        (
            "net.frames_pipelined_per_txn",
            srv(|s| s.frames_pipelined) / txns,
        ),
        ("net.read_parks", srv(|s| s.read_parks)),
        (
            "net.exec_queue_depth_max",
            a.server.map_or(0.0, |s| s.exec_queue_max as f64),
        ),
        (
            "net.loop_iterations_per_txn",
            srv(|s| s.loop_iterations) / txns,
        ),
        ("txn_p99_us", p99.map_or(0.0, |ns| ns as f64 / 1e3)),
        (
            "recover_s",
            if spec.kind == Kind::CrashRecover {
                good_decile(&plain.map(|s| s.wall_s), Better::Lower)
            } else {
                0.0
            },
        ),
        (
            "trace_overhead_pct",
            100.0 * (plain.ops_per_s() / traced.slices.ops_per_s() - 1.0),
        ),
    ]);

    spec::PER_LAYER
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("no value computed for per-layer metric {}", m.name))
                .1;
            (m.name, value)
        })
        .collect()
}
