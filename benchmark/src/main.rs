//! The performance ledger of the Dali codeword-protection reproduction.
//!
//! `run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]` sets a
//! workload up, runs it, checks its outputs and prints every metric by
//! name with its unit; the last line of standard output is one JSON
//! object. `manifest` prints `BENCHMARK.json`. See `README.md`.

mod bank;
mod cells;
mod crash;
mod harness;
mod inproc;
mod net;
mod spec;
mod stats;
mod trace;
mod util;
mod workload;

use harness::{Mode, Opts, Outcome};
use spec::{Kind, WorkloadSpec};
use stats::Json;
use std::process::ExitCode;

const USAGE: &str =
    "usage: dali-benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       dali-benchmark manifest
  --workload  one of the names in BENCHMARK.json; all six when omitted
  --seed      generator seed (default 0xDA11); the engine only ever sees generated inputs
  --seconds   how long each workload measures (default 10)
  --trace     0: end-to-end metrics only; 1: per-layer metrics only; both when omitted";

enum Command {
    Run {
        workloads: Vec<&'static WorkloadSpec>,
        opts: Opts,
    },
    Manifest,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut args = args.iter().map(String::as_str).peekable();
    match args.peek() {
        Some(&"manifest") => return Ok(Command::Manifest),
        Some(&"run") => {
            args.next();
        }
        _ => {}
    }
    let mut workloads: Vec<&'static WorkloadSpec> = spec::WORKLOADS.iter().collect();
    let mut opts = Opts {
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        mode: Mode::Both,
    };
    while let Some(flag) = args.next() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workloads =
                    vec![spec::workload(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?];
            }
            "--seed" => {
                opts.seed = parse_u64(value).ok_or_else(|| format!("bad seed {value:?}"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                opts.mode = match value {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Layers,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => unreachable!("flag checked above"),
        }
    }
    Ok(Command::Run { workloads, opts })
}

fn run_one(spec: &'static WorkloadSpec, opts: Opts) -> dali_common::Result<Outcome> {
    match spec.kind {
        Kind::Tpcb | Kind::ReadMostly => harness::run::<inproc::InProc>(spec, opts),
        Kind::CrashRecover => harness::run::<crash::CrashRecover>(spec, opts),
        Kind::Net { .. } => harness::run::<net::Net>(spec, opts),
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn metrics_json(o: &Outcome, prefix: &str) -> Vec<(String, Json)> {
    o.end_to_end
        .iter()
        .chain(&o.per_layer)
        .map(|&(name, value)| {
            (
                format!("{prefix}{name}"),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit_of(name))),
                ]),
            )
        })
        .collect()
}

fn print_outcome(o: &Outcome) {
    println!("== {} ==", o.spec.name);
    for &(name, value) in o.end_to_end.iter().chain(&o.per_layer) {
        println!("{name:<32} {value:>16.4} {}", unit_of(name));
    }
    println!(
        "attempted {}  failed {}  failed_share {}",
        o.gate.attempted,
        o.gate.failed,
        o.gate.failed as f64 / o.gate.attempted.max(1) as f64
    );
    if let Some(offender) = &o.gate.first_offender {
        println!("FIRST OFFENDER: {offender}");
    }
}

/// The paper's headline, derived and deliberately not gated: gating a
/// ratio would reject a change that speeds Baseline up alone.
fn print_overhead(outcomes: &[Outcome]) {
    let ops = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.spec.name == name)
            .and_then(|o| o.end_to_end.iter().find(|(n, _)| *n == spec::OPS_PER_S))
            .map(|&(_, v)| v)
    };
    if let (Some(base), Some(cw)) = (ops("tpcb-baseline"), ops("tpcb-datacw")) {
        println!(
            "overhead_pct {:.2} % (tpcb-datacw {cw:.0} ops/s against tpcb-baseline {base:.0} ops/s; the paper's Table 2: 8.5 %)",
            100.0 * (1.0 - cw / base)
        );
    }
}

/// What the counts say about which layer works where; printed with
/// every run that has the counts of the workloads concerned.
fn print_discrimination(outcomes: &[Outcome]) -> bool {
    let layer = |workload: &str, metric: &str| {
        outcomes
            .iter()
            .find(|o| o.spec.name == workload)
            .and_then(|o| o.per_layer.iter().find(|(n, _)| *n == metric))
            .map(|&(_, v)| v)
    };
    let mut holds = true;
    let mut check = |what: &str, verdict: Option<bool>| {
        if let Some(ok) = verdict {
            println!(
                "discrimination: {what}: {}",
                if ok { "holds" } else { "FAILS" }
            );
            holds &= ok;
        }
    };
    check(
        "audit bytes folded per op = 0 on tpcb-baseline, > 0 on tpcb-datacw",
        layer("tpcb-baseline", "cw.bytes_folded_per_op")
            .zip(layer("tpcb-datacw", "cw.bytes_folded_per_op"))
            .map(|(base, cw)| base == 0.0 && cw > 0.0),
    );
    for workload in ["tpcb-baseline", "tpcb-datacw", "net-pipelined"] {
        check(
            &format!("no durable commit on {workload}"),
            layer(workload, "wal.durable_commits_per_txn").map(|v| v == 0.0),
        );
    }
    check(
        "one durable commit and about one fsync per transaction on net-durable",
        layer("net-durable", "wal.durable_commits_per_txn")
            .zip(layer("net-durable", "wal.fsyncs_per_txn"))
            .map(|(durable, fsyncs)| durable == 1.0 && (0.5..=1.1).contains(&fsyncs)),
    );
    check(
        "log bytes per op on read-precheck at most a tenth of tpcb-datacw",
        layer("read-precheck", "wal.log_bytes_per_op")
            .zip(layer("tpcb-datacw", "wal.log_bytes_per_op"))
            .map(|(read, tpcb)| read <= tpcb / 10.0),
    );
    check(
        "9 frames per round trip on net-durable",
        layer("net-durable", "net.frames_per_round_trip").map(|v| v == 9.0),
    );
    check(
        "54 frames per round trip on net-pipelined",
        layer("net-pipelined", "net.frames_per_round_trip").map(|v| v == 54.0),
    );
    holds
}

fn write_results(outcomes: &[Outcome], opts: Opts) -> std::io::Result<()> {
    let dir = util::bench_dir().join("results");
    std::fs::create_dir_all(&dir)?;
    let records = outcomes
        .iter()
        .map(|o| {
            Json::obj([
                ("workload", Json::str(o.spec.name)),
                ("correct", Json::Bool(o.gate.correct())),
                ("attempted", Json::Int(o.gate.attempted)),
                ("failed", Json::Int(o.gate.failed)),
                (
                    "first_offender",
                    o.gate.first_offender.clone().map_or(Json::Null, Json::Str),
                ),
                ("metrics", Json::Obj(metrics_json(o, ""))),
                ("detail", o.detail.clone()),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("seconds", Json::Num(opts.seconds)),
        ("runs", Json::Arr(records)),
    ]);
    std::fs::write(dir.join("latest.json"), doc.render_pretty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, opts) = match parse_args(&args) {
        Ok(Command::Manifest) => {
            print!("{}", spec::manifest().render_pretty());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run { workloads, opts }) => (workloads, opts),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut outcomes = Vec::with_capacity(workloads.len());
    for spec in workloads {
        match run_one(spec, opts) {
            Ok(outcome) => {
                print_outcome(&outcome);
                outcomes.push(outcome);
            }
            Err(e) => {
                eprintln!("{}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    print_overhead(&outcomes);
    let discriminates = print_discrimination(&outcomes);
    if let Err(e) = write_results(&outcomes, opts) {
        eprintln!("writing results: {e}");
        return ExitCode::FAILURE;
    }

    // One workload: its metrics under their own names, as the benchmark
    // contract reads them. Several: each name prefixed by its workload.
    let single = outcomes.len() == 1;
    let metrics = outcomes
        .iter()
        .flat_map(|o| {
            let prefix = if single {
                String::new()
            } else {
                format!("{}/", o.spec.name)
            };
            metrics_json(o, &prefix)
        })
        .collect();
    let correct = outcomes.iter().all(|o| o.gate.correct());
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        (
            "attempted",
            Json::Int(outcomes.iter().map(|o| o.gate.attempted).sum()),
        ),
        (
            "failed",
            Json::Int(outcomes.iter().map(|o| o.gate.failed).sum()),
        ),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", summary.render());
    if correct && discriminates {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
