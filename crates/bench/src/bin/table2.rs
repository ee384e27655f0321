//! Regenerate Table 2: "Cost of Corruption Protection".
//!
//! Runs the TPC-B style workload of §5.2 under all eight scheme
//! configurations and prints ops/sec and relative slowdown next to the
//! paper's numbers. See the crate docs for the measurement methodology
//! (CPU-time metric, interleaved repetitions, median).
//!
//! Usage:
//!   cargo run -p dali-bench --release --bin table2 [-- options]
//!
//! Options:
//!   --ops N        operations per repetition (default 50000, the paper's run)
//!   --scale small  use the ~1% workload (quick shape check)
//!   --no-ckpt      skip the mid-run checkpoint
//!   --reps N       interleaved repetitions per row, median reported (default 5)
//!   --stats        print §5.3-style mprotect statistics
//!   --row LABEL    run only rows whose label contains LABEL (plus Baseline)
//!   --algebra A    codeword algebra: xor (default, the paper's) or residue
//!
//! Every repetition is also printed to stderr as it finishes.

use dali_bench::{build_rows, format_table2, run_row, run_rows_interleaved, table2_specs};
use dali_workload::TpcbConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);

    let ops: usize = get("--ops")
        .map(|s| s.parse().expect("--ops must be a number"))
        .unwrap_or(50_000);
    let wl = match get("--scale").as_deref() {
        Some("small") => TpcbConfig::small(),
        _ => TpcbConfig::paper(),
    };
    let checkpoint = !has("--no-ckpt");
    let reps: usize = get("--reps")
        .map(|s| s.parse().expect("--reps must be a number"))
        .unwrap_or(5);
    let row_filter = get("--row");

    let specs: Vec<_> = match &row_filter {
        Some(filter) => table2_specs()
            .into_iter()
            .filter(|s| {
                s.scheme == dali_common::ProtectionScheme::Baseline
                    || s.label().to_lowercase().contains(&filter.to_lowercase())
            })
            .collect(),
        None => table2_specs(),
    };
    let specs: Vec<_> = match get("--algebra").as_deref() {
        None | Some("xor") => specs,
        Some("residue") => specs
            .into_iter()
            .map(|s| s.with_algebra(dali_common::CodewordAlgebraKind::Residue))
            .collect(),
        Some(other) => panic!("--algebra must be xor or residue, got {other}"),
    };

    println!("Table 2. Cost of Corruption Protection");
    println!(
        "(TPC-B style: {} accounts / {} tellers / {} branches, {} ops x {} reps (interleaved, median), {} ops/txn, mid-run checkpoint: {})\n",
        wl.accounts, wl.tellers, wl.branches, ops, reps, wl.ops_per_txn, checkpoint
    );
    eprintln!(
        "running {} row(s) x {reps} reps; use --scale small --ops 2000 --reps 1 for a quick pass",
        specs.len()
    );

    // Warmup pass, discarded (page cache, frequency ramp).
    let _ = run_row(&specs[0], &wl, ops, checkpoint);
    let measurements = run_rows_interleaved(&specs, &wl, ops, checkpoint, reps);
    let rows = build_rows(specs, measurements);

    println!("{}", format_table2(&rows));

    if has("--stats") {
        for r in &rows {
            if let Some(p) = r.measurement.pages_per_op {
                println!(
                    "Memory Protection: {:.1} pages exposed per operation (paper section 5.3 observed ~11)",
                    p
                );
            }
        }
    }
}
