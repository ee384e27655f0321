//! Benchmark harness regenerating the paper's evaluation (§5).
//!
//! * **Table 1** — protect/unprotect pairs per second
//!   ([`table1_paper_rows`] next to `dali_mem::protect::measure_protect_pairs`),
//!   measured with real `mprotect` on this machine and printed next to the
//!   paper's four 1998 platforms.
//! * **Table 2** — TPC-B throughput under each protection scheme
//!   ([`table2_specs`] → [`run_rows_interleaved`] → [`build_rows`]), with
//!   the paper's numbers for shape comparison.
//! * **§5.3** — the control-information layout remark
//!   (`ablation_colocate`).
//!
//! Everything else the repository measures is the ledger:
//! `BENCHMARK.json` + `benchmark/`.
//!
//! Absolute numbers will differ from 1999 hardware by orders of
//! magnitude; what should reproduce is the *ordering* of schemes and the
//! rough overhead factors (detection cheap, small-region prechecks
//! moderate, mprotect expensive, 8 K prechecks catastrophic).
//!
//! ## Measurement methodology
//!
//! The paper ran on a dedicated UltraSPARC and averaged six runs. This
//! reproduction typically runs on a small shared VM where other
//! tenants steal cycles unpredictably, so the harness defends itself:
//!
//! * the primary metric is **process CPU time** per operation
//!   (`CLOCK_PROCESS_CPUTIME_ID`), which is unaffected by preemption;
//!   wall-clock throughput is reported alongside;
//! * repetitions are **interleaved across schemes** (round-robin) so
//!   slow drifts of the host hit every scheme equally;
//! * the median repetition is reported;
//! * each run's ~150 MB scratch directory is deleted immediately so
//!   writeback of one run does not tax the next.

use dali_common::{CodewordAlgebraKind, DaliConfig, ProtectionScheme};
use dali_engine::DaliEngine;
use dali_workload::{TpcbConfig, TpcbDriver};
use std::path::PathBuf;

/// One scheme configuration of Table 2.
#[derive(Clone, Debug)]
pub struct SchemeSpec {
    pub scheme: ProtectionScheme,
    pub region_size: usize,
    /// Codeword algebra for the codeword-bearing schemes (the paper's
    /// Table 2 is the XOR fold; `table2 --algebra residue` re-runs the
    /// table under the mod-(2^32−1) residue code).
    pub algebra: CodewordAlgebraKind,
    /// The paper's measured ops/sec for this row (UltraSPARC, 1998).
    pub paper_ops_per_sec: f64,
    /// The paper's reported slowdown for this row.
    pub paper_pct_slower: f64,
}

impl SchemeSpec {
    /// Row label as printed in the paper (suffixed when running under a
    /// non-default algebra).
    pub fn label(&self) -> String {
        let base = self.scheme.label(self.region_size);
        match self.algebra {
            CodewordAlgebraKind::XorFold => base,
            other => format!("{base} [{}]", other.label()),
        }
    }

    /// This spec under a different codeword algebra.
    pub fn with_algebra(mut self, algebra: CodewordAlgebraKind) -> SchemeSpec {
        self.algebra = algebra;
        self
    }
}

/// The eight rows of Table 2, in the paper's order.
pub fn table2_specs() -> Vec<SchemeSpec> {
    use ProtectionScheme::*;
    vec![
        SchemeSpec {
            algebra: CodewordAlgebraKind::XorFold,
            scheme: Baseline,
            region_size: 64,
            paper_ops_per_sec: 417.0,
            paper_pct_slower: 0.0,
        },
        SchemeSpec {
            algebra: CodewordAlgebraKind::XorFold,
            scheme: DataCodeword,
            region_size: 64,
            paper_ops_per_sec: 380.0,
            paper_pct_slower: 8.5,
        },
        SchemeSpec {
            algebra: CodewordAlgebraKind::XorFold,
            scheme: ReadPrecheck,
            region_size: 64,
            paper_ops_per_sec: 366.0,
            paper_pct_slower: 12.2,
        },
        SchemeSpec {
            algebra: CodewordAlgebraKind::XorFold,
            scheme: ReadLogging,
            region_size: 64,
            paper_ops_per_sec: 345.0,
            paper_pct_slower: 17.1,
        },
        SchemeSpec {
            algebra: CodewordAlgebraKind::XorFold,
            scheme: CwReadLogging,
            region_size: 64,
            paper_ops_per_sec: 323.0,
            paper_pct_slower: 22.4,
        },
        SchemeSpec {
            algebra: CodewordAlgebraKind::XorFold,
            scheme: ReadPrecheck,
            region_size: 512,
            paper_ops_per_sec: 311.0,
            paper_pct_slower: 25.4,
        },
        SchemeSpec {
            algebra: CodewordAlgebraKind::XorFold,
            scheme: MemoryProtection,
            region_size: 64,
            paper_ops_per_sec: 257.0,
            paper_pct_slower: 38.2,
        },
        SchemeSpec {
            algebra: CodewordAlgebraKind::XorFold,
            scheme: ReadPrecheck,
            region_size: 8192,
            paper_ops_per_sec: 115.0,
            paper_pct_slower: 72.4,
        },
    ]
}

/// One measured repetition of one row.
#[derive(Clone, Copy, Debug)]
pub struct RowMeasurement {
    /// Operations per second of process CPU time (primary metric).
    pub cpu_ops_per_sec: f64,
    /// Operations per wall-clock second (reference).
    pub wall_ops_per_sec: f64,
    /// mprotect pages exposed per operation, if the scheme protects.
    pub pages_per_op: Option<f64>,
}

/// A reported Table 2 row (median over interleaved repetitions).
#[derive(Clone, Debug)]
pub struct Table2Row {
    pub spec: SchemeSpec,
    pub measurement: RowMeasurement,
    /// Slowdown relative to the measured baseline (CPU-time based).
    pub pct_slower: f64,
}

/// Process CPU time in seconds.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime with a valid clock id and out-pointer.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A fresh scratch directory under the system temp dir.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "dali-bench-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Build an engine + populated TPC-B driver for one scheme row.
fn setup_engine(spec: &SchemeSpec, wl: &TpcbConfig, tag: &str) -> (DaliEngine, TpcbDriver) {
    let mut config = DaliConfig::small(scratch_dir(tag))
        .with_scheme(spec.scheme)
        .with_codeword_algebra(spec.algebra);
    config.region_size = spec.region_size;
    config.db_pages = wl.required_pages(config.page_size);
    // Audits run at explicit checkpoints; keep certification on (it is
    // part of the scheme's cost model).
    let (db, _) = DaliEngine::create(config).expect("create db");
    let driver = TpcbDriver::setup(&db, wl.clone()).expect("populate");
    (db, driver)
}

/// Run one Table 2 repetition: `ops` operations with a mid-run checkpoint
/// (logging and checkpointing on, as in the paper's runs).
pub fn run_row(spec: &SchemeSpec, wl: &TpcbConfig, ops: usize, checkpoint: bool) -> RowMeasurement {
    let (db, mut driver) = setup_engine(
        spec,
        wl,
        &format!("t2-{}", spec.label().replace([' ', ',', '/'], "-")),
    );
    db.protect_stats().reset();

    let half = ops / 2;
    let wall_start = std::time::Instant::now();
    let cpu_start = process_cpu_seconds();
    let s1 = driver.run_ops(half).expect("run first half");
    if checkpoint {
        db.checkpoint().expect("mid-run checkpoint");
    }
    let s2 = driver.run_ops(ops - half).expect("run second half");
    let cpu = process_cpu_seconds() - cpu_start;
    let wall = wall_start.elapsed().as_secs_f64();
    let total_ops = (s1.ops + s2.ops) as f64;

    let pages_per_op = if spec.scheme.uses_mprotect() {
        let (_, _, exposed) = db.protect_stats().snapshot();
        Some(exposed as f64 / total_ops)
    } else {
        None
    };
    driver.verify_invariant().expect("invariant");
    // Remove the scratch directory immediately: a run writes ~150 MB of
    // log + checkpoint images, and leaving them queued for writeback
    // steals CPU and I/O from subsequent rows.
    let dir = db.config().dir.clone();
    drop(driver);
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    RowMeasurement {
        cpu_ops_per_sec: total_ops / cpu,
        wall_ops_per_sec: total_ops / wall,
        pages_per_op,
    }
}

fn median_of(mut reps: Vec<RowMeasurement>) -> RowMeasurement {
    // Medians per metric, independently: a rep with a representative CPU
    // cost may still have suffered heavy wall-clock preemption.
    let mid = reps.len() / 2;
    reps.sort_by(|a, b| a.cpu_ops_per_sec.partial_cmp(&b.cpu_ops_per_sec).unwrap());
    let cpu = reps[mid].cpu_ops_per_sec;
    let pages = reps[mid].pages_per_op;
    reps.sort_by(|a, b| a.wall_ops_per_sec.partial_cmp(&b.wall_ops_per_sec).unwrap());
    RowMeasurement {
        cpu_ops_per_sec: cpu,
        wall_ops_per_sec: reps[mid].wall_ops_per_sec,
        pages_per_op: pages,
    }
}

/// Run several rows with repetitions interleaved round-robin across the
/// rows; returns the per-row median (by CPU throughput).
pub fn run_rows_interleaved(
    specs: &[SchemeSpec],
    wl: &TpcbConfig,
    ops: usize,
    checkpoint: bool,
    reps: usize,
) -> Vec<RowMeasurement> {
    let mut per_row: Vec<Vec<RowMeasurement>> = vec![Vec::new(); specs.len()];
    for rep in 0..reps.max(1) {
        for (i, spec) in specs.iter().enumerate() {
            let m = run_row(spec, wl, ops, checkpoint);
            eprintln!(
                "  rep {rep} {:<34} cpu {:>9.0} ops/s   wall {:>9.0} ops/s",
                spec.label(),
                m.cpu_ops_per_sec,
                m.wall_ops_per_sec
            );
            per_row[i].push(m);
        }
    }
    per_row.into_iter().map(median_of).collect()
}

/// Pair specs with measurements and compute slowdowns against the
/// Baseline row (which must be present).
pub fn build_rows(specs: Vec<SchemeSpec>, measurements: Vec<RowMeasurement>) -> Vec<Table2Row> {
    let base = specs
        .iter()
        .zip(&measurements)
        .find(|(s, _)| s.scheme == ProtectionScheme::Baseline)
        .map(|(_, m)| m.cpu_ops_per_sec)
        .expect("baseline row required");
    specs
        .into_iter()
        .zip(measurements)
        .map(|(spec, measurement)| Table2Row {
            pct_slower: (1.0 - measurement.cpu_ops_per_sec / base) * 100.0,
            spec,
            measurement,
        })
        .collect()
}

/// Paper Table 1 reference rows: platform, pairs/second (1998 hardware).
pub fn table1_paper_rows() -> Vec<(&'static str, f64)> {
    vec![
        ("SPARCstation 20", 15_600.0),
        ("UltraSPARC 2", 43_000.0),
        ("HP 9000 C110", 3_300.0),
        ("SGI Challenge DM", 8_200.0),
    ]
}

/// Render a Table 2 report as text.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>11} {:>9} {:>11}   {:>11} {:>8}\n",
        "Algorithm", "Ops/s(cpu)", "% Slower", "Ops/s(wall)", "Paper Ops/s", "Paper %"
    ));
    out.push_str(&"-".repeat(92));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>11.0} {:>8.1}% {:>11.0}   {:>11.0} {:>7.1}%\n",
            r.spec.label(),
            r.measurement.cpu_ops_per_sec,
            r.pct_slower,
            r.measurement.wall_ops_per_sec,
            r.spec.paper_ops_per_sec,
            r.spec.paper_pct_slower,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_all_schemes() {
        let specs = table2_specs();
        assert_eq!(specs.len(), 8);
        for s in ProtectionScheme::ALL {
            assert!(specs.iter().any(|spec| spec.scheme == s), "{s:?} missing");
        }
        let precheck: Vec<_> = specs
            .iter()
            .filter(|s| s.scheme == ProtectionScheme::ReadPrecheck)
            .map(|s| s.region_size)
            .collect();
        assert_eq!(precheck, vec![64, 512, 8192]);
    }

    #[test]
    fn paper_ordering_is_monotone() {
        let specs = table2_specs();
        for w in specs.windows(2) {
            assert!(w[0].paper_ops_per_sec >= w[1].paper_ops_per_sec);
        }
    }

    #[test]
    fn cpu_clock_advances() {
        let a = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = process_cpu_seconds();
        assert!(b > a);
    }

    #[test]
    fn tiny_row_runs_end_to_end() {
        let wl = TpcbConfig::small();
        let spec = &table2_specs()[1]; // Data CW
        let m = run_row(spec, &wl, 100, true);
        assert!(m.cpu_ops_per_sec > 0.0);
        assert!(m.wall_ops_per_sec > 0.0);
        assert!(m.pages_per_op.is_none());
    }

    #[test]
    fn mprotect_row_reports_pages_per_op() {
        let wl = TpcbConfig::small();
        let spec = table2_specs()
            .into_iter()
            .find(|s| s.scheme == ProtectionScheme::MemoryProtection)
            .unwrap();
        let m = run_row(&spec, &wl, 60, false);
        let p = m.pages_per_op.unwrap();
        assert!(p > 1.0, "{p}");
    }

    #[test]
    fn build_rows_computes_slowdown() {
        let specs = vec![table2_specs()[0].clone(), table2_specs()[1].clone()];
        let ms = vec![
            RowMeasurement {
                cpu_ops_per_sec: 100.0,
                wall_ops_per_sec: 90.0,
                pages_per_op: None,
            },
            RowMeasurement {
                cpu_ops_per_sec: 80.0,
                wall_ops_per_sec: 75.0,
                pages_per_op: None,
            },
        ];
        let rows = build_rows(specs, ms);
        assert_eq!(rows[0].pct_slower, 0.0);
        assert!((rows[1].pct_slower - 20.0).abs() < 1e-9);
    }
}
