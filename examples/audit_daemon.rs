//! Background auditing (paper §3.2: "the process of auditing is nothing
//! more than an asynchronous check of consistency between the contents of
//! a protection region and the codeword for that region").
//!
//! A writer thread runs TPC-B operations while an auditor thread sweeps
//! the database; a fault-injector thread eventually fires a wild write
//! and the audit catches it mid-workload, then repairs it online.
//!
//! Run with: `cargo run --release --example audit_daemon`

use dali::{DaliConfig, DaliEngine, FaultInjector, ProtectionScheme, TpcbConfig, TpcbDriver};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let dir = std::env::temp_dir().join("dali-example-audit-daemon");
    let _ = std::fs::remove_dir_all(&dir);
    let wl = TpcbConfig::small();
    let mut config = DaliConfig::small(&dir).with_scheme(ProtectionScheme::DataCodeword);
    config.db_pages = wl.required_pages(config.page_size);
    let (db, _) = DaliEngine::create(config).expect("create");
    let mut driver = TpcbDriver::setup(&db, wl).expect("setup");
    println!("database populated; starting writer + audit daemon");

    let stop = Arc::new(AtomicBool::new(false));

    // Audit daemon: sweep until corruption is found.
    let auditor = {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut sweeps = 0u32;
            loop {
                match db.audit() {
                    Ok(report) if report.clean() => {
                        sweeps += 1;
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Ok(report) => {
                        println!(
                            "[auditor] sweep {} detected {} corrupt region(s) at {}",
                            sweeps + 1,
                            report.corrupt.len(),
                            report.corrupt[0].addr
                        );
                        stop.store(true, Ordering::Release);
                        return (sweeps + 1, report);
                    }
                    Err(_) => {
                        stop.store(true, Ordering::Release);
                        panic!("audit failed unexpectedly");
                    }
                }
            }
        })
    };

    // Fault injector: strike after a short delay.
    let injector = {
        let db = db.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            let inj = FaultInjector::new(&db);
            // Aim at the middle of the account table's data area.
            let image = db.raw_image();
            let addr = dali::DbAddr(image.len() / 2);
            inj.wild_write(addr, 0xBE, 6).expect("inject");
            println!("[injector] wild write fired at {addr}");
        })
    };

    // Writer: keep the database busy until the audit fires, in whole
    // transactions — a failed one is rolled back, never half committed.
    let mut ops = 0usize;
    while !stop.load(Ordering::Acquire) {
        match driver.run_ops(10) {
            Ok(stats) => ops += stats.ops,
            Err(_) => break, // engine poisoned by the failed audit
        }
    }

    injector.join().unwrap();
    let (sweeps, report) = auditor.join().unwrap();
    println!(
        "[writer] completed ~{ops} operations concurrently with {} clean audit sweep(s)",
        sweeps - 1
    );
    let after = if db.db().check_alive().is_ok() {
        "the audit repaired it online from the checkpoint and the log"
    } else {
        "the engine is now down pending recovery"
    };
    println!(
        "corruption was confined to {} region(s) of {} bytes each; {after}",
        report.corrupt.len(),
        report.corrupt[0].len
    );
}
