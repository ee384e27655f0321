//! # dali — codeword protection for main-memory database data
//!
//! A from-scratch Rust reproduction of *"Using Codewords to Protect
//! Database Data from a Class of Software Errors"* (Bohannon, Rastogi,
//! Seshadri, Silberschatz, Sudarshan — ICDE 1999), including the Dali
//! main-memory storage manager substrate the paper's schemes were built
//! into.
//!
//! The problem: applications with *direct access* to database memory can
//! corrupt it with addressing errors (wild writes, copy overruns). The
//! paper's answer: divide the database into protection regions, maintain
//! an XOR *codeword* per region through the prescribed update interface,
//! and then either
//!
//! * **detect** direct corruption cheaply with asynchronous audits
//!   ([`ProtectionScheme::DataCodeword`]),
//! * **prevent** transaction-carried corruption by checking codewords on
//!   every read ([`ProtectionScheme::ReadPrecheck`]), or
//! * **trace and undo** carried corruption by logging what transactions
//!   read ([`ProtectionScheme::ReadLogging`],
//!   [`ProtectionScheme::CwReadLogging`]) and running *delete-transaction
//!   recovery*, which removes the affected transactions from history and
//!   reports their ids for manual compensation.
//!
//! [`ProtectionScheme::MemoryProtection`] implements the mprotect-based
//! hardware scheme the paper compares against.
//!
//! ## Crates
//!
//! | crate | contents |
//! |---|---|
//! | [`common`] | ids, errors, configuration, alignment math |
//! | [`mem`] | page-aligned arena, database image, mprotect wrapper |
//! | [`codeword`] | codewords, regions, protection latches, audits |
//! | [`wal`] | log records (incl. read logging), local logs, system log |
//! | [`engine`] | transactions, MLR, checkpoints, restart + corruption recovery |
//! | [`faultinject`] | wild writes / overruns / bit flips |
//! | [`workload`] | the paper's TPC-B style workload |
//! | [`net`] | TCP server + client library, wire protocol, networked TPC-B |
//!
//! ## Quick start
//!
//! ```no_run
//! use dali::{DaliConfig, DaliEngine, ProtectionScheme};
//!
//! let config = DaliConfig::small("/tmp/quickstart")
//!     .with_scheme(ProtectionScheme::DataCodeword);
//! let (db, _) = DaliEngine::create(config).unwrap();
//! let table = db.create_table("kv", 64, 1024).unwrap();
//!
//! let txn = db.begin().unwrap();
//! let rec = txn.insert(table, &[42u8; 64]).unwrap();
//! txn.commit().unwrap();
//!
//! // An asynchronous audit certifies the database corruption-free.
//! assert!(db.audit().unwrap().clean());
//! # let _ = rec;
//! ```

pub use dali_codeword as codeword;
pub use dali_common as common;
pub use dali_engine as engine;
pub use dali_faultinject as faultinject;
pub use dali_mem as mem;
pub use dali_net as net;
pub use dali_wal as wal;
pub use dali_workload as workload;

pub use dali_codeword::{AuditReport, DeferredStatsSnapshot, ParityStatsSnapshot, RepairFallback};
pub use dali_common::{
    CodewordAlgebraKind, DaliConfig, DaliError, DbAddr, Lsn, PageId, ProtectionScheme, RecId,
    Result, SlotId, TableId, TxnId,
};
pub use dali_engine::{
    CheckpointOutcome, DaliEngine, LockManager, LockMode, RecoveryMode, RecoveryOutcome,
    RepairOutcome, TxnHandle,
};
pub use dali_faultinject::{
    CampaignTarget, CampaignVerdict, CorruptionPattern, FaultInjector, InjectionEffect,
    RepairRound, RepairVerdict, WalScanOutcome,
};
pub use dali_net::{DaliClient, DaliServer, NetTpcbDriver, RepairSummary, ServerStats, WireError};
pub use dali_wal::SyncStats;
pub use dali_workload::{RunStats, TpcbConfig, TpcbDriver};
