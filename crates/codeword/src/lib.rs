//! Codeword protection (paper §3).
//!
//! The database is divided into fixed-size *protection regions*; a
//! *codeword* — the bitwise XOR of the 32-bit words of the region — is
//! maintained for each. Updates through the prescribed interface keep the
//! codeword in sync; a wild write does not, so with high probability the
//! maintained codeword no longer matches the codeword computed from the
//! region, and the mismatch is caught by a *precheck* (on read) or an
//! *audit* (asynchronously / at checkpoint time).
//!
//! Modules:
//!
//! * [`codeword`] — the XOR-fold algebra (fold, delta, incremental
//!   maintenance identities), computed by a wide 4×`u64`-lane kernel that
//!   auto-vectorizes.
//! * [`region`] — protection-region geometry over the database address
//!   space.
//! * [`table`] — the codeword table, one atomic `u32` per region.
//!   Codeword deltas commute, so maintenance uses `fetch_xor`; this plays
//!   the role of the paper's *codeword latch* (§3.2).
//! * [`latch`] — the *protection latch* table: striped reader-writer
//!   spin latches with explicit lock/unlock (guards must survive across the
//!   beginUpdate/endUpdate window, which RAII lifetimes cannot express).
//! * [`deferred`] — the sharded, coalescing set of queued codeword
//!   deltas behind deferred maintenance.
//! * [`audit`] — [`AuditReport`]s from one region sweep over a list of
//!   region ranges (a full audit is the single range `0..n`), striped
//!   across scoped worker threads with reports identical to a serial
//!   scan.
//! * [`parity`] — the optional parity stripe: one XOR parity buffer per
//!   group of protection regions, updated eagerly inside each update's
//!   latch bracket, from which a region that fails its audit can be
//!   rebuilt *in place* without log replay.
//! * [`protection`] — [`CodewordProtection`], the façade bundling
//!   geometry + table + latches + delta set + stripe and implementing the
//!   per-scheme read/update protocols, including
//!   [`repair_region`](CodewordProtection::repair_region).

pub mod algebra;
pub mod audit;
pub mod codeword;
pub mod deferred;
pub mod latch;
pub mod parity;
pub mod protection;
pub mod region;
pub mod table;

pub use audit::{AuditReport, CorruptRegion};
pub use deferred::{DeferredConfig, DeferredStatsSnapshot};
pub use latch::{LatchMode, LatchTable};
pub use parity::{ParityGroupId, ParityStatsSnapshot, ParityStripe};
pub use protection::{CodewordProtection, RepairFallback};
pub use region::{RegionGeometry, RegionId};
pub use table::CodewordTable;

// Re-export the scheme and algebra selectors for convenience.
pub use dali_common::{CodewordAlgebraKind, ProtectionScheme};
