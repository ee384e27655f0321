//! Shared foundation types for the Dali codeword-protection reproduction.
//!
//! This crate has no dependencies and defines the vocabulary used by every
//! other crate in the workspace:
//!
//! * [`ids`] — strongly typed identifiers (pages, transactions, tables,
//!   slots, log sequence numbers, database addresses).
//! * [`error`] — the [`error::DaliError`] error type and
//!   [`error::Result`] alias.
//! * [`config`] — engine configuration, including the protection-scheme
//!   selector corresponding to the rows of Table 2 in the paper.
//! * [`align`] — alignment arithmetic used by codeword maintenance
//!   (updates are widened to word boundaries so XOR deltas are computable).
//! * [`fold`] — the fold kernels, one per algebra (XOR and mod-(2^32−1)
//!   residue), over a byte slice or a raw image range: behind every
//!   codeword and checksum in the workspace.
//! * [`codec`] — the one checked byte [`Reader`](codec::Reader) every
//!   decoder reads through, and the sealed-file trailer.
//! * [`storage`] — the [`Storage`] seam every durable file operation of
//!   the log and the checkpointer goes through, and its OS implementation.

pub mod align;
pub mod codec;
pub mod config;
pub mod error;
pub mod fold;
pub mod ids;
pub mod storage;

pub use config::{CodewordAlgebraKind, DaliConfig, ProtectionScheme, RESIDUE_MODULUS};
pub use error::{DaliError, Result};
pub use ids::{DbAddr, Lsn, OpSeq, PageId, RecId, SlotId, TableId, TxnId};
pub use storage::{OsStorage, Storage, Store};
