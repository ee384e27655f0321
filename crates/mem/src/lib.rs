//! Memory substrate: the database image and hardware protection.
//!
//! A Dali-style main-memory database maps the whole database into the
//! address space of the application (paper §2). This crate provides that
//! substrate:
//!
//! * [`arena`] — a page-aligned anonymous memory mapping with raw-pointer
//!   access semantics. All reads, writes and folds go through raw
//!   pointers, never references, because the whole point of the paper is
//!   that *anyone* in the process (including buggy application code) can
//!   scribble on this memory at any time. Its one fold feeds a raw range
//!   to the kernels of `dali_common::fold`, the same kernels that fold
//!   slices.
//! * [`image`] — the database image: the arena viewed as an array of pages,
//!   with copy-in/copy-out accessors and the fold (either algebra) used by
//!   codeword computation, all bounds-checked once, by the arena.
//! * [`protect`] — the Hardware Protection scheme's mprotect wrapper and
//!   protection bitmap (paper §3 "Hardware Protection", after Sullivan &
//!   Stonebraker), plus call statistics for the §5.3 pages-per-operation
//!   observation.

pub mod arena;
pub mod image;
pub mod protect;

pub use arena::Arena;
pub use image::DbImage;
pub use protect::{PageProtector, ProtectStats};
