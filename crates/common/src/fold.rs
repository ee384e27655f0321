//! The slice fold kernels: the one place a byte slice becomes a `u32`
//! codeword, for region codewords, log and wire frame checksums and the
//! trailer checksum of the recovery files alike.
//!
//! One wide kernel per algebra. Both walk 32-byte blocks through four
//! independent `u64` accumulators, which breaks the serial dependency
//! chain so LLVM can vectorize and keep several loads in flight, then mop
//! up one `u64` and one `u32` at a time; `u64::from_le_bytes` on byte
//! chunks compiles to unaligned loads, so neither needs an aligned base.
//!
//! * **XOR** — a little-endian `u64` is the pair `[lo u32, hi u32]` and
//!   XOR works per bit column, so XOR-ing whole lanes accumulates the even
//!   words in the low halves and the odd words in the high halves; folding
//!   the final lane `lo ^ hi` is exactly the word-at-a-time XOR.
//! * **Residue** — addition carries across bit columns, so a lane cannot
//!   hold two words side by side: each load is split into its halves
//!   before accumulating, and the sum is reduced mod `2^32 − 1` at the end.
//!
//! `dali-codeword` re-exports these beside its `*_scalar` references (what
//! the equivalence suites compare against). `Arena::xor_fold` in
//! `dali-mem` stays separate: it reads live shared memory through raw
//! pointers and must not form a slice over bytes a writer may be changing.

use crate::align::WORD;
use crate::{CodewordAlgebraKind, RESIDUE_MODULUS};

/// Bytes per wide block: 4 lanes x 8 bytes.
pub const BLOCK: usize = 32;

/// Little-endian `u64` from an 8-byte slice.
#[inline(always)]
pub fn load64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
}

/// Little-endian `u32` from a 4-byte slice.
#[inline(always)]
pub fn load32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4-byte chunk"))
}

/// XOR all 32-bit words of a word-multiple slice.
#[inline]
fn xor_words(bytes: &[u8]) -> u32 {
    debug_assert!(bytes.len().is_multiple_of(WORD));
    let mut lanes = [0u64; 4];
    let mut blocks = bytes.chunks_exact(BLOCK);
    for b in &mut blocks {
        lanes[0] ^= load64(&b[0..8]);
        lanes[1] ^= load64(&b[8..16]);
        lanes[2] ^= load64(&b[16..24]);
        lanes[3] ^= load64(&b[24..32]);
    }
    let mut words2 = blocks.remainder().chunks_exact(8);
    let mut acc64 = (lanes[0] ^ lanes[1]) ^ (lanes[2] ^ lanes[3]);
    for w in &mut words2 {
        acc64 ^= load64(w);
    }
    let mut acc = (acc64 as u32) ^ ((acc64 >> 32) as u32);
    let rem = words2.remainder();
    if !rem.is_empty() {
        // len is a word multiple, so the leftover is exactly one word.
        acc ^= load32(rem);
    }
    acc
}

/// Sum all 32-bit words of a word-multiple slice into a `u64`. The caller
/// bounds the slice so the lanes stay far from overflow.
#[inline]
fn residue_sum_words(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len().is_multiple_of(WORD));
    const MASK: u64 = 0xFFFF_FFFF;
    let mut lanes = [0u64; 4];
    let mut blocks = bytes.chunks_exact(BLOCK);
    for b in &mut blocks {
        let v0 = load64(&b[0..8]);
        let v1 = load64(&b[8..16]);
        let v2 = load64(&b[16..24]);
        let v3 = load64(&b[24..32]);
        lanes[0] += (v0 & MASK) + (v0 >> 32);
        lanes[1] += (v1 & MASK) + (v1 >> 32);
        lanes[2] += (v2 & MASK) + (v2 >> 32);
        lanes[3] += (v3 & MASK) + (v3 >> 32);
    }
    let mut words2 = blocks.remainder().chunks_exact(8);
    let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for w in &mut words2 {
        let v = load64(w);
        sum += (v & MASK) + (v >> 32);
    }
    let rem = words2.remainder();
    if !rem.is_empty() {
        sum += load32(rem) as u64;
    }
    sum
}

#[inline]
fn assert_word_multiple(bytes: &[u8]) {
    assert!(
        bytes.len().is_multiple_of(WORD),
        "fold over unaligned length {}",
        bytes.len()
    );
}

/// Split off the trailing partial word, zero-padded (`0`, the identity of
/// both algebras, when the length is a word multiple).
#[inline]
fn split_padded_tail(bytes: &[u8]) -> (&[u8], u32) {
    let (full, rem) = bytes.split_at(bytes.len() / WORD * WORD);
    let mut w = [0u8; WORD];
    if !rem.is_empty() {
        w[..rem.len()].copy_from_slice(rem);
    }
    (full, u32::from_le_bytes(w))
}

/// XOR-fold a word-aligned byte slice into a `u32` codeword.
///
/// # Panics
///
/// Panics — in **all** build profiles — if `bytes.len()` is not a multiple
/// of 4, the contract `Arena::xor_fold` enforces with `InvalidArg`.
/// Callers with unaligned ranges widen them with
/// [`align::widen_to_words`](crate::align::widen_to_words) first, or use
/// [`xor_fold_padded`] when zero-padding is the intended semantics.
#[inline]
pub fn xor_fold(bytes: &[u8]) -> u32 {
    assert_word_multiple(bytes);
    xor_words(bytes)
}

/// XOR-fold an arbitrary-length slice, zero-padding the trailing partial
/// word (value-checksum semantics: padding, not rejection).
#[inline]
pub fn xor_fold_padded(bytes: &[u8]) -> u32 {
    let (full, tail) = split_padded_tail(bytes);
    xor_words(full) ^ tail
}

/// Residue-fold a word-aligned byte slice: the sum of its words modulo
/// `2^32 − 1`, canonical in `[0, 2^32 − 1)`.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of 4.
#[inline]
pub fn residue_fold(bytes: &[u8]) -> u32 {
    assert_word_multiple(bytes);
    // 1 GiB chunks keep the lane accumulators below 2^59 regardless of
    // total slice length.
    const CHUNK: usize = 1 << 30;
    let mut acc: u64 = 0;
    for chunk in bytes.chunks(CHUNK) {
        acc = (acc + residue_sum_words(chunk) % RESIDUE_MODULUS) % RESIDUE_MODULUS;
    }
    acc as u32
}

/// Residue-fold an arbitrary-length slice, zero-padding the trailing
/// partial word.
#[inline]
pub fn residue_fold_padded(bytes: &[u8]) -> u32 {
    let (full, tail) = split_padded_tail(bytes);
    CodewordAlgebraKind::Residue.combine(residue_fold(full), tail)
}

/// Fold a word-aligned slice under `kind`.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of 4.
#[inline]
pub fn fold(kind: CodewordAlgebraKind, bytes: &[u8]) -> u32 {
    match kind {
        CodewordAlgebraKind::XorFold => xor_fold(bytes),
        CodewordAlgebraKind::Residue => residue_fold(bytes),
    }
}

/// Fold any-length `bytes` under `kind`, zero-padding the partial word.
#[inline]
pub fn fold_padded(kind: CodewordAlgebraKind, bytes: &[u8]) -> u32 {
    match kind {
        CodewordAlgebraKind::XorFold => xor_fold_padded(bytes),
        CodewordAlgebraKind::Residue => residue_fold_padded(bytes),
    }
}
