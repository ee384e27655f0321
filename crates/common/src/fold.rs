//! The fold kernels: the one place bytes become a `u32` codeword — region
//! codewords, audits and prechecks, log and wire frame checksums and the
//! trailer checksum of the recovery files alike.
//!
//! One wide kernel per algebra, generic over where the words come from
//! ([`Words`]): a byte slice here, or in `dali-mem` a bounds-checked raw
//! range of the database image, which a concurrent updater may be
//! changing and so must never be viewed as a `&[u8]`. Both kernels walk
//! 32-byte blocks through four independent `u64` accumulators, which
//! breaks the serial dependency chain so LLVM can vectorize and keep
//! several loads in flight, then mop up one `u64` and one `u32` at a
//! time. Every load is an unaligned little-endian load, so no source needs
//! an aligned base and the result does not depend on the host's byte order.
//!
//! * **XOR** — a little-endian `u64` is the pair `[lo u32, hi u32]` and
//!   XOR works per bit column, so XOR-ing whole lanes accumulates the even
//!   words in the low halves and the odd words in the high halves; folding
//!   the final lane `lo ^ hi` is exactly the word-at-a-time XOR.
//! * **Residue** — addition carries across bit columns, so a lane cannot
//!   hold two words side by side: each load is split into its halves
//!   before accumulating, and the sum is reduced mod `2^32 − 1` at the end.
//!
//! Beside each kernel sits its one-word-at-a-time `*_scalar` reference,
//! what the equivalence suites compare the kernels against.

use crate::align::WORD;
use crate::{CodewordAlgebraKind, RESIDUE_MODULUS};

/// Bytes per wide block: 4 lanes x 8 bytes.
const BLOCK: usize = 32;

/// A source of the bytes a fold consumes, front to back.
pub trait Words: Sized {
    /// Take the next `N` bytes, or `None` (taking nothing) when fewer
    /// remain.
    fn take<const N: usize>(&mut self) -> Option<[u8; N]>;

    /// Fold every whole word of the source under `kind`. A trailing
    /// partial word is ignored: sources hold a whole number of words.
    #[inline]
    fn fold(self, kind: CodewordAlgebraKind) -> u32 {
        match kind {
            CodewordAlgebraKind::XorFold => xor_words(self),
            CodewordAlgebraKind::Residue => residue_words(self),
        }
    }
}

impl Words for &[u8] {
    #[inline(always)]
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.split_first_chunk::<N>()?;
        *self = rest;
        Some(*head)
    }
}

/// Little-endian `u64` from an 8-byte slice.
#[inline(always)]
fn load64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
}

/// Little-endian `u32` from a 4-byte slice.
#[inline(always)]
fn load32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4-byte chunk"))
}

/// XOR all 32-bit words of `w`.
#[inline]
fn xor_words(mut w: impl Words) -> u32 {
    let mut lanes = [0u64; 4];
    while let Some(b) = w.take::<BLOCK>() {
        lanes[0] ^= load64(&b[0..8]);
        lanes[1] ^= load64(&b[8..16]);
        lanes[2] ^= load64(&b[16..24]);
        lanes[3] ^= load64(&b[24..32]);
    }
    let mut acc64 = (lanes[0] ^ lanes[1]) ^ (lanes[2] ^ lanes[3]);
    while let Some(q) = w.take::<8>() {
        acc64 ^= u64::from_le_bytes(q);
    }
    let mut acc = (acc64 as u32) ^ ((acc64 >> 32) as u32);
    if let Some(d) = w.take::<WORD>() {
        acc ^= u32::from_le_bytes(d);
    }
    acc
}

/// Sum all 32-bit words of `w` modulo `2^32 − 1`, canonical in
/// `[0, 2^32 − 1)`.
#[inline]
fn residue_words(mut w: impl Words) -> u32 {
    const MASK: u64 = 0xFFFF_FFFF;
    // A block adds < 2^33 to each lane, so reducing every 2^25 blocks
    // (1 GiB) keeps the lanes below 2^58 and `sum` below 2^61 at any
    // length.
    const BLOCKS_PER_REDUCTION: usize = 1 << 25;
    let mut sum: u64 = 0;
    loop {
        let mut lanes = [0u64; 4];
        let mut blocks = 0;
        while blocks < BLOCKS_PER_REDUCTION {
            let Some(b) = w.take::<BLOCK>() else { break };
            let v0 = load64(&b[0..8]);
            let v1 = load64(&b[8..16]);
            let v2 = load64(&b[16..24]);
            let v3 = load64(&b[24..32]);
            lanes[0] += (v0 & MASK) + (v0 >> 32);
            lanes[1] += (v1 & MASK) + (v1 >> 32);
            lanes[2] += (v2 & MASK) + (v2 >> 32);
            lanes[3] += (v3 & MASK) + (v3 >> 32);
            blocks += 1;
        }
        sum += lanes[0] + lanes[1] + lanes[2] + lanes[3];
        if blocks < BLOCKS_PER_REDUCTION {
            break;
        }
        sum %= RESIDUE_MODULUS;
    }
    while let Some(q) = w.take::<8>() {
        let v = u64::from_le_bytes(q);
        sum += (v & MASK) + (v >> 32);
    }
    if let Some(d) = w.take::<WORD>() {
        sum += u32::from_le_bytes(d) as u64;
    }
    (sum % RESIDUE_MODULUS) as u32
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
/// of 4, the contract `DbImage::fold` enforces with `InvalidArg`.
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
    residue_words(bytes)
}

/// Residue-fold an arbitrary-length slice, zero-padding the trailing
/// partial word.
#[inline]
pub fn residue_fold_padded(bytes: &[u8]) -> u32 {
    let (full, tail) = split_padded_tail(bytes);
    CodewordAlgebraKind::Residue.combine(residue_words(full), tail)
}

/// Fold a word-aligned slice under `kind`.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of 4.
#[inline]
pub fn fold(kind: CodewordAlgebraKind, bytes: &[u8]) -> u32 {
    assert_word_multiple(bytes);
    bytes.fold(kind)
}

/// Fold any-length `bytes` under `kind`, zero-padding the partial word.
#[inline]
pub fn fold_padded(kind: CodewordAlgebraKind, bytes: &[u8]) -> u32 {
    match kind {
        CodewordAlgebraKind::XorFold => xor_fold_padded(bytes),
        CodewordAlgebraKind::Residue => residue_fold_padded(bytes),
    }
}

/// One-word-at-a-time reference for [`xor_fold`]: the kernel the wide
/// path replaced, kept as what the equivalence suites compare against.
/// Same contract and result.
pub fn xor_fold_scalar(bytes: &[u8]) -> u32 {
    assert_word_multiple(bytes);
    bytes.chunks_exact(WORD).fold(0, |acc, w| acc ^ load32(w))
}

/// One-word-at-a-time reference for [`residue_fold`]. Same contract and
/// result.
pub fn residue_fold_scalar(bytes: &[u8]) -> u32 {
    assert_word_multiple(bytes);
    let sum = bytes
        .chunks_exact(WORD)
        .fold(0u64, |sum, w| (sum + load32(w) as u64) % RESIDUE_MODULUS);
    sum as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const XOR: CodewordAlgebraKind = CodewordAlgebraKind::XorFold;
    const RES: CodewordAlgebraKind = CodewordAlgebraKind::Residue;

    fn scalar(kind: CodewordAlgebraKind, bytes: &[u8]) -> u32 {
        match kind {
            XOR => xor_fold_scalar(bytes),
            RES => residue_fold_scalar(bytes),
        }
    }

    /// Independent byte-at-a-time references: byte `i` lands in bit
    /// column `8 * (i mod 4)` of its word. Zero-pad semantics, so they
    /// match the aligned folds on aligned lengths and the padded folds on
    /// any length.
    fn ref_fold(kind: CodewordAlgebraKind, bytes: &[u8]) -> u32 {
        let mut xor = 0u32;
        let mut sum = 0u128;
        for (i, &b) in bytes.iter().enumerate() {
            xor ^= (b as u32) << (8 * (i & 3));
            sum += (b as u128) << (8 * (i & 3));
        }
        match kind {
            XOR => xor,
            RES => (sum % RESIDUE_MODULUS as u128) as u32,
        }
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    #[test]
    fn zeros_fold_to_zero_and_one_word_to_itself() {
        for kind in CodewordAlgebraKind::ALL {
            assert_eq!(fold(kind, &[]), 0);
            assert_eq!(fold(kind, &[0u8; 64]), 0);
            assert_eq!(fold(kind, &0xdead_beefu32.to_le_bytes()), 0xdead_beef);
        }
        // The all-ones word is congruent to zero: the canonical residue is
        // 0, never the modulus itself.
        assert_eq!(residue_fold(&0xffff_ffffu32.to_le_bytes()), 0);
        assert_eq!(residue_fold_scalar(&0xffff_ffffu32.to_le_bytes()), 0);
        assert_eq!(residue_fold_padded(&[0xFF; 4]), 0);
    }

    #[test]
    fn xor_fold_is_parity_per_bit() {
        // Three words with bit 0 set -> parity 1; two words with bit 31
        // set -> parity 0.
        let mut buf = vec![0u8; 16];
        buf[0] = 1;
        buf[4] = 1;
        buf[8] = 1;
        buf[3] = 0x80;
        buf[7] = 0x80;
        let cw = xor_fold(&buf);
        assert_eq!(cw & 1, 1);
        assert_eq!(cw >> 31, 0);
    }

    /// Every word-aligned length through four wide blocks (each remainder
    /// shape: 0..3 `u64` words, 0/1 `u32`) at every sub-slice offset 0..8
    /// — the kernels are defined by byte offsets, not pointer alignment —
    /// on patterned and all-ones input (the residue's end-around carry).
    #[test]
    fn kernels_match_references_every_shape() {
        for input in [
            patterned(8 + 4 * BLOCK + WORD),
            vec![0xFF; 8 + 4 * BLOCK + WORD],
        ] {
            for off in 0..8 {
                for len in (0..=4 * BLOCK + WORD).step_by(WORD) {
                    let sub = &input[off..off + len];
                    for kind in CodewordAlgebraKind::ALL {
                        let want = ref_fold(kind, sub);
                        assert_eq!(fold(kind, sub), want, "{kind:?} off {off} len {len}");
                        assert_eq!(scalar(kind, sub), want, "{kind:?} scalar len {len}");
                    }
                }
            }
        }
    }

    /// The padded fold equals the reference for every length, including
    /// every 1..3-byte tail.
    #[test]
    fn padded_folds_match_references_every_tail() {
        for input in [patterned(130), vec![0xFF; 130]] {
            for len in 0..=input.len() {
                for kind in CodewordAlgebraKind::ALL {
                    let sub = &input[..len];
                    assert_eq!(
                        fold_padded(kind, sub),
                        ref_fold(kind, sub),
                        "{kind:?} {len}"
                    );
                }
            }
        }
        assert_eq!(xor_fold_padded(&[0xff]), 0x0000_00ff);
        assert_eq!(xor_fold_padded(&[0, 0, 0, 0, 0xab]), 0x0000_00ab);
    }

    #[test]
    #[should_panic(expected = "fold over unaligned length")]
    fn xor_fold_rejects_unaligned_length_in_all_builds() {
        // Regression: release builds used to silently drop the trailing
        // partial word here and return fold of the first 4 bytes.
        xor_fold(&[1u8, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "fold over unaligned length")]
    fn residue_fold_rejects_unaligned_length() {
        residue_fold(&[1u8, 2, 3, 4, 5]);
    }

    proptest! {
        #[test]
        fn kernels_equal_references(
            bytes in proptest::collection::vec(any::<u8>(), 0..1024),
            off in 0usize..8,
        ) {
            let sub = &bytes[off.min(bytes.len())..];
            let aligned = &sub[..sub.len() / WORD * WORD];
            for kind in CodewordAlgebraKind::ALL {
                prop_assert_eq!(fold(kind, aligned), ref_fold(kind, aligned));
                prop_assert_eq!(scalar(kind, aligned), ref_fold(kind, aligned));
                prop_assert_eq!(fold_padded(kind, sub), ref_fold(kind, sub));
            }
        }
    }
}
