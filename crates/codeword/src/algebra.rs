//! Pluggable codeword algebras: the paper's XOR fold and a mod-(2^32−1)
//! residue code.
//!
//! The paper fixes the codeword to the bitwise XOR of a region's 32-bit
//! words (§3). Everything the protection machinery actually relies on is
//! weaker than "XOR": it needs a commutative group on `u32` codewords —
//!
//! * **Composition** — `fold(a ++ b) = combine(fold(a), fold(b))`.
//! * **Update delta** — replacing sub-range `old` with `new` moves the
//!   region codeword by `delta = combine(fold(new), neg(fold(old)))`, and
//!   `combine(codeword, delta)` equals recompute-from-image.
//! * **Coalescing** — deltas combine associatively and commutatively, so
//!   concurrent updaters can publish them into the codeword table in any
//!   order.
//!
//! Two algebras satisfy it, selected by [`CodewordAlgebraKind`] (a `Copy`
//! enum in `dali-common`, stored in config and checkpoint metadata, which
//! owns `combine`/`neg`) and dispatched through the free functions here:
//!
//! * **XOR fold** — the paper's parity fold ([`crate::codeword`]). Deltas
//!   are self-inverse (`neg` is the identity function); the fold is blind
//!   to an even number of identical flips in one bit column.
//! * **Residue** — the sum of the region's words modulo `2^32 − 1`,
//!   canonical in `[0, 2^32 − 1)`. A same-direction pair of identical
//!   bit-column flips perturbs the sum by `2^(k+1) ≠ 0`, so the
//!   paired-flip class the XOR fold misses is detected — including flips
//!   of bit 31, because `2^32 ≡ 1 (mod 2^32 − 1)` (the end-around carry).
//!   Opposite-direction pairs (`+2^k` and `−2^k`) still cancel; see
//!   DESIGN.md for the full blind-spot accounting.
//!
//! The slice kernels themselves ([`fold`], [`fold_padded`],
//! [`residue_fold`], [`residue_fold_padded`]) live in
//! [`dali_common::fold`] — frame and trailer checksums fold through the
//! same functions — and are re-exported here; this module adds the
//! `*_scalar` references and the directed [`delta`].

use crate::codeword::{self, load32};
use dali_common::align::WORD;
pub use dali_common::fold::{fold, fold_padded, residue_fold, residue_fold_padded};
pub use dali_common::CodewordAlgebraKind;
use dali_common::RESIDUE_MODULUS;

/// [`fold`] through the one-word-at-a-time reference kernels.
#[inline]
pub fn fold_scalar(kind: CodewordAlgebraKind, bytes: &[u8]) -> u32 {
    match kind {
        CodewordAlgebraKind::XorFold => codeword::fold_scalar(bytes),
        CodewordAlgebraKind::Residue => residue_fold_scalar(bytes),
    }
}

/// The directed delta taking fold(`old`) to fold(`new`) under `kind`.
///
/// # Panics
///
/// Panics if the lengths differ or are not a multiple of 4.
#[inline]
pub fn delta(kind: CodewordAlgebraKind, old: &[u8], new: &[u8]) -> u32 {
    match kind {
        CodewordAlgebraKind::XorFold => codeword::delta(old, new),
        CodewordAlgebraKind::Residue => {
            assert_eq!(old.len(), new.len(), "delta over unequal lengths");
            kind.delta_of_folds(residue_fold(old), residue_fold(new))
        }
    }
}

/// One-word-at-a-time scalar reference for [`residue_fold`]. Same
/// contract and result.
#[inline]
pub fn residue_fold_scalar(bytes: &[u8]) -> u32 {
    assert!(
        bytes.len().is_multiple_of(WORD),
        "fold over unaligned length {}",
        bytes.len()
    );
    let mut sum: u64 = 0;
    for chunk in bytes.chunks_exact(WORD) {
        sum += load32(chunk) as u64;
        if sum >= u64::MAX - u32::MAX as u64 {
            sum %= RESIDUE_MODULUS; // unreachable below ~16 GiB
        }
    }
    (sum % RESIDUE_MODULUS) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Independent byte-at-a-time reference: sum each byte into its LE
    /// word column, reduce at the end. Zero-pad semantics.
    fn ref_residue(bytes: &[u8]) -> u32 {
        let mut sum: u128 = 0;
        for (i, &b) in bytes.iter().enumerate() {
            sum += (b as u128) << (8 * (i & 3));
        }
        (sum % RESIDUE_MODULUS as u128) as u32
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect()
    }

    #[test]
    fn residue_fold_zeros_and_single_word() {
        assert_eq!(residue_fold(&[]), 0);
        assert_eq!(residue_fold(&[0u8; 64]), 0);
        assert_eq!(residue_fold(&0xdead_beefu32.to_le_bytes()), 0xdead_beef);
        // The all-ones word is congruent to zero: canonical fold is 0.
        assert_eq!(residue_fold(&0xffff_ffffu32.to_le_bytes()), 0);
    }

    #[test]
    fn residue_wide_matches_reference_every_aligned_length() {
        for len in (0..=4 * codeword::BLOCK + WORD).step_by(WORD) {
            let buf = patterned(len);
            assert_eq!(residue_fold(&buf), ref_residue(&buf), "len {len}");
            assert_eq!(
                residue_fold_scalar(&buf),
                ref_residue(&buf),
                "scalar len {len}"
            );
        }
    }

    /// The one slice kernel per algebra equals the scalar reference on
    /// the zero-padded input, for every length through four wide blocks
    /// (each remainder shape: 0..3 `u64` words, 0/1 `u32`, 0..3 tail
    /// bytes) — region codewords, log and wire frames and file trailers
    /// all fold through it, so frames written by older builds keep
    /// verifying. All-ones input walks the residue's end-around carry and
    /// its canonical zero.
    #[test]
    fn padded_kernel_equals_scalar_reference_every_length() {
        for kind in CodewordAlgebraKind::ALL {
            for input in [patterned(130), vec![0xFF; 130]] {
                for len in 0..=input.len() {
                    let mut padded = input[..len].to_vec();
                    padded.resize(len.next_multiple_of(WORD), 0);
                    assert_eq!(
                        fold_padded(kind, &input[..len]),
                        fold_scalar(kind, &padded),
                        "{kind:?} len {len}"
                    );
                }
            }
        }
        assert_eq!(residue_fold_padded(&[0xFF; 4]), 0, "M is canonical 0");
    }

    #[test]
    #[should_panic(expected = "fold over unaligned length")]
    fn residue_fold_rejects_unaligned_length() {
        residue_fold(&[1u8, 2, 3, 4, 5]);
    }

    #[test]
    fn kind_dispatch_reaches_each_algebras_kernels() {
        let buf = patterned(100);
        let aligned = &buf[..96];
        let new: Vec<u8> = aligned.iter().map(|b| b.wrapping_add(3)).collect();
        let (x, r) = (CodewordAlgebraKind::XorFold, CodewordAlgebraKind::Residue);
        assert_eq!(fold(x, aligned), codeword::fold(aligned));
        assert_eq!(fold_scalar(x, aligned), codeword::fold_scalar(aligned));
        assert_eq!(fold_padded(x, &buf), codeword::fold_padded(&buf));
        assert_eq!(delta(x, aligned, &new), codeword::delta(aligned, &new));
        assert_eq!(fold(r, aligned), residue_fold(aligned));
        assert_eq!(fold_scalar(r, aligned), residue_fold_scalar(aligned));
        assert_eq!(fold_padded(r, &buf), residue_fold_padded(&buf));
        assert_ne!(fold(x, aligned), fold(r, aligned));
    }

    #[test]
    fn directed_delta_composes_for_both_algebras() {
        let old = patterned(64);
        let new: Vec<u8> = old
            .iter()
            .map(|b| b.wrapping_mul(5).wrapping_add(1))
            .collect();
        for kind in CodewordAlgebraKind::ALL {
            let before = fold(kind, &old);
            let after = fold(kind, &new);
            let d = delta(kind, &old, &new);
            assert_eq!(kind.combine(before, d), after, "{kind:?} forward");
            let back = delta(kind, &new, &old);
            assert_eq!(kind.combine(after, back), before, "{kind:?} rollback");
            assert_eq!(back, kind.neg(d), "{kind:?} reverse is neg");
        }
    }

    #[test]
    fn residue_sees_the_xor_blind_pair() {
        // Same-direction paired flip in one column: XOR delta cancels,
        // residue moves by 2^(k+1).
        let mut buf = patterned(64);
        let before_x = fold(CodewordAlgebraKind::XorFold, &buf);
        let before_r = fold(CodewordAlgebraKind::Residue, &buf);
        // Clear bit 5 of words 3 and 7, then set both (same direction).
        for w in [3usize, 7] {
            buf[w * 4] &= !(1 << 5);
        }
        let cleared_x = fold(CodewordAlgebraKind::XorFold, &buf);
        let cleared_r = fold(CodewordAlgebraKind::Residue, &buf);
        for w in [3usize, 7] {
            buf[w * 4] |= 1 << 5;
        }
        assert_eq!(
            fold(CodewordAlgebraKind::XorFold, &buf),
            cleared_x,
            "XOR blind"
        );
        assert_ne!(
            fold(CodewordAlgebraKind::Residue, &buf),
            cleared_r,
            "residue sees"
        );
        let _ = (before_x, before_r);
    }

    #[test]
    fn bit31_pair_detected_via_end_around_carry() {
        // Two +2^31 perturbations sum to 2^32 ≡ 1 (mod 2^32 − 1): even the
        // top-bit pair, which overflows the word, stays visible.
        let mut buf = vec![0u8; 32];
        let before = fold(CodewordAlgebraKind::Residue, &buf);
        buf[3] = 0x80;
        buf[11] = 0x80;
        let after = fold(CodewordAlgebraKind::Residue, &buf);
        assert_eq!(
            CodewordAlgebraKind::Residue.delta_of_folds(before, after),
            1,
            "2^31 + 2^31 = 2^32 ≡ 1"
        );
        assert_eq!(fold(CodewordAlgebraKind::XorFold, &buf), 0, "XOR blind");
    }

    #[test]
    fn residue_opposite_direction_pair_still_cancels() {
        // The documented residual blind spot: +2^k on one word and −2^k on
        // another leave the sum unchanged.
        let mut buf = vec![0u8; 32];
        buf[0] = 0x10; // word 0 = 16
        buf[4] = 0x10; // word 1 = 16
        let before = fold(CodewordAlgebraKind::Residue, &buf);
        buf[0] = 0x20; // word 0 += 16
        buf[4] = 0x00; // word 1 -= 16
        assert_eq!(fold(CodewordAlgebraKind::Residue, &buf), before);
    }
}
