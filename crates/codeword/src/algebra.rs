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
//! * **XOR fold** — the paper's parity fold. Deltas are self-inverse
//!   (`neg` is the identity function); the fold is blind to an even
//!   number of identical flips in one bit column.
//! * **Residue** — the sum of the region's words modulo `2^32 − 1`,
//!   canonical in `[0, 2^32 − 1)`. A same-direction pair of identical
//!   bit-column flips perturbs the sum by `2^(k+1) ≠ 0`, so the
//!   paired-flip class the XOR fold misses is detected — including flips
//!   of bit 31, because `2^32 ≡ 1 (mod 2^32 − 1)` (the end-around carry).
//!   Opposite-direction pairs (`+2^k` and `−2^k`) still cancel; see
//!   DESIGN.md for the full blind-spot accounting.
//!
//! The kernels live in [`dali_common::fold`], one per algebra: the slice
//! entries are re-exported here, and region codewords fold through the
//! same kernels by `DbImage::fold`. A physical update moves its regions'
//! codewords by [`CodewordAlgebraKind::delta_of_folds`] of the before- and
//! after-image folds.

pub use dali_common::fold::{fold, fold_padded, residue_fold, residue_fold_padded};
pub use dali_common::CodewordAlgebraKind;

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect()
    }

    /// The delta `apply_update` publishes — `delta_of_folds` of the old
    /// and new folds — moves the codeword forward, its reverse rolls it
    /// back, and the reverse is `neg` of the forward delta.
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
            let d = kind.delta_of_folds(before, after);
            assert_eq!(kind.combine(before, d), after, "{kind:?} forward");
            let back = kind.delta_of_folds(after, before);
            assert_eq!(kind.combine(after, back), before, "{kind:?} rollback");
            assert_eq!(back, kind.neg(d), "{kind:?} reverse is neg");
        }
        assert_ne!(
            fold(CodewordAlgebraKind::XorFold, &old),
            fold(CodewordAlgebraKind::Residue, &old)
        );
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
