//! Property tests for the codeword-algebra laws, over both algebras.
//!
//! Everything the protection machinery asks of an algebra is a short
//! list of equations (see `dali_codeword::algebra`): folds compose over
//! concatenation, the directed update delta moves a codeword exactly to
//! the recompute-from-image value, deltas coalesce associatively and
//! commutatively (concurrent updaters publish them into the codeword
//! table in whatever order they finish), and the zero-padded fold agrees with the aligned fold
//! on zero-padded input. These hold trivially for XOR; for the
//! mod-(2^32−1) residue they depend on the end-around carry and the
//! canonicalization being right. So: random data, both algebras, every
//! law. `PROPTEST_CASES` raises the case count in CI.

use dali::codeword::algebra::{fold, fold_padded};
use dali::common::fold::{residue_fold_scalar, xor_fold_scalar};
use dali::CodewordAlgebraKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Canonical codeword from an arbitrary u32 (the residue algebra's
/// carrier is [0, 2^32−1), so 0xFFFF_FFFF canonicalizes to 0).
fn canon(kind: CodewordAlgebraKind, raw: u32) -> u32 {
    fold(kind, &raw.to_le_bytes())
}

fn aligned(bytes: Vec<u8>) -> Vec<u8> {
    let len = bytes.len() / 4 * 4;
    let mut b = bytes;
    b.truncate(len);
    b
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok().and_then(|v| v.parse().ok()).unwrap_or(64),
        ..ProptestConfig::default()
    })]

    /// fold(a ++ b) == combine(fold(a), fold(b)).
    #[test]
    fn fold_composes_over_concatenation(
        a in proptest::collection::vec(any::<u8>(), 0..257),
        b in proptest::collection::vec(any::<u8>(), 0..257),
    ) {
        let (a, b) = (aligned(a), aligned(b));
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        for kind in CodewordAlgebraKind::ALL {
            prop_assert_eq!(
                fold(kind, &ab),
                kind.combine(fold(kind, &a), fold(kind, &b)),
                "{:?}", kind
            );
            // The wide kernel and the scalar reference agree everywhere.
            let scalar = match kind {
                CodewordAlgebraKind::XorFold => xor_fold_scalar(&ab),
                CodewordAlgebraKind::Residue => residue_fold_scalar(&ab),
            };
            prop_assert_eq!(fold(kind, &ab), scalar, "{:?}", kind);
        }
    }

    /// Composing the directed delta of an in-place sub-range overwrite —
    /// `delta_of_folds` of the old and new sub-range folds, the formula
    /// `apply_update` runs — onto the old codeword equals recomputing
    /// from the new image; the negated delta rolls it back.
    #[test]
    fn delta_composed_equals_recompute(
        region in proptest::collection::vec(any::<u8>(), 4..513),
        replacement in proptest::collection::vec(any::<u8>(), 1..129),
        at in any::<u16>(),
    ) {
        let region = aligned(region);
        let words = region.len() / 4;
        let start = (at as usize % words) * 4;
        let len = (replacement.len() / 4 * 4).min(region.len() - start);
        let replacement = &replacement[..len];

        let mut after = region.clone();
        after[start..start + len].copy_from_slice(replacement);
        for kind in CodewordAlgebraKind::ALL {
            let d = kind.delta_of_folds(
                fold(kind, &region[start..start + len]),
                fold(kind, replacement),
            );
            prop_assert_eq!(
                kind.combine(fold(kind, &region), d),
                fold(kind, &after),
                "{:?} forward", kind
            );
            prop_assert_eq!(
                kind.combine(fold(kind, &after), kind.neg(d)),
                fold(kind, &region),
                "{:?} rollback", kind
            );
        }
    }

    /// Deltas coalesce associatively and commutatively: any grouping and
    /// any order of combining the same multiset of deltas produces the
    /// same merged delta. This is the invariant that lets concurrent
    /// updaters publish into one codeword slot without ordering.
    #[test]
    fn deltas_coalesce_in_any_order_and_grouping(
        raws in proptest::collection::vec(any::<u32>(), 1..24),
        seed in any::<u64>(),
    ) {
        for kind in CodewordAlgebraKind::ALL {
            let deltas: Vec<u32> = raws.iter().map(|&r| canon(kind, r)).collect();
            // Left-to-right fold.
            let left = deltas.iter().fold(kind.identity(), |a, &d| kind.combine(a, d));
            // Right-to-left fold (associativity).
            let right = deltas.iter().rev().fold(kind.identity(), |a, &d| kind.combine(d, a));
            prop_assert_eq!(left, right, "{:?} associativity", kind);
            // Shuffled order (commutativity).
            let mut shuffled = deltas.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let any_order = shuffled.iter().fold(kind.identity(), |a, &d| kind.combine(a, d));
            prop_assert_eq!(left, any_order, "{:?} commutativity", kind);
            // Pairwise tree reduction (the striped audit's merge shape).
            let mut level = deltas;
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|c| if c.len() == 2 { kind.combine(c[0], c[1]) } else { c[0] })
                    .collect();
            }
            prop_assert_eq!(left, level[0], "{:?} tree reduction", kind);
        }
    }

    /// fold_padded(b) == fold(b ++ zeros), and agrees with fold exactly
    /// on already-aligned input.
    #[test]
    fn fold_padded_agrees_with_fold_on_zero_padded_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut padded = bytes.clone();
        padded.resize(bytes.len().div_ceil(4) * 4, 0);
        for kind in CodewordAlgebraKind::ALL {
            prop_assert_eq!(fold_padded(kind, &bytes), fold(kind, &padded), "{:?}", kind);
            prop_assert_eq!(fold_padded(kind, &padded), fold(kind, &padded), "{:?}", kind);
        }
    }

    /// Group laws on canonical codewords: identity is neutral, neg is the
    /// inverse, combine commutes.
    #[test]
    fn combine_is_a_commutative_group(ra in any::<u32>(), rb in any::<u32>()) {
        for kind in CodewordAlgebraKind::ALL {
            let (a, b) = (canon(kind, ra), canon(kind, rb));
            prop_assert_eq!(kind.combine(a, kind.identity()), a, "{:?} identity", kind);
            prop_assert_eq!(kind.combine(a, kind.neg(a)), kind.identity(), "{:?} inverse", kind);
            prop_assert_eq!(kind.combine(a, b), kind.combine(b, a), "{:?} commute", kind);
        }
    }
}
