//! The XOR-fold codeword algebra.
//!
//! A codeword is the bitwise exclusive-or of the 32-bit little-endian words
//! of a byte range: the *i*'th bit of the codeword is the parity of the
//! *i*'th bit of each word (paper §3). Two identities make incremental
//! maintenance cheap:
//!
//! * **Composition** — `fold(a ++ b) = fold(a) ^ fold(b)`.
//! * **Update delta** — replacing a word-aligned sub-range `old` with `new`
//!   changes the region codeword by `fold(old) ^ fold(new)`.
//!
//! Deltas commute, so concurrent updaters can publish them with an atomic
//! `fetch_xor` without any ordering constraint.
//!
//! # The kernels
//!
//! [`fold`] and [`fold_padded`] are the workspace's one wide XOR slice
//! kernel, which lives in [`dali_common::fold`] (log frames, wire frames
//! and the recovery files' trailers fold through the same function) and
//! is re-exported here under its historical path. This module adds what
//! only codeword maintenance needs: the one-word-at-a-time
//! [`fold_scalar`] reference the equivalence suites compare against, and
//! the fused two-slice [`delta`].

use dali_common::align::WORD;
pub(crate) use dali_common::fold::{load32, load64, BLOCK};
pub use dali_common::fold::{xor_fold as fold, xor_fold_padded as fold_padded};

/// One-word-at-a-time scalar reference fold: the kernel the wide path
/// replaced, kept public as the reference of the kernel equivalence
/// suites. Same contract as [`fold`].
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of 4.
#[inline]
pub fn fold_scalar(bytes: &[u8]) -> u32 {
    assert!(
        bytes.len().is_multiple_of(WORD),
        "fold over unaligned length {}",
        bytes.len()
    );
    let mut acc = 0u32;
    for chunk in bytes.chunks_exact(WORD) {
        acc ^= load32(chunk);
    }
    acc
}

/// The codeword delta produced by overwriting `old` with `new` (equal
/// lengths, word-aligned). Algebraically `fold(old) ^ fold(new)`, computed
/// in a single interleaved pass over both slices — this sits on every
/// prescribed-update hot path, and fusing the walks halves the loop
/// overhead and lets both streams share the accumulator registers.
///
/// # Panics
///
/// Panics if the lengths differ or are not a multiple of 4.
#[inline]
pub fn delta(old: &[u8], new: &[u8]) -> u32 {
    assert_eq!(old.len(), new.len(), "delta over unequal lengths");
    assert!(
        old.len().is_multiple_of(WORD),
        "delta over unaligned length {}",
        old.len()
    );
    let mut lanes = [0u64; 4];
    let mut ob = old.chunks_exact(BLOCK);
    let mut nb = new.chunks_exact(BLOCK);
    for (o, n) in (&mut ob).zip(&mut nb) {
        lanes[0] ^= load64(&o[0..8]) ^ load64(&n[0..8]);
        lanes[1] ^= load64(&o[8..16]) ^ load64(&n[8..16]);
        lanes[2] ^= load64(&o[16..24]) ^ load64(&n[16..24]);
        lanes[3] ^= load64(&o[24..32]) ^ load64(&n[24..32]);
    }
    let mut acc64 = (lanes[0] ^ lanes[1]) ^ (lanes[2] ^ lanes[3]);
    let mut ow = ob.remainder().chunks_exact(8);
    let mut nw = nb.remainder().chunks_exact(8);
    for (o, n) in (&mut ow).zip(&mut nw) {
        acc64 ^= load64(o) ^ load64(n);
    }
    let mut acc = (acc64 as u32) ^ ((acc64 >> 32) as u32);
    let (orem, nrem) = (ow.remainder(), nw.remainder());
    if !orem.is_empty() {
        acc ^= load32(orem) ^ load32(nrem);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Independent byte-at-a-time reference: byte `i` contributes to bit
    /// column `8 * (i mod 4)` of the codeword. Zero-pad semantics, so it
    /// matches `fold` on aligned lengths and `fold_padded` on any length.
    fn ref_fold(bytes: &[u8]) -> u32 {
        let mut acc = 0u32;
        for (i, &b) in bytes.iter().enumerate() {
            acc ^= (b as u32) << (8 * (i & 3));
        }
        acc
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    #[test]
    fn fold_of_zeros_is_zero() {
        assert_eq!(fold(&[0u8; 64]), 0);
        assert_eq!(fold(&[]), 0);
    }

    #[test]
    fn fold_single_word_is_the_word() {
        assert_eq!(fold(&0xdead_beefu32.to_le_bytes()), 0xdead_beef);
    }

    #[test]
    fn fold_is_parity_per_bit() {
        // Three words with bit 0 set -> parity 1; two words with bit 7 set
        // -> parity 0.
        let mut buf = vec![0u8; 16];
        buf[0] = 1; // word 0 bit 0
        buf[4] = 1; // word 1 bit 0
        buf[8] = 1; // word 2 bit 0
        buf[3] = 0x80; // word 0 bit 31
        buf[7] = 0x80; // word 1 bit 31
        let cw = fold(&buf);
        assert_eq!(cw & 1, 1);
        assert_eq!(cw >> 31, 0);
    }

    /// Every word-aligned length through several wide blocks, so each
    /// remainder shape (0..3 u64 words + 0/1 u32) is exercised.
    #[test]
    fn wide_fold_matches_reference_every_aligned_length() {
        for len in (0..=4 * BLOCK + WORD).step_by(WORD) {
            let buf = patterned(len);
            assert_eq!(fold(&buf), ref_fold(&buf), "len {len}");
            assert_eq!(fold_scalar(&buf), ref_fold(&buf), "scalar len {len}");
        }
    }

    /// Misaligned base pointers: the slice kernel is defined by byte
    /// offsets within the slice, not by pointer alignment, so folding a
    /// sub-slice at every offset 0..8 must match the reference on the same
    /// sub-slice.
    #[test]
    fn wide_fold_is_alignment_oblivious() {
        let backing = patterned(3 * BLOCK + 16);
        for off in 0..8 {
            let sub = &backing[off..off + 2 * BLOCK + 8];
            assert_eq!(fold(sub), ref_fold(sub), "offset {off}");
            assert_eq!(fold_padded(&backing[off..]), ref_fold(&backing[off..]));
        }
    }

    #[test]
    #[should_panic(expected = "fold over unaligned length")]
    fn fold_rejects_unaligned_length_in_all_builds() {
        // Regression: release builds used to silently drop the trailing
        // partial word here and return fold of the first 4 bytes.
        fold(&[1u8, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "delta over unaligned length")]
    fn delta_rejects_unaligned_length() {
        delta(&[1u8, 2, 3], &[4u8, 5, 6]);
    }

    #[test]
    fn delta_zero_for_identical() {
        let a = [5u8; 32];
        assert_eq!(delta(&a, &a), 0);
    }

    /// The fused interleaved delta equals the two-pass definition for
    /// every aligned length through several blocks.
    #[test]
    fn fused_delta_matches_two_pass_every_length() {
        for len in (0..=3 * BLOCK + WORD).step_by(WORD) {
            let old = patterned(len);
            let new: Vec<u8> = old.iter().map(|b| b.wrapping_add(131)).collect();
            assert_eq!(delta(&old, &new), fold(&old) ^ fold(&new), "len {len}");
            assert_eq!(
                delta(&old, &new),
                ref_fold(&old) ^ ref_fold(&new),
                "len {len}"
            );
        }
    }

    #[test]
    fn fold_padded_matches_fold_when_aligned() {
        let b = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(fold_padded(&b), fold(&b));
    }

    #[test]
    fn fold_padded_pads_with_zeros() {
        assert_eq!(fold_padded(&[0xff]), 0x0000_00ff);
        assert_eq!(fold_padded(&[0, 0, 0, 0, 0xab]), 0x0000_00ab);
    }

    proptest! {
        #[test]
        fn wide_fold_equals_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let aligned = &bytes[..bytes.len() / 4 * 4];
            prop_assert_eq!(fold(aligned), ref_fold(aligned));
            prop_assert_eq!(fold(aligned), fold_scalar(aligned));
            prop_assert_eq!(fold_padded(&bytes), ref_fold(&bytes));
        }

        #[test]
        fn fused_delta_equals_reference(
            a in proptest::collection::vec(any::<u8>(), 0..512),
            b in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let n = a.len().min(b.len()) / 4 * 4;
            let (old, new) = (&a[..n], &b[..n]);
            prop_assert_eq!(delta(old, new), ref_fold(old) ^ ref_fold(new));
        }

        #[test]
        fn composition(a in proptest::collection::vec(any::<u8>(), 0..64),
                       b in proptest::collection::vec(any::<u8>(), 0..64)) {
            let a4 = {
                let mut v = a.clone();
                v.truncate(v.len() / 4 * 4);
                v
            };
            let b4 = {
                let mut v = b.clone();
                v.truncate(v.len() / 4 * 4);
                v
            };
            let mut ab = a4.clone();
            ab.extend_from_slice(&b4);
            prop_assert_eq!(fold(&ab), fold(&a4) ^ fold(&b4));
        }

        #[test]
        fn incremental_maintenance_equals_recompute(
            region in proptest::collection::vec(any::<u8>(), 64..=64),
            new in proptest::collection::vec(any::<u8>(), 4..=16),
            word_off in 0usize..12,
        ) {
            // Truncate `new` to a word multiple and clamp in range.
            let mut new = new;
            new.truncate(new.len() / 4 * 4);
            prop_assume!(!new.is_empty());
            let off = (word_off * 4).min(64 - new.len());
            let off = off / 4 * 4;

            let cw_before = fold(&region);
            let old = region[off..off + new.len()].to_vec();
            let mut after = region.clone();
            after[off..off + new.len()].copy_from_slice(&new);

            let incr = cw_before ^ delta(&old, &new);
            prop_assert_eq!(incr, fold(&after));
        }

        #[test]
        fn delta_is_symmetric_difference(
            old in proptest::collection::vec(any::<u8>(), 16..=16),
            new in proptest::collection::vec(any::<u8>(), 16..=16),
        ) {
            prop_assert_eq!(delta(&old, &new), delta(&new, &old));
            prop_assert_eq!(delta(&old, &old), 0);
        }
    }
}
