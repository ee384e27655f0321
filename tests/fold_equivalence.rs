//! Kernel-equivalence suite for the wide XOR-fold.
//!
//! The fold kernels (`codeword::fold`/`fold_padded`/`delta` on slices,
//! `Arena::xor_fold` behind `DbImage`) process 32-byte blocks with four
//! independent `u64` accumulators. That rewrite is only a win if it is
//! *exactly* the old one-word-at-a-time fold, so everything here compares
//! against an independent byte-at-a-time reference — byte `i` contributes
//! to bit column `8 * (i mod 4)` — that shares no code with the kernels:
//!
//! * exhaustively, every word-aligned length through several wide blocks
//!   (all `u64`-remainder and final-`u32` tail shapes), every partial-word
//!   tail length 1..32 for the padded fold, and every sub-slice offset
//!   0..8 (misaligned base pointers — the slice kernels must be
//!   alignment-oblivious; the raw-pointer kernel must take its one-word
//!   alignment head at offsets ≡ 4 mod 8);
//! * property-based, over random contents / lengths / offsets (CI raises
//!   the case count via `PROPTEST_CASES`, as with the other suites);
//! * and at the scan layer: a parallel audit must produce a report
//!   byte-identical to the serial scan on a deliberately corrupted image,
//!   for every worker count.

use dali::codeword::codeword::{delta, fold, fold_padded, fold_scalar};
use dali::codeword::{CodewordAlgebraKind, CodewordProtection, DeferredConfig, ProtectionScheme};
use dali::mem::DbImage;
use dali::DbAddr;
use proptest::prelude::*;

/// Independent byte-wise reference fold (zero-pad semantics: agrees with
/// `fold` on aligned lengths and with `fold_padded` on any length).
fn ref_fold(bytes: &[u8]) -> u32 {
    let mut acc = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        acc ^= (b as u32) << (8 * (i & 3));
    }
    acc
}

fn patterned(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2654435761).rotate_right(7) ^ i) as u8)
        .collect()
}

/// Every word-aligned length 0..=288 (several 32-byte blocks plus every
/// tail shape) at every sub-slice offset 0..8.
#[test]
fn slice_fold_matches_reference_exhaustively() {
    let backing = patterned(8 + 288);
    for off in 0..8 {
        for len in (0..=288).step_by(4) {
            let sub = &backing[off..off + len];
            assert_eq!(fold(sub), ref_fold(sub), "offset {off} len {len}");
            assert_eq!(fold_scalar(sub), ref_fold(sub), "offset {off} len {len}");
        }
    }
}

/// Every tail length 1..32 (and beyond, through two blocks) for the
/// zero-padded fold, again at every base offset.
#[test]
fn padded_fold_matches_reference_every_tail() {
    let backing = patterned(8 + 2 * 32 + 31);
    for off in 0..8 {
        for len in 0..=2 * 32 + 31 {
            let sub = &backing[off..off + len];
            assert_eq!(fold_padded(sub), ref_fold(sub), "offset {off} len {len}");
        }
    }
}

/// The fused interleaved delta equals the reference symmetric difference
/// for every aligned length and offset pair.
#[test]
fn fused_delta_matches_reference_exhaustively() {
    let old_backing = patterned(8 + 128);
    let new_backing: Vec<u8> = old_backing
        .iter()
        .map(|b| b.wrapping_mul(73) ^ 0x5a)
        .collect();
    for off in 0..8 {
        for len in (0..=128).step_by(4) {
            let (o, n) = (&old_backing[off..off + len], &new_backing[off..off + len]);
            assert_eq!(
                delta(o, n),
                ref_fold(o) ^ ref_fold(n),
                "offset {off} len {len}"
            );
        }
    }
}

/// The raw-pointer kernel behind `DbImage::xor_fold`, for every offset
/// alignment mod 8 (the wide path takes a one-`u32` head at ≡ 4 mod 8)
/// and every tail shape.
#[test]
fn image_fold_matches_reference_exhaustively() {
    let image = DbImage::new(1, 4096).unwrap();
    let noise = patterned(4096);
    image.write(DbAddr(0), &noise).unwrap();
    for off in [0usize, 4, 8, 12, 20, 36] {
        for len in (0..=3 * 32 + 4).step_by(4) {
            assert_eq!(
                image.xor_fold(DbAddr(off), len).unwrap(),
                ref_fold(&noise[off..off + len]),
                "offset {off} len {len}"
            );
        }
    }
}

/// Corrupt a scattered set of regions and check that the parallel audit
/// reports exactly what the serial audit reports, for every worker count
/// (including more workers than regions).
#[test]
fn parallel_audit_report_identical_to_serial_on_corrupt_image() {
    let image = DbImage::new(8, 4096).unwrap();
    let prot = CodewordProtection::with_config(
        &image,
        ProtectionScheme::DataCodeword,
        64,
        1,
        DeferredConfig::default(),
        1,
        CodewordAlgebraKind::XorFold,
    )
    .unwrap();
    // Maintained updates first, so codewords are non-trivial.
    for r in (0..prot.geometry().num_regions()).step_by(7) {
        let addr = DbAddr(r * 64 + 8);
        let mut old = [0u8; 8];
        image.read(addr, &mut old).unwrap();
        let new = patterned(8);
        image.write(addr, &new).unwrap();
        prot.apply_update(&image, addr, &old).unwrap();
    }
    assert!(prot.audit_with_threads(&image, 3).unwrap().clean());
    // Now stray writes that bypass maintenance.
    for addr in [5usize, 64 * 9 + 3, 4096 * 3, 4096 * 5 + 777, 8 * 4096 - 10] {
        image.write(DbAddr(addr), &[0xba]).unwrap();
    }
    let serial = prot.audit_with_threads(&image, 1).unwrap();
    assert_eq!(serial.corrupt.len(), 5);
    for threads in [2, 3, 4, 8, 64, prot.geometry().num_regions() + 1] {
        let par = prot.audit_with_threads(&image, threads).unwrap();
        assert_eq!(
            par.regions_checked, serial.regions_checked,
            "{threads} threads"
        );
        assert_eq!(par.corrupt, serial.corrupt, "{threads} threads");
    }
}

proptest! {
    /// Random contents and lengths ≥ 256 bytes with random misaligned
    /// sub-slice bases: wide ≡ scalar ≡ byte-wise reference.
    #[test]
    fn wide_fold_equals_reference(
        bytes in proptest::collection::vec(any::<u8>(), 256..1024),
        off in 0usize..8,
    ) {
        let sub = &bytes[off.min(bytes.len())..];
        let aligned = &sub[..sub.len() / 4 * 4];
        prop_assert_eq!(fold(aligned), ref_fold(aligned));
        prop_assert_eq!(fold_scalar(aligned), ref_fold(aligned));
        prop_assert_eq!(fold_padded(sub), ref_fold(sub));
    }

    /// Fused delta ≡ reference symmetric difference on random pairs.
    #[test]
    fn fused_delta_equals_reference(
        a in proptest::collection::vec(any::<u8>(), 0..768),
        b in proptest::collection::vec(any::<u8>(), 0..768),
    ) {
        let n = a.len().min(b.len()) / 4 * 4;
        let (old, new) = (&a[..n], &b[..n]);
        prop_assert_eq!(delta(old, new), ref_fold(old) ^ ref_fold(new));
    }

    /// Raw-pointer kernel ≡ reference on random word-aligned ranges of a
    /// noisy image (offsets cover both 8-aligned and 4-mod-8 bases).
    #[test]
    fn image_fold_equals_reference(
        seed in any::<u32>(),
        word_off in 0usize..512,
        word_len in 0usize..256,
    ) {
        let image = DbImage::new(1, 4096).unwrap();
        let noise: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(seed | 1).rotate_left(11) ^ i) as u8)
            .collect();
        image.write(DbAddr(0), &noise).unwrap();
        let (off, len) = (word_off * 4, word_len * 4);
        prop_assume!(off + len <= 4096);
        prop_assert_eq!(
            image.xor_fold(DbAddr(off), len).unwrap(),
            ref_fold(&noise[off..off + len])
        );
    }
}
