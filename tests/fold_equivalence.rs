//! Kernel-equivalence suite for the fold kernels of both algebras.
//!
//! `dali_common::fold` holds one wide kernel per algebra, generic over
//! its word source: a byte slice (`fold`/`fold_padded`, which every log
//! and wire frame checksum also runs) or a raw range of the database
//! image (`DbImage::fold`, which every region codeword, audit and
//! precheck runs). Both walk 32-byte blocks through four independent
//! `u64` accumulators with unaligned little-endian loads. That is only
//! right if it is *exactly* the one-word-at-a-time fold, so everything
//! here compares against independent byte-at-a-time references that
//! share no code with the kernels — byte `i` lands in bit column
//! `8 * (i mod 4)` of its word, XOR-ed for the XOR fold and summed mod
//! `2^32 − 1` for the residue:
//!
//! * exhaustively, every word-aligned length through several wide blocks
//!   (all `u64`-remainder and final-`u32` tail shapes), every partial-word
//!   tail length for the padded fold, every slice offset 0..8 and every
//!   word-aligned image offset mod 8 (so bases ≡ 4 mod 8 too — no source
//!   needs an aligned base);
//! * property-based, over random contents / lengths / offsets (CI raises
//!   the case count via `PROPTEST_CASES`, as with the other suites);
//! * and at the scan layer: a parallel audit must produce a report
//!   byte-identical to the serial scan on a deliberately corrupted image,
//!   for every worker count.

use dali::codeword::algebra::{fold, fold_padded};
use dali::codeword::{CodewordAlgebraKind, CodewordProtection, DeferredConfig, ProtectionScheme};
use dali::common::fold::{residue_fold_scalar, xor_fold_scalar};
use dali::mem::DbImage;
use dali::DbAddr;
use proptest::prelude::*;

/// Independent byte-wise reference fold under `kind` (zero-pad
/// semantics: agrees with `fold` on aligned lengths and with
/// `fold_padded` on any length).
fn ref_fold(kind: CodewordAlgebraKind, bytes: &[u8]) -> u32 {
    match kind {
        CodewordAlgebraKind::XorFold => bytes
            .iter()
            .enumerate()
            .fold(0u32, |acc, (i, &b)| acc ^ (b as u32) << (8 * (i & 3))),
        CodewordAlgebraKind::Residue => {
            let sum: u128 = bytes
                .iter()
                .enumerate()
                .map(|(i, &b)| (b as u128) << (8 * (i & 3)))
                .sum();
            (sum % 0xFFFF_FFFF) as u32
        }
    }
}

fn scalar(kind: CodewordAlgebraKind, bytes: &[u8]) -> u32 {
    match kind {
        CodewordAlgebraKind::XorFold => xor_fold_scalar(bytes),
        CodewordAlgebraKind::Residue => residue_fold_scalar(bytes),
    }
}

fn patterned(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2654435761).rotate_right(7) ^ i) as u8)
        .collect()
}

/// Every word-aligned length 0..=288 (several 32-byte blocks plus every
/// tail shape) at every sub-slice offset 0..8, under both algebras.
#[test]
fn slice_fold_matches_reference_exhaustively() {
    let backing = patterned(8 + 288);
    for kind in CodewordAlgebraKind::ALL {
        for off in 0..8 {
            for len in (0..=288).step_by(4) {
                let sub = &backing[off..off + len];
                let want = ref_fold(kind, sub);
                assert_eq!(fold(kind, sub), want, "{kind:?} offset {off} len {len}");
                assert_eq!(scalar(kind, sub), want, "{kind:?} offset {off} len {len}");
            }
        }
    }
}

/// Every tail length 1..32 (and beyond, through two blocks) for the
/// zero-padded fold, again at every base offset and under both algebras.
#[test]
fn padded_fold_matches_reference_every_tail() {
    let backing = patterned(8 + 2 * 32 + 31);
    for kind in CodewordAlgebraKind::ALL {
        for off in 0..8 {
            for len in 0..=2 * 32 + 31 {
                let sub = &backing[off..off + len];
                assert_eq!(
                    fold_padded(kind, sub),
                    ref_fold(kind, sub),
                    "{kind:?} offset {off} len {len}"
                );
            }
        }
    }
}

/// The raw entry, `DbImage::fold`, under both algebras: every word-aligned
/// offset mod 8 (≡ 0 and ≡ 4), through several blocks, and every tail
/// shape, on noise and on all-ones words (the residue's end-around carry).
#[test]
fn image_fold_matches_reference_exhaustively() {
    let image = DbImage::new(1, 4096).unwrap();
    for noise in [patterned(4096), vec![0xFF; 4096]] {
        image.write(DbAddr(0), &noise).unwrap();
        for kind in CodewordAlgebraKind::ALL {
            for off in [0usize, 4, 8, 12, 20, 36, 3988] {
                for len in (0..=3 * 32 + 4).step_by(4) {
                    assert_eq!(
                        image.fold(kind, DbAddr(off), len).unwrap(),
                        ref_fold(kind, &noise[off..off + len]),
                        "{kind:?} offset {off} len {len}"
                    );
                }
            }
            assert_eq!(
                image.fold(kind, DbAddr(4), 4092).unwrap(),
                ref_fold(kind, &noise[4..]),
                "{kind:?} to the end of the image"
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
        for kind in CodewordAlgebraKind::ALL {
            prop_assert_eq!(fold(kind, aligned), ref_fold(kind, aligned));
            prop_assert_eq!(scalar(kind, aligned), ref_fold(kind, aligned));
            prop_assert_eq!(fold_padded(kind, sub), ref_fold(kind, sub));
        }
    }

    /// Raw entry ≡ reference under both algebras on random word-aligned
    /// ranges of a noisy image (offsets cover both 8-aligned and 4-mod-8
    /// bases).
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
        for kind in CodewordAlgebraKind::ALL {
            prop_assert_eq!(
                image.fold(kind, DbAddr(off), len).unwrap(),
                ref_fold(kind, &noise[off..off + len])
            );
        }
    }
}
