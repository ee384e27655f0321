//! The corruption pattern catalogue: structured fault shapes for the
//! three places database bytes live — the in-memory arena, the certified
//! checkpoint image file, and the write-ahead log.
//!
//! The patterns are chosen to straddle the algebras' detection
//! boundaries:
//!
//! * **single flip** — any one-bit change moves both the XOR parity and
//!   the mod-(2^32-1) residue: both algebras detect it.
//! * **paired same-column flip** — two flips of the same bit column in
//!   two words, in the *same direction* (both 0→1 or both 1→0). The XOR
//!   parity cancels exactly; the residue moves by ±2·2^k (with 2^32 ≡ 1
//!   end-around for the sign column), so only the residue algebra
//!   detects it. This is the class the residue code exists for.
//! * **three flips** — odd column count: XOR detects; the residue moves
//!   by an odd multiple of 2^k, nonzero mod 2^32-1: detected by both.
//! * **burst** — a run of non-periodic noise bytes: detected by both.
//! * **torn page** — the tail half of the window zeroed, as a torn
//!   write leaves it. The residue always detects it (a nonzero tail has
//!   a nonzero sum); XOR detects it only when the zeroed words' XOR fold
//!   is nonzero — a *pure byte ramp's* power-of-two tail XOR-cancels
//!   (sixteen consecutive ramp words fold to zero), as does any
//!   even-count repeated-word tail. [`campaign_payload`] perturbs its
//!   ramp so the torn tail sits on the detected side for both algebras.
//!
//! The crash simulator (`tests/crash_sim.rs`) applies these shapes to all
//! three targets as seeded moves, predicts each verdict from the bytes
//! themselves and asserts the rows of the per-algebra table
//! ([`algebra_expected_detected`]) that do not depend on them;
//! `tests/parity_blind_spot.rs` pins the table cell by cell on the arena.

use dali_common::CodewordAlgebraKind;

/// A structured corruption pattern applied to a small byte window.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CorruptionPattern {
    /// Flip one bit.
    SingleFlip,
    /// Flip the same bit column, same direction, in two words 4 bytes
    /// apart — the XOR parity blind spot.
    PairedSameColumn,
    /// Flip the same bit column in three words — odd parity again.
    ThreeFlip,
    /// Overwrite the window with a non-periodic noise run.
    Burst,
    /// Zero the tail half of the window (a torn write).
    TornPage,
}

impl CorruptionPattern {
    /// Every pattern, for matrix sweeps.
    pub const ALL: [CorruptionPattern; 5] = [
        CorruptionPattern::SingleFlip,
        CorruptionPattern::PairedSameColumn,
        CorruptionPattern::ThreeFlip,
        CorruptionPattern::Burst,
        CorruptionPattern::TornPage,
    ];

    /// Produce the corrupted image of `window`, or `None` if the pattern
    /// cannot land here (window too small, or — for the paired flip — no
    /// bit column holds equal values in any adjacent word pair, so a
    /// same-direction pair does not exist).
    pub fn apply(self, window: &[u8]) -> Option<Vec<u8>> {
        let mut out = window.to_vec();
        match self {
            CorruptionPattern::SingleFlip => {
                *out.first_mut()? ^= 0x08;
            }
            CorruptionPattern::PairedSameColumn => {
                let (i, bit) = find_same_direction_pair(window)?;
                out[i + (bit / 8) as usize] ^= 1 << (bit % 8);
                out[i + 4 + (bit / 8) as usize] ^= 1 << (bit % 8);
            }
            CorruptionPattern::ThreeFlip => {
                if out.len() < 12 {
                    return None;
                }
                for w in 0..3 {
                    out[w * 4] ^= 0x08;
                }
            }
            CorruptionPattern::Burst => {
                for (i, b) in out.iter_mut().enumerate() {
                    *b ^= (i as u8)
                        .wrapping_mul(0x9D)
                        .wrapping_add(0xE1 ^ (i as u8 >> 3))
                        | 1;
                }
            }
            CorruptionPattern::TornPage => {
                let mid = out.len() / 2;
                if out[mid..].iter().all(|&b| b == 0) {
                    return None; // the torn tail would be a no-op
                }
                out[mid..].fill(0);
            }
        }
        (out != window).then_some(out)
    }
}

/// Record contents that let every [`CorruptionPattern`] land *and* sit
/// on the documented side of [`algebra_expected_detected`]: a byte ramp
/// (adjacent words share bit columns for the paired flip; the torn tail
/// is nonzero) with the final byte perturbed, because a *pure* ramp's
/// power-of-two torn tail XOR-cancels — sixteen consecutive ramp words
/// fold to zero — which would put the torn page inside the XOR blind
/// spot as well (that cancellation is itself pinned in
/// `tests/parity_blind_spot.rs`).
pub fn campaign_payload(len: usize) -> Vec<u8> {
    let mut p: Vec<u8> = (0..len).map(|i| i as u8).collect();
    if let Some(last) = p.last_mut() {
        *last ^= 0xAB;
    }
    p
}

/// Find `(byte_offset, bit)` such that words at `byte_offset` and
/// `byte_offset + 4` hold the *same* value in `bit`'s column — flipping
/// both is then a same-direction pair. Word pairs `w1 = !w0` have no
/// such column; scan forward until one does.
fn find_same_direction_pair(window: &[u8]) -> Option<(usize, u32)> {
    for i in (0..window.len().saturating_sub(7)).step_by(4) {
        let w0 = u32::from_le_bytes(window[i..i + 4].try_into().unwrap());
        let w1 = u32::from_le_bytes(window[i + 4..i + 8].try_into().unwrap());
        let equal = !(w0 ^ w1); // 1-bits where the columns agree
        if equal != 0 {
            return Some((i, equal.trailing_zeros()));
        }
    }
    None
}

/// Must `algebra` detect `pattern` on a codeword-protected target
/// (arena or checkpoint image), with the pattern inside one region of
/// [`campaign_payload`]-style contents? `PairedSameColumn` is exactly the
/// XOR blind spot; everything else moves both folds (a torn page over
/// contents whose zeroed tail XOR-cancels would be a second XOR miss).
pub fn algebra_expected_detected(algebra: CodewordAlgebraKind, pattern: CorruptionPattern) -> bool {
    match pattern {
        CorruptionPattern::PairedSameColumn => algebra == CodewordAlgebraKind::Residue,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flip_changes_one_bit() {
        let w = vec![0u8; 16];
        let c = CorruptionPattern::SingleFlip.apply(&w).unwrap();
        let flipped: u32 = w.iter().zip(&c).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn paired_flip_is_same_direction_same_column() {
        for base in [vec![0u8; 16], vec![0x5Au8; 16], vec![0xFFu8; 16]] {
            let c = CorruptionPattern::PairedSameColumn.apply(&base).unwrap();
            let deltas: Vec<u32> = base
                .chunks(4)
                .zip(c.chunks(4))
                .map(|(a, b)| {
                    u32::from_le_bytes(a.try_into().unwrap())
                        ^ u32::from_le_bytes(b.try_into().unwrap())
                })
                .collect();
            let changed: Vec<&u32> = deltas.iter().filter(|&&d| d != 0).collect();
            assert_eq!(changed.len(), 2, "exactly two words touched");
            assert_eq!(changed[0], changed[1], "same bit column");
            assert_eq!(changed[0].count_ones(), 1, "one bit each");
            // XOR parity of the whole window is unchanged...
            let xor_delta = deltas.iter().fold(0u32, |a, d| a ^ d);
            assert_eq!(xor_delta, 0, "XOR blind");
            // ...but the residue moved (same direction: both 0->1 or both
            // 1->0, so the signed deltas add instead of cancelling).
            let r = CodewordAlgebraKind::Residue;
            let fold = |bytes: &[u8]| {
                bytes.chunks(4).fold(0u32, |acc, w| {
                    r.combine(acc, u32::from_le_bytes(w.try_into().unwrap()))
                })
            };
            assert_ne!(fold(&base), fold(&c), "residue sees it");
        }
    }

    #[test]
    fn paired_flip_refuses_windows_without_equal_columns() {
        // w1 = !w0 in every adjacent pair: no same-direction pair exists.
        let mut w = Vec::new();
        for i in 0..4u32 {
            let v = if i % 2 == 0 { 0u32 } else { !0u32 };
            w.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(find_same_direction_pair(&w), None);
        assert!(CorruptionPattern::PairedSameColumn.apply(&w).is_none());
    }

    #[test]
    fn torn_page_zeroes_tail_or_refuses() {
        let mut w = vec![7u8; 32];
        let c = CorruptionPattern::TornPage.apply(&w).unwrap();
        assert_eq!(&c[..16], &w[..16]);
        assert!(c[16..].iter().all(|&b| b == 0));
        w[16..].fill(0);
        assert!(CorruptionPattern::TornPage.apply(&w).is_none());
    }

    #[test]
    fn campaign_payload_keeps_every_pattern_on_its_documented_side() {
        for len in [16usize, 32, 64, 128, 256] {
            let p = campaign_payload(len);
            let xor_fold = |bytes: &[u8]| {
                bytes.chunks(4).fold(0u32, |acc, w| {
                    acc ^ u32::from_le_bytes(w.try_into().unwrap())
                })
            };
            for pattern in CorruptionPattern::ALL {
                let c = pattern
                    .apply(&p)
                    .unwrap_or_else(|| panic!("{pattern:?} must land on campaign_payload({len})"));
                // XOR must move for everything but the paired flip…
                let xor_moved = xor_fold(&p) != xor_fold(&c);
                assert_eq!(
                    xor_moved,
                    pattern != CorruptionPattern::PairedSameColumn,
                    "{pattern:?} on campaign_payload({len})"
                );
            }
        }
    }

    #[test]
    fn expected_detection_table() {
        use CodewordAlgebraKind::*;
        use CorruptionPattern::*;
        for pattern in CorruptionPattern::ALL {
            assert!(algebra_expected_detected(Residue, pattern));
        }
        assert!(!algebra_expected_detected(XorFold, PairedSameColumn));
        assert!(algebra_expected_detected(XorFold, SingleFlip));
        assert!(algebra_expected_detected(XorFold, ThreeFlip));
    }
}
