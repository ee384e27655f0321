//! The one checked byte reader every decoder in the workspace goes
//! through, and the sealed-file trailer the recovery files share.
//!
//! Contract: every accessor checks the bytes remaining *before* it reads,
//! so no input — truncated, bit-flipped, over-counted, hostile — can make
//! a decoder panic or reserve more memory than the input is long. A short
//! read is an error built by the *caller's* constructor (the wire protocol
//! reports `InvalidArg("protocol: …")`, the recovery formats
//! `RecoveryFailed`); nothing is allocated and no message is formatted on
//! the success path. All integers are little-endian.

use crate::fold::xor_fold_padded;
use crate::{DaliError, RecId, Result, SlotId, TableId};

/// A bounds-checked cursor over `&[u8]`. Variable-length fields are
/// returned as slices borrowed from the input for its own lifetime.
pub struct Reader<'a> {
    buf: &'a [u8],
    bad: fn(String) -> DaliError,
}

impl<'a> Reader<'a> {
    /// Read `buf`, reporting malformed input through `bad`.
    #[inline]
    pub fn new(buf: &'a [u8], bad: fn(String) -> DaliError) -> Reader<'a> {
        Reader { buf, bad }
    }

    /// An error from the caller's constructor, for what only the format
    /// knows is wrong (an unknown tag, a bad magic).
    #[cold]
    pub fn fail(&self, msg: impl std::fmt::Display) -> DaliError {
        (self.bad)(msg.to_string())
    }

    #[cold]
    fn short(&self, need: usize) -> DaliError {
        self.fail(format_args!(
            "truncated: need {need} bytes, have {}",
            self.buf.len()
        ))
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match self.buf.split_at_checked(n) {
            Some((head, rest)) => {
                self.buf = rest;
                Ok(head)
            }
            None => Err(self.short(n)),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        match self.buf.split_first_chunk::<N>() {
            Some((head, rest)) => {
                self.buf = rest;
                Ok(*head)
            }
            None => Err(self.short(N)),
        }
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        self.array::<1>().map(|[b]| b)
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// One byte, any non-zero value reading as `true`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        self.u8().map(|b| b != 0)
    }

    /// A record id: `[table: u32][slot: u32]`.
    #[inline]
    pub fn rec(&mut self) -> Result<RecId> {
        Ok(RecId::new(TableId(self.u32()?), SlotId(self.u32()?)))
    }

    /// A `[len: u32][bytes]` field.
    #[inline]
    pub fn blob(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A [`blob`](Self::blob) that must be UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        let bytes = self.blob()?;
        std::str::from_utf8(bytes).map_err(|_| self.fail("string not utf-8"))
    }

    /// A `u32` element count, refused unless `count × min_elem_bytes`
    /// bytes actually remain — so `Vec::with_capacity(count)` is bounded
    /// by the input's length whatever the count field claims.
    #[inline]
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() {
            return Err(self.fail(format_args!(
                "count {n} needs {min_elem_bytes} bytes each, have {}",
                self.buf.len()
            )));
        }
        Ok(n)
    }

    /// Everything must have been consumed: trailing bytes are an error.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(self.fail(format_args!("{} trailing bytes", self.buf.len())))
        }
    }
}

/// Append the trailer of a sealed file: the XOR fold of everything before
/// it. (Always XOR, whatever algebra the database runs under — the
/// trailer is read before the configured algebra is known to match.)
pub fn seal(file: &mut Vec<u8>) {
    let sum = xor_fold_padded(file);
    file.extend_from_slice(&sum.to_le_bytes());
}

/// Split a sealed file's trailer off and verify it; a reader over the
/// body on success.
pub fn unseal(file: &[u8], bad: fn(String) -> DaliError) -> Result<Reader<'_>> {
    let Some((body, trailer)) = file.split_last_chunk::<4>() else {
        return Err(bad(format!("{} bytes cannot hold a trailer", file.len())));
    };
    if xor_fold_padded(body) != u32::from_le_bytes(*trailer) {
        return Err(bad("trailer checksum mismatch".into()));
    }
    Ok(Reader::new(body, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bad(msg: String) -> DaliError {
        DaliError::RecoveryFailed(format!("test: {msg}"))
    }

    #[test]
    fn fields_read_back_in_order_and_borrow_from_the_input() {
        let mut bytes = vec![0xAB, 0x34, 0x12, 0xEF, 0xBE, 0xAD, 0xDE];
        bytes.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        bytes.extend_from_slice(&[2, 3, 0, 0, 0, 9, 0, 0, 0]); // bool, rec
        bytes.extend_from_slice(&[2, 0, 0, 0, b'h', b'i', 0xFF]);
        let mut r = Reader::new(&bytes, bad);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.bool().unwrap());
        assert_eq!(r.rec().unwrap(), RecId::new(TableId(3), SlotId(9)));
        assert_eq!(r.str().unwrap(), "hi");
        assert!(r.finish().is_err(), "one byte left");
        assert_eq!(r.take(1).unwrap(), &[0xFF]);
        r.finish().unwrap();
    }

    /// Every accessor on every too-short input errs through the caller's
    /// constructor; a failed primitive read consumes nothing.
    #[test]
    fn short_reads_err_without_consuming() {
        let bytes = [1u8, 2, 3, 4, 5, 6, 7];
        for len in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..len], bad);
            assert!(
                matches!(r.u64(), Err(DaliError::RecoveryFailed(m)) if m.starts_with("test: "))
            );
            if len < 4 {
                assert!(r.u32().is_err());
                assert!(r.blob().is_err());
                assert!(r.count(0).is_err());
            }
            if len < 2 {
                assert!(r.u16().is_err());
            }
            assert!(r.take(len + 1).is_err());
            assert_eq!(r.buf.len(), len);
            assert!(r.rec().is_err());
        }
        // A blob whose length field overruns the input.
        let mut r = Reader::new(&[5, 0, 0, 0, 1, 2], bad);
        assert!(r.blob().is_err());
        // Non-UTF-8 string.
        assert!(Reader::new(&[1, 0, 0, 0, 0xFF], bad).str().is_err());
    }

    #[test]
    fn count_is_bounded_by_the_bytes_that_remain() {
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&bytes, bad).count(4).unwrap(), 3);
        assert!(Reader::new(&bytes, bad).count(5).is_err());
        let over = u32::MAX.to_le_bytes();
        assert!(Reader::new(&over, bad).count(1).is_err());
        assert!(Reader::new(&over, bad).count(usize::MAX).is_err());
    }

    #[test]
    fn seal_then_unseal_and_every_damage_is_caught() {
        let mut file = b"some body".to_vec();
        seal(&mut file);
        assert_eq!(file.len(), 9 + 4);
        let mut r = unseal(&file, bad).unwrap();
        assert_eq!(r.take(9).unwrap(), b"some body");
        r.finish().unwrap();
        for i in 0..file.len() {
            let mut damaged = file.clone();
            damaged[i] ^= 0x10;
            assert!(unseal(&damaged, bad).is_err(), "flip at {i}");
        }
        for len in 0..4 {
            assert!(unseal(&file[..len], bad).is_err(), "{len}-byte file");
        }
        // The empty body seals to a zero trailer.
        assert_eq!(unseal(&[0; 4], bad).unwrap().buf.len(), 0);
    }
}
