//! The one codec every byte format in the workspace is written and read
//! through: the checked [`Reader`], the [`Wire`] trait with its leaf
//! encodings, the [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum!`](crate::wire_enum) declarations, and the sealed-file
//! trailer the recovery files share.
//!
//! Reading: every accessor checks the bytes remaining *before* it reads,
//! so no input — truncated, bit-flipped, over-counted, hostile — can make
//! a decoder panic or reserve more memory than the input is long. A short
//! read is an error built by the *caller's* constructor (the wire protocol
//! reports `InvalidArg("protocol: …")`, the recovery formats
//! `RecoveryFailed`); nothing is allocated and no message is formatted on
//! the success path. All integers are little-endian.
//!
//! Writing: every encoder appends to a plain `Vec<u8>` through
//! [`Wire::put`]. A declared format — a wire message, a log record — is
//! its field list in wire order, from which the macros derive its type,
//! encoder and decoder, so the three cannot drift apart. Formats with a
//! magic, a seal or a nested blob keep a hand-written encoder that puts
//! their fields one by one through the same leaves.

use crate::fold::xor_fold_padded;
use crate::{DaliError, DbAddr, Lsn, OpSeq, RecId, Result, SlotId, TableId, TxnId};

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

    /// The bytes not read yet.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.buf
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

/// A value with a byte encoding: every field type of every declared
/// format implements it. `'a` is the input a decoded value may borrow
/// from, so the borrowed leaves (`&'a [u8]`, `&'a str`,
/// [`CodewordsRef`]) decode without copying.
pub trait Wire<'a>: Sized {
    /// Append the encoding to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Read one value.
    fn get(r: &mut Reader<'a>) -> Result<Self>;
}

/// `Type: |value, buf| encode, |reader| decode;` — one line per leaf type.
macro_rules! wire_leaf {
    ($($ty:ty: |$v:ident, $buf:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl<'a> Wire<'a> for $ty {
            #[inline]
            fn put(&self, $buf: &mut Vec<u8>) {
                let $v = self;
                $put
            }
            #[inline]
            fn get($r: &mut Reader<'a>) -> Result<Self> {
                Ok($get)
            }
        }
    )*};
}

wire_leaf! {
    u8: |v, buf| buf.push(*v), |r| r.u8()?;
    bool: |v, buf| buf.push(*v as u8), |r| r.bool()?;
    u32: |v, buf| buf.extend_from_slice(&v.to_le_bytes()), |r| r.u32()?;
    u64: |v, buf| buf.extend_from_slice(&v.to_le_bytes()), |r| r.u64()?;
    TxnId: |v, buf| v.0.put(buf), |r| TxnId(r.u64()?);
    TableId: |v, buf| v.0.put(buf), |r| TableId(r.u32()?);
    OpSeq: |v, buf| v.0.put(buf), |r| OpSeq(r.u32()?);
    Lsn: |v, buf| v.0.put(buf), |r| Lsn(r.u64()?);
    // `u64::MAX` is "no LSN".
    Option<Lsn>: |v, buf| v.map_or(u64::MAX, |l| l.0).put(buf),
        |r| Some(r.u64()?).filter(|&v| v != u64::MAX).map(Lsn);
    DbAddr: |v, buf| (v.0 as u64).put(buf), |r| DbAddr(r.u64()? as usize);
    RecId: |v, buf| { v.table.put(buf); v.slot.0.put(buf) }, |r| r.rec()?;
    // Blobs and strings: `[len: u32][bytes]`.
    &'a [u8]: |v, buf| put_blob(buf, v), |r| r.blob()?;
    Vec<u8>: |v, buf| put_blob(buf, v), |r| r.blob()?.to_vec();
    &'a str: |v, buf| put_blob(buf, v.as_bytes()), |r| r.str()?;
    String: |v, buf| put_blob(buf, v.as_bytes()), |r| r.str()?.to_string();
    // A read log record's codewords: `[count: u16][u32 …]`.
    CodewordsRef<'a>: |v, buf| {
        put_word_count(buf, v.len());
        buf.extend_from_slice(v.0)
    }, |r| {
        let n = r.u16()? as usize;
        CodewordsRef(r.take(4 * n)?)
    };
    Vec<u32>: |v, buf| {
        put_word_count(buf, v.len());
        v.iter().for_each(|w| w.put(buf))
    }, |r| CodewordsRef::get(r)?.iter().collect();
}

#[inline]
fn put_blob(buf: &mut Vec<u8>, data: &[u8]) {
    (data.len() as u32).put(buf);
    buf.extend_from_slice(data);
}

/// Append a blob whose bytes `write` encodes in place: its length is
/// patched in after, so a nested format is written without staging it.
pub fn put_blob_with(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    0u32.put(buf);
    write(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

#[inline]
fn put_word_count(buf: &mut Vec<u8>, n: usize) {
    let n = u16::try_from(n)
        .expect("codewords fit a u16 count: tables refuse records spanning more regions");
    buf.extend_from_slice(&n.to_le_bytes());
}

/// The most codewords one read log record can carry: its count is a `u16`.
pub const MAX_CODEWORDS: usize = u16::MAX as usize;

/// The codewords of a read log record as they sit in the input: packed
/// little-endian `u32`s at no particular alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodewordsRef<'a>(&'a [u8]);

impl CodewordsRef<'_> {
    /// Number of codewords.
    pub fn len(&self) -> usize {
        self.0.len() / 4
    }

    /// True if there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The codewords, in logged order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("chunks_exact(4)")))
    }
}

/// An element of a list, `[count: u32][elements]`: a count is held
/// against `MIN_BYTES`, the element's smallest encoding, before the list
/// is reserved.
pub trait Listed {
    /// Bytes of the element's smallest encoding.
    const MIN_BYTES: usize;
}

impl Listed for (u8, u64) {
    const MIN_BYTES: usize = 1 + 8;
}

impl<'a, A: Wire<'a>, B: Wire<'a>> Wire<'a> for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(r: &mut Reader<'a>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<'a, T: Wire<'a> + Listed> Wire<'a> for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        self.iter().for_each(|item| item.put(buf));
    }
    fn get(r: &mut Reader<'a>) -> Result<Self> {
        let n = r.count(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// Declare a struct whose encoding is its fields in declaration order.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $fty, )*
        }

        impl<'a> $crate::codec::Wire<'a> for $name {
            fn put(&self, buf: &mut Vec<u8>) {
                $( $crate::codec::Wire::put(&self.$field, buf); )*
            }
            fn get(r: &mut $crate::codec::Reader<'a>) -> $crate::Result<Self> {
                Ok($name { $( $field: $crate::codec::Wire::get(r)?, )* })
            }
        }
    };
}

/// Declare an enum whose encoding is a tag byte followed by the variant's
/// fields in declaration order. A variant is its tag, its display name,
/// then `Variant`, `Variant { field: Type, .. }`, or `Variant(name: Type)`
/// for a one-field tuple variant (the name only binds the payload inside
/// the generated code). Type parameters, with defaults, name the holders
/// of variable-length fields, so one declaration serves owned and
/// borrowed values alike.
///
/// Besides the [`Wire`](crate::codec::Wire) impl it generates `tag`,
/// `tag_name`, `label`, `encode` and `decode`; `decode` reports
/// malformed input through the `bad: fn(String) -> DaliError` in scope
/// where the enum is declared.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident $(< $($gen:ident = $default:ty),* >)? {
            $(
                $(#[$vmeta:meta])* $tag:literal $label:literal $variant:ident
                $( { $( $field:ident: $fty:ty ),* $(,)? } )?
                $( ( $tfield:ident: $tty:ty ) )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name $(< $($gen = $default),* >)? {
            $( $(#[$vmeta])* $variant $( { $( $field: $fty ),* } )? $( ( $tty ) )?, )*
        }

        impl $(< $($gen),* >)? $name $(< $($gen),* >)? {
            /// The encoding tag.
            pub fn tag(&self) -> u8 {
                match self {
                    $( $name::$variant { .. } => $tag, )*
                }
            }

            /// Human-readable name of a tag.
            pub fn tag_name(tag: u8) -> &'static str {
                match tag {
                    $( $tag => $label, )*
                    _ => "unknown",
                }
            }

            /// Human-readable name of this value's tag.
            pub fn label(&self) -> &'static str {
                Self::tag_name(self.tag())
            }

            /// Append the encoding to `buf`.
            pub fn encode<'a>(&self, buf: &mut Vec<u8>)
            where
                Self: $crate::codec::Wire<'a>,
            {
                $crate::codec::Wire::put(self, buf)
            }

            /// Decode one value that must fill `payload`, borrowing from
            /// it where the holders borrow. Total: any malformed input,
            /// trailing bytes included, returns an error.
            pub fn decode<'a>(payload: &'a [u8]) -> $crate::Result<Self>
            where
                Self: $crate::codec::Wire<'a>,
            {
                let mut r = $crate::codec::Reader::new(payload, bad);
                let value = <Self as $crate::codec::Wire<'a>>::get(&mut r)?;
                r.finish()?;
                Ok(value)
            }
        }

        impl<'a $($(, $gen: $crate::codec::Wire<'a>)*)?> $crate::codec::Wire<'a>
            for $name $(< $($gen),* >)?
        {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.push(self.tag());
                match self {
                    $( $name::$variant $( { $( $field ),* } )? $( ( $tfield ) )? => {
                        $( $( $crate::codec::Wire::put($field, buf); )* )?
                        $( $crate::codec::Wire::put($tfield, buf); )?
                    } )*
                }
            }
            fn get(r: &mut $crate::codec::Reader<'a>) -> $crate::Result<Self> {
                Ok(match r.u8()? {
                    $( $tag => $name::$variant
                        $( { $( $field: $crate::codec::Wire::get(r)? ),* } )?
                        $( ( <$tty as $crate::codec::Wire<'a>>::get(r)? ) )?, )*
                    tag => {
                        return Err(r.fail(format_args!(
                            "unknown {} tag {tag}",
                            stringify!($name)
                        )))
                    }
                })
            }
        }
    };
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

    /// The leaves write the layouts the reader reads, owned and borrowed
    /// alike.
    #[test]
    fn leaves_write_what_the_reader_reads() {
        let mut buf = Vec::new();
        (0xABu8, true).put(&mut buf);
        RecId::new(TableId(3), SlotId(9)).put(&mut buf);
        "hi".put(&mut buf);
        (Some(Lsn(7)), None::<Lsn>).put(&mut buf);
        vec![0xDEAD_BEEFu32, 1].put(&mut buf);
        let mut want = vec![0xAB, 1, 3, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0, b'h', b'i'];
        want.extend_from_slice(&[7, 0, 0, 0, 0, 0, 0, 0]);
        want.extend_from_slice(&[0xFF; 8]);
        want.extend_from_slice(&[2, 0, 0xEF, 0xBE, 0xAD, 0xDE, 1, 0, 0, 0]);
        assert_eq!(buf, want);

        let mut r = Reader::new(&buf, bad);
        assert_eq!(<(u8, bool)>::get(&mut r).unwrap(), (0xAB, true));
        assert_eq!(
            RecId::get(&mut r).unwrap(),
            RecId::new(TableId(3), SlotId(9))
        );
        assert_eq!(String::get(&mut r).unwrap(), "hi");
        assert_eq!(
            <(Option<Lsn>, Option<Lsn>)>::get(&mut r).unwrap(),
            (Some(Lsn(7)), None)
        );
        let words = CodewordsRef::get(&mut Reader::new(&buf[buf.len() - 10..], bad)).unwrap();
        assert_eq!(words.iter().collect::<Vec<_>>(), [0xDEAD_BEEF, 1]);
        assert_eq!(Vec::<u32>::get(&mut r).unwrap(), [0xDEAD_BEEF, 1]);
        r.finish().unwrap();
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
