//! The one little-endian byte codec behind every encoded surface: wire
//! frames (`omega-protocol`), WAL records ([`crate::wal`]), the snapshot
//! header and section table ([`crate::snapshot`]) and the ontology section.
//!
//! Fixed-width little-endian integers, `u32`-length-prefixed UTF-8 strings,
//! single-byte booleans and option markers. [`Reader`] is bounds-checked and
//! never panics: running out of bytes is [`DecodeError::Truncated`], a bad
//! discriminant or invalid UTF-8 is [`DecodeError::Malformed`]. Each surface
//! maps these into its own typed error.

use std::fmt;
use std::time::Duration;

/// Why a [`Reader`] could not produce a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes ran out in the middle of a value.
    Truncated,
    /// The bytes are there but do not encode a value (bad discriminant,
    /// invalid UTF-8, trailing bytes, ...).
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("bytes end mid-structure"),
            DecodeError::Malformed(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer with room for `capacity` bytes: an encoder that
    /// knows its size allocates once.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer::over(Vec::with_capacity(capacity))
    }

    /// A writer appending to `buf`, keeping what it holds (and its
    /// capacity): how a connection encodes into one reused output buffer.
    pub fn over(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Raw bytes, no length prefix.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` widened to `u64` (the encoding is 64-bit regardless of host).
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Boolean as a single `0`/`1` byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// UTF-8 string: `u32` byte length, then the bytes.
    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v.as_bytes());
    }

    /// Duration as whole nanoseconds (`u64`, saturating at ~584 years).
    #[inline]
    pub fn put_duration(&mut self, v: Duration) {
        self.put_u64(u64::try_from(v.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Option marker byte (`0` absent / `1` present) followed by the value
    /// when present.
    #[inline]
    pub fn put_opt<T>(&mut self, v: Option<T>, mut put: impl FnMut(&mut Writer, T)) {
        match v {
            None => self.put_u8(0),
            Some(v) => {
                self.put_u8(1);
                put(self, v);
            }
        }
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Exactly `n` raw bytes, borrowed in place.
    #[inline]
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Exactly `N` raw bytes, copied out (a magic number, a word).
    #[inline]
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take_bytes(N)?);
        Ok(out)
    }

    /// One raw byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Little-endian `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Little-endian `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// `n` little-endian `u32`s, read in place: collecting them allocates
    /// once, and a count the bytes cannot hold is [`DecodeError::Truncated`]
    /// before anything is allocated.
    #[inline]
    pub fn take_u32s(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = u32> + 'a, DecodeError> {
        let bytes = self.take_bytes(n.checked_mul(4).ok_or(DecodeError::Truncated)?)?;
        let (words, _) = bytes.as_chunks::<4>();
        Ok(words.iter().map(|w| u32::from_le_bytes(*w)))
    }

    /// `n` pairs of little-endian `u32`s, read in place like
    /// [`Reader::take_u32s`].
    #[inline]
    pub fn take_u32_pairs(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = (u32, u32)> + 'a, DecodeError> {
        let bytes = self.take_bytes(n.checked_mul(8).ok_or(DecodeError::Truncated)?)?;
        let (pairs, _) = bytes.as_chunks::<8>();
        // Two little-endian words are one little-endian `u64`, low word first.
        let split = |p: u64| (p as u32, (p >> 32) as u32);
        Ok(pairs.iter().map(move |p| split(u64::from_le_bytes(*p))))
    }

    /// `u64` narrowed back to `usize` (fails on 32-bit hosts fed 64-bit
    /// values rather than wrapping).
    #[inline]
    pub fn take_usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| DecodeError::Malformed("usize value exceeds host width"))
    }

    /// Boolean; any byte other than `0`/`1` is malformed.
    #[inline]
    pub fn take_bool(&mut self) -> Result<bool, DecodeError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("boolean byte is not 0 or 1")),
        }
    }

    /// UTF-8 string written by [`Writer::put_str`], borrowed from the
    /// buffer: decoding in place, for values read more often than kept.
    #[inline]
    pub fn take_str_ref(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.take_u32()? as usize;
        std::str::from_utf8(self.take_bytes(len)?)
            .map_err(|_| DecodeError::Malformed("string field is not valid UTF-8"))
    }

    /// UTF-8 string written by [`Writer::put_str`].
    #[inline]
    pub fn take_str(&mut self) -> Result<String, DecodeError> {
        self.take_str_ref().map(str::to_owned)
    }

    /// Duration written by [`Writer::put_duration`].
    #[inline]
    pub fn take_duration(&mut self) -> Result<Duration, DecodeError> {
        Ok(Duration::from_nanos(self.take_u64()?))
    }

    /// Option written by [`Writer::put_opt`]; `take` may fail with any
    /// error a [`DecodeError`] converts into.
    #[inline]
    pub fn take_opt<T, E: From<DecodeError>>(
        &mut self,
        mut take: impl FnMut(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(take(self)?)),
            _ => Err(DecodeError::Malformed("option marker is not 0 or 1").into()),
        }
    }

    /// Asserts every byte was consumed: trailing garbage is corruption, not
    /// forward compatibility.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Malformed(
                "trailing bytes after the last field",
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of each value, in the order `decode_sample` reads them back.
    fn sample() -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(12);
        w.put_bool(true);
        w.put_str("héllo");
        w.put_duration(Duration::from_millis(1234));
        w.put_opt(Some(42u32), |w, v| w.put_u32(v));
        w.put_opt(None::<u32>, |w, v| w.put_u32(v));
        w.put_bytes(b"OMEG");
        w.put_u32(3);
        w.put_u32(5);
        w.put_u32(0x0102_0304);
        w.put_u32(0x0506_0708);
        w.into_inner()
    }

    fn decode_sample(bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        assert_eq!(r.take_u8()?, 7);
        assert_eq!(r.take_u32()?, 0xDEAD_BEEF);
        assert_eq!(r.take_u64()?, u64::MAX - 1);
        assert_eq!(r.take_usize()?, 12);
        assert!(r.take_bool()?);
        assert_eq!(r.take_str()?, "héllo");
        assert_eq!(r.take_duration()?, Duration::from_millis(1234));
        assert_eq!(r.take_opt(|r| r.take_u32())?, Some(42));
        assert_eq!(r.take_opt(|r| r.take_u32())?, None);
        assert_eq!(&r.take_array::<4>()?, b"OMEG");
        assert!(r.take_u32s(2)?.eq([3, 5]));
        assert!(r.take_u32_pairs(1)?.eq([(0x0102_0304, 0x0506_0708)]));
        assert_eq!(r.position(), bytes.len());
        r.expect_end()
    }

    #[test]
    fn primitives_round_trip() {
        decode_sample(&sample()).unwrap();
    }

    #[test]
    fn exhausted_reader_is_truncated_not_a_panic() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_sample(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "a {cut}-byte prefix of {}",
                bytes.len()
            );
        }
        // A count the bytes cannot hold fails before any allocation.
        let mut r = Reader::new(&[0; 8]);
        assert!(r.take_u32s(usize::MAX).is_err());
        assert!(r.take_u32_pairs(usize::MAX / 4).is_err());
        assert_eq!(r.position(), 0);
    }

    #[test]
    fn bad_discriminants_are_malformed() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(r.take_bool(), Err(DecodeError::Malformed(_))));
        let mut r = Reader::new(&[2, 0, 0, 0, 0]);
        assert!(matches!(
            r.take_opt(|r| r.take_u32()),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.take_str(), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = Reader::new(&[0]);
        assert!(matches!(r.expect_end(), Err(DecodeError::Malformed(_))));
    }
}
