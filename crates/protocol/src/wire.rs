//! Primitive little-endian value encoding shared by every frame.
//!
//! The shapes mirror the snapshot container (`omega_graph::snapshot`):
//! fixed-width little-endian integers, `u32`-length-prefixed UTF-8 strings,
//! single-byte booleans and option markers. [`Reader`] is bounds-checked and
//! never panics — running out of bytes is [`ProtocolError::Truncated`], a
//! bad discriminant is [`ProtocolError::Malformed`].

use std::time::Duration;

use crate::error::ProtocolError;

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

    /// A writer appending to `buf`, keeping what it holds (and its
    /// capacity): how a connection encodes into one reused output buffer.
    pub fn over(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }

    /// The encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Raw bytes, no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` widened to `u64` (the wire is 64-bit regardless of host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Boolean as a single `0`/`1` byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// UTF-8 string: `u32` byte length, then the bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v.as_bytes());
    }

    /// Duration as whole nanoseconds (`u64`, saturating at ~584 years).
    pub fn put_duration(&mut self, v: Duration) {
        self.put_u64(u64::try_from(v.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Option marker byte (`0` absent / `1` present) followed by the value
    /// when present.
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

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Exactly `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One raw byte.
    pub fn take_u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, ProtocolError> {
        let bytes = self.take_bytes(4)?;
        // The slice is exactly 4 bytes by construction.
        let mut out = [0u8; 4];
        out.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(out))
    }

    /// Little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, ProtocolError> {
        let bytes = self.take_bytes(8)?;
        let mut out = [0u8; 8];
        out.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(out))
    }

    /// `u64` narrowed back to `usize` (fails on 32-bit hosts fed 64-bit
    /// values rather than wrapping).
    pub fn take_usize(&mut self) -> Result<usize, ProtocolError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| ProtocolError::Malformed("usize value exceeds host width"))
    }

    /// Boolean; any byte other than `0`/`1` is malformed.
    pub fn take_bool(&mut self) -> Result<bool, ProtocolError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtocolError::Malformed("boolean byte is not 0 or 1")),
        }
    }

    /// UTF-8 string written by [`Writer::put_str`], borrowed from the
    /// buffer: decoding in place, for values read more often than kept.
    pub fn take_str_ref(&mut self) -> Result<&'a str, ProtocolError> {
        let len = self.take_u32()? as usize;
        std::str::from_utf8(self.take_bytes(len)?)
            .map_err(|_| ProtocolError::Malformed("string field is not valid UTF-8"))
    }

    /// UTF-8 string written by [`Writer::put_str`].
    pub fn take_str(&mut self) -> Result<String, ProtocolError> {
        self.take_str_ref().map(str::to_owned)
    }

    /// Duration written by [`Writer::put_duration`].
    pub fn take_duration(&mut self) -> Result<Duration, ProtocolError> {
        Ok(Duration::from_nanos(self.take_u64()?))
    }

    /// Option written by [`Writer::put_opt`].
    pub fn take_opt<T>(
        &mut self,
        mut take: impl FnMut(&mut Reader<'a>) -> Result<T, ProtocolError>,
    ) -> Result<Option<T>, ProtocolError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(take(self)?)),
            _ => Err(ProtocolError::Malformed("option marker is not 0 or 1")),
        }
    }

    /// Asserts every byte was consumed — trailing garbage is corruption, not
    /// forward compatibility.
    pub fn expect_end(&self) -> Result<(), ProtocolError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes after frame body"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_bool(true);
        w.put_str("héllo");
        w.put_duration(Duration::from_millis(1234));
        w.put_opt(Some(42u32), |w, v| w.put_u32(v));
        w.put_opt(None::<u32>, |w, v| w.put_u32(v));
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_str().unwrap(), "héllo");
        assert_eq!(r.take_duration().unwrap(), Duration::from_millis(1234));
        assert_eq!(r.take_opt(|r| r.take_u32()).unwrap(), Some(42));
        assert_eq!(r.take_opt(|r| r.take_u32()).unwrap(), None);
        r.expect_end().unwrap();
    }

    #[test]
    fn exhausted_reader_is_truncated_not_a_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.take_u32().unwrap_err(), ProtocolError::Truncated);
    }

    #[test]
    fn bad_discriminants_are_malformed() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            r.take_bool().unwrap_err(),
            ProtocolError::Malformed(_)
        ));
        let mut r = Reader::new(&[2, 0, 0, 0, 0]);
        assert!(matches!(
            r.take_opt(|r| r.take_u32()).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.take_str().unwrap_err(),
            ProtocolError::Malformed(_)
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = Reader::new(&[0]);
        assert!(matches!(
            r.expect_end().unwrap_err(),
            ProtocolError::Malformed(_)
        ));
    }
}
