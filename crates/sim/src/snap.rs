//! Binary snapshot codec for deterministic checkpoint/restore.
//!
//! Every piece of mutable engine state — timer-wheel entries, component
//! fields, RNG streams — serializes through [`SnapWriter`] and
//! deserializes through [`SnapReader`]. The encoding is deliberately
//! boring: fixed-width little-endian integers, IEEE-754 bit patterns for
//! floats, and length-prefixed byte strings. Boring is the point — a
//! restore must reproduce the *exact* bytes of pre-snapshot state, so the
//! codec must never normalize, canonicalize, or round.
//!
//! Reads are total: a truncated or corrupt buffer yields a typed
//! [`SnapError`], never a panic. Higher layers (`ccsim_core::checkpoint`)
//! wrap these primitives in a versioned, digest-stamped container; this
//! module knows nothing about files or versions.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// A typed decode failure. Snapshot loading is driven by untrusted bytes
/// (a file that may be torn mid-write), so every failure mode is a value,
/// not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Bytes requested by the read.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A tag, discriminant, or count field held an impossible value.
    Corrupt(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, remaining } => write!(
                f,
                "snapshot truncated: needed {needed} bytes, {remaining} remaining"
            ),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends fixed-width fields to a growable byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, yielding the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern — restore must be
    /// bit-identical, so floats are never formatted or rounded.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append a [`SimTime`] (nanoseconds since t=0).
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }

    /// Append a [`SimDuration`] (nanoseconds).
    pub fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }

    /// Append `Some`/`None` as a tag byte followed by the value.
    pub fn opt<T>(&mut self, v: Option<T>, mut f: impl FnMut(&mut SnapWriter, T)) {
        match v {
            Some(v) => {
                self.u8(1);
                f(self, v);
            }
            None => self.u8(0),
        }
    }

    /// Append a length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut SnapWriter, &T)) {
        self.u64(items.len() as u64);
        for item in items {
            f(self, item);
        }
    }
}

/// Reads fields back out of a snapshot buffer, in write order.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff every byte has been consumed — loaders check this to
    /// reject trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` written by [`SnapWriter::usize`]; rejects values
    /// that do not fit the platform's pointer width.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| SnapError::Corrupt(format!("invalid utf-8: {e}")))
    }

    /// Read a [`SimTime`].
    pub fn time(&mut self) -> Result<SimTime, SnapError> {
        Ok(SimTime::from_nanos(self.u64()?))
    }

    /// Read a [`SimDuration`].
    pub fn duration(&mut self) -> Result<SimDuration, SnapError> {
        Ok(SimDuration::from_nanos(self.u64()?))
    }

    /// Read an option written by [`SnapWriter::opt`].
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(SnapError::Corrupt(format!("option tag {b}"))),
        }
    }

    /// Read a sequence written by [`SnapWriter::seq`]. The element size
    /// floor (1 byte) bounds the allocation a corrupt length can demand.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(SnapError::Truncated {
                needed: len,
                remaining: self.remaining(),
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.usize(123_456);
        w.f64(-0.1);
        w.bytes(b"abc");
        w.str("héllo");
        w.time(SimTime::from_nanos(99));
        w.duration(SimDuration::from_nanos(100));
        w.opt(Some(5u64), |w, v| w.u64(v));
        w.opt::<u64>(None, |w, v| w.u64(v));
        w.seq(&[1u32, 2, 3], |w, &v| w.u32(v));

        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.time().unwrap(), SimTime::from_nanos(99));
        assert_eq!(r.duration().unwrap(), SimDuration::from_nanos(100));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(5));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u32()).unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = SnapWriter::new();
        w.u64(5);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert_eq!(
            r.u64(),
            Err(SnapError::Truncated {
                needed: 8,
                remaining: 4
            })
        );
    }

    #[test]
    fn corrupt_tags_are_typed_errors() {
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
        let mut r = SnapReader::new(&[9, 0]);
        assert!(matches!(r.opt(|r| r.u8()), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn corrupt_sequence_length_does_not_overallocate() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.seq(|r| r.u8()),
            Err(SnapError::Truncated { .. }) | Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_0001);
        let mut w = SnapWriter::new();
        w.f64(weird);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }
}
