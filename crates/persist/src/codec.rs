//! A small, self-contained binary codec for log records: length-prefixed
//! frames with varint integers and a checksum trailer, so torn or corrupt
//! tails are detected at recovery.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Errors surfaced while decoding a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame is shorter than its header claims — a torn write.
    Truncated,
    /// The checksum trailer does not match the frame body.
    ChecksumMismatch {
        /// Stored checksum.
        stored: u32,
        /// Recomputed checksum.
        computed: u32,
    },
    /// An unknown record tag.
    UnknownTag(u8),
    /// A transaction id whose coordinator or sequence does not fit the
    /// packed `TxId`.
    TxIdOutOfRange {
        /// Decoded coordinator.
        coord: u64,
        /// Decoded sequence.
        seq: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated log frame"),
            DecodeError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
            DecodeError::UnknownTag(t) => write!(f, "unknown record tag {t}"),
            DecodeError::TxIdOutOfRange { coord, seq } => {
                write!(f, "transaction id t{coord}.{seq} out of range")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Writes a LEB128 varint: seven bits a byte, low bits first, the high bit
/// set on every byte but the last — one byte below 2⁷, ten for `u64::MAX`.
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Bytes [`put_varint`] writes for `v`.
pub fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Reads a LEB128 varint. An unterminated one, or one longer than ten
/// bytes, is [`DecodeError::Truncated`] and consumes nothing.
#[inline]
pub fn get_varint(buf: &mut impl Buf) -> Result<u64, DecodeError> {
    let bytes = buf.chunk();
    // One byte is the common case: counts, flags, small sequences.
    if let Some(&byte) = bytes.first() {
        if byte & 0x80 == 0 {
            buf.advance(1);
            return Ok(u64::from(byte));
        }
    }
    let mut v = 0u64;
    let mut i = 0;
    while i < bytes.len().min(10) {
        let byte = bytes[i];
        v |= u64::from(byte & 0x7f) << (7 * i);
        i += 1;
        if byte & 0x80 == 0 {
            buf.advance(i);
            return Ok(v);
        }
    }
    Err(DecodeError::Truncated)
}

/// Bytes a record is decoded from. A [`Bytes`] lends each value as a view
/// of itself; a borrowed slice — a log read where it lies — copies it out.
pub trait Source: Buf + Sized {
    /// Splits off the next `len` bytes, which the caller checked are there.
    fn split_to(&mut self, len: usize) -> Self;
    /// These bytes as an owned [`Bytes`].
    fn into_bytes(self) -> Bytes;
}

impl Source for Bytes {
    fn split_to(&mut self, len: usize) -> Self {
        Bytes::split_to(self, len)
    }

    fn into_bytes(self) -> Bytes {
        self
    }
}

impl Source for &[u8] {
    fn split_to(&mut self, len: usize) -> Self {
        let (head, rest) = self.split_at(len);
        *self = rest;
        head
    }

    fn into_bytes(self) -> Bytes {
        Bytes::copy_from_slice(self)
    }
}

/// Writes a length-prefixed byte slice.
pub fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    put_varint(buf, b.len() as u64);
    buf.put_slice(b);
}

/// Reads a length-prefixed byte slice.
pub fn get_bytes(buf: &mut impl Source) -> Result<Bytes, DecodeError> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.split_to(len).into_bytes())
}

/// FNV-1a based 32-bit frame checksum; not cryptographic, just
/// torn-write detection, like BerkeleyDB's log checksums.
pub fn checksum(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in data {
        h ^= u32::from(*b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Frames `body` with a length prefix and checksum trailer.
pub fn frame(body: &[u8]) -> BytesMut {
    let mut out = BytesMut::with_capacity(body.len() + 10);
    put_frame(&mut out, body);
    out
}

/// Appends [`frame`]`(body)` to `out`, without an intermediate buffer.
pub fn put_frame(out: &mut BytesMut, body: &[u8]) {
    put_varint(out, body.len() as u64);
    out.put_slice(body);
    out.put_u32_le(checksum(body));
}

/// Splits the next frame off `buf`, verifying length and checksum.
pub fn unframe<S: Source>(buf: &mut S) -> Result<S, DecodeError> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len + 4 {
        return Err(DecodeError::Truncated);
    }
    let body = buf.split_to(len);
    let stored = buf.get_u32_le();
    let computed = checksum(body.chunk());
    if stored != computed {
        return Err(DecodeError::ChecksumMismatch { stored, computed });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_varint(&mut b), Ok(v));
            assert!(!b.has_remaining());
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, b"hello");
        put_bytes(&mut buf, b"");
        let mut b = buf.freeze();
        assert_eq!(get_bytes(&mut b).unwrap().as_ref(), b"hello");
        assert_eq!(get_bytes(&mut b).unwrap().as_ref(), b"");
    }

    #[test]
    fn frames_verify_checksums() {
        let f = frame(b"payload");
        let mut b = f.freeze();
        assert_eq!(unframe(&mut b).unwrap().as_ref(), b"payload");
    }

    #[test]
    fn corruption_detected() {
        let mut f = frame(b"payload");
        let mid = f.len() / 2;
        f[mid] ^= 0xff;
        let mut b = f.freeze();
        assert!(matches!(
            unframe(&mut b),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn torn_tail_detected() {
        let f = frame(b"payload");
        let mut b = &f[..f.len() - 2]; // drop 2 trailing bytes
        assert_eq!(unframe(&mut b), Err(DecodeError::Truncated));
    }

    #[test]
    fn varint_truncation_detected() {
        let mut b = Bytes::from_static(&[0x80, 0x80]); // unterminated varint
        assert_eq!(get_varint(&mut b), Err(DecodeError::Truncated));
        // Eleven bytes is past any u64, terminated or not.
        let mut long: &[u8] = &[
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0,
        ];
        assert_eq!(get_varint(&mut long), Err(DecodeError::Truncated));
    }

    #[test]
    fn varints_take_one_byte_per_seven_bits_into_any_buffer() {
        let mut out: Vec<u8> = Vec::new();
        for (v, len) in [(0, 1), (127, 1), (128, 2), (1 << 14, 3), (1 << 35, 6)] {
            out.clear();
            put_varint(&mut out, v);
            assert_eq!((out.len(), varint_len(v)), (len, len), "{v}");
        }
        out.clear();
        put_varint(&mut out, u64::MAX);
        assert_eq!(varint_len(u64::MAX), 10);
        assert_eq!(
            out,
            [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]
        );
        let mut view: &[u8] = &out;
        assert_eq!(get_varint(&mut view), Ok(u64::MAX));
        assert!(view.is_empty());
    }
}
