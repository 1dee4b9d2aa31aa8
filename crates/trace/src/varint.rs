//! LEB128 varints and zigzag mapping, the primitives of the binary format.
//!
//! Unsigned quantities (counts, region ids, cycle counts) are LEB128
//! varints; address deltas are zigzag-mapped first so that the small
//! positive *and* negative strides of real reference streams both encode in
//! one or two bytes.

use crate::TraceError;
use std::io::Write;

/// Maximum encoded length of a `u64` varint (10 × 7 bits ≥ 64 bits).
pub const MAX_VARINT_BYTES: usize = 10;

/// Encodes `v` as a LEB128 varint at the front of `out`, returning the
/// encoded length.
#[inline]
pub fn encode_u64(mut v: u64, out: &mut [u8; MAX_VARINT_BYTES]) -> usize {
    for (i, byte) in out.iter_mut().enumerate() {
        if v < 0x80 {
            *byte = v as u8;
            return i + 1;
        }
        *byte = v as u8 | 0x80;
        v >>= 7;
    }
    unreachable!("a u64 has at most ten 7-bit groups")
}

/// Writes `v` as a LEB128 varint, returning the encoded length.
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> std::io::Result<usize> {
    let mut buf = [0u8; MAX_VARINT_BYTES];
    let n = encode_u64(v, &mut buf);
    w.write_all(&buf[..n])?;
    Ok(n)
}

/// Reads one LEB128 varint off the front of `buf`, advancing it past the
/// encoding.
#[inline]
pub fn read_u64(buf: &mut &[u8]) -> Result<u64, TraceError> {
    // Short strides and small region ids make one byte the common case.
    if let Some((&byte, rest)) = buf.split_first() {
        if byte & 0x80 == 0 {
            *buf = rest;
            return Ok(byte as u64);
        }
    }
    read_long_u64(buf)
}

/// [`read_u64`] for everything but a complete one-byte encoding.
fn read_long_u64(buf: &mut &[u8]) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    for (i, &byte) in buf.iter().take(MAX_VARINT_BYTES).enumerate() {
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only contribute the single remaining bit.
        if i == MAX_VARINT_BYTES - 1 && payload > 1 {
            return Err(TraceError::Malformed("varint overflows u64".to_string()));
        }
        v |= payload << (7 * i);
        if byte & 0x80 == 0 {
            *buf = &buf[i + 1..];
            return Ok(v);
        }
    }
    Err(TraceError::Malformed(if buf.len() < MAX_VARINT_BYTES {
        "truncated varint".to_string()
    } else {
        "varint longer than 10 bytes".to_string()
    }))
}

/// Maps a signed value to an unsigned one with small magnitudes staying
/// small (0, -1, 1, -2 → 0, 1, 2, 3).
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v).unwrap();
            assert_eq!(n, buf.len());
            assert!(n <= MAX_VARINT_BYTES);
            assert_eq!(read_u64(&mut buf.as_slice()).unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn small_values_encode_in_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 100).unwrap();
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_varint_is_rejected() {
        // Continuation bit set but no following byte.
        assert!(read_u64(&mut [0x80u8].as_slice()).is_err());
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let bytes = [0xffu8; 11];
        assert!(read_u64(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn zigzag_round_trips_and_keeps_small_magnitudes_small() {
        for v in [0i64, -1, 1, -2, 2, 1000, -1000, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
