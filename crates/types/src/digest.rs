//! Stable content digests for cell identity and the result cache.
//!
//! The experiment layer names things by *content*: a workload is identified
//! by the digest of its canonical trace encoding, and a result-cache entry by
//! the digest of everything that determines a `SimReport` (trace bytes,
//! system configuration, protocol, engine version). The digest therefore has
//! to be **stable across runs, platforms and process layouts** — which rules
//! out `std::hash` (`RandomState` is seeded per process, and `Hasher`
//! implementations are explicitly not portable). [`Digester`] is a fixed,
//! self-contained 128-bit streaming hash: two independent FNV-1a lanes over
//! the same byte stream, cross-mixed on finalization. It is not
//! cryptographic; it only has to make accidental collisions between a few
//! thousand cache entries vanishingly unlikely.
//!
//! All multi-byte values are folded in little-endian order, and variable-
//! length fields are length-prefixed, so `("ab", "c")` and `("a", "bc")`
//! digest differently.

use std::fmt;
use std::str::FromStr;

/// A 128-bit content digest, displayed as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub u128);

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for Digest {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(format!("digest must be 32 hex digits, got {}", s.len()));
        }
        u128::from_str_radix(s, 16)
            .map(Digest)
            .map_err(|e| format!("invalid digest `{s}`: {e}"))
    }
}

impl Digest {
    /// The first eight hex digits — a short human-readable handle used in
    /// labels and log lines (full digests remain the identity).
    pub fn short(&self) -> String {
        format!("{:08x}", (self.0 >> 96) as u32)
    }

    /// Digests one byte slice in a single call.
    pub fn of_bytes(bytes: &[u8]) -> Digest {
        let mut d = Digester::new();
        d.write_bytes(bytes);
        d.finish()
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const LANE_A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
// A distinct, odd offset so the two lanes decorrelate immediately.
const LANE_B_OFFSET: u64 = 0x6c62_272e_07bb_0142;

/// Streaming hasher producing a [`Digest`].
#[derive(Debug, Clone)]
pub struct Digester {
    a: u64,
    b: u64,
    len: u64,
}

impl Default for Digester {
    fn default() -> Self {
        Digester::new()
    }
}

impl Digester {
    /// A fresh digester.
    pub fn new() -> Self {
        Digester {
            a: LANE_A_OFFSET,
            b: LANE_B_OFFSET,
            len: 0,
        }
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
            // Lane B sees each byte offset by its running position, so
            // transposed bytes change it even where lane A would collide.
            self.b = (self.b ^ (byte as u64).wrapping_add(self.len)).wrapping_mul(FNV_PRIME);
            self.len = self.len.wrapping_add(1);
        }
    }

    /// Folds one `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Finalizes the digest. The digester can keep accumulating afterwards;
    /// `finish` is a pure read.
    pub fn finish(&self) -> Digest {
        // Cross-mix the lanes with the total length so prefixes of a stream
        // never share a digest with the stream itself.
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let hi = mix(self.a ^ self.len.rotate_left(32));
        let lo = mix(self.b.wrapping_add(self.a.rotate_left(17)));
        Digest(((hi as u128) << 64) | lo as u128)
    }
}

/// An [`std::io::Write`] adapter folding everything written into a
/// [`Digester`] — lets serializers digest their output without materializing
/// it.
#[derive(Debug, Default)]
pub struct DigestWriter {
    digester: Digester,
}

impl DigestWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        DigestWriter::default()
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> Digest {
        self.digester.finish()
    }
}

impl std::io::Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.digester.write_bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable() {
        // Pinned value: if this changes, every content-addressed cache entry
        // silently invalidates — bump the engine version instead of editing
        // the expectation.
        let d = Digest::of_bytes(b"denovo-waste");
        assert_eq!(d.to_string(), "6acc27d25591140b56d8c95b8a6073e1");
        assert_ne!(d, Digest::of_bytes(b"denovo-wastf"));
    }

    #[test]
    fn display_and_parse_round_trip() {
        let d = Digest::of_bytes(b"roundtrip");
        let s = d.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(s.parse::<Digest>(), Ok(d));
        assert_eq!(d.short().len(), 8);
        assert!(s.starts_with(&d.short()));
        assert!("xyz".parse::<Digest>().is_err());
        assert!("g".repeat(32).parse::<Digest>().is_err());
    }

    #[test]
    fn length_prefixing_separates_field_boundaries() {
        let mut x = Digester::new();
        x.write_str("ab");
        x.write_str("c");
        let mut y = Digester::new();
        y.write_str("a");
        y.write_str("bc");
        assert_ne!(x.finish(), y.finish());
    }

    #[test]
    fn prefix_never_collides_with_extension() {
        let mut d = Digester::new();
        d.write_bytes(b"abc");
        let short = d.finish();
        d.write_bytes(b"");
        assert_eq!(d.finish(), short, "empty write must not change the state");
        d.write_bytes(b"d");
        assert_ne!(d.finish(), short);
    }

    #[test]
    fn transpositions_change_the_digest() {
        assert_ne!(Digest::of_bytes(b"ab"), Digest::of_bytes(b"ba"));
        assert_ne!(Digest::of_bytes(&[0, 1]), Digest::of_bytes(&[1, 0]));
    }

    #[test]
    fn digest_writer_matches_direct_digesting() {
        use std::io::Write as _;
        let mut w = DigestWriter::new();
        w.write_all(b"chunk one").unwrap();
        w.write_all(b" chunk two").unwrap();
        assert_eq!(w.finish(), Digest::of_bytes(b"chunk one chunk two"));
    }
}
