//! Stable content digests for cell identity and the result cache.
//!
//! The experiment layer names things by *content*: a workload is identified
//! by the digest of its trace header and its packed records, and a
//! result-cache entry by the digest of everything that determines a
//! `SimReport` (workload digest, system configuration, protocol, engine
//! version). The digest therefore has to be **stable across runs, platforms
//! and process layouts** — which rules out `std::hash` (`RandomState` is
//! seeded per process, and `Hasher` implementations are explicitly not
//! portable). [`Digester`] is a fixed, self-contained 128-bit streaming
//! hash: two independent FNV-1a lanes over the same byte stream, cross-mixed
//! on finalization. Trace records, nearly all of what is digested, do not go
//! through the byte lanes: [`Digester::write_records`] folds their words
//! through four independent multiply lanes and hands the digester only the
//! lanes' final states. It is not cryptographic; it only has to make
//! accidental collisions between a few thousand cache entries vanishingly
//! unlikely.
//!
//! All multi-byte values are folded in little-endian order, and variable-
//! length fields are length-prefixed, so `("ab", "c")` and `("a", "bc")`
//! digest differently.

use crate::trace::TraceOp;
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

/// Folded ahead of every record stream ("TraceOps" in ASCII), so a stream
/// never digests like bytes that happen to spell its length and lanes.
const RECORDS_TAG: u64 = u64::from_le_bytes(*b"TraceOps");
/// Independent lanes of [`Digester::write_records`]: one word per lane per
/// step, so the four multiply chains overlap instead of queueing.
const RECORD_LANES: usize = 4;
/// Per-lane starting states (hex digits of pi), odd multipliers and
/// rotations: no two lanes step alike, so swapping two neighbouring records
/// moves the digest.
const RECORD_SEEDS: [u64; RECORD_LANES] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
const RECORD_MULS: [u64; RECORD_LANES] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x27d4_eb2f_1656_67c5,
];
const RECORD_ROTS: [u32; RECORD_LANES] = [27, 31, 33, 37];

/// One step of record lane `i`. For a fixed word it is a bijection of the
/// lane (xor, multiplication by an odd constant and rotation all are), so
/// two streams that differ in one record leave different lanes behind.
#[inline]
fn record_step(lane: u64, word: u64, i: usize) -> u64 {
    (lane ^ word)
        .wrapping_mul(RECORD_MULS[i])
        .rotate_left(RECORD_ROTS[i])
}

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

    /// Folds one stream of trace records, read in place: a domain tag and
    /// the stream's length, then every record's [`TraceOp::bits`] through
    /// four independent 64-bit lanes (record `n` goes to lane `n % 4`),
    /// then the four lanes' final states. Each word is read once and never
    /// split into bytes, which is what makes a workload digest a fraction of
    /// the cost of generating the workload.
    pub fn write_records(&mut self, records: &[TraceOp]) {
        self.write_u64(RECORDS_TAG);
        self.write_u64(records.len() as u64);
        let mut lanes = RECORD_SEEDS;
        let mut steps = records.chunks_exact(RECORD_LANES);
        for step in &mut steps {
            for (i, op) in step.iter().enumerate() {
                lanes[i] = record_step(lanes[i], op.bits(), i);
            }
        }
        for (i, op) in steps.remainder().iter().enumerate() {
            lanes[i] = record_step(lanes[i], op.bits(), i);
        }
        for lane in lanes {
            self.write_u64(lane);
        }
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

    fn of_streams(streams: &[&[TraceOp]]) -> Digest {
        let mut d = Digester::new();
        for s in streams {
            d.write_records(s);
        }
        d.finish()
    }

    #[test]
    fn record_lanes_see_every_word_its_place_and_the_stream_boundaries() {
        use crate::{Addr, RegionId};
        // Nine records: two full steps of the four lanes and a tail.
        let base: Vec<TraceOp> = (0..9u64)
            .map(|i| TraceOp::load(Addr::new(i * 64), RegionId(1)))
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        assert!(seen.insert(of_streams(&[&base])));
        for at in 0..base.len() {
            // Any one record edited, and any two neighbours swapped.
            let mut edited = base.clone();
            edited[at] = TraceOp::store(Addr::new(at as u64 * 64), RegionId(1));
            assert!(seen.insert(of_streams(&[&edited])), "edit at {at}");
            if at + 1 < base.len() {
                let mut swapped = base.clone();
                swapped.swap(at, at + 1);
                assert!(seen.insert(of_streams(&[&swapped])), "swap at {at}");
            }
        }
        // The all-zero word still counts: the length is folded first.
        let zero = TraceOp::load(Addr::new(0), RegionId(0));
        assert_eq!(zero.bits(), 0);
        assert!(seen.insert(of_streams(&[&[]])));
        assert!(seen.insert(of_streams(&[&[zero]])));
        // Where one stream ends and the next begins is part of the content.
        assert!(seen.insert(of_streams(&[&base[..4], &base[4..]])));
        assert!(seen.insert(of_streams(&[&base[..5], &base[5..]])));
    }
}
