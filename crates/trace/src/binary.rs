//! The compact, versioned binary trace format.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic      b"DNVT"                          (4 raw bytes)
//! version    u8 = 1
//! benchmark  string (varint length + UTF-8)
//! input      string
//! cores      varint
//! regions    varint count, then per region:
//!              id, name (string), base, bytes,
//!              flags u8 (bit 0: written-in-parallel-phases,
//!                        bits 1-2: bypass kind 0/1/2),
//!              comm u8 (0/1); if 1: object_bytes, offset count, offsets
//! streams    one per core, in core order; each is a sequence of ops
//!            terminated by the end-of-stream tag:
//!              0x00 load   zigzag-varint addr delta, region id
//!              0x01 store  zigzag-varint addr delta, region id
//!              0x02 compute  varint cycles
//!              0x03 barrier  varint id
//!              0xFF end of stream
//! ```
//!
//! Memory addresses are delta-encoded per core: each load/store stores the
//! zigzag of the wrapping byte-difference from the previous memory access of
//! the *same core* (initially 0), so the short strides of real reference
//! streams encode in one or two bytes. The format still carries full 64-bit
//! deltas, but the reader refuses what a record cannot hold: an address
//! that is not word-aligned or not below 2^48 ([`tw_types::TRACE_ADDR_LIMIT`])
//! is a [`TraceError::Malformed`] naming the core, the record and the
//! address, as a region id beyond `u16` or a count beyond `u32` already
//! was — nothing is aligned or truncated on the way in. Barrier records
//! frame the phases: everything between two barriers is one phase, and a
//! phase may legally contain zero memory operations.

use crate::varint::{encode_u64, push_u64, read_u64, unzigzag, zigzag, MAX_VARINT_BYTES};
use crate::{TraceDocument, TraceError};
use tw_types::{
    Addr, BypassKind, CommRegion, MemKind, Record, RegionId, RegionInfo, RegionTable, TraceOp,
};

/// Leading magic of the binary format.
pub(crate) const BINARY_MAGIC: &[u8; 4] = b"DNVT";

/// Current (and only) format version.
const FORMAT_VERSION: u8 = 1;

const TAG_LOAD: u8 = 0x00;
const TAG_STORE: u8 = 0x01;
const TAG_COMPUTE: u8 = 0x02;
const TAG_BARRIER: u8 = 0x03;
const TAG_END: u8 = 0xFF;

fn write_string(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Splits the next `n` bytes off the front of `buf`; running out of input
/// is the malformation `truncated` names.
fn take<'a>(buf: &mut &'a [u8], n: usize, truncated: &str) -> Result<&'a [u8], TraceError> {
    if buf.len() < n {
        return Err(TraceError::Malformed(truncated.to_string()));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn read_string(buf: &mut &[u8]) -> Result<String, TraceError> {
    let len = read_u64(buf)? as usize;
    // A length prefix beyond any plausible metadata string means a corrupt
    // or adversarial header; refuse before allocating.
    if len > 1 << 20 {
        return Err(TraceError::Malformed(format!(
            "string length {len} exceeds the 1 MiB header limit"
        )));
    }
    let bytes = take(buf, len, "truncated string")?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| TraceError::Malformed("string is not UTF-8".to_string()))
}

fn write_region(out: &mut Vec<u8>, r: &RegionInfo) {
    push_u64(out, r.id.0 as u64);
    write_string(out, &r.name);
    push_u64(out, r.base.byte());
    push_u64(out, r.bytes);
    let bypass = match r.bypass {
        BypassKind::None => 0u8,
        BypassKind::ReadThenOverwritten => 1,
        BypassKind::StreamingOncePerPhase => 2,
    };
    let flags = (r.written_in_parallel_phases as u8) | (bypass << 1);
    out.extend_from_slice(&[flags, r.comm.is_some() as u8]);
    if let Some(comm) = &r.comm {
        push_u64(out, comm.object_bytes);
        push_u64(out, comm.useful_offsets.len() as u64);
        for &off in &comm.useful_offsets {
            push_u64(out, off);
        }
    }
}

fn read_region(r: &mut &[u8]) -> Result<RegionInfo, TraceError> {
    let id = read_u64(r)?;
    if id > u16::MAX as u64 {
        return Err(TraceError::Malformed(format!("region id {id} exceeds u16")));
    }
    let name = read_string(r)?;
    let base = read_u64(r)?;
    let bytes = read_u64(r)?;
    let marks = take(r, 2, "truncated region flags")?;
    let (flags, has_comm) = (marks[0], marks[1]);
    let bypass = match (flags >> 1) & 0x3 {
        0 => BypassKind::None,
        1 => BypassKind::ReadThenOverwritten,
        2 => BypassKind::StreamingOncePerPhase,
        k => return Err(TraceError::Malformed(format!("unknown bypass kind {k}"))),
    };
    let comm = match has_comm {
        0 => None,
        1 => {
            let object_bytes = read_u64(r)?;
            let n = read_u64(r)? as usize;
            if n > 1 << 20 {
                return Err(TraceError::Malformed(format!(
                    "comm region with {n} offsets exceeds the sanity limit"
                )));
            }
            let mut useful_offsets = Vec::with_capacity(n);
            for _ in 0..n {
                useful_offsets.push(read_u64(r)?);
            }
            Some(CommRegion {
                object_bytes,
                useful_offsets,
            })
        }
        k => return Err(TraceError::Malformed(format!("bad comm marker {k}"))),
    };
    Ok(RegionInfo {
        id: RegionId(id as u16),
        name,
        base: Addr::new(base),
        bytes,
        comm,
        bypass,
        written_in_parallel_phases: flags & 1 != 0,
    })
}

/// Appends the encoded header to `out`: magic, version, benchmark and input
/// strings, core count and the region table. A file starts with it, and
/// [`crate::content_digest`] digests it as the workload's metadata, so both
/// read one serializer.
pub(crate) fn encode_header(
    out: &mut Vec<u8>,
    benchmark: &str,
    input: &str,
    cores: usize,
    regions: &RegionTable,
) {
    out.extend_from_slice(BINARY_MAGIC);
    out.push(FORMAT_VERSION);
    write_string(out, benchmark);
    write_string(out, input);
    push_u64(out, cores as u64);
    push_u64(out, regions.len() as u64);
    for r in regions.iter() {
        write_region(out, r);
    }
}

/// The longest encoded op: a tag and two full-length varints.
const MAX_OP_BYTES: usize = 1 + 2 * MAX_VARINT_BYTES;

/// Encodes `v` at `out[at..]` and returns the offset just past it.
#[inline]
fn put_varint(out: &mut [u8; MAX_OP_BYTES], at: usize, v: u64) -> usize {
    let slot = out[at..]
        .first_chunk_mut()
        .expect("an op's varints start within its first eleven bytes");
    at + encode_u64(v, slot)
}

/// Bytes of encoded ops gathered on the stack before they go to `out`.
const BLOCK_BYTES: usize = 16 * 1024;

/// Appends one core's stream to `out`: its ops, then the end-of-stream tag.
/// Ops are encoded into a block on the stack, which goes to `out` with one
/// copy when the next op might not fit: appending each op to `out` on its
/// own, a capacity check and a short copy per op, halved the encoder's
/// throughput.
pub(crate) fn encode_stream(out: &mut Vec<u8>, stream: &[TraceOp]) {
    let mut block = [0u8; BLOCK_BYTES];
    let mut filled = 0;
    let mut prev_addr = 0u64;
    for op in stream {
        if BLOCK_BYTES - filled < MAX_OP_BYTES {
            out.extend_from_slice(&block[..filled]);
            filled = 0;
        }
        let rec: &mut [u8; MAX_OP_BYTES] = block[filled..]
            .first_chunk_mut()
            .expect("the block has room for an op");
        filled += match op.view() {
            Record::Mem { kind, addr, region } => {
                rec[0] = match kind {
                    MemKind::Load => TAG_LOAD,
                    MemKind::Store => TAG_STORE,
                };
                let delta = addr.byte().wrapping_sub(prev_addr) as i64;
                prev_addr = addr.byte();
                let next = put_varint(rec, 1, zigzag(delta));
                put_varint(rec, next, region.0 as u64)
            }
            Record::Compute { cycles } => {
                rec[0] = TAG_COMPUTE;
                put_varint(rec, 1, cycles as u64)
            }
            Record::Barrier { id } => {
                rec[0] = TAG_BARRIER;
                put_varint(rec, 1, id as u64)
            }
        };
    }
    out.extend_from_slice(&block[..filled]);
    out.push(TAG_END);
}

/// Decodes a whole binary trace. Trailing bytes after the last declared
/// stream mean a concatenated or partially overwritten file, which must not
/// silently parse as the leading document — that would blind the
/// determinism oracle built on `trace diff`.
pub(crate) fn decode(mut r: &[u8]) -> Result<TraceDocument, TraceError> {
    let magic = take(&mut r, 4, "file shorter than the magic")?;
    if magic != BINARY_MAGIC {
        return Err(TraceError::Malformed(format!(
            "bad magic {magic:02x?}; expected {BINARY_MAGIC:02x?}"
        )));
    }
    let version = take(&mut r, 1, "missing version byte")?[0];
    if version != FORMAT_VERSION {
        return Err(TraceError::Malformed(format!(
            "unsupported format version {version} (this build reads version {FORMAT_VERSION})"
        )));
    }
    let benchmark = read_string(&mut r)?;
    let input = read_string(&mut r)?;
    let cores = read_u64(&mut r)? as usize;
    if cores == 0 || cores > 4096 {
        return Err(TraceError::Malformed(format!(
            "implausible core count {cores}"
        )));
    }
    let n_regions = read_u64(&mut r)? as usize;
    if n_regions > 1 << 16 {
        return Err(TraceError::Malformed(format!(
            "implausible region count {n_regions}"
        )));
    }
    let mut regions = RegionTable::new();
    for _ in 0..n_regions {
        let info = read_region(&mut r)?;
        // Guard before insert: RegionTable::insert panics on duplicates,
        // and untrusted bytes must never abort the process.
        if regions.get(info.id).is_some() {
            return Err(TraceError::Malformed(format!(
                "duplicate region id {}",
                info.id
            )));
        }
        regions.insert(info);
    }
    let streams = (0..cores)
        .map(|core| decode_stream(&mut r, core))
        .collect::<Result<_, _>>()?;
    if !r.is_empty() {
        return Err(TraceError::Malformed(
            "trailing bytes after the last declared core stream".to_string(),
        ));
    }
    Ok(TraceDocument {
        benchmark,
        input,
        regions,
        streams,
    })
}

/// Decodes `core`'s stream off the front of `r`, through its end tag.
fn decode_stream(r: &mut &[u8], core: usize) -> Result<Vec<TraceOp>, TraceError> {
    let mut ops = Vec::new();
    let mut prev_addr: u64 = 0;
    // Decoded off a local copy of the cursor, which can live in registers.
    let mut rest = *r;
    loop {
        let Some((&tag, after_tag)) = rest.split_first() else {
            return Err(TraceError::Malformed(format!(
                "core {core} stream truncated before its end marker"
            )));
        };
        rest = after_tag;
        match tag {
            TAG_LOAD | TAG_STORE => {
                let delta = unzigzag(read_u64(&mut rest)?);
                let addr = prev_addr.wrapping_add(delta as u64);
                prev_addr = addr;
                let region = read_u64(&mut rest)?;
                if region > u16::MAX as u64 {
                    return Err(TraceError::Malformed(format!(
                        "region id {region} exceeds u16"
                    )));
                }
                let kind = if tag == TAG_LOAD {
                    MemKind::Load
                } else {
                    MemKind::Store
                };
                let op = TraceOp::mem(kind, Addr::new(addr), RegionId(region as u16));
                let record = ops.len();
                ops.push(op.map_err(|e| {
                    TraceError::Malformed(format!("core {core} record {record}: {e}"))
                })?);
            }
            TAG_COMPUTE => {
                let cycles = read_u64(&mut rest)?;
                if cycles > u32::MAX as u64 {
                    return Err(TraceError::Malformed(format!(
                        "compute cycles {cycles} exceed u32"
                    )));
                }
                ops.push(TraceOp::compute(cycles as u32));
            }
            TAG_BARRIER => {
                let id = read_u64(&mut rest)?;
                if id > u32::MAX as u64 {
                    return Err(TraceError::Malformed(format!(
                        "barrier id {id} exceeds u32"
                    )));
                }
                ops.push(TraceOp::barrier(id as u32));
            }
            TAG_END => {
                *r = rest;
                return Ok(ops);
            }
            t => {
                return Err(TraceError::Malformed(format!(
                    "unknown op tag {t:#04x} in core {core} stream"
                )))
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tw_types::TRACE_ADDR_LIMIT;

    pub(crate) fn regions_one() -> RegionTable {
        let mut t = RegionTable::new();
        t.insert(RegionInfo::plain(RegionId(1), "a", Addr::new(0), 1 << 20));
        t
    }

    /// The encoder as it was before ops were assembled in a stack array:
    /// every byte of every varint is pushed on its own. Kept as the
    /// reference the encoder is compared against, byte for byte.
    mod reference {
        use super::*;

        fn varint(out: &mut Vec<u8>, mut v: u64) {
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    out.push(byte);
                    return;
                }
                out.push(byte | 0x80);
            }
        }

        fn string(out: &mut Vec<u8>, s: &str) {
            varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }

        pub fn encode(
            benchmark: &str,
            input: &str,
            regions: &RegionTable,
            streams: &[Vec<TraceOp>],
        ) -> Vec<u8> {
            let mut out = BINARY_MAGIC.to_vec();
            out.push(FORMAT_VERSION);
            string(&mut out, benchmark);
            string(&mut out, input);
            varint(&mut out, streams.len() as u64);
            varint(&mut out, regions.len() as u64);
            for r in regions.iter() {
                varint(&mut out, r.id.0 as u64);
                string(&mut out, &r.name);
                varint(&mut out, r.base.byte());
                varint(&mut out, r.bytes);
                let bypass = match r.bypass {
                    BypassKind::None => 0u8,
                    BypassKind::ReadThenOverwritten => 1,
                    BypassKind::StreamingOncePerPhase => 2,
                };
                out.push((r.written_in_parallel_phases as u8) | (bypass << 1));
                out.push(r.comm.is_some() as u8);
                if let Some(comm) = &r.comm {
                    varint(&mut out, comm.object_bytes);
                    varint(&mut out, comm.useful_offsets.len() as u64);
                    for &off in &comm.useful_offsets {
                        varint(&mut out, off);
                    }
                }
            }
            for stream in streams {
                let mut prev_addr = 0u64;
                for op in stream {
                    match op.view() {
                        Record::Mem { kind, addr, region } => {
                            out.push(match kind {
                                MemKind::Load => TAG_LOAD,
                                MemKind::Store => TAG_STORE,
                            });
                            let delta = addr.byte().wrapping_sub(prev_addr) as i64;
                            varint(&mut out, zigzag(delta));
                            varint(&mut out, region.0 as u64);
                            prev_addr = addr.byte();
                        }
                        Record::Compute { cycles } => {
                            out.push(TAG_COMPUTE);
                            varint(&mut out, cycles as u64);
                        }
                        Record::Barrier { id } => {
                            out.push(TAG_BARRIER);
                            varint(&mut out, id as u64);
                        }
                    }
                }
                out.push(TAG_END);
            }
            out
        }
    }

    /// The encoding of a document of `streams` over `regions`.
    fn written(regions: &RegionTable, streams: &[Vec<TraceOp>]) -> Vec<u8> {
        TraceDocument {
            benchmark: "custom".into(),
            input: "edge".into(),
            regions: regions.clone(),
            streams: streams.to_vec(),
        }
        .to_binary_bytes()
        .unwrap()
    }

    #[test]
    fn writer_matches_the_reference_on_the_edges_of_the_format() {
        let mut regions = regions_one();
        let mut comm = RegionInfo::plain(RegionId(u16::MAX), "last", Addr::new(1 << 20), 1 << 20);
        comm.bypass = BypassKind::ReadThenOverwritten;
        comm.comm = Some(CommRegion {
            object_bytes: 96,
            useful_offsets: vec![0, 8, u64::MAX],
        });
        regions.insert(comm);
        let top = TRACE_ADDR_LIMIT - 4;
        let streams = vec![
            // Empty stream: nothing but its end marker.
            vec![],
            vec![
                TraceOp::store(Addr::new(top), RegionId(u16::MAX)),
                // top -> 0 is the longest backward delta a record can
                // make: zigzag 2^49 - 9, a 7-byte varint.
                TraceOp::load(Addr::new(0), RegionId(0)),
                TraceOp::load(Addr::new(top), RegionId(1)),
                TraceOp::compute(u32::MAX),
                TraceOp::barrier(u32::MAX),
                TraceOp::compute(0),
            ],
            vec![],
            // Eleven-byte ops, past the end of several encoder blocks.
            (0..3 * BLOCK_BYTES / 11)
                .map(|i| TraceOp::load(Addr::new(top * (i as u64 % 2)), RegionId(u16::MAX)))
                .collect(),
        ];
        let bytes = written(&regions, &streams);
        assert_eq!(
            bytes,
            reference::encode("custom", "edge", &regions, &streams)
        );
        assert!(bytes
            .windows(7)
            .any(|w| w == [0xf7, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]));
        let back = decode(&bytes).unwrap();
        assert_eq!(back.regions, regions);
        assert_eq!(back.streams, streams);
    }

    /// What [`arbitrary_streams`] draws: per core, per record a shape and
    /// three payloads, which [`streams_of`] turns into records.
    pub(crate) type RawStreams = Vec<Vec<(u8, u64, u16, u32)>>;

    /// One to four cores of up to 119 records each.
    pub(crate) fn arbitrary_streams() -> impl proptest::Strategy<Value = RawStreams> {
        proptest::collection::vec(
            proptest::collection::vec(
                (
                    0u8..8,
                    proptest::any::<u64>(),
                    proptest::any::<u16>(),
                    proptest::any::<u32>(),
                ),
                0..120,
            ),
            1..5,
        )
    }

    /// Every address a record holds (so deltas of every varint length a
    /// record can make), every region id, cores with no ops at all.
    pub(crate) fn streams_of(raw: RawStreams) -> Vec<Vec<TraceOp>> {
        raw.into_iter()
            .map(|ops| {
                ops.into_iter()
                    .map(|(shape, addr, region, small)| match shape {
                        0 => TraceOp::load(Addr::new(addr % TRACE_ADDR_LIMIT), RegionId(region)),
                        1 => TraceOp::store(Addr::new(addr % TRACE_ADDR_LIMIT), RegionId(region)),
                        // Short strides, as real reference streams have.
                        2 => TraceOp::load(Addr::new(addr % 4096), RegionId(region % 4)),
                        3 => TraceOp::store(Addr::new(TRACE_ADDR_LIMIT - 4), RegionId(u16::MAX)),
                        4 => TraceOp::load(Addr::new(0), RegionId(0)),
                        5 => TraceOp::compute(small),
                        6 => TraceOp::barrier(small),
                        _ => TraceOp::compute(small % 200),
                    })
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        /// The encoder and the byte-at-a-time reference agree on every byte
        /// of arbitrary streams.
        #[test]
        fn writer_matches_the_reference_byte_for_byte(raw in arbitrary_streams()) {
            let streams = streams_of(raw);
            let regions = regions_one();
            proptest::prop_assert_eq!(
                written(&regions, &streams),
                reference::encode("custom", "edge", &regions, &streams)
            );
        }
    }

    /// The encoding of a one-core document `x`/`y` over [`regions_one`].
    fn one_core(stream: Vec<TraceOp>) -> Vec<u8> {
        TraceDocument {
            benchmark: "x".into(),
            input: "y".into(),
            regions: regions_one(),
            streams: vec![stream],
        }
        .to_binary_bytes()
        .unwrap()
    }

    #[test]
    fn sequential_addresses_encode_compactly() {
        // 1000 sequential word accesses: ~3 bytes per op (tag + 1-byte
        // delta + 1-byte region), far below the 13+ bytes of a naive fixed
        // encoding.
        let bytes = one_core(
            (0..1000u64)
                .map(|i| TraceOp::load(Addr::new(i * 4), RegionId(1)))
                .collect(),
        );
        let header_overhead = 64; // generous bound for magic + strings + region
        assert!(
            bytes.len() < header_overhead + 1000 * 4,
            "encoding is not compact: {} bytes for 1000 ops",
            bytes.len()
        );
    }

    #[test]
    fn reader_rejects_future_versions_and_bad_tags() {
        let mut bytes = one_core(vec![]);

        let mut future = bytes.clone();
        future[4] = FORMAT_VERSION + 1;
        let err = decode(&future).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // Corrupt the end-of-stream tag into an unknown op tag.
        *bytes.last_mut().unwrap() = 0x7E;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("unknown op tag 0x7e"), "{err}");
    }

    #[test]
    fn truncated_stream_is_detected() {
        let bytes = one_core(vec![TraceOp::load(Addr::new(64), RegionId(1))]);
        // Drop the end marker: the reader must not silently return a stream.
        let err = decode(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn duplicate_region_ids_are_a_parse_error_not_a_panic() {
        let mut regions = RegionTable::new();
        regions.insert(RegionInfo::plain(RegionId(1), "a", Addr::new(0), 64));
        let mut bytes = TraceDocument {
            benchmark: "x".into(),
            input: "y".into(),
            regions,
            streams: vec![vec![]],
        }
        .to_binary_bytes()
        .unwrap();
        // Append a second copy of the (sole) region record and bump the
        // region count from 1 to 2. The region record starts right after
        // magic(4) + version(1) + "x"(2) + "y"(2) + cores(1) + count(1).
        let region_start = 11;
        let region_end = bytes.len() - 1; // strip the end-of-stream tag
        let copy = bytes[region_start..region_end].to_vec();
        bytes[region_start - 1] = 2;
        bytes.splice(region_end..region_end, copy);
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("duplicate region"), "{err}");
    }

    #[test]
    fn trailing_bytes_after_the_last_stream_are_rejected() {
        let mut bytes = one_core(vec![TraceOp::load(Addr::new(64), RegionId(1))]);
        assert!(TraceDocument::from_bytes(&bytes).is_ok());
        // A concatenated or partially overwritten file must not silently
        // parse as the leading document.
        bytes.push(0x00);
        let err = TraceDocument::from_bytes(&bytes).err().unwrap();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn extreme_address_jumps_round_trip() {
        let addrs = [0u64, TRACE_ADDR_LIMIT - 4, 4, 1 << 40, 0];
        let bytes = one_core(
            addrs
                .iter()
                .map(|&a| TraceOp::store(Addr::new(a), RegionId(1)))
                .collect(),
        );
        let doc = decode(&bytes).unwrap();
        let got: Vec<u64> = doc.streams[0]
            .iter()
            .map(|op| op.addr().unwrap().byte())
            .collect();
        assert_eq!(got, addrs);
    }

    /// One core's stream of stores, hand-encoded from raw address deltas
    /// so it can hold what no `TraceOp` can.
    fn stores_with_deltas(deltas: &[i64]) -> Vec<u8> {
        let mut bytes = one_core(vec![]);
        bytes.pop(); // the end-of-stream tag
        for &delta in deltas {
            bytes.push(TAG_STORE);
            push_u64(&mut bytes, zigzag(delta));
            push_u64(&mut bytes, 1);
        }
        bytes.push(TAG_END);
        bytes
    }

    #[test]
    fn reader_refuses_addresses_a_record_cannot_hold() {
        // (deltas, the refused record, its address)
        let cases: [(&[i64], usize, u64); 5] = [
            (&[i64::MIN], 0, 1 << 63),
            (&[-4], 0, !3),
            (&[1 << 48], 0, 1 << 48),
            (&[4, 2], 1, 6),
            (&[8, i64::MIN], 1, (1 << 63) + 8),
        ];
        for (deltas, record, addr) in cases {
            match decode(&stores_with_deltas(deltas)) {
                Err(TraceError::Malformed(m)) => {
                    assert!(
                        m.contains(&format!("core 0 record {record}: address {addr:#x}")),
                        "{m}"
                    )
                }
                other => panic!("{deltas:?} read as {other:?}"),
            }
        }
    }

    proptest::proptest! {
        /// A stored address comes back exactly when a record can hold it;
        /// any other is refused, never truncated or aligned.
        #[test]
        fn reader_keeps_or_refuses_every_address(addr in proptest::any::<u64>(), low in 0u64..4) {
            let held = addr % TRACE_ADDR_LIMIT;
            for addr in [addr, held, (held & !3) | low] {
                let read = decode(&stores_with_deltas(&[addr as i64]));
                if addr % 4 == 0 && addr < TRACE_ADDR_LIMIT {
                    let doc = read.unwrap();
                    proptest::prop_assert_eq!(doc.streams[0][0].addr(), Some(Addr::new(addr)));
                } else {
                    proptest::prop_assert!(matches!(read, Err(TraceError::Malformed(_))));
                }
            }
        }
    }
}
