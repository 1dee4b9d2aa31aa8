//! The human-readable text trace format, for hand-written scenarios.
//!
//! ```text
//! denovo-waste-trace v1
//! bench FFT
//! input 64 points
//! cores 2
//! region 1 "a" base=0x0 bytes=4096 wip=1 bypass=none
//! region 2 "dest array" base=0x1000 bytes=8192 wip=0 bypass=stream comm=96:0,8,16,80
//! core 0
//!   LD 0x0 R1
//!   C 12
//!   ST 0x1000 R2
//!   B 0
//! end
//! core 1
//!   B 0
//! end
//! ```
//!
//! Blank lines and `#` comments are ignored. Region names are quoted (with
//! `\"` and `\\` escapes) because generator names contain spaces. `wip`
//! marks regions written in parallel phases; `bypass` is one of
//! `none`/`rto`/`stream`; `comm=OBJ:o1,o2,...` gives the Flex communication
//! region (object size and useful byte offsets). Core sections must appear
//! in core order and each closes with `end`. An `LD`/`ST` address must be
//! word-aligned and below 2^48, the domain of a [`TraceOp`]; the parser
//! refuses any other, as it refuses a region id beyond `u16` or a count
//! beyond `u32`, rather than aligning or truncating it.

use crate::{TraceDocument, TraceError};
use std::fmt::Write as _;
use tw_types::{
    Addr, BypassKind, CommRegion, MemKind, Record, RegionId, RegionInfo, RegionTable, TraceOp,
};

const HEADER_LINE: &str = "denovo-waste-trace v1";

fn quote(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a document in the text format.
pub fn emit(doc: &TraceDocument) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER_LINE}");
    let _ = writeln!(out, "bench {}", doc.benchmark);
    let _ = writeln!(out, "input {}", doc.input);
    let _ = writeln!(out, "cores {}", doc.streams.len());
    for r in doc.regions.iter() {
        let bypass = match r.bypass {
            BypassKind::None => "none",
            BypassKind::ReadThenOverwritten => "rto",
            BypassKind::StreamingOncePerPhase => "stream",
        };
        let _ = write!(
            out,
            "region {} {} base={:#x} bytes={} wip={} bypass={bypass}",
            r.id.0,
            quote(&r.name),
            r.base.byte(),
            r.bytes,
            r.written_in_parallel_phases as u8,
        );
        if let Some(comm) = &r.comm {
            let offs: Vec<String> = comm.useful_offsets.iter().map(|o| o.to_string()).collect();
            let _ = write!(out, " comm={}:{}", comm.object_bytes, offs.join(","));
        }
        out.push('\n');
    }
    for (core, stream) in doc.streams.iter().enumerate() {
        let _ = writeln!(out, "core {core}");
        for op in stream {
            match op.view() {
                Record::Mem { kind, addr, region } => {
                    let _ = writeln!(out, "  {kind} {:#x} {region}", addr.byte());
                }
                Record::Compute { cycles } => {
                    let _ = writeln!(out, "  C {cycles}");
                }
                Record::Barrier { id } => {
                    let _ = writeln!(out, "  B {id}");
                }
            }
        }
        let _ = writeln!(out, "end");
    }
    out
}

fn err(line_no: usize, msg: impl Into<String>) -> TraceError {
    TraceError::Malformed(format!("line {line_no}: {}", msg.into()))
}

fn parse_u64(s: &str, line_no: usize, what: &str) -> Result<u64, TraceError> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    }
    .map_err(|_| err(line_no, format!("bad {what} `{s}`")))
}

/// Splits `region 3 "dest array" base=...` into the quoted name and the
/// rest, handling escapes.
fn parse_quoted(s: &str, line_no: usize) -> Result<(String, &str), TraceError> {
    let rest = s
        .strip_prefix('"')
        .ok_or_else(|| err(line_no, "region name must be quoted"))?;
    let mut name = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some((_, e @ ('"' | '\\'))) => name.push(e),
                _ => return Err(err(line_no, "bad escape in region name")),
            },
            '"' => return Ok((name, rest[i + 1..].trim_start())),
            c => name.push(c),
        }
    }
    Err(err(line_no, "unterminated region name"))
}

fn parse_region(args: &str, line_no: usize) -> Result<RegionInfo, TraceError> {
    let (id_str, rest) = args
        .split_once(' ')
        .ok_or_else(|| err(line_no, "region needs an id and a name"))?;
    let id = parse_u64(id_str, line_no, "region id")?;
    if id > u16::MAX as u64 {
        return Err(err(line_no, format!("region id {id} exceeds u16")));
    }
    let (name, rest) = parse_quoted(rest.trim_start(), line_no)?;
    let mut info = RegionInfo::plain(RegionId(id as u16), name, Addr::new(0), 0);
    let (mut saw_base, mut saw_bytes) = (false, false);
    for field in rest.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| err(line_no, format!("bad region field `{field}`")))?;
        match key {
            "base" => {
                info.base = Addr::new(parse_u64(value, line_no, "base")?);
                saw_base = true;
            }
            "bytes" => {
                info.bytes = parse_u64(value, line_no, "bytes")?;
                saw_bytes = true;
            }
            "wip" => {
                info.written_in_parallel_phases = match value {
                    "0" => false,
                    "1" => true,
                    v => return Err(err(line_no, format!("bad wip value `{v}`"))),
                }
            }
            "bypass" => {
                info.bypass = match value {
                    "none" => BypassKind::None,
                    "rto" => BypassKind::ReadThenOverwritten,
                    "stream" => BypassKind::StreamingOncePerPhase,
                    v => return Err(err(line_no, format!("unknown bypass kind `{v}`"))),
                }
            }
            "comm" => {
                let (obj, offs) = value
                    .split_once(':')
                    .ok_or_else(|| err(line_no, "comm needs OBJ:offsets"))?;
                let object_bytes = parse_u64(obj, line_no, "comm object size")?;
                let useful_offsets = offs
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| parse_u64(s, line_no, "comm offset"))
                    .collect::<Result<Vec<_>, _>>()?;
                info.comm = Some(CommRegion {
                    object_bytes,
                    useful_offsets,
                });
            }
            k => return Err(err(line_no, format!("unknown region field `{k}`"))),
        }
    }
    if !saw_base || !saw_bytes {
        return Err(err(line_no, "region needs base= and bytes="));
    }
    Ok(info)
}

/// Parses the op on `line`, the `record`th of `core`'s stream.
fn parse_op(line: &str, line_no: usize, core: usize, record: usize) -> Result<TraceOp, TraceError> {
    let mut parts = line.split_whitespace();
    let mnemonic = parts.next().unwrap_or_default();
    let op = match mnemonic {
        "LD" | "ST" => {
            let addr = parse_u64(
                parts
                    .next()
                    .ok_or_else(|| err(line_no, "missing address"))?,
                line_no,
                "address",
            )?;
            let region_str = parts.next().ok_or_else(|| err(line_no, "missing region"))?;
            let region = parse_u64(
                region_str.strip_prefix('R').unwrap_or(region_str),
                line_no,
                "region",
            )?;
            if region > u16::MAX as u64 {
                return Err(err(line_no, format!("region id {region} exceeds u16")));
            }
            let kind = if mnemonic == "LD" {
                MemKind::Load
            } else {
                MemKind::Store
            };
            TraceOp::mem(kind, Addr::new(addr), RegionId(region as u16))
                .map_err(|e| err(line_no, format!("core {core} record {record}: {e}")))?
        }
        "C" => {
            let cycles = parse_u64(
                parts.next().ok_or_else(|| err(line_no, "missing cycles"))?,
                line_no,
                "cycles",
            )?;
            if cycles > u32::MAX as u64 {
                return Err(err(line_no, format!("cycles {cycles} exceed u32")));
            }
            TraceOp::compute(cycles as u32)
        }
        "B" => {
            let id = parse_u64(
                parts
                    .next()
                    .ok_or_else(|| err(line_no, "missing barrier id"))?,
                line_no,
                "barrier id",
            )?;
            if id > u32::MAX as u64 {
                return Err(err(line_no, format!("barrier id {id} exceeds u32")));
            }
            TraceOp::barrier(id as u32)
        }
        m => return Err(err(line_no, format!("unknown op mnemonic `{m}`"))),
    };
    if parts.next().is_some() {
        return Err(err(line_no, "trailing tokens after op"));
    }
    Ok(op)
}

/// Parses the text format.
pub fn parse(s: &str) -> Result<TraceDocument, TraceError> {
    let mut lines = s
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (first_no, first) = lines
        .next()
        .ok_or_else(|| TraceError::Malformed("empty trace text".to_string()))?;
    if first != HEADER_LINE {
        return Err(err(first_no, format!("expected `{HEADER_LINE}`")));
    }

    let mut benchmark = None;
    let mut input = None;
    let mut cores: Option<usize> = None;
    let mut regions = RegionTable::new();
    let mut streams: Vec<Vec<TraceOp>> = Vec::new();
    let mut current: Option<Vec<TraceOp>> = None;

    for (line_no, line) in lines {
        let (keyword, args) = line.split_once(' ').unwrap_or((line, ""));
        match keyword {
            "bench" if current.is_none() => benchmark = Some(args.to_string()),
            "input" if current.is_none() => input = Some(args.to_string()),
            "cores" if current.is_none() => {
                cores = Some(parse_u64(args, line_no, "core count")? as usize);
            }
            "region" if current.is_none() => {
                let info = parse_region(args, line_no)?;
                if regions.get(info.id).is_some() {
                    return Err(err(line_no, format!("duplicate region id {}", info.id.0)));
                }
                regions.insert(info);
            }
            "core" => {
                if current.is_some() {
                    return Err(err(line_no, "previous core section not closed with `end`"));
                }
                let idx = parse_u64(args, line_no, "core index")? as usize;
                if idx != streams.len() {
                    return Err(err(
                        line_no,
                        format!("core sections must be in order; expected {}", streams.len()),
                    ));
                }
                current = Some(Vec::new());
            }
            "end" => match current.take() {
                Some(stream) => streams.push(stream),
                None => return Err(err(line_no, "`end` outside a core section")),
            },
            _ => match current.as_mut() {
                Some(stream) => stream.push(parse_op(line, line_no, streams.len(), stream.len())?),
                None => return Err(err(line_no, format!("unexpected line `{line}`"))),
            },
        }
    }
    if current.is_some() {
        return Err(TraceError::Malformed(
            "last core section not closed with `end`".to_string(),
        ));
    }
    let declared =
        cores.ok_or_else(|| TraceError::Malformed("missing `cores` line".to_string()))?;
    if declared == 0 {
        return Err(TraceError::Malformed(
            "trace declares zero cores".to_string(),
        ));
    }
    if declared != streams.len() {
        return Err(TraceError::Malformed(format!(
            "header declares {declared} cores but {} core sections follow",
            streams.len()
        )));
    }
    Ok(TraceDocument {
        benchmark: benchmark.unwrap_or_default(),
        input: input.unwrap_or_default(),
        regions,
        streams,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HAND_WRITTEN: &str = r#"
# A two-core ping-pong scenario.
denovo-waste-trace v1
bench custom
input ping-pong
cores 2
region 1 "shared \"flag\"" base=0x0 bytes=4096 wip=1 bypass=none
core 0
  ST 0x0 R1
  B 0
  LD 0x40 R1
end
core 1
  B 0
  ST 0x40 R1
end
"#;

    #[test]
    fn hand_written_scenario_parses() {
        let doc = parse(HAND_WRITTEN).unwrap();
        assert_eq!(doc.cores(), 2);
        assert_eq!(doc.benchmark, "custom");
        assert_eq!(doc.regions.len(), 1);
        assert_eq!(
            doc.regions.get(RegionId(1)).unwrap().name,
            "shared \"flag\""
        );
        assert_eq!(doc.streams[0].len(), 3);
        // Emit -> parse is the identity.
        assert_eq!(parse(&emit(&doc)).unwrap(), doc);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "denovo-waste-trace v1\nbench x\ninput y\ncores 1\ncore 0\n  XX 0x0 R1\nend\n";
        let e = parse(bad).err().unwrap().to_string();
        assert!(e.contains("line 6"), "{e}");
        assert!(e.contains("XX"), "{e}");
    }

    #[test]
    fn addresses_a_record_cannot_hold_are_rejected() {
        for addr in ["0x2", "0x1000000000000", "0xfffffffffffffffc"] {
            let bad =
                format!("denovo-waste-trace v1\ncores 1\ncore 0\n  C 1\n  ST {addr} R1\nend\n");
            let e = parse(&bad).err().unwrap().to_string();
            let named = format!("line 5: core 0 record 1: address {addr}");
            assert!(e.contains(&named), "{e}");
        }
    }

    #[test]
    fn core_count_mismatch_is_rejected() {
        let bad = "denovo-waste-trace v1\ncores 2\ncore 0\nend\n";
        let e = parse(bad).err().unwrap().to_string();
        assert!(e.contains("declares 2 cores"), "{e}");
    }

    #[test]
    fn out_of_order_core_sections_are_rejected() {
        let bad = "denovo-waste-trace v1\ncores 1\ncore 1\nend\n";
        assert!(parse(bad).is_err());
    }

    #[test]
    fn missing_header_line_is_rejected() {
        assert!(parse("bench x\ncores 0\n").is_err());
        assert!(parse("").is_err());
    }
}
