//! Bit-exact `SimReport` (de)serialization for the result cache.
//!
//! The cache's contract is that a warm hit returns a report **bit-identical**
//! to what the simulation would have produced (`SimReport`'s `PartialEq` is
//! exact, and CI diffs warm-run figure output byte-for-byte against cold
//! runs). Decimal JSON numbers cannot carry `f64`s losslessly, so every
//! floating-point field is stored as its 16-hex-digit IEEE-754 bit pattern;
//! integers use plain JSON integers (`tw_obs::Json` reads them as exact
//! `u64`s, not doubles).
//!
//! Enum-keyed maps (time classes, traffic buckets, waste categories) are
//! stored as label-tagged entry lists, resolved back through the same `ALL`
//! arrays the figures iterate — a new enum variant automatically becomes
//! codable, and an unknown label in a cache file is a decode error (the
//! session treats it as a miss and recomputes).

use crate::report::SimReport;
use crate::timing::{ExecutionBreakdown, TimeClass};
use tw_obs::Json;
use tw_profiler::{TrafficBreakdown, WasteCategory, WasteReport};
use tw_types::{MessageClass, ProtocolKind, TrafficBucket};
use tw_workloads::BenchmarkKind;

/// Schema tag of one serialized report.
pub(crate) const REPORT_SCHEMA: &str = "denovo-waste/sim-report/v1";

fn f64_json(v: f64) -> Json {
    Json::str(format!("{:016x}", v.to_bits()))
}

fn f64_parse(v: &Json) -> Result<f64, String> {
    let s = v.as_str()?;
    if s.len() != 16 {
        return Err(format!("f64 bit pattern `{s}` is not 16 hex digits"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("f64 bit pattern `{s}`: {e}"))
}

/// Resolves `v`, the label of one entry, through `all` (an enum's `ALL`
/// array, which the figures iterate too); `what` names the enum when no
/// variant carries that label.
fn by_label<T: Copy, L: AsRef<str>>(
    v: &Json,
    all: &[T],
    label: impl Fn(T) -> L,
    what: &str,
) -> Result<T, String> {
    let text = v.as_str()?;
    all.iter()
        .copied()
        .find(|&t| label(t).as_ref() == text)
        .ok_or_else(|| format!("unknown {what} `{text}`"))
}

fn message_class(v: &Json) -> Result<MessageClass, String> {
    by_label(v, &MessageClass::ALL, MessageClass::label, "message class")
}

fn waste_category(v: &Json) -> Result<WasteCategory, String> {
    by_label(
        v,
        &WasteCategory::ALL,
        WasteCategory::label,
        "waste category",
    )
}

/// Bucket labels alone are not unique across figure families ("Control"
/// etc. are scoped by figure), so buckets are stored by debug name.
fn bucket_name(b: TrafficBucket) -> String {
    format!("{b:?}")
}

/// An enum-keyed map as its list of `[label, …, value]` entries.
fn entry_list<const N: usize>(entries: impl Iterator<Item = [Json; N]>) -> Json {
    Json::Arr(entries.map(|entry| Json::Arr(entry.into())).collect())
}

/// Reads a list written by [`entry_list`]: an entry that is not an array
/// of `N` items is refused with `shape`, and `decode` reads the others.
fn parse_entries<const N: usize, T>(
    v: &Json,
    shape: &str,
    decode: impl Fn(&[Json; N]) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.as_arr()?
        .iter()
        .map(|entry| {
            let items = <&[Json; N]>::try_from(entry.as_arr()?).map_err(|_| shape.to_string())?;
            decode(items)
        })
        .collect()
}

fn waste_json(w: &WasteReport) -> Json {
    Json::Obj(vec![
        (
            "words".to_string(),
            entry_list(
                w.words_iter()
                    .map(|(cat, n)| [Json::str(cat.label()), Json::UInt(n)]),
            ),
        ),
        (
            "flit_hops".to_string(),
            entry_list(w.flit_hops_iter().map(|(class, cat, h)| {
                [
                    Json::str(class.label()),
                    Json::str(cat.label()),
                    f64_json(h),
                ]
            })),
        ),
    ])
}

fn waste_parse(v: &Json) -> Result<WasteReport, String> {
    let words = parse_entries(
        v.require("words")?,
        "words entry must be [category, count]",
        |[cat, n]| Ok((waste_category(cat)?, n.as_u64()?)),
    )?;
    let hops = parse_entries(
        v.require("flit_hops")?,
        "flit_hops entry must be [class, category, bits]",
        |[class, cat, h]| Ok((message_class(class)?, waste_category(cat)?, f64_parse(h)?)),
    )?;
    Ok(WasteReport::from_parts(words, hops))
}

/// Serializes one report (without the cache-entry envelope).
pub(crate) fn report_to_json(r: &SimReport) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), Json::str(REPORT_SCHEMA)),
        ("protocol".to_string(), Json::str(r.protocol.name())),
        ("benchmark".to_string(), Json::str(r.benchmark.name())),
        ("input".to_string(), Json::str(r.input.clone())),
        ("total_cycles".to_string(), Json::UInt(r.total_cycles)),
        (
            "time".to_string(),
            entry_list(
                r.time
                    .iter()
                    .map(|(c, n)| [Json::str(c.label()), Json::UInt(n)]),
            ),
        ),
        (
            "traffic".to_string(),
            entry_list(r.traffic.iter().map(|(class, bucket, h)| {
                [
                    Json::str(class.label()),
                    Json::str(bucket_name(bucket)),
                    f64_json(h),
                ]
            })),
        ),
        ("mesh_flit_hops".to_string(), f64_json(r.mesh_flit_hops)),
        ("l1_waste".to_string(), waste_json(&r.l1_waste)),
        ("l2_waste".to_string(), waste_json(&r.l2_waste)),
        ("mem_waste".to_string(), waste_json(&r.mem_waste)),
        ("dram_accesses".to_string(), Json::UInt(r.dram_accesses)),
        (
            "dram_row_hit_rate".to_string(),
            f64_json(r.dram_row_hit_rate),
        ),
    ])
}

/// Parses one report serialized by [`report_to_json`].
pub(crate) fn report_from_json(v: &Json) -> Result<SimReport, String> {
    let schema = v.require("schema")?.as_str()?;
    if schema != REPORT_SCHEMA {
        return Err(format!(
            "unknown report schema `{schema}` (expected `{REPORT_SCHEMA}`)"
        ));
    }
    let protocol = ProtocolKind::by_name(v.require("protocol")?.as_str()?)?;
    let benchmark = BenchmarkKind::by_name(v.require("benchmark")?.as_str()?)?;
    let time = parse_entries(
        v.require("time")?,
        "time entry must be [class, cycles]",
        |[class, n]| {
            let class = by_label(class, &TimeClass::ALL, TimeClass::label, "time class")?;
            Ok((class, n.as_u64()?))
        },
    )?;
    let traffic = parse_entries(
        v.require("traffic")?,
        "traffic entry must be [class, bucket, bits]",
        |[class, bucket, h]| {
            let bucket = by_label(bucket, &TrafficBucket::ALL, bucket_name, "traffic bucket")?;
            Ok((message_class(class)?, bucket, f64_parse(h)?))
        },
    )?;
    Ok(SimReport {
        protocol,
        benchmark,
        input: v.require("input")?.as_str()?.to_string(),
        total_cycles: v.require("total_cycles")?.as_u64()?,
        time: ExecutionBreakdown::from_entries(time),
        traffic: TrafficBreakdown::from_entries(traffic),
        mesh_flit_hops: f64_parse(v.require("mesh_flit_hops")?)?,
        l1_waste: waste_parse(v.require("l1_waste")?)?,
        l2_waste: waste_parse(v.require("l2_waste")?)?,
        mem_waste: waste_parse(v.require("mem_waste")?)?,
        dram_accesses: v.require("dram_accesses")?.as_u64()?,
        dram_row_hit_rate: f64_parse(v.require("dram_row_hit_rate")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use tw_workloads::build_tiny;

    #[test]
    fn simulated_report_round_trips_bit_exactly() {
        let wl = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        let report = Simulator::new(SimConfig::new(ProtocolKind::DBypFull), &wl).run();
        let text = report_to_json(&report).pretty();
        let back = report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report, "codec must preserve every field bit-exactly");
    }

    #[test]
    fn cache_entry_bytes_are_pinned() {
        let wl = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        let report = Simulator::new(SimConfig::new(ProtocolKind::Mesi), &wl).run();
        let text = report_to_json(&report).pretty();
        assert_eq!(
            tw_types::Digest::of_bytes(text.as_bytes()).to_string(),
            "f65284cae165c5fc2b4426522bf08c05"
        );
    }

    #[test]
    fn special_floats_round_trip() {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, 0.1 + 0.2, -1.5e-300] {
            let parsed = f64_parse(&f64_json(v)).unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} lost bits");
        }
        assert!(f64_parse(&Json::str("xyz")).is_err());
        assert!(f64_parse(&Json::str("0")).is_err());
    }

    #[test]
    fn unknown_labels_are_decode_errors() {
        let wl = build_tiny(BenchmarkKind::Lu, 16).unwrap();
        let report = Simulator::new(SimConfig::new(ProtocolKind::Mesi), &wl).run();
        let text = report_to_json(&report).pretty();
        let tampered = text.replace("\"MESI\"", "\"NOPE\"");
        assert!(report_from_json(&Json::parse(&tampered).unwrap()).is_err());
        let tampered = text.replace(REPORT_SCHEMA, "denovo-waste/sim-report/v0");
        assert!(report_from_json(&Json::parse(&tampered).unwrap()).is_err());
        // Each kind of label and entry names itself.
        let text = report_to_json(&report).compact();
        for (from, to, want) in [
            (
                r#"[["Compute","#,
                r#"[["Nope","#,
                "unknown time class `Nope`",
            ),
            (
                r#"[["Compute","#,
                r#"[[1,"Compute","#,
                "time entry must be [class, cycles]",
            ),
            (
                r#"[["LD","ReqCtl""#,
                r#"[["XX","ReqCtl""#,
                "unknown message class `XX`",
            ),
            (r#""ReqCtl""#, r#""Nope""#, "unknown traffic bucket `Nope`"),
            (
                r#"[["LD","ReqCtl","#,
                r#"[["LD","#,
                "traffic entry must be [class, bucket, bits]",
            ),
            (
                r#"[["Used Words","#,
                r#"[["Nope","#,
                "unknown waste category `Nope`",
            ),
            (
                r#"[["Used Words","#,
                r#"[["#,
                "words entry must be [category, count]",
            ),
            (
                r#"[["LD","Used Words","#,
                r#"[["LD","#,
                "flit_hops entry must be [class, category, bits]",
            ),
        ] {
            let tampered = Json::parse(&text.replacen(from, to, 1)).unwrap();
            assert_eq!(report_from_json(&tampered), Err(want.to_string()), "{to}");
        }
    }
}
