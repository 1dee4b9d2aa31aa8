//! Bit-exact `SimReport` (de)serialization for the result cache.
//!
//! The cache's contract is that a warm hit returns a report **bit-identical**
//! to what the simulation would have produced (`SimReport`'s `PartialEq` is
//! exact, and CI diffs warm-run figure output byte-for-byte against cold
//! runs). Decimal JSON numbers cannot carry `f64`s losslessly, so every
//! floating-point field is stored as its 16-hex-digit IEEE-754 bit pattern;
//! integers use plain JSON integers (the parser in `json.rs` reads them as
//! exact `u64`s, not doubles).
//!
//! Enum-keyed maps (time classes, traffic buckets, waste categories) are
//! stored as label-tagged entry lists, resolved back through the same `ALL`
//! arrays the figures iterate — a new enum variant automatically becomes
//! codable, and an unknown label in a cache file is a decode error (the
//! session treats it as a miss and recomputes).

use super::json::Json;
use crate::report::SimReport;
use crate::timing::{ExecutionBreakdown, TimeClass};
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

fn label_of_class(c: MessageClass) -> &'static str {
    c.label()
}

fn class_by_label(label: &str) -> Result<MessageClass, String> {
    MessageClass::ALL
        .into_iter()
        .find(|c| c.label() == label)
        .ok_or_else(|| format!("unknown message class `{label}`"))
}

fn bucket_by_label(label: &str) -> Result<TrafficBucket, String> {
    // Bucket labels alone are not unique across figure families ("Control"
    // etc. are scoped by figure); serialize by debug name instead.
    TrafficBucket::ALL
        .into_iter()
        .find(|b| format!("{b:?}") == label)
        .ok_or_else(|| format!("unknown traffic bucket `{label}`"))
}

fn time_class_by_label(label: &str) -> Result<TimeClass, String> {
    TimeClass::ALL
        .into_iter()
        .find(|c| c.label() == label)
        .ok_or_else(|| format!("unknown time class `{label}`"))
}

fn category_by_label(label: &str) -> Result<WasteCategory, String> {
    WasteCategory::ALL
        .into_iter()
        .find(|c| c.label() == label)
        .ok_or_else(|| format!("unknown waste category `{label}`"))
}

fn waste_json(w: &WasteReport) -> Json {
    Json::Obj(vec![
        (
            "words".to_string(),
            Json::Arr(
                w.words_iter()
                    .map(|(cat, n)| Json::Arr(vec![Json::str(cat.label()), Json::UInt(n)]))
                    .collect(),
            ),
        ),
        (
            "flit_hops".to_string(),
            Json::Arr(
                w.flit_hops_iter()
                    .map(|(class, cat, h)| {
                        Json::Arr(vec![
                            Json::str(label_of_class(class)),
                            Json::str(cat.label()),
                            f64_json(h),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn waste_parse(v: &Json) -> Result<WasteReport, String> {
    let words = v
        .require("words")?
        .as_arr()?
        .iter()
        .map(|entry| {
            let [cat, n] = entry.as_arr()? else {
                return Err("words entry must be [category, count]".to_string());
            };
            Ok((category_by_label(cat.as_str()?)?, n.as_u64()?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let hops = v
        .require("flit_hops")?
        .as_arr()?
        .iter()
        .map(|entry| {
            let [class, cat, h] = entry.as_arr()? else {
                return Err("flit_hops entry must be [class, category, bits]".to_string());
            };
            Ok((
                class_by_label(class.as_str()?)?,
                category_by_label(cat.as_str()?)?,
                f64_parse(h)?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
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
            Json::Arr(
                r.time
                    .iter()
                    .map(|(c, n)| Json::Arr(vec![Json::str(c.label()), Json::UInt(n)]))
                    .collect(),
            ),
        ),
        (
            "traffic".to_string(),
            Json::Arr(
                r.traffic
                    .iter()
                    .map(|(class, bucket, h)| {
                        Json::Arr(vec![
                            Json::str(label_of_class(class)),
                            Json::str(format!("{bucket:?}")),
                            f64_json(h),
                        ])
                    })
                    .collect(),
            ),
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
    let time = ExecutionBreakdown::from_entries(
        v.require("time")?
            .as_arr()?
            .iter()
            .map(|entry| {
                let [class, n] = entry.as_arr()? else {
                    return Err("time entry must be [class, cycles]".to_string());
                };
                Ok((time_class_by_label(class.as_str()?)?, n.as_u64()?))
            })
            .collect::<Result<Vec<_>, String>>()?,
    );
    let traffic = TrafficBreakdown::from_entries(
        v.require("traffic")?
            .as_arr()?
            .iter()
            .map(|entry| {
                let [class, bucket, h] = entry.as_arr()? else {
                    return Err("traffic entry must be [class, bucket, bits]".to_string());
                };
                Ok((
                    class_by_label(class.as_str()?)?,
                    bucket_by_label(bucket.as_str()?)?,
                    f64_parse(h)?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?,
    );
    Ok(SimReport {
        protocol,
        benchmark,
        input: v.require("input")?.as_str()?.to_string(),
        total_cycles: v.require("total_cycles")?.as_u64()?,
        time,
        traffic,
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
    }
}
