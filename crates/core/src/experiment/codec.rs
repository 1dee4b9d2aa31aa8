//! Bit-exact `SimReport` (de)serialization for the result cache, and the
//! cache entry around it.
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
//!
//! An entry is written as a [`Json`] value and read straight from its text
//! by `tw_obs`'s one tokenizer ([`Reader`]), field by field in the order
//! [`entry_to_json`] and [`report_to_json`] write them, with no [`Json`]
//! value in between: a warm run of the paper's matrix is 46 such reads. A
//! field out of that order is a decode error like any other.

use super::session::ENGINE_VERSION;
use crate::report::SimReport;
use crate::timing::{ExecutionBreakdown, TimeClass};
use std::borrow::Cow;
use tw_obs::json::{Reader, ValueKind};
use tw_obs::Json;
use tw_profiler::{TrafficBreakdown, WasteCategory, WasteReport};
use tw_types::{Digest, MessageClass, ProtocolKind, TrafficBucket};
use tw_workloads::BenchmarkKind;

/// Schema tag of one serialized report.
pub(crate) const REPORT_SCHEMA: &str = "denovo-waste/sim-report/v1";

fn f64_json(v: f64) -> Json {
    Json::str(format!("{:016x}", v.to_bits()))
}

fn f64_parse(s: &str) -> Result<f64, String> {
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
fn by_label<T: Copy>(
    v: &str,
    all: &[T],
    label: impl Fn(T) -> &'static str,
    what: &str,
) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|&t| label(t) == v)
        .ok_or_else(|| format!("unknown {what} `{v}`"))
}

fn message_class(v: &str) -> Result<MessageClass, String> {
    by_label(v, &MessageClass::ALL, MessageClass::label, "message class")
}

fn waste_category(v: &str) -> Result<WasteCategory, String> {
    by_label(
        v,
        &WasteCategory::ALL,
        WasteCategory::label,
        "waste category",
    )
}

/// Bucket labels alone are not unique across figure families ("Control"
/// etc. are scoped by figure), so buckets are stored by variant name.
fn bucket_name(b: TrafficBucket) -> &'static str {
    match b {
        TrafficBucket::ReqCtl => "ReqCtl",
        TrafficBucket::RespCtl => "RespCtl",
        TrafficBucket::RespL1Used => "RespL1Used",
        TrafficBucket::RespL1Waste => "RespL1Waste",
        TrafficBucket::RespL2Used => "RespL2Used",
        TrafficBucket::RespL2Waste => "RespL2Waste",
        TrafficBucket::WbControl => "WbControl",
        TrafficBucket::WbL2Used => "WbL2Used",
        TrafficBucket::WbL2Waste => "WbL2Waste",
        TrafficBucket::WbMemUsed => "WbMemUsed",
        TrafficBucket::WbMemWaste => "WbMemWaste",
        TrafficBucket::Overhead => "Overhead",
    }
}

/// An enum-keyed map as its list of `[label, …, value]` entries.
fn entry_list<const N: usize>(entries: impl Iterator<Item = [Json; N]>) -> Json {
    Json::Arr(entries.map(|entry| Json::Arr(entry.into())).collect())
}

/// One item of an entry: a label, a bit pattern or a count.
enum Scalar<'a> {
    Str(Cow<'a, str>),
    UInt(u64),
}

impl Scalar<'_> {
    fn str(&self) -> Result<&str, String> {
        match self {
            Scalar::Str(s) => Ok(s),
            Scalar::UInt(_) => Err("expected a string, found an integer".to_string()),
        }
    }

    fn uint(&self) -> Result<u64, String> {
        match self {
            Scalar::UInt(v) => Ok(*v),
            Scalar::Str(_) => Err("expected an integer, found a string".to_string()),
        }
    }
}

/// Reads a list written by [`entry_list`]: an entry that is not an array
/// of `N` strings and integers is refused with `shape`, and `decode` reads
/// the others.
fn read_entries<'a, const N: usize, T>(
    r: &mut Reader<'a>,
    shape: &str,
    decode: impl Fn(&[Scalar<'a>; N]) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    r.open_arr()?;
    let mut out = Vec::new();
    while r.next_item()? {
        let entry = read_entry(r)?.ok_or_else(|| shape.to_string())?;
        out.push(decode(&entry)?);
    }
    Ok(out)
}

/// Reads one entry, or `None` when the next value is not an array of `N`
/// strings and integers.
fn read_entry<'a, const N: usize>(r: &mut Reader<'a>) -> Result<Option<[Scalar<'a>; N]>, String> {
    if r.kind()? != ValueKind::Arr {
        return Ok(None);
    }
    r.open_arr()?;
    let mut items = std::array::from_fn(|_| Scalar::UInt(0));
    for item in &mut items {
        if !r.next_item()? {
            return Ok(None);
        }
        *item = match r.kind()? {
            ValueKind::Str => Scalar::Str(r.str()?),
            ValueKind::UInt => Scalar::UInt(r.uint()?),
            ValueKind::Arr | ValueKind::Obj => return Ok(None),
        };
    }
    Ok((!r.next_item()?).then_some(items))
}

/// Steps to the open object's next field, which must be `name`.
fn field<'r, 'a>(r: &'r mut Reader<'a>, name: &str) -> Result<&'r mut Reader<'a>, String> {
    match r.next_key()? {
        Some(key) if key == name => Ok(r),
        Some(key) => Err(format!("expected field `{name}`, found `{key}`")),
        None => Err(format!("missing field `{name}`")),
    }
}

/// Closes the open object, which must hold no further field.
fn end(r: &mut Reader<'_>) -> Result<(), String> {
    match r.next_key()? {
        None => Ok(()),
        Some(key) => Err(format!("unexpected field `{key}`")),
    }
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

fn read_waste(r: &mut Reader<'_>) -> Result<WasteReport, String> {
    r.open_obj()?;
    let words = read_entries(
        field(r, "words")?,
        "words entry must be [category, count]",
        |[cat, n]| Ok((waste_category(cat.str()?)?, n.uint()?)),
    )?;
    let hops = read_entries(
        field(r, "flit_hops")?,
        "flit_hops entry must be [class, category, bits]",
        |[class, cat, h]| {
            Ok((
                message_class(class.str()?)?,
                waste_category(cat.str()?)?,
                f64_parse(h.str()?)?,
            ))
        },
    )?;
    end(r)?;
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

/// Reads one report written by [`report_to_json`].
fn read_report(r: &mut Reader<'_>) -> Result<SimReport, String> {
    r.open_obj()?;
    let schema = field(r, "schema")?.str()?;
    if schema != REPORT_SCHEMA {
        return Err(format!(
            "unknown report schema `{schema}` (expected `{REPORT_SCHEMA}`)"
        ));
    }
    // A struct expression evaluates its fields in the order they are
    // written, which is the order `report_to_json` writes them in.
    let report = SimReport {
        protocol: ProtocolKind::by_name(&field(r, "protocol")?.str()?)?,
        benchmark: BenchmarkKind::by_name(&field(r, "benchmark")?.str()?)?,
        input: field(r, "input")?.str()?.into_owned(),
        total_cycles: field(r, "total_cycles")?.uint()?,
        time: ExecutionBreakdown::from_entries(read_entries(
            field(r, "time")?,
            "time entry must be [class, cycles]",
            |[class, n]| {
                let class = by_label(
                    class.str()?,
                    &TimeClass::ALL,
                    TimeClass::label,
                    "time class",
                )?;
                Ok((class, n.uint()?))
            },
        )?),
        traffic: TrafficBreakdown::from_entries(read_entries(
            field(r, "traffic")?,
            "traffic entry must be [class, bucket, bits]",
            |[class, bucket, h]| {
                let bucket = by_label(
                    bucket.str()?,
                    &TrafficBucket::ALL,
                    bucket_name,
                    "traffic bucket",
                )?;
                Ok((message_class(class.str()?)?, bucket, f64_parse(h.str()?)?))
            },
        )?),
        mesh_flit_hops: f64_parse(&field(r, "mesh_flit_hops")?.str()?)?,
        l1_waste: read_waste(field(r, "l1_waste")?)?,
        l2_waste: read_waste(field(r, "l2_waste")?)?,
        mem_waste: read_waste(field(r, "mem_waste")?)?,
        dram_accesses: field(r, "dram_accesses")?.uint()?,
        dram_row_hit_rate: f64_parse(&field(r, "dram_row_hit_rate")?.str()?)?,
    };
    end(r)?;
    Ok(report)
}

/// One cache entry: the report of the cell keyed `key`, under the engine
/// version that simulated it, with the workload and the protocol named for
/// a reader of the cache directory.
pub(crate) fn entry_to_json(
    key: Digest,
    workload: String,
    protocol: ProtocolKind,
    report: &SimReport,
) -> Json {
    Json::Obj(vec![
        ("engine".to_string(), Json::str(ENGINE_VERSION)),
        ("key".to_string(), Json::str(key.to_string())),
        ("workload".to_string(), Json::str(workload)),
        ("protocol".to_string(), Json::str(protocol.name())),
        ("report".to_string(), report_to_json(report)),
    ])
}

/// Decodes the text of an entry written by [`entry_to_json`] for `key`.
///
/// # Errors
///
/// Another engine version or key, and any structural fault, unknown label
/// or field out of the written order.
pub(crate) fn entry_report(text: &str, key: Digest) -> Result<SimReport, String> {
    let mut r = Reader::new(text);
    r.open_obj()?;
    let engine = field(&mut r, "engine")?.str()?;
    if engine != ENGINE_VERSION {
        return Err(format!("entry of engine `{engine}`"));
    }
    let found = field(&mut r, "key")?.str()?;
    if found != key.to_string() {
        return Err(format!("entry of key `{found}`"));
    }
    field(&mut r, "workload")?.str()?;
    field(&mut r, "protocol")?.str()?;
    let report = read_report(field(&mut r, "report")?)?;
    end(&mut r)?;
    r.finish()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use tw_workloads::build_tiny;

    /// Reads a report written by [`report_to_json`], alone in its text.
    fn report_from_text(text: &str) -> Result<SimReport, String> {
        let mut r = Reader::new(text);
        let report = read_report(&mut r)?;
        r.finish()?;
        Ok(report)
    }

    /// The Tiny FFT report under MESI, whose bytes
    /// `cache_entry_bytes_are_pinned` pins.
    fn pinned_report() -> SimReport {
        let wl = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        Simulator::new(SimConfig::new(ProtocolKind::Mesi), &wl).run()
    }

    const KEY: Digest = Digest(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);

    fn pinned_entry() -> String {
        entry_to_json(
            KEY,
            "FFT#01234567".to_string(),
            ProtocolKind::Mesi,
            &pinned_report(),
        )
        .pretty()
    }

    #[test]
    fn simulated_report_round_trips_bit_exactly() {
        let wl = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        let report = Simulator::new(SimConfig::new(ProtocolKind::DBypFull), &wl).run();
        let text = report_to_json(&report).pretty();
        let back = report_from_text(&text).unwrap();
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
    fn bucket_names_are_the_variant_names() {
        for b in TrafficBucket::ALL {
            assert_eq!(bucket_name(b), format!("{b:?}"));
        }
    }

    #[test]
    fn an_entry_decodes_only_under_its_engine_and_key() {
        let text = pinned_entry();
        assert_eq!(entry_report(&text, KEY), Ok(pinned_report()));
        assert_eq!(
            entry_report(&text, Digest(KEY.0 + 1)),
            Err(format!("entry of key `{KEY}`"))
        );
        let stale = text.replace(ENGINE_VERSION, "denovo-waste/engine-v2");
        assert_eq!(
            entry_report(&stale, KEY),
            Err("entry of engine `denovo-waste/engine-v2`".to_string())
        );
        // Fields are read in the order they are written.
        let swapped = text.replacen("\"workload\"", "\"w\"", 1);
        assert_eq!(
            entry_report(&swapped, KEY),
            Err("expected field `workload`, found `w`".to_string())
        );
        let extra = text.replacen("\"report\": {", "\"x\": 1, \"report\": {", 1);
        assert_eq!(
            entry_report(&extra, KEY),
            Err("expected field `report`, found `x`".to_string())
        );
        assert_eq!(
            entry_report("{}", KEY),
            Err("missing field `engine`".to_string())
        );
        assert_eq!(
            entry_report(&format!("{text} {{}}"), KEY).unwrap_err(),
            format!("trailing data at byte {}", text.len() + 1)
        );
    }

    #[test]
    fn every_truncation_of_an_entry_is_a_miss() {
        let text = pinned_entry();
        assert!(text.is_ascii());
        // Only the newline after the closing brace can go.
        let whole = text.trim_end().len();
        assert!(entry_report(&text[..whole], KEY).is_ok());
        for cut in 0..whole {
            assert!(entry_report(&text[..cut], KEY).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn no_single_byte_replacement_makes_the_decoder_panic() {
        let text = pinned_entry();
        let mut bytes = text.clone().into_bytes();
        let mut decoded = 0;
        for at in 0..bytes.len() {
            for b in *br#""\]},0g"# {
                let was = std::mem::replace(&mut bytes[at], b);
                let damaged = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
                decoded += usize::from(entry_report(damaged, KEY).is_ok());
                bytes[at] = was;
            }
        }
        // A byte replaced by itself, or a digit of a count by another,
        // still decodes; the rest are misses, and none panics.
        assert!(decoded > 0);
    }

    #[test]
    fn special_floats_round_trip() {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, 0.1 + 0.2, -1.5e-300] {
            let parsed = f64_parse(f64_json(v).as_str().unwrap()).unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} lost bits");
        }
        assert!(f64_parse("xyz").is_err());
        assert!(f64_parse("0").is_err());
    }

    #[test]
    fn unknown_labels_are_decode_errors() {
        let wl = build_tiny(BenchmarkKind::Lu, 16).unwrap();
        let report = Simulator::new(SimConfig::new(ProtocolKind::Mesi), &wl).run();
        let text = report_to_json(&report).pretty();
        let tampered = text.replace("\"MESI\"", "\"NOPE\"");
        assert!(report_from_text(&tampered).is_err());
        let tampered = text.replace(REPORT_SCHEMA, "denovo-waste/sim-report/v0");
        assert!(report_from_text(&tampered).is_err());
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
            let tampered = text.replacen(from, to, 1);
            assert_eq!(report_from_text(&tampered), Err(want.to_string()), "{to}");
        }
    }
}
