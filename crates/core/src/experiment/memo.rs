//! The digest pass's committed memo: `WORKLOADS.digests`, and how compile
//! reads it.
//!
//! The digest pass ([`Generator::digested`]) is a pure function of
//! `(benchmark, scale, cores)`: it runs the generator one core at a time
//! into a reused buffer and keeps only the digest and the record counts.
//! The builtin key space — every benchmark at every scale on the builtin
//! tile count, the key of every builtin plan and benchmark spec — is
//! therefore committed: `WORKLOADS.digests`, written by `experiments
//! workloads --write`, holds one line per key. Compile of such a key reads
//! its generator's header alone ([`Generator::committed`]) and takes the
//! digest and counts from the line when the header digests to the line's
//! header digest. Any other key, and a line whose header digest differs (a
//! generator whose input size, layout or regions changed), runs the digest
//! pass, which the session counts ([`SessionCounters::digest_passes`]). A
//! line whose stream part is stale cannot be caught by its header: the
//! tier-1 suite and CI's `experiments workloads --check` regenerate every
//! line, and the first build of a stale line's records is refused with a
//! typed error (`Streams::try_materialize`), never served (DESIGN.md §10).
//!
//! Either way compile gets a workload whose records are not built, a recipe
//! (generator and core count), and the plan keeps it so: each
//! `Session::execute` hands the runs that read the workload one clone of
//! it, the first of them builds that clone's records, once across the
//! pool's threads, the others read them, and they drop with the last of
//! those runs. Nothing is kept between two compiles: a header pass is a few
//! region structs and one `format!`, so a repeated compile reads its
//! headers again, and one of a key with no line runs its digest pass again.
//!
//! [`Generator::digested`]: tw_workloads::Generator::digested
//! [`Generator::committed`]: tw_workloads::Generator::committed
//! [`SessionCounters::digest_passes`]: super::SessionCounters::digest_passes

use super::plan::ExperimentError;
use super::ScaleProfile;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;
use tw_types::Digest;
use tw_workloads::{BenchmarkKind, Generator, Workload};

/// What a workload is generated from.
type Key = (BenchmarkKind, ScaleProfile, usize);

/// One line of `WORKLOADS.digests`: the digest of a generated workload's
/// header, and what its digest pass returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Line {
    header: Digest,
    digest: Digest,
    records: u64,
    mem_ops: u64,
}

/// The committed lines, by key.
pub(super) type Table = BTreeMap<Key, Line>;

/// The committed table, as `experiments workloads --write` records it.
const COMMITTED: &str = include_str!("../../../../WORKLOADS.digests");

/// The committed lines, the table of every session not given another.
pub(super) static BUILTIN: LazyLock<Table> =
    LazyLock::new(|| parse_table(COMMITTED).expect("WORKLOADS.digests parses"));

/// The builtin key space, in table order: every benchmark at every scale,
/// on the tile count of the scale's system.
fn builtin_keys() -> impl Iterator<Item = Key> {
    [
        ScaleProfile::Tiny,
        ScaleProfile::Scaled,
        ScaleProfile::Paper,
    ]
    .into_iter()
    .flat_map(|scale| {
        BenchmarkKind::ALL
            .into_iter()
            .map(move |kind| (kind, scale, scale.system().tiles()))
    })
}

/// `<scale> <bench> <cores> <header digest> <content digest> <records>
/// <mem_ops>`.
fn render_line((kind, scale, cores): Key, line: &Line) -> String {
    format!(
        "{} {} {cores} {} {} {} {}\n",
        scale.name(),
        kind.name(),
        line.header,
        line.digest,
        line.records,
        line.mem_ops
    )
}

/// The line of `key`, freshly digested.
fn digest_line((kind, scale, cores): Key) -> Result<Line, String> {
    let generator = Generator::new(kind, scale)?;
    let (workload, digest) = generator.digested(cores)?;
    let (records, mem_ops) = (workload.traces.record_count(), workload.traces.mem_ops());
    let (_, header) = generator.committed(cores, digest, records, mem_ops)?;
    Ok(Line {
        header,
        digest,
        records,
        mem_ops,
    })
}

/// `WORKLOADS.digests` as the generators make it now: one line per builtin
/// key, every workload digested afresh (the Paper lines take most of the
/// time).
///
/// # Errors
///
/// A builtin generator that refuses its builtin core count.
pub fn workload_digests() -> Result<String, String> {
    let mut text = String::from(
        "# <scale> <bench> <cores> <header digest> <content digest> <records> <mem_ops>\n",
    );
    for key in builtin_keys() {
        text += &render_line(key, &digest_line(key)?);
    }
    Ok(text)
}

/// Parses a table in the `WORKLOADS.digests` format; `#` lines are
/// comments.
pub(super) fn parse_table(text: &str) -> Result<Table, String> {
    let mut table = Table::new();
    for (n, raw) in text.lines().enumerate() {
        if raw.starts_with('#') || raw.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = raw.split_whitespace().collect();
        let [scale, kind, cores, header, digest, records, mem_ops] = fields[..] else {
            return Err(format!(
                "line {}: expected 7 fields, got {}",
                n + 1,
                fields.len()
            ));
        };
        let field = |e: String| format!("line {}: {e}", n + 1);
        let number = |v: &str| v.parse::<u64>().map_err(|e| field(format!("`{v}`: {e}")));
        let hash = |v: &str| {
            v.parse::<Digest>()
                .map_err(|e| field(format!("`{v}`: {e}")))
        };
        let key = (
            BenchmarkKind::by_name(kind).map_err(field)?,
            ScaleProfile::by_name(scale).map_err(field)?,
            number(cores)? as usize,
        );
        let line = Line {
            header: hash(header)?,
            digest: hash(digest)?,
            records: number(records)?,
            mem_ops: number(mem_ops)?,
        };
        if table.insert(key, line).is_some() {
            return Err(field(format!("{scale} {kind} {cores} appears twice")));
        }
    }
    Ok(table)
}

/// The unbuilt workload of `key` and its content digest: from `table`'s
/// line when the generator's header still digests to the line's header
/// digest, else by the digest pass, counted in `digest_passes`.
pub(super) fn resolve(
    table: &Table,
    (kind, scale, cores): Key,
    digest_passes: &AtomicU64,
) -> Result<(Workload, Digest), ExperimentError> {
    let generator = Generator::new(kind, scale).map_err(ExperimentError::Workload)?;
    if let Some(line) = table.get(&(kind, scale, cores)) {
        let (workload, header) = generator
            .committed(cores, line.digest, line.records, line.mem_ops)
            .map_err(ExperimentError::Workload)?;
        if header == line.header {
            return Ok((workload, line.digest));
        }
    }
    digest_passes.fetch_add(1, Ordering::Relaxed);
    generator.digested(cores).map_err(ExperimentError::Workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FFT: Key = (BenchmarkKind::Fft, ScaleProfile::Tiny, 16);
    /// `tw_workloads`' pinned content digest of Tiny FFT at 16 cores. It
    /// moved once with that one, when the digest function changed from the
    /// trace encoding to the packed records and no result byte moved; the
    /// next change to it is a deliberate key migration.
    const FFT_DIGEST: &str = "4ee1e7e6abaf92b5ef5481dfe0526b96";

    /// `key` resolved against `table`, and the digest passes that took.
    fn resolved(table: &Table, key: Key) -> (Result<(Workload, Digest), ExperimentError>, u64) {
        let passes = AtomicU64::new(0);
        let workload = resolve(table, key, &passes);
        (workload, passes.into_inner())
    }

    #[test]
    fn a_failing_build_repeats_its_error_and_leaves_nothing_behind() {
        let key = (BenchmarkKind::Custom, ScaleProfile::Tiny, 16);
        let (first, passes) = resolved(&BUILTIN, key);
        let first = first.unwrap_err();
        assert!(matches!(first, ExperimentError::Workload(_)), "{first}");
        assert_eq!(passes, 0, "a kind with no generator reaches no pass");
        assert_eq!(resolved(&BUILTIN, key).0.unwrap_err(), first);
    }

    #[test]
    fn fft_digest_is_its_committed_line() {
        assert_eq!(BUILTIN[&FFT].digest.to_string(), FFT_DIGEST);
    }

    /// Every committed line of `scale` against its generator now: both
    /// digests and both counts.
    fn the_lines_are_what_the_generators_make(scale: ScaleProfile) {
        let keys: Vec<Key> = builtin_keys().filter(|k| k.1 == scale).collect();
        assert_eq!(keys.len(), BenchmarkKind::ALL.len());
        for key in keys {
            assert_eq!(
                BUILTIN.get(&key),
                Some(&digest_line(key).unwrap()),
                "{key:?}"
            );
        }
    }

    #[test]
    fn the_tiny_and_scaled_lines_are_what_the_generators_make() {
        let keys: std::collections::BTreeSet<Key> = builtin_keys().collect();
        assert!(BUILTIN.keys().eq(&keys), "one line per builtin key");
        assert_eq!(BUILTIN.len(), 18);
        the_lines_are_what_the_generators_make(ScaleProfile::Tiny);
        the_lines_are_what_the_generators_make(ScaleProfile::Scaled);
    }

    /// 96 M records: CI runs it in release (`experiments workloads --check`
    /// regenerates the same lines).
    #[test]
    #[ignore = "Paper scale; run in release"]
    fn the_paper_lines_are_what_the_generators_make() {
        the_lines_are_what_the_generators_make(ScaleProfile::Paper);
    }

    #[test]
    fn the_committed_file_is_what_the_writer_writes() {
        let lines: String = builtin_keys()
            .map(|key| render_line(key, &BUILTIN[&key]))
            .collect();
        let (comment, rest) = COMMITTED.split_once('\n').unwrap();
        assert!(comment.starts_with("# <scale> <bench> <cores>"));
        assert_eq!(rest, lines);
    }

    #[test]
    fn a_line_whose_header_moved_falls_back_to_the_digest_pass() {
        let mut table = Table::clone(&BUILTIN);
        table.get_mut(&FFT).unwrap().header.0 ^= 1;
        let (read, passes) = resolved(&table, FFT);
        let (read, digest) = read.unwrap();
        assert_eq!((digest.to_string().as_str(), passes), (FFT_DIGEST, 1));
        let (expected, passes) = resolved(&BUILTIN, FFT);
        let (expected, again) = expected.unwrap();
        assert_eq!((again, passes), (digest, 0));
        assert_eq!(read.total_mem_ops(), expected.total_mem_ops());
        assert_eq!(read.traces.record_count(), expected.traces.record_count());
        // Resolving builds no record; building them makes the generator's.
        assert!(!read.traces.is_built() && !expected.traces.is_built());
        assert_eq!(read.traces.try_materialize(), Ok(true));
        assert_eq!(expected.traces.try_materialize(), Ok(true));
        assert_eq!(*read.traces, *expected.traces);
        let built = ScaleProfile::Tiny
            .try_workload(BenchmarkKind::Fft, 16)
            .unwrap();
        assert_eq!(*expected.traces, *built.traces);
    }

    #[test]
    fn a_key_with_no_line_runs_the_digest_pass() {
        let key = (BenchmarkKind::Fft, ScaleProfile::Tiny, 4);
        assert!(!BUILTIN.contains_key(&key));
        let (workload, passes) = resolved(&BUILTIN, key);
        let (_, digest) = workload.unwrap();
        assert_eq!(passes, 1);
        let built = ScaleProfile::Tiny
            .try_workload(BenchmarkKind::Fft, 4)
            .unwrap();
        assert_eq!(digest, built.content_digest().unwrap());
    }

    #[test]
    fn malformed_tables_are_refused_naming_the_line() {
        let line = render_line(FFT, &BUILTIN[&FFT]);
        assert_eq!(parse_table(&line).unwrap().len(), 1);
        let twice = format!("{line}{line}");
        assert_eq!(
            parse_table(&twice).unwrap_err(),
            "line 2: tiny FFT 16 appears twice"
        );
        let short = line.rsplit_once(' ').unwrap().0;
        assert!(parse_table(short)
            .unwrap_err()
            .starts_with("line 1: expected 7"));
        let bad = line.replace("FFT", "FTT");
        assert!(parse_table(&bad)
            .unwrap_err()
            .starts_with("line 1: unknown benchmark"));
        let bad = line.replacen(" 16 ", " x ", 1);
        assert!(parse_table(&bad).unwrap_err().starts_with("line 1: `x`"));
    }
}
