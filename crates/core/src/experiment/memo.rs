//! The workload memo: generated benchmark workloads and their content
//! digests, digested once and shared.
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
//! pass, counted in [`MemoStats::digest_passes`]. A line whose stream part
//! is stale cannot be caught by its header: the tier-1 suite and CI's
//! `experiments workloads --check` regenerate every line, and the first
//! build of a stale line's records is refused with a typed error
//! (`Streams::try_materialize`), never served (DESIGN.md §10).
//!
//! Each lookup hands out its own unbuilt copy of the entry, which copies
//! the recipe (generator and core count) and no record, and the plan keeps
//! it so: each `Session::execute` hands the runs that read the workload one
//! clone of it, the first of them builds that clone's records, once across
//! the pool's threads, the others read them, and they drop with the last of
//! those runs. The entry itself is never read, so it never holds a record,
//! and the memo is bounded by its key space: benchmark × scale × core
//! count, where `SystemConfig::validate` caps the core count at
//! `MAX_TILES`.
//!
//! A long-lived [`Session`] keeps one memo, so a repeated request compiles
//! without reading even a header again; [`ExperimentSpec::compile`] runs
//! the same code on a session it throws away, memo and all. Only
//! [`WorkloadSource::Bench`] entries pass through here: a trace file can
//! change between two compiles, and a provided workload is already in
//! memory.
//!
//! [`Generator::digested`]: tw_workloads::Generator::digested
//! [`Generator::committed`]: tw_workloads::Generator::committed
//! [`Session`]: super::Session
//! [`ExperimentSpec::compile`]: super::ExperimentSpec::compile
//! [`WorkloadSource::Bench`]: super::WorkloadSource::Bench

use super::plan::ExperimentError;
use super::ScaleProfile;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};
use tw_types::Digest;
use tw_workloads::{BenchmarkKind, Generator, Workload};

/// What a workload is generated from.
pub(super) type MemoKey = (BenchmarkKind, ScaleProfile, usize);

/// A digested workload with its content digest, or why it cannot be
/// generated.
pub(super) type Built = Result<(Arc<Workload>, Digest), ExperimentError>;

/// An entry: the digest pass's unbuilt workload, or its error.
type Entry = Result<(Workload, Digest), ExperimentError>;

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
pub(super) type Table = BTreeMap<MemoKey, Line>;

/// The committed table, as `experiments workloads --write` records it.
const COMMITTED: &str = include_str!("../../../../WORKLOADS.digests");

static BUILTIN: LazyLock<Arc<Table>> =
    LazyLock::new(|| Arc::new(parse_table(COMMITTED).expect("WORKLOADS.digests parses")));

/// The builtin key space, in table order: every benchmark at every scale,
/// on the tile count of the scale's system.
fn builtin_keys() -> impl Iterator<Item = MemoKey> {
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
fn render_line((kind, scale, cores): MemoKey, line: &Line) -> String {
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
fn digest_line((kind, scale, cores): MemoKey) -> Result<Line, String> {
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

/// A reading of one memo's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct MemoStats {
    /// Lookups served without generating (an entry, or a build another
    /// thread was already running).
    pub(super) hits: u64,
    /// Lookups that made an entry: from a committed line, or by the digest
    /// pass.
    pub(super) builds: u64,
    /// Builds that ran a workload's digest pass: a key with no committed
    /// line, or one whose header digest the generator no longer makes.
    pub(super) digest_passes: u64,
}

/// Single-flight table of digested workloads.
#[derive(Debug)]
pub(super) struct WorkloadMemo {
    slots: Mutex<BTreeMap<MemoKey, Arc<OnceLock<Entry>>>>,
    /// The committed lines compile reads instead of running a digest pass.
    table: Arc<Table>,
    hits: AtomicU64,
    builds: AtomicU64,
    digest_passes: AtomicU64,
}

impl Default for WorkloadMemo {
    /// A memo seeded from the committed `WORKLOADS.digests`.
    fn default() -> Self {
        WorkloadMemo::with_table(Arc::clone(&BUILTIN))
    }
}

impl WorkloadMemo {
    /// A memo seeded from `table` instead of the committed one.
    pub(super) fn with_table(table: Arc<Table>) -> Self {
        WorkloadMemo {
            slots: Mutex::default(),
            table,
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            digest_passes: AtomicU64::new(0),
        }
    }

    /// The workload for `key`, in a copy of its own whose records are not
    /// built. Threads racing on a key that has no entry make it once: the
    /// header-only or digest pass runs outside the table lock, on the slot
    /// the first of them inserted.
    pub(super) fn get_or_build(&self, key: MemoKey) -> Built {
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("memo lock")
                .entry(key)
                .or_default(),
        );
        let mut leader = false;
        let entry = slot.get_or_init(|| {
            leader = true;
            self.build(key)
        });
        if leader {
            self.builds.fetch_add(1, Ordering::Relaxed);
            // A failed build is dropped (whoever waited on the slot has the
            // error already), so the next lookup tries, and fails, again.
            if entry.is_err() {
                self.slots.lock().expect("memo lock").remove(&key);
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        let (workload, digest) = entry.as_ref().map_err(Clone::clone)?;
        Ok((Arc::new(workload.clone()), *digest))
    }

    pub(super) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            digest_passes: self.digest_passes.load(Ordering::Relaxed),
        }
    }

    /// The entry of `key`: its committed line when the generator's header
    /// still digests to the line's, else the digest pass.
    fn build(&self, (kind, scale, cores): MemoKey) -> Entry {
        let generator = Generator::new(kind, scale).map_err(ExperimentError::Workload)?;
        if let Some(line) = self.table.get(&(kind, scale, cores)) {
            let (workload, header) = generator
                .committed(cores, line.digest, line.records, line.mem_ops)
                .map_err(ExperimentError::Workload)?;
            if header == line.header {
                return Ok((workload, line.digest));
            }
        }
        self.digest_passes.fetch_add(1, Ordering::Relaxed);
        generator.digested(cores).map_err(ExperimentError::Workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FFT: MemoKey = (BenchmarkKind::Fft, ScaleProfile::Tiny, 16);
    /// `tw_workloads`' pinned content digest of Tiny FFT at 16 cores. It
    /// moved once with that one, when the digest function changed from the
    /// trace encoding to the packed records and no result byte moved; the
    /// next change to it is a deliberate key migration.
    const FFT_DIGEST: &str = "4ee1e7e6abaf92b5ef5481dfe0526b96";

    /// Whether the memo's own copy of `key`'s workload holds records.
    fn entry_is_built(memo: &WorkloadMemo, key: MemoKey) -> bool {
        let slots = memo.slots.lock().unwrap();
        let entry = slots[&key].get().unwrap().as_ref().unwrap();
        entry.0.traces.is_built()
    }

    #[test]
    fn a_resident_entry_is_shared_not_rebuilt() {
        let memo = WorkloadMemo::default();
        let (first, digest) = memo.get_or_build(FFT).unwrap();
        let (second, again) = memo.get_or_build(FFT).unwrap();
        assert_eq!(digest, again);
        assert_eq!(digest.to_string(), FFT_DIGEST);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.builds, stats.digest_passes), (1, 1, 0));
        // Each lookup has its own records, built by whoever reads them.
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(!first.traces.is_built(), "a lookup builds nothing");
        assert_eq!(first.traces.try_materialize(), Ok(true));
        let built = ScaleProfile::Tiny
            .try_workload(BenchmarkKind::Fft, 16)
            .unwrap();
        assert_eq!(*first.traces, *built.traces);
        assert!(!second.traces.is_built());
        assert!(!entry_is_built(&memo, FFT), "the memo keeps the recipe");
    }

    #[test]
    fn a_failing_build_repeats_its_error_and_leaves_nothing_behind() {
        let memo = WorkloadMemo::default();
        let key = (BenchmarkKind::Custom, ScaleProfile::Tiny, 16);
        let first = memo.get_or_build(key).unwrap_err();
        assert!(matches!(first, ExperimentError::Workload(_)), "{first}");
        assert_eq!(memo.get_or_build(key).unwrap_err(), first);
        assert_eq!(memo.stats().builds, 2);
        assert!(memo.slots.lock().unwrap().is_empty());
    }

    #[test]
    fn fft_digest_is_its_committed_line() {
        assert_eq!(BUILTIN[&FFT].digest.to_string(), FFT_DIGEST);
    }

    /// Every committed line of `scale` against its generator now: both
    /// digests and both counts.
    fn the_lines_are_what_the_generators_make(scale: ScaleProfile) {
        let keys: Vec<MemoKey> = builtin_keys().filter(|k| k.1 == scale).collect();
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
        let keys: std::collections::BTreeSet<MemoKey> = builtin_keys().collect();
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
        let memo = WorkloadMemo::with_table(Arc::new(table));
        let (read, digest) = memo.get_or_build(FFT).unwrap();
        assert_eq!(digest.to_string(), FFT_DIGEST);
        assert_eq!(memo.stats().digest_passes, 1);
        let committed = WorkloadMemo::default();
        let (expected, again) = committed.get_or_build(FFT).unwrap();
        assert_eq!((committed.stats().digest_passes, again), (0, digest));
        assert_eq!(read.total_mem_ops(), expected.total_mem_ops());
        assert_eq!(read.traces.record_count(), expected.traces.record_count());
        assert_eq!(read.traces.try_materialize(), Ok(true));
        assert_eq!(*read.traces, *expected.traces);
    }

    #[test]
    fn a_key_with_no_line_runs_the_digest_pass() {
        let memo = WorkloadMemo::default();
        let key = (BenchmarkKind::Fft, ScaleProfile::Tiny, 4);
        assert!(!BUILTIN.contains_key(&key));
        let (_, digest) = memo.get_or_build(key).unwrap();
        assert_eq!(memo.stats().digest_passes, 1);
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

    #[test]
    fn racing_threads_build_a_cold_key_once() {
        let memo = WorkloadMemo::default();
        let start = std::sync::Barrier::new(4);
        let built: Vec<Arc<Workload>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        memo.get_or_build(FFT).unwrap().0
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(built.iter().all(|w| !w.traces.is_built()));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.builds), (3, 1));
    }
}
