//! The workload memo: generated benchmark workloads and their content
//! digests, digested once and shared.
//!
//! An entry is made by the generator's digest pass
//! ([`Generator::digested`]): the generator runs one core at a time into a
//! reused buffer, and only the digest, the record counts and the recipe
//! (generator and core count) are kept. Each lookup hands out its own
//! unbuilt copy of the entry, which copies the recipe and no record. So the
//! records belong to the plan that looked the workload up: the first of its
//! runs that reads them builds them, once across the pool's threads, its
//! other runs share them, and they drop with the plan. The entry itself is
//! never read, so it never holds a record, and the memo is bounded by its
//! key space: benchmark × scale × core count, where
//! `SystemConfig::validate` caps the core count at `MAX_TILES`.
//!
//! The digest pass is the whole compile cost of a plan whose cells are all
//! cached, and it is a pure function of `(benchmark, scale, cores)`. A
//! long-lived [`Session`] keeps one memo, so a repeated request compiles
//! without re-digesting anything; [`ExperimentSpec::compile`] runs the same
//! code on a session it throws away, memo and all. Only
//! [`WorkloadSource::Bench`] entries pass through here: a trace file can
//! change between two compiles, and a provided workload is already in
//! memory.
//!
//! [`Generator::digested`]: tw_workloads::Generator::digested
//! [`Session`]: super::Session
//! [`ExperimentSpec::compile`]: super::ExperimentSpec::compile
//! [`WorkloadSource::Bench`]: super::WorkloadSource::Bench

use super::plan::ExperimentError;
use super::ScaleProfile;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tw_types::Digest;
use tw_workloads::{BenchmarkKind, Workload};

/// What a workload is generated from.
pub(super) type MemoKey = (BenchmarkKind, ScaleProfile, usize);

/// A digested workload with its content digest, or why it cannot be
/// generated.
pub(super) type Built = Result<(Arc<Workload>, Digest), ExperimentError>;

/// An entry: the digest pass's unbuilt workload, or its error.
type Entry = Result<(Workload, Digest), ExperimentError>;

/// A reading of one memo's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct MemoStats {
    /// Lookups served without generating (an entry, or a build another
    /// thread was already running).
    pub(super) hits: u64,
    /// Lookups that ran a workload's digest pass.
    pub(super) builds: u64,
}

/// Single-flight table of digested workloads.
#[derive(Debug, Default)]
pub(super) struct WorkloadMemo {
    slots: Mutex<BTreeMap<MemoKey, Arc<OnceLock<Entry>>>>,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl WorkloadMemo {
    /// The workload for `key`, in a copy of its own whose records are not
    /// built. Threads racing on a key that has no entry digest it once: the
    /// digest pass runs outside the table lock, on the slot the first of
    /// them inserted.
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
            build(key)
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
        }
    }
}

fn build((kind, scale, cores): MemoKey) -> Entry {
    scale
        .generator(kind)
        .and_then(|generator| generator.digested(cores))
        .map_err(ExperimentError::Workload)
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
        assert_eq!((stats.hits, stats.builds), (1, 1));
        // Each lookup has its own records, built by whoever reads them.
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(!first.traces.is_built(), "a lookup builds nothing");
        assert!(first.traces.materialize());
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
