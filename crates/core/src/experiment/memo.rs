//! The workload memo: generated benchmark workloads and their content
//! digests, built once and shared.
//!
//! Generating a benchmark's reference streams and digesting them is the
//! whole cost of a plan whose cells are all cached, and it is a pure
//! function of `(benchmark, scale, cores)`. A long-lived [`Session`] keeps
//! one memo, so a repeated request compiles without regenerating anything;
//! [`ExperimentSpec::compile`] runs the same code over a memo it throws
//! away. Only [`WorkloadSource::Bench`] entries pass through here: a trace
//! file can change between two compiles, and a provided workload is already
//! in memory.
//!
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

/// Trace ops a memo keeps resident before it evicts: 8 Mi ops, 64 MiB at
/// 8 bytes an op. The six Scaled workloads at 16 cores are 5.96 M ops and
/// the six Tiny ones 0.23 M, so both matrices stay resident together with
/// room for a few mesh variants; a Paper-scale workload is larger than the
/// whole budget and is never retained.
pub(super) const MEMO_BUDGET_OPS: u64 = 8 << 20;

/// What a workload is generated from.
pub(super) type MemoKey = (BenchmarkKind, ScaleProfile, usize);

/// A built workload with its content digest, or why it cannot be built.
pub(super) type Built = Result<(Arc<Workload>, Digest), ExperimentError>;

#[derive(Debug)]
struct Slot {
    built: Arc<OnceLock<Built>>,
    /// Resident size, 0 until the build has finished and been accounted.
    ops: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Table {
    slots: BTreeMap<MemoKey, Slot>,
    /// Logical clock: one tick per lookup.
    clock: u64,
    resident_ops: u64,
}

/// A reading of one memo's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct MemoStats {
    /// Lookups served without generating (a resident entry, or a build
    /// another thread was already running).
    pub(super) hits: u64,
    /// Lookups that generated and digested a workload.
    pub(super) builds: u64,
    /// Trace ops held by resident entries right now.
    pub(super) resident_ops: u64,
}

/// Single-flight, LRU-bounded table of generated workloads.
#[derive(Debug)]
pub(super) struct WorkloadMemo {
    budget_ops: u64,
    table: Mutex<Table>,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl Default for WorkloadMemo {
    fn default() -> Self {
        WorkloadMemo::with_budget(MEMO_BUDGET_OPS)
    }
}

impl WorkloadMemo {
    pub(super) fn with_budget(budget_ops: u64) -> Self {
        WorkloadMemo {
            budget_ops,
            table: Mutex::default(),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    /// The workload for `key`. Threads racing on a key that is not resident
    /// generate it once: the build runs outside the table lock, on the slot
    /// the first of them inserted.
    pub(super) fn get_or_build(&self, key: MemoKey) -> Built {
        let slot = {
            let mut table = self.table.lock().expect("memo lock");
            table.clock += 1;
            let now = table.clock;
            let slot = table.slots.entry(key).or_insert_with(|| Slot {
                built: Arc::default(),
                ops: 0,
                last_used: now,
            });
            slot.last_used = now;
            Arc::clone(&slot.built)
        };
        let mut leader = false;
        let built = slot
            .get_or_init(|| {
                leader = true;
                build(key)
            })
            .clone();
        if leader {
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.settle(key, &built);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        built
    }

    /// Accounts a finished build: a failure and a workload larger than the
    /// whole budget are dropped from the table (whoever waited on the slot
    /// has the result already), anything else becomes resident and the
    /// least recently used entries make room for it.
    fn settle(&self, key: MemoKey, built: &Built) {
        let retained = built
            .as_ref()
            .ok()
            .map(|(workload, _)| trace_ops(workload))
            .filter(|&ops| ops <= self.budget_ops);
        let mut table = self.table.lock().expect("memo lock");
        let Some(ops) = retained else {
            table.slots.remove(&key);
            return;
        };
        // Only accounted slots are ever evicted, so the slot is still there.
        table.slots.get_mut(&key).expect("unsettled slot").ops = ops;
        table.resident_ops += ops;
        while table.resident_ops > self.budget_ops {
            let (&oldest, _) = table
                .slots
                .iter()
                .filter(|(_, slot)| slot.ops > 0)
                .min_by_key(|(_, slot)| slot.last_used)
                .expect("resident ops belong to an accounted slot");
            let evicted = table.slots.remove(&oldest).expect("key just found");
            table.resident_ops -= evicted.ops;
        }
    }

    pub(super) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            resident_ops: self.table.lock().expect("memo lock").resident_ops,
        }
    }
}

/// What a workload costs the budget: every op of every core's stream.
fn trace_ops(workload: &Workload) -> u64 {
    workload.traces.iter().map(|t| t.len() as u64).sum()
}

fn build((kind, scale, cores): MemoKey) -> Built {
    let workload = scale
        .try_workload(kind, cores)
        .map_err(ExperimentError::Workload)?;
    let digest = workload
        .content_digest()
        .map_err(|e| ExperimentError::Workload(e.to_string()))?;
    Ok((Arc::new(workload), digest))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FFT: MemoKey = (BenchmarkKind::Fft, ScaleProfile::Tiny, 16);
    const LU: MemoKey = (BenchmarkKind::Lu, ScaleProfile::Tiny, 16);
    /// `tw_workloads`' pinned content digest of Tiny FFT at 16 cores. It
    /// moved once with that one, when the digest function changed from the
    /// trace encoding to the packed records and no result byte moved; the
    /// next change to it is a deliberate key migration.
    const FFT_DIGEST: &str = "4ee1e7e6abaf92b5ef5481dfe0526b96";

    fn ops_of(memo: &WorkloadMemo, key: MemoKey) -> u64 {
        trace_ops(&memo.get_or_build(key).unwrap().0)
    }

    #[test]
    fn a_resident_entry_is_shared_not_rebuilt() {
        let memo = WorkloadMemo::default();
        let (first, digest) = memo.get_or_build(FFT).unwrap();
        let (second, again) = memo.get_or_build(FFT).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(digest, again);
        assert_eq!(digest.to_string(), FFT_DIGEST);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.builds), (1, 1));
        assert_eq!(stats.resident_ops, trace_ops(&first));
    }

    #[test]
    fn the_budget_evicts_the_least_recently_used_entry() {
        let sizes = WorkloadMemo::default();
        let (fft_ops, lu_ops) = (ops_of(&sizes, FFT), ops_of(&sizes, LU));
        // Room for either workload, not for both.
        let memo = WorkloadMemo::with_budget(fft_ops.max(lu_ops));
        let (fft, _) = memo.get_or_build(FFT).unwrap();
        memo.get_or_build(LU).unwrap();
        assert_eq!(memo.stats().resident_ops, lu_ops, "FFT made room for LU");
        // FFT is generated again, to the same content.
        let (rebuilt, digest) = memo.get_or_build(FFT).unwrap();
        assert!(!Arc::ptr_eq(&fft, &rebuilt));
        assert_eq!(digest.to_string(), FFT_DIGEST);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.builds), (0, 3));
        assert_eq!(stats.resident_ops, fft_ops, "and LU made room for FFT");
    }

    #[test]
    fn a_workload_larger_than_the_budget_is_served_but_not_retained() {
        let memo = WorkloadMemo::with_budget(1);
        let (_, digest) = memo.get_or_build(FFT).unwrap();
        assert_eq!(digest.to_string(), FFT_DIGEST);
        memo.get_or_build(FFT).unwrap();
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 0,
                builds: 2,
                resident_ops: 0
            }
        );
        assert!(memo.table.lock().unwrap().slots.is_empty());
    }

    #[test]
    fn a_failing_build_repeats_its_error_and_leaves_nothing_behind() {
        let memo = WorkloadMemo::default();
        let key = (BenchmarkKind::Custom, ScaleProfile::Tiny, 16);
        let first = memo.get_or_build(key).unwrap_err();
        assert!(matches!(first, ExperimentError::Workload(_)), "{first}");
        assert_eq!(memo.get_or_build(key).unwrap_err(), first);
        assert_eq!(memo.stats().resident_ops, 0);
        assert!(memo.table.lock().unwrap().slots.is_empty());
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
        assert!(built.iter().all(|w| Arc::ptr_eq(w, &built[0])));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.builds), (3, 1));
    }
}
