//! The session's workload memo, from outside: `Session::compile` is
//! `ExperimentSpec::compile` with the generated workloads' digests shared,
//! and only generated workloads are shared. Their records are not: each
//! execute builds the ones its runs read, and the plan keeps none. A
//! builtin key's digest is read from `WORKLOADS.digests`; only another
//! core count runs the digest pass.

use denovo_waste::{
    ExperimentError, ExperimentSpec, ScaleProfile, Session, SystemVariant, WorkloadSet,
    WorkloadSource, WorkloadSpec,
};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use tw_types::ProtocolKind;
use tw_workloads::BenchmarkKind;

/// A Tiny spec over non-empty subsets of the protocols and benchmarks,
/// optionally swept over a second, smaller mesh (so one benchmark is needed
/// at two core counts).
fn spec_from(proto_mask: u8, bench_mask: u8, small_mesh: bool) -> ExperimentSpec {
    let pick = |mask: u8, i: usize| mask & (1 << i) != 0;
    let protocols = ProtocolKind::PAPER
        .into_iter()
        .enumerate()
        .filter(|(i, _)| pick(proto_mask, i % 8))
        .map(|(_, p)| p)
        .collect();
    let benches = BenchmarkKind::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| pick(bench_mask, *i))
        .map(|(_, b)| b)
        .collect();
    let mut spec = ExperimentSpec::subset(protocols, benches, ScaleProfile::Tiny);
    if small_mesh {
        spec.variants.push(SystemVariant::mesh("2x2", 2, 2));
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The two compile entry points yield the same plan, cell for cell, and
    /// a session's second compile reuses its first one's digest pass but
    /// not its workloads.
    #[test]
    fn session_compile_is_spec_compile_with_the_workloads_shared(
        proto_mask in 1u8..=255,
        bench_mask in 1u8..64,
        small_mesh in any::<bool>(),
    ) {
        let spec = spec_from(proto_mask, bench_mask, small_mesh);
        let none = WorkloadSet::new();
        let session = Session::new();
        let direct = spec.compile(&none).unwrap();
        let first = session.compile(&spec, &none).unwrap();
        let second = session.compile(&spec, &none).unwrap();

        prop_assert_eq!(&first.rows, &direct.rows);
        prop_assert_eq!(&first.variants, &direct.variants);
        prop_assert_eq!(first.cells.len(), direct.cells.len());
        for ((a, b), again) in first.cells.iter().zip(&direct.cells).zip(&second.cells) {
            prop_assert_eq!((&a.row, &a.label, a.protocol), (&b.row, &b.label, b.protocol));
            prop_assert_eq!(&a.workload_ref, &b.workload_ref);
            prop_assert_eq!(&a.system, &b.system);
            prop_assert_eq!(session.key_of(a), session.key_of(b));
            prop_assert_eq!(&a.workload_ref, &again.workload_ref);
            prop_assert!(!Arc::ptr_eq(&a.workload, &b.workload));
            prop_assert!(!Arc::ptr_eq(&a.workload, &again.workload));
            prop_assert!(!again.workload.traces.is_built());
        }
        let distinct = spec.workloads.len() as u64 * if small_mesh { 2 } else { 1 };
        let counters = session.counters();
        prop_assert_eq!((counters.memo_builds, counters.memo_hits), (distinct, distinct));
        // The 2x2 mesh's four-core workloads have no committed line.
        let passes = if small_mesh { spec.workloads.len() as u64 } else { 0 };
        prop_assert_eq!(counters.digest_passes, passes);
    }
}

#[test]
fn two_threads_compiling_one_spec_build_each_workload_once() {
    let spec = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
    let session = Session::new();
    let start = Barrier::new(2);
    let plans: Vec<_> = std::thread::scope(|scope| {
        let compilers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    session.compile(&spec, &WorkloadSet::new()).unwrap()
                })
            })
            .collect();
        compilers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (a, b) in plans[0].cells.iter().zip(&plans[1].cells) {
        assert_eq!(a.workload_ref, b.workload_ref);
        assert!(!Arc::ptr_eq(&a.workload, &b.workload));
    }
    let counters = session.counters();
    assert_eq!((counters.memo_builds, counters.memo_hits), (6, 6));
    assert_eq!(counters.digest_passes, 0);
}

/// Every builtin plan's workloads are committed lines: compiling the Scaled
/// matrix, and the same with the network axis, generates no stream.
#[test]
fn a_builtin_scaled_plan_runs_no_digest_pass() {
    let session = Session::new();
    let mut spec = ExperimentSpec::full_matrix(ScaleProfile::Scaled);
    let plan = session.compile(&spec, &WorkloadSet::new()).unwrap();
    spec.networks = tw_types::NetworkModelKind::ALL.to_vec();
    let networks = session.compile(&spec, &WorkloadSet::new()).unwrap();
    assert_eq!((plan.cells.len(), networks.cells.len()), (54, 162));
    let counters = session.counters();
    assert_eq!((counters.memo_builds, counters.digest_passes), (6, 0));
    assert!(networks.cells.iter().all(|c| !c.workload.traces.is_built()));
}

#[test]
fn a_trace_file_is_read_on_every_compile() {
    let dir = std::env::temp_dir().join("tw-workload-memo-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w.trace");
    let mut spec = ExperimentSpec::subset(vec![ProtocolKind::Mesi], vec![], ScaleProfile::Tiny);
    spec.workloads = vec![WorkloadSpec::trace("from-file", &path)];
    let session = Session::new();
    let digest_after_writing = |kind| {
        let workload = ScaleProfile::Tiny.try_workload(kind, 16).unwrap();
        workload.to_trace().save(&path, false).unwrap();
        let plan = session.compile(&spec, &WorkloadSet::new()).unwrap();
        assert_eq!(
            plan.cells[0].workload_ref.digest,
            workload.content_digest().unwrap()
        );
        plan.cells[0].workload_ref.digest
    };
    // Same path, new content: the second compile follows the file.
    let fft = digest_after_writing(BenchmarkKind::Fft);
    let lu = digest_after_writing(BenchmarkKind::Lu);
    assert_ne!(fft, lu);
    let counters = session.counters();
    assert_eq!((counters.memo_builds, counters.memo_hits), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_benchmark_without_a_generator_fails_the_same_way_twice() {
    let mut spec = ExperimentSpec::subset(vec![ProtocolKind::Mesi], vec![], ScaleProfile::Tiny);
    spec.workloads = vec![WorkloadSpec {
        name: "no-generator".into(),
        source: WorkloadSource::Bench(BenchmarkKind::Custom),
    }];
    let session = Session::new();
    let first = session.compile(&spec, &WorkloadSet::new()).unwrap_err();
    assert!(matches!(first, ExperimentError::Workload(_)), "{first}");
    assert_eq!(
        session.compile(&spec, &WorkloadSet::new()).unwrap_err(),
        first
    );
    assert_eq!(spec.compile(&WorkloadSet::new()).unwrap_err(), first);
}

/// Tiny FFT under MESI with one L2 variant: one cell, one run.
fn fft_with_l2(label: &str, l2_slice_bytes: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi],
        vec![BenchmarkKind::Fft],
        ScaleProfile::Tiny,
    );
    spec.variants = vec![SystemVariant::l2_slice(label, l2_slice_bytes)];
    spec
}

#[test]
fn a_later_plan_builds_its_own_records() {
    // Every run reads its workload's records from a lease of its execute:
    // after the Tiny matrix ran, no cell's workload holds a record.
    let none = WorkloadSet::new();
    let session = Session::new();
    let matrix = session
        .compile(&ExperimentSpec::full_matrix(ScaleProfile::Tiny), &none)
        .unwrap();
    session.execute(&matrix).unwrap();
    assert!(matrix.cells.iter().all(|c| !c.workload.traces.is_built()));
    assert_eq!(session.counters().workloads_materialized, 6);
    assert_eq!(session.counters().digest_passes, 0);

    // One plan executed twice builds its records twice, once per execute.
    // The cache is emptied in between, so that the second execute
    // simulates again rather than reading the entry the first one stored.
    let cache = std::env::temp_dir().join("tw-workload-memo-rerun");
    let _ = std::fs::remove_dir_all(&cache);
    let session = Session::new().with_cache_dir(&cache);
    let plan = session
        .compile(&fft_with_l2("l2-32k", 32 << 10), &none)
        .unwrap();
    for materialized in [1, 2] {
        assert_eq!(session.execute(&plan).unwrap().cache.misses, 1);
        assert!(!plan.cells[0].workload.traces.is_built());
        assert_eq!(session.counters().workloads_materialized, materialized);
        std::fs::remove_dir_all(&cache).unwrap();
    }

    // Same workload, other machine: the digest pass is the memo's, the
    // records are built again by the new plan's run.
    let other = session
        .compile(&fft_with_l2("l2-16k", 16 << 10), &none)
        .unwrap();
    assert_eq!(plan.cells[0].workload_ref, other.cells[0].workload_ref);
    session.execute(&other).unwrap();
    let counters = session.counters();
    assert_eq!(counters.workloads_materialized, 3);
    assert_eq!((counters.memo_builds, counters.memo_hits), (1, 1));
}

/// A Paper-scale workload is kept like any other, although its records
/// (10,265,866 at 16 cores for fluidanimate) would fill 78 MiB: the memo
/// holds its recipe. Compile only; nothing is simulated.
#[test]
fn a_paper_scale_entry_is_kept() {
    let spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi],
        vec![BenchmarkKind::Fluidanimate],
        ScaleProfile::Paper,
    );
    let session = Session::new();
    for _ in 0..2 {
        let plan = session.compile(&spec, &WorkloadSet::new()).unwrap();
        assert!(!plan.cells[0].workload.traces.is_built());
    }
    let counters = session.counters();
    assert_eq!((counters.memo_builds, counters.memo_hits), (1, 1));
    assert_eq!(counters.digest_passes, 0, "its line is committed");
}
