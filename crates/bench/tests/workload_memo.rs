//! The session's workload memo, from outside: `Session::compile` is
//! `ExperimentSpec::compile` with the generated workloads shared, and only
//! generated workloads are shared.

use denovo_waste::{
    ExperimentError, ExperimentSpec, ScaleProfile, Session, SystemVariant, WorkloadSet,
    WorkloadSource, WorkloadSpec,
};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use tw_types::ProtocolKind;
use tw_workloads::{build_tiny, BenchmarkKind};

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
    /// a session's second compile hands out the workloads of its first.
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
            prop_assert!(!Arc::ptr_eq(&a.workload, &b.workload));
            prop_assert!(Arc::ptr_eq(&a.workload, &again.workload));
        }
        let distinct = spec.workloads.len() as u64 * if small_mesh { 2 } else { 1 };
        let counters = session.counters();
        prop_assert_eq!((counters.memo_builds, counters.memo_hits), (distinct, distinct));
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
        assert!(Arc::ptr_eq(&a.workload, &b.workload));
    }
    let counters = session.counters();
    assert_eq!((counters.memo_builds, counters.memo_hits), (6, 6));
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
        let workload = build_tiny(kind, 16).unwrap();
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
    assert_eq!(counters.memo_resident_ops, 0);
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
    assert_eq!(session.counters().memo_resident_ops, 0);
}
