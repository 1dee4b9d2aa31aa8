//! Resolving generated workloads, from outside: a builtin key's digest is
//! read from `WORKLOADS.digests`, so compiling a builtin plan runs no
//! digest pass and builds no record, and a key that cannot be built fails
//! the same way on every compile.

use denovo_waste::{
    ExperimentError, ExperimentSpec, ScaleProfile, Session, WorkloadSet, WorkloadSource,
    WorkloadSpec,
};
use tw_types::ProtocolKind;
use tw_workloads::BenchmarkKind;

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
    assert_eq!(session.counters().digest_passes, 0);
    let cells = plan.cells.iter().chain(&networks.cells);
    assert!(cells.into_iter().all(|c| !c.workload.traces.is_built()));
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
    assert_eq!(session.counters().digest_passes, 0);
}

/// A Paper-scale workload compiles like any other, although its records
/// (10,265,866 at 16 cores for fluidanimate) would fill 78 MiB: its plan
/// holds the recipe and the committed digest. Compile only; nothing is
/// simulated.
#[test]
fn a_paper_scale_entry_is_kept() {
    let spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi],
        vec![BenchmarkKind::Fluidanimate],
        ScaleProfile::Paper,
    );
    let session = Session::new();
    let plans: Vec<_> = (0..2)
        .map(|_| session.compile(&spec, &WorkloadSet::new()).unwrap())
        .collect();
    for plan in &plans {
        assert!(!plan.cells[0].workload.traces.is_built());
    }
    assert_eq!(
        plans[0].cells[0].workload_ref,
        plans[1].cells[0].workload_ref
    );
    assert_eq!(session.counters().digest_passes, 0, "its line is committed");
}
