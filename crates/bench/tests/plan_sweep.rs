//! Sweeps a benchmark-keyed matrix cannot express.
//!
//! A matrix whose cells are keyed by `BenchmarkKind` and whose system is one
//! of the three `ScaleProfile`s holds at most one synthesized workload and
//! exactly one system geometry. These tests exercise the plan API on the
//! shapes that rules out: two synthesized workloads in one plan, an
//! L2-slice-size sweep, and a core-count (mesh) sweep; plus the NaN
//! regression for zero-traffic baseline cells.

use denovo_waste::{
    ExperimentError, ExperimentSpec, RowKey, ScaleProfile, Session, SystemVariant, WorkloadSet,
    WorkloadSpec,
};
use tw_scenarios::synthesize;
use tw_types::{Addr, ProtocolKind, RegionId, RegionInfo, RegionTable, TraceOp};
use tw_workloads::{BenchmarkKind, Workload};

#[test]
fn one_plan_mixes_two_synthesized_workloads_across_an_l2_sweep() {
    // Two distinct synthesized workloads — both BenchmarkKind::Synthesized,
    // which no benchmark-keyed matrix can hold — swept over two L2 slice sizes under
    // two protocols: 2 x 2 x 2 = 8 cells in one plan.
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi, ProtocolKind::DBypFull],
        vec![],
        ScaleProfile::Tiny,
    );
    spec.name = "synth-l2-sweep".into();
    spec.workloads = vec![
        WorkloadSpec::provided("synth-a"),
        WorkloadSpec::provided("synth-b"),
    ];
    spec.variants = vec![
        SystemVariant::l2_slice("l2-16k", 16 * 1024),
        SystemVariant::l2_slice("l2-64k", 64 * 1024),
    ];
    let mut set = WorkloadSet::new();
    set.insert("synth-a", synthesize(1));
    set.insert("synth-b", synthesize(2));

    let out = Session::new().run(&spec, &set).unwrap();
    assert_eq!(out.rows.len(), 4);
    assert_eq!(out.cells(), 8);

    // Every (workload, variant) row normalizes to its own MESI cell.
    let fig = out.fig_5_1a().unwrap();
    for row in [
        "synth-a@l2-16k",
        "synth-a@l2-64k",
        "synth-b@l2-16k",
        "synth-b@l2-64k",
    ] {
        let mesi = fig.value(&format!("{row}/MESI"), "Total").unwrap();
        assert!((mesi - 1.0).abs() < 1e-9, "{row}: MESI bar must be 1.0");
        let opt = fig.value(&format!("{row}/DBypFull"), "Total").unwrap();
        assert!(opt.is_finite() && opt > 0.0, "{row}: DBypFull bar {opt}");
    }

    // The two workloads are genuinely different rows, not aliases.
    let a = out
        .report(
            &RowKey {
                workload: "synth-a".into(),
                variant: "l2-16k".into(),
            },
            ProtocolKind::Mesi,
        )
        .unwrap();
    let b = out
        .report(
            &RowKey {
                workload: "synth-b".into(),
                variant: "l2-16k".into(),
            },
            ProtocolKind::Mesi,
        )
        .unwrap();
    assert_ne!(
        a.total_flit_hops(),
        b.total_flit_hops(),
        "distinct seeds should produce distinct traffic"
    );
}

#[test]
fn l2_slice_size_sweep_changes_the_numbers() {
    // Sweeping a cache geometry parameter — inexpressible in the old API,
    // where the system was welded to the ScaleProfile — must actually reach
    // the simulated hierarchy: FFT's working set overflows a 8 KB slice but
    // not a 256 KB one, so MESI traffic differs between the variants.
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi],
        vec![BenchmarkKind::Fft],
        ScaleProfile::Tiny,
    );
    spec.name = "fft-l2-sweep".into();
    spec.variants = vec![
        SystemVariant::l2_slice("l2-8k", 8 * 1024),
        SystemVariant::l2_slice("l2-256k", 256 * 1024),
    ];
    let out = Session::new().run(&spec, &WorkloadSet::new()).unwrap();
    let small = out
        .report(
            &RowKey {
                workload: "FFT".into(),
                variant: "l2-8k".into(),
            },
            ProtocolKind::Mesi,
        )
        .unwrap();
    let big = out
        .report(
            &RowKey {
                workload: "FFT".into(),
                variant: "l2-256k".into(),
            },
            ProtocolKind::Mesi,
        )
        .unwrap();
    assert!(
        small.dram_accesses > big.dram_accesses,
        "a smaller L2 must go to DRAM more often ({} vs {})",
        small.dram_accesses,
        big.dram_accesses
    );
    assert_ne!(small.total_flit_hops(), big.total_flit_hops());
}

#[test]
fn core_count_sweep_rebuilds_generated_workloads_per_mesh() {
    // A mesh sweep changes the core count, so generator-backed workloads are
    // rebuilt per variant — each variant's cells carry a different content
    // digest (it is a different trace), and both simulate to completion.
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi],
        vec![BenchmarkKind::Fft],
        ScaleProfile::Tiny,
    );
    spec.name = "fft-mesh-sweep".into();
    spec.variants = vec![SystemVariant::base(), SystemVariant::mesh("mesh-2x2", 2, 2)];

    let plan = spec.compile(&WorkloadSet::new()).unwrap();
    assert_eq!(plan.cells.len(), 2);
    assert_eq!(plan.cells[0].system.tiles(), 16);
    assert_eq!(plan.cells[1].system.tiles(), 4);
    assert_ne!(
        plan.cells[0].workload_ref.digest, plan.cells[1].workload_ref.digest,
        "a 4-core FFT trace is not the 16-core FFT trace"
    );

    let out = Session::new().execute(&plan).unwrap();
    for (row, _) in &out.rows {
        let r = out.report(row, ProtocolKind::Mesi).unwrap();
        assert!(r.total_cycles > 0, "{}: empty run", row.variant);
        assert!(r.total_flit_hops() > 0.0);
    }
}

/// A core count no builtin plan uses has no committed `WORKLOADS.digests`
/// line: every compile runs its digest passes again, and makes the same
/// plan.
#[test]
fn a_mesh_with_no_committed_lines_digests_on_every_compile() {
    let mut spec = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
    spec.variants = vec![SystemVariant::base(), SystemVariant::mesh("2x2", 2, 2)];
    let session = Session::new();
    let first = session.compile(&spec, &WorkloadSet::new()).unwrap();
    assert_eq!(session.counters().digest_passes, 6);
    let second = session.compile(&spec, &WorkloadSet::new()).unwrap();
    assert_eq!(session.counters().digest_passes, 12);
    assert_eq!(first.cells.len(), 108);
    assert_eq!(
        (&first.rows, &first.variants),
        (&second.rows, &second.variants)
    );
    for (a, b) in first.cells.iter().zip(&second.cells) {
        assert_eq!(
            (&a.row, &a.label, a.protocol),
            (&b.row, &b.label, b.protocol)
        );
        assert_eq!((&a.workload_ref, &a.system), (&b.workload_ref, &b.system));
        assert_eq!(session.key_of(a), session.key_of(b));
        assert!(!a.workload.traces.is_built() && !b.workload.traces.is_built());
    }
}

#[test]
fn provided_workloads_reject_core_count_mismatch() {
    // Fixed-core workloads (traces, synthesized streams) cannot follow a
    // mesh sweep; the mismatch is a structured error, not a panic deep in
    // the simulator.
    let mut spec = ExperimentSpec::subset(vec![ProtocolKind::Mesi], vec![], ScaleProfile::Tiny);
    spec.workloads = vec![WorkloadSpec::provided("synth")];
    spec.variants = vec![SystemVariant::mesh("mesh-2x2", 2, 2)];
    let mut set = WorkloadSet::new();
    set.insert("synth", synthesize(7)); // 16 cores
    let err = spec.compile(&set).unwrap_err();
    assert!(
        matches!(err, ExperimentError::CoreCountMismatch { .. }),
        "{err}"
    );
}

#[test]
fn a_mesh_beyond_64_tiles_is_a_typed_error() {
    // Sharer sets are one bit per core in a u64: before the ceiling, a 9x9
    // mesh under MESI or Dragon made core 80 alias core 16 in release
    // builds. The variant is refused at compile time, before any workload
    // is generated.
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi, ProtocolKind::Dragon],
        vec![BenchmarkKind::Fft],
        ScaleProfile::Tiny,
    );
    spec.variants = vec![SystemVariant::base(), SystemVariant::mesh("mesh-9x9", 9, 9)];
    let err = Session::new().run(&spec, &WorkloadSet::new()).unwrap_err();
    match err {
        ExperimentError::InvalidSystem { variant, reason } => {
            assert_eq!(variant, "mesh-9x9");
            assert!(reason.contains("at most 64 tiles"), "{reason}");
        }
        other => panic!("expected InvalidSystem, got {other}"),
    }
    // The ceiling itself is accepted.
    spec.variants = vec![SystemVariant::mesh("mesh-8x8", 8, 8)];
    assert_eq!(spec.compile(&WorkloadSet::new()).unwrap().cells.len(), 2);
}

/// A 16-core workload that performs no memory accesses at all: compute
/// bursts and barriers only, so every traffic total is exactly zero.
fn zero_traffic_workload() -> Workload {
    let mut regions = RegionTable::new();
    regions.insert(RegionInfo::plain(RegionId(1), "unused", Addr::new(0), 4096));
    Workload {
        kind: BenchmarkKind::Custom,
        input: "compute-only".into(),
        regions,
        traces: (0..16)
            .map(|core| {
                vec![
                    TraceOp::compute(10 + core as u32),
                    TraceOp::barrier(0),
                    TraceOp::compute(5),
                ]
            })
            .collect(),
    }
}

#[test]
fn zero_traffic_baseline_yields_zero_rows_not_nan() {
    // Regression: fig_5_1a divided by the baseline's total traffic without
    // a zero guard, so a zero-traffic baseline cell produced NaN rows (and
    // `null`s in the JSON artifact). The contract is all-zero rows.
    let wl = zero_traffic_workload();
    wl.assert_well_formed();
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi, ProtocolKind::DeNovo],
        vec![],
        ScaleProfile::Tiny,
    );
    spec.workloads = vec![WorkloadSpec::provided("custom")];
    let mut set = WorkloadSet::new();
    set.insert("custom", wl);
    let out = Session::new().run(&spec, &set).unwrap();

    let report = out.report(&out.rows[0].0, ProtocolKind::Mesi).unwrap();
    assert_eq!(report.total_flit_hops(), 0.0, "the premise: zero traffic");
    assert!(report.total_cycles > 0);

    let fig_a = out.fig_5_1a().unwrap();
    for (label, values) in fig_a.rows() {
        for v in values {
            assert!(v.is_finite(), "{label}: non-finite value {v}");
            assert_eq!(*v, 0.0, "{label}: zero baseline must yield 0.0 rows");
        }
    }
    // Figure 5.2 normalizes by time (non-zero here) but must stay finite on
    // every figure of the set; sweep them all.
    for fig in out.all_figures().unwrap() {
        for (label, values) in fig.rows() {
            for v in values {
                assert!(
                    v.is_finite(),
                    "{}: {label}: non-finite value {v}",
                    fig.title()
                );
            }
        }
    }
}
