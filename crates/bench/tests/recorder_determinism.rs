//! Observer-lane contract tests for the flight recorder.
//!
//! Two properties carry the telemetry design: (1) recording never changes a
//! result byte, and (2) two identical runs emit byte-identical traces once
//! the quarantined `timing` sub-objects are stripped. The rejection tests
//! mirror the DNVT trace contract: a cut or damaged trace fails loudly with
//! a named error, never silently succeeds.

use denovo_waste::{ExperimentSpec, ScaleProfile, Session, SimConfig, Simulator, WorkloadSet};
use proptest::prelude::*;
use std::sync::Arc;
use tw_obs::{diff_traces, stripped_lines, validate_trace, FlightRecorder, SpanSink, TraceError};
use tw_types::{NetworkModelKind, ProtocolKind};
use tw_workloads::BenchmarkKind;

const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Mesi,
    ProtocolKind::DeNovo,
    ProtocolKind::DBypFull,
];
const BENCHES: [BenchmarkKind; 2] = [BenchmarkKind::Fft, BenchmarkKind::Radix];

/// A tiny spec over non-empty protocol/benchmark subsets. Every cell is
/// distinct and the session runs cache-less, so no single-flight
/// coalescing can make leader attribution racy.
fn spec_from(proto_mask: u8, bench_mask: u8) -> ExperimentSpec {
    let protocols = PROTOCOLS
        .iter()
        .enumerate()
        .filter(|(i, _)| proto_mask & (1 << i) != 0)
        .map(|(_, p)| *p)
        .collect();
    let benches = BENCHES
        .iter()
        .enumerate()
        .filter(|(i, _)| bench_mask & (1 << i) != 0)
        .map(|(_, b)| *b)
        .collect();
    ExperimentSpec::subset(protocols, benches, ScaleProfile::Tiny)
}

/// Runs `spec` with the recorder armed; returns the trace JSONL and a
/// deterministic rendering of the whole outcome (reports live in BTreeMaps,
/// so the Debug form is byte-stable).
fn recorded_run(spec: &ExperimentSpec) -> (String, String) {
    let rec = Arc::new(FlightRecorder::new());
    let session = Session::new().with_recorder(SpanSink::new(Arc::clone(&rec), "test"));
    let outcome = session.run(spec, &WorkloadSet::new()).unwrap();
    (rec.to_jsonl(), format!("{outcome:?}"))
}

proptest! {
    // Each case runs up to six tiny cells three times; a handful of cases
    // keeps the suite fast while still sweeping the subset lattice.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn identical_runs_emit_identical_traces_modulo_timing(
        proto_mask in 1u8..(1 << PROTOCOLS.len()),
        bench_mask in 1u8..(1 << BENCHES.len()),
    ) {
        let spec = spec_from(proto_mask, bench_mask);
        let (trace_a, outcome_a) = recorded_run(&spec);
        let (trace_b, outcome_b) = recorded_run(&spec);
        prop_assert_eq!(&outcome_a, &outcome_b);
        prop_assert!(validate_trace(&trace_a).unwrap().spans > 0);
        prop_assert_eq!(diff_traces(&trace_a, &trace_b).unwrap(), None);
        prop_assert_eq!(
            stripped_lines(&trace_a).unwrap(),
            stripped_lines(&trace_b).unwrap()
        );

        // Observer lane: a run without the recorder produces the same outcome.
        let plain = Session::new().run(&spec, &WorkloadSet::new()).unwrap();
        prop_assert_eq!(format!("{plain:?}"), outcome_a);
    }
}

#[test]
fn corrupt_and_truncated_traces_are_rejected_with_named_errors() {
    let spec = spec_from(1, 1);
    let (trace, _) = recorded_run(&spec);
    let n = validate_trace(&trace).unwrap().spans;
    assert!(n >= 2, "at least the run span and the cell span");

    // Cut mid-stream: the header's span count is the truncation oracle.
    let kept = trace.lines().count() - 1;
    let truncated: String = trace.lines().take(kept).map(|l| format!("{l}\n")).collect();
    assert_eq!(
        validate_trace(&truncated),
        Err(TraceError::Truncated {
            expected: n,
            found: n - 1
        })
    );

    // Surplus lines after the promised count are damage, not extra data.
    let surplus = format!("{trace}{}\n", trace.lines().last().unwrap());
    assert!(matches!(
        validate_trace(&surplus),
        Err(TraceError::Corrupt(_))
    ));

    // A foreign schema tag is rejected by name.
    let bad_header = trace.replacen("denovo-waste/flight/v1", "denovo-waste/flight/v9", 1);
    assert!(matches!(
        validate_trace(&bad_header),
        Err(TraceError::Corrupt(_))
    ));
}

/// A cell that is the same machine as an earlier one is not simulated, and
/// its track says so: one `cell` span naming the cell that was, no `phase`
/// or `run` span. Which cell leads is decided by the plan, not by a race, so
/// the trace still byte-diffs across reruns.
#[test]
fn an_alias_cell_names_its_representative_and_records_no_simulation() {
    // FFT carries no communication region: DFlexL1 is DeNovo's machine.
    let spec = ExperimentSpec::subset(
        vec![ProtocolKind::DeNovo, ProtocolKind::DFlexL1],
        vec![BenchmarkKind::Fft],
        ScaleProfile::Tiny,
    );
    let (trace, _) = recorded_run(&spec);
    let lines = stripped_lines(&trace).unwrap();
    let on_track = |track: &str| -> Vec<&String> {
        let needle = format!("\"track\":\"{track}\"");
        lines.iter().filter(|l| l.contains(&needle)).collect()
    };
    let alias = on_track("FFT/DFlexL1");
    assert_eq!(alias.len(), 1, "{alias:?}");
    assert!(
        alias[0].ends_with(
            "\"name\":\"cell\",\"attrs\":{\"outcome\":\"coalesced\",\"alias_of\":\"DeNovo\"}}"
        ),
        "{}",
        alias[0]
    );
    let leader = on_track("FFT/DeNovo");
    assert!(leader.iter().any(|l| l.contains("\"name\":\"run\"")));
    assert!(leader.iter().any(|l| l.contains("\"name\":\"phase\"")));
    assert!(leader
        .last()
        .unwrap()
        .ends_with("\"name\":\"cell\",\"attrs\":{\"outcome\":\"simulated\"}}"));

    let (again, _) = recorded_run(&spec);
    assert_eq!(diff_traces(&trace, &again).unwrap(), None);
}

/// Cells that differ only in their network model are one simulation, and
/// each one's track still gets exactly the `phase` and `run` spans a
/// simulation of that cell alone records: its own network, cycles and
/// stall counts, and the shared counters of the canonical lane.
#[test]
fn a_shared_run_records_each_network_on_its_own_track() {
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Dragon],
        vec![BenchmarkKind::Fft],
        ScaleProfile::Tiny,
    );
    spec.networks = NetworkModelKind::ALL.to_vec();
    let rec = Arc::new(FlightRecorder::new());
    let session = Session::new().with_recorder(SpanSink::new(Arc::clone(&rec), "test"));
    let plan = session.compile(&spec, &WorkloadSet::new()).unwrap();
    assert!(session.groups(&plan).iter().all(|g| g.run == 0), "one run");
    session.execute(&plan).unwrap();
    let spans = rec.spans();
    let mut cycles = std::collections::BTreeSet::new();
    for cell in &plan.cells {
        let alone = Arc::new(FlightRecorder::new());
        let cfg = SimConfig::new(cell.protocol)
            .with_system(cell.system.clone())
            .with_recorder(SpanSink::new(Arc::clone(&alone), cell.track()));
        Simulator::new(cfg, &cell.workload).run();
        let track = cell.track();
        let shared: Vec<_> = spans.iter().filter(|s| s.track == track).collect();
        let (cell_span, simulated) = shared.split_last().expect("spans on every track");
        assert_eq!(
            simulated.to_vec(),
            alone.spans().iter().collect::<Vec<_>>(),
            "{track}"
        );
        assert_eq!(cell_span.name, "cell", "{track}");
        cycles.insert(alone.spans().last().and_then(|s| s.attr_u64("cycles")));
    }
    assert_eq!(cycles.len(), 3, "the three networks time FFT differently");
}

/// The work counters of the `run` span are pure functions of the inputs, so
/// the Tiny matrix's totals are pinned: a change that silently stops a
/// memory chunk staying uniform, or a line finalisation being served by one
/// arrival group, moves a count here rather than (maybe) a timing somewhere;
/// so does one that changes the records stepped or the DRAM accesses made.
/// A change that moves them on purpose re-pins them and says why.
#[test]
fn the_tiny_matrix_fast_path_counters_are_pinned() {
    let spec = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
    let rec = Arc::new(FlightRecorder::new());
    let session = Session::new().with_recorder(SpanSink::new(Arc::clone(&rec), "test"));
    session.run(&spec, &WorkloadSet::new()).unwrap();
    let spans = rec.spans();
    let runs: Vec<_> = spans.iter().filter(|s| s.name == "run").collect();
    assert_eq!(runs.len(), 46, "one simulation per distinct machine");
    let total = |key: &str| -> u64 {
        runs.iter()
            .map(|s| s.attr_u64(key).expect("every run span carries it"))
            .sum()
    };
    assert_eq!(
        [
            total("mem_chunks"),
            total("mem_chunk_spills"),
            total("line_finalizes"),
            total("line_finalizes_batched"),
            total("records"),
            total("dram_accesses"),
        ],
        [69_069, 724, 133_793, 122_998, 1_762_804, 91_243]
    );
}
