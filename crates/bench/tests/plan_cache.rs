//! Properties of the content-addressed result cache.
//!
//! The cache's contract: a warm re-run returns **bit-identical** reports
//! (reusing `SimReport`'s exact `PartialEq` from the determinism work)
//! without running the simulator, and *any* change to a key component — a trace
//! byte, the protocol, a geometry field, the engine version — misses instead
//! of serving a stale result. Plus the spec-codec property: every
//! representable spec round-trips through its JSON form.

use denovo_waste::{
    cache_key, ExperimentSpec, PlanOutcome, ScaleProfile, Session, SimConfig, Simulator,
    SystemVariant, WorkloadSet, WorkloadSpec, ENGINE_VERSION,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tw_obs::{AttrValue, FlightRecorder, SpanSink};
use tw_scenarios::synthesize;
use tw_types::{Digest, NetworkModelKind, ProtocolKind, Record, SystemConfig, TraceOp};

/// A fresh per-test cache directory under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tw-plan-cache-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// How many simulations a cold run of `spec` takes: one per distinct
/// machine, counted by the rule itself — a cell whose protocol adds only
/// what its workload's annotations cannot exercise is the machine below it.
fn distinct_machines(spec: &ExperimentSpec) -> u64 {
    let plan = spec.compile(&WorkloadSet::new()).unwrap();
    let machines: std::collections::BTreeSet<_> = plan
        .cells
        .iter()
        .map(|c| (&c.row, c.protocol.effective_for(&c.workload.regions)))
        .collect();
    machines.len() as u64
}

/// Re-runs `spec` from the cache in `dir` on a fresh session with the flight
/// recorder armed, and requires that the simulator never ran: no `run` or
/// `phase` span, one `cell` span per cell, each a disk hit, and no generated
/// workload's records built — compile only digested them. That, not a
/// wall-clock ratio, is why a warm run is fast.
fn warm_run_without_simulating(spec: &ExperimentSpec, dir: &Path) -> PlanOutcome {
    let rec = Arc::new(FlightRecorder::new());
    let session = Session::new()
        .with_cache_dir(dir)
        .with_recorder(SpanSink::new(Arc::clone(&rec), "warm"));
    let warm = session.run(spec, &WorkloadSet::new()).unwrap();
    assert_eq!(session.counters().workloads_materialized, 0);
    let spans = rec.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("run"), 0, "a warm run simulates nothing");
    assert_eq!(count("phase"), 0, "a warm run steps no phase");
    assert_eq!(count("cell"), warm.cells());
    let disk_hit = ("outcome".to_string(), AttrValue::from("disk_hit"));
    for cell in spans.iter().filter(|s| s.name == "cell") {
        assert!(cell.attrs.contains(&disk_hit), "{cell:?}");
    }
    warm
}

#[test]
fn warm_rerun_of_the_full_tiny_matrix_is_bit_identical_and_never_simulates() {
    let dir = fresh_dir("warm-rerun");
    let spec = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
    let session = Session::new().with_cache_dir(&dir);
    let none = WorkloadSet::new();
    let machines = distinct_machines(&spec);
    assert!(machines < 54, "the paper matrix has alias cells");

    let cold = session.run(&spec, &none).unwrap();
    assert_eq!(
        (cold.cache.hits, cold.cache.misses, cold.cache.coalesced),
        (0, machines, 54 - machines)
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count() as u64, machines);
    // Each of the six workloads is built once, by the first of its runs.
    assert_eq!(session.counters().workloads_materialized, 6);

    let warm = warm_run_without_simulating(&spec, &dir);
    assert_eq!(warm.cache.hits, 54, "warm re-run must be 100% cache hits");
    assert_eq!(warm.cache.misses, 0);
    assert!((warm.cache.hit_rate() - 1.0).abs() < 1e-12);

    // Bit-identical reports (SimReport's PartialEq is exact, including every
    // f64), and therefore byte-identical figure output.
    assert_eq!(
        warm.reports, cold.reports,
        "cached reports must be bit-identical"
    );
    assert_eq!(
        tw_bench::plan_figures_json(&warm).unwrap(),
        tw_bench::plan_figures_json(&cold).unwrap(),
        "figure JSON must be byte-identical across cold/warm runs"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Tiny FFT under MESI with one L2 variant: one cell, one run.
fn fft_with_l2(label: &str, l2_slice_bytes: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi],
        vec![tw_workloads::BenchmarkKind::Fft],
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
    let cache = fresh_dir("rerun-builds");
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

    // Same workload, other machine: the new plan's run builds the records
    // again.
    let other = session
        .compile(&fft_with_l2("l2-16k", 16 << 10), &none)
        .unwrap();
    assert_eq!(plan.cells[0].workload_ref, other.cells[0].workload_ref);
    session.execute(&other).unwrap();
    assert_eq!(session.counters().workloads_materialized, 3);
    let _ = std::fs::remove_dir_all(&cache);
}

/// One-workload, one-protocol spec over a provided synthesized workload.
fn synth_spec(protocol: ProtocolKind) -> ExperimentSpec {
    let mut spec = ExperimentSpec::subset(vec![protocol], vec![], ScaleProfile::Tiny);
    spec.name = "cache-mutation".into();
    spec.workloads = vec![WorkloadSpec::provided("synth")];
    spec
}

#[test]
fn mutating_any_key_component_misses() {
    let dir = fresh_dir("key-mutation");
    let session = Session::new().with_cache_dir(&dir);
    let wl = synthesize(3);
    let mut set = WorkloadSet::new();
    set.insert("synth", wl.clone());

    // Prime the cache and prove the baseline hits.
    let spec = synth_spec(ProtocolKind::Mesi);
    assert_eq!(session.run(&spec, &set).unwrap().cache.misses, 1);
    assert_eq!(session.run(&spec, &set).unwrap().cache.hits, 1);

    // (1) One trace byte: lengthen a compute burst by a cycle. The workload
    // is still well-formed, but its content digest — and so the key — moves.
    let mut mutated = wl.clone();
    let (op, cycles) = mutated.traces[0]
        .iter_mut()
        .find_map(|op| match op.view() {
            Record::Compute { cycles } => Some((op, cycles)),
            _ => None,
        })
        .expect("synthesized workloads contain compute bursts");
    *op = TraceOp::compute(cycles + 1);
    let mut mutated_set = WorkloadSet::new();
    mutated_set.insert("synth", mutated);
    let out = session.run(&spec, &mutated_set).unwrap();
    assert_eq!(
        (out.cache.hits, out.cache.misses),
        (0, 1),
        "a single trace byte must miss"
    );

    // (2) The protocol.
    let out = session
        .run(&synth_spec(ProtocolKind::DeNovo), &set)
        .unwrap();
    assert_eq!(
        (out.cache.hits, out.cache.misses),
        (0, 1),
        "a different protocol must miss"
    );

    // (3) A geometry field (l2_slice_bytes).
    let mut l2 = synth_spec(ProtocolKind::Mesi);
    l2.variants = vec![SystemVariant::l2_slice("l2-64k", 64 * 1024)];
    let out = session.run(&l2, &set).unwrap();
    assert_eq!(
        (out.cache.hits, out.cache.misses),
        (0, 1),
        "a different L2 slice size must miss"
    );

    // (4) The engine version (the key function is pure, so this is provable
    // without monkey-patching the const).
    let sys = SystemConfig::default();
    let digest = Digest::of_bytes(b"same-trace");
    assert_ne!(
        cache_key(digest, &sys, ProtocolKind::Mesi, ENGINE_VERSION),
        cache_key(digest, &sys, ProtocolKind::Mesi, "denovo-waste/engine-v999"),
        "an engine-version bump must retire every entry"
    );

    // Nothing above disturbed the original entries: the primed cell still hits.
    assert_eq!(session.run(&spec, &set).unwrap().cache.hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn network_model_is_a_cache_key_component() {
    let dir = fresh_dir("network-key");
    let session = Session::new().with_cache_dir(&dir);
    let mut set = WorkloadSet::new();
    set.insert("synth", synthesize(3));

    // Prime the cache under the (default) analytic model.
    let spec = synth_spec(ProtocolKind::Mesi);
    assert_eq!(session.run(&spec, &set).unwrap().cache.misses, 1);
    assert_eq!(session.run(&spec, &set).unwrap().cache.hits, 1);

    // Flipping NetworkModelKind on the otherwise-identical cell must miss:
    // the models report different execution times, so a cross-model hit
    // would serve wrong numbers.
    let mut flit = synth_spec(ProtocolKind::Mesi);
    flit.networks = vec![NetworkModelKind::FlitLevel];
    let out = session.run(&flit, &set).unwrap();
    assert_eq!(
        (out.cache.hits, out.cache.misses),
        (0, 1),
        "a different network model must miss"
    );

    // ... and both entries now coexist: each model re-runs warm.
    assert_eq!(session.run(&spec, &set).unwrap().cache.hits, 1);
    assert_eq!(session.run(&flit, &set).unwrap().cache.hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_run_serves_every_network_model_of_a_cell_under_its_own_key() {
    let dir = fresh_dir("lanes");
    let session = Session::new().with_cache_dir(&dir);
    let mut set = WorkloadSet::new();
    set.insert("synth", synthesize(3));
    // The update protocol too: the session must equal a lone `Simulator`
    // under Dragon on a synthesized workload, as the update-vs-invalidate
    // figure's plan relies on.
    let mut spec = synth_spec(ProtocolKind::Mesi);
    spec.protocols
        .extend([ProtocolKind::DBypFull, ProtocolKind::Dragon]);
    spec.networks = NetworkModelKind::ALL.to_vec();
    let plan = session.compile(&spec, &set).unwrap();

    // Nine cells, nine keys, three runs: one per protocol, a lane per
    // network.
    let groups = session.groups(&plan);
    let runs: std::collections::BTreeSet<usize> = groups.iter().map(|g| g.run).collect();
    assert_eq!(runs.len(), 3);
    for (i, (cell, group)) in plan.cells.iter().zip(&groups).enumerate() {
        assert_eq!(group.leader, i);
        let head = &plan.cells[group.run];
        assert!(head.shares_run_with(cell) && head.protocol == cell.protocol);
    }

    // Every report is the simulation of its cell alone, and each key has
    // its own entry.
    let cold = session.execute(&plan).unwrap();
    let counts = |c: denovo_waste::CacheStats| (c.hits, c.misses, c.coalesced);
    assert_eq!(counts(cold.cache), (0, 9, 0));
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 9);
    for cell in &plan.cells {
        let config = SimConfig::new(cell.protocol).with_system(cell.system.clone());
        let alone = Simulator::new(config, &cell.workload).run();
        assert_eq!(cold.reports[&(cell.row.clone(), cell.protocol)], alone);
    }

    // One lane's entry lost: that key alone is simulated, its run's other
    // lanes are read from the disk.
    let lost = &plan.cells[plan.cells.len() - 1];
    std::fs::remove_file(dir.join(format!("{}.json", session.key_of(lost)))).unwrap();
    let warm = session.execute(&plan).unwrap();
    assert_eq!(counts(warm.cache), (8, 1, 0));
    assert_eq!(warm.reports, cold.reports);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_flit_level_rerun_is_bit_identical_and_never_simulates() {
    // The flit-level model gets the same cache bar as the analytic one: a
    // warm full-Tiny-matrix re-run is 100% hits, bit-identical, and never
    // reaches the simulator.
    let dir = fresh_dir("warm-flit");
    let mut spec = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
    spec.networks = vec![NetworkModelKind::FlitLevel];
    let session = Session::new().with_cache_dir(&dir);

    let cold = session.run(&spec, &WorkloadSet::new()).unwrap();
    assert_eq!(
        (cold.cache.hits, cold.cache.misses),
        (0, distinct_machines(&spec))
    );
    assert_eq!(session.counters().workloads_materialized, 6);

    let warm = warm_run_without_simulating(&spec, &dir);
    assert_eq!((warm.cache.hits, warm.cache.misses), (54, 0));
    assert_eq!(
        warm.reports, cold.reports,
        "cached flit-level reports must be bit-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entries_are_recomputed_not_trusted() {
    let dir = fresh_dir("corrupt");
    let session = Session::new().with_cache_dir(&dir);
    let mut set = WorkloadSet::new();
    set.insert("synth", synthesize(5));
    let spec = synth_spec(ProtocolKind::DBypFull);

    let cold = session.run(&spec, &set).unwrap();
    assert_eq!(cold.cache.misses, 1);

    // Garble every entry in the cache directory.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::write(&path, b"{ not a cache entry").unwrap();
    }

    let warm = session.run(&spec, &set).unwrap();
    assert_eq!(
        (warm.cache.hits, warm.cache.misses),
        (0, 1),
        "a corrupt entry must be a miss, not a parse failure or a stale hit"
    );
    assert_eq!(warm.reports, cold.reports);

    // The recompute overwrote the corrupt entry, so the next run hits again.
    assert_eq!(session.run(&spec, &set).unwrap().cache.hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_whose_strings_need_escapes_is_stored_and_hit() {
    let dir = fresh_dir("escapes");
    let mut workload = synthesize(5);
    workload.input = "input \"q\" \\ \n\t\u{1} \u{e9}\u{20ac}".to_string();
    let name = "synth \"q\" \\ \n\u{1d11e}";
    let mut set = WorkloadSet::new();
    set.insert(name, workload);
    let mut spec = synth_spec(ProtocolKind::Mesi);
    spec.workloads = vec![WorkloadSpec::provided(name)];

    let cold = Session::new()
        .with_cache_dir(&dir)
        .run(&spec, &set)
        .unwrap();
    assert_eq!(cold.cache.misses, 1);
    let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
    let text = std::fs::read_to_string(entry.path()).unwrap();
    for escaped in [r#""input \"q\" \\ \n\t\u0001"#, r#""synth \"q\" \\ \n"#] {
        assert!(text.contains(escaped), "{escaped} in {text}");
    }

    let warm = Session::new()
        .with_cache_dir(&dir)
        .run(&spec, &set)
        .unwrap();
    assert_eq!((warm.cache.hits, warm.cache.misses), (1, 0));
    assert_eq!(warm.reports, cold.reports);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The registry extension names round-trip explicitly: a spec pinning the
/// Dragon protocol and the snooping-bus network must survive the JSON codec
/// with both names spelled out in the document (older specs omit the
/// `protocols` key entirely and decode to the paper's figure set).
#[test]
fn dragon_and_bus_specs_round_trip_through_plan_json() {
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi, ProtocolKind::Dragon],
        vec![tw_workloads::BenchmarkKind::Fft],
        ScaleProfile::Tiny,
    );
    spec.networks = vec![NetworkModelKind::Analytic, NetworkModelKind::SnoopBus];
    let text = spec.to_json();
    assert!(text.contains("Dragon"), "protocol name missing:\n{text}");
    assert!(text.contains("bus"), "network name missing:\n{text}");
    let back = ExperimentSpec::from_json(&text).unwrap();
    assert_eq!(back, spec);

    // Decode-side acceptance is case-insensitive like every by_name.
    let lowered = text.replace("Dragon", "dragon");
    assert_eq!(ExperimentSpec::from_json(&lowered).unwrap(), spec);
}

/// Builds a representable spec from proptest-drawn raw parts.
fn spec_from_raw(
    scale_i: usize,
    proto_mask: u16,
    workload_raw: &[(u8, u8)],
    variant_raw: &[(u8, u8)],
    network_mask: u8,
    baseline_i: usize,
) -> ExperimentSpec {
    let scale = [
        ScaleProfile::Paper,
        ScaleProfile::Scaled,
        ScaleProfile::Tiny,
    ][scale_i % 3];
    let protocols: Vec<ProtocolKind> = ProtocolKind::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| proto_mask & (1 << i) != 0)
        .map(|(_, p)| p)
        .collect();
    let workloads = workload_raw
        .iter()
        .enumerate()
        .map(|(i, (kind, which))| {
            let name = format!("w{i}");
            match kind % 3 {
                0 => WorkloadSpec {
                    name,
                    source: denovo_waste::WorkloadSource::Bench(
                        tw_workloads::BenchmarkKind::ALL[*which as usize % 6],
                    ),
                },
                1 => WorkloadSpec::trace(name, format!("traces/t{which}.trace")),
                _ => WorkloadSpec {
                    name,
                    source: denovo_waste::WorkloadSource::Provided(format!("p{which}")),
                },
            }
        })
        .collect();
    let variants = variant_raw
        .iter()
        .enumerate()
        .map(|(i, (kind, k))| {
            let label = format!("v{i}");
            let k = u64::from(*k % 6);
            match kind % 4 {
                0 => SystemVariant::l2_slice(label, 1024 << k),
                1 => SystemVariant::mesh(label, 2 + k as usize, 2 + (k as usize / 2)),
                2 => SystemVariant {
                    l1_bytes: Some(4096 << k),
                    ..SystemVariant::base()
                },
                _ => SystemVariant::network(
                    label,
                    NetworkModelKind::ALL[k as usize % NetworkModelKind::ALL.len()],
                ),
            }
        })
        .enumerate()
        .map(|(i, mut v)| {
            v.label = format!("v{i}");
            v
        })
        .collect();
    let networks = match network_mask % 5 {
        0 => Vec::new(),
        1 => vec![NetworkModelKind::Analytic],
        2 => vec![NetworkModelKind::FlitLevel],
        3 => vec![NetworkModelKind::SnoopBus],
        _ => NetworkModelKind::ALL.to_vec(),
    };
    let baseline = protocols[baseline_i % protocols.len().max(1)];
    ExperimentSpec {
        name: "prop-spec".into(),
        scale,
        protocols,
        workloads,
        variants,
        networks,
        baseline,
    }
}

proptest! {
    /// Any representable spec round-trips exactly through its JSON document.
    #[test]
    fn spec_json_round_trips(
        scale_i in 0usize..3,
        proto_mask in 1u16..1024,
        workload_raw in prop::collection::vec((0u8..3, 0u8..8), 1..6),
        variant_raw in prop::collection::vec((0u8..4, 0u8..8), 0..5),
        network_mask in 0u8..5,
        baseline_i in 0usize..10,
    ) {
        let spec = spec_from_raw(
            scale_i, proto_mask, &workload_raw, &variant_raw, network_mask, baseline_i,
        );
        let text = spec.to_json();
        let back = ExperimentSpec::from_json(&text).unwrap();
        prop_assert_eq!(back, spec);
    }
}
