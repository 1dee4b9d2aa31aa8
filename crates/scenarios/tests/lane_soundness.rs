//! Soundness of the lane rule, by which one simulation times one machine
//! under several network models: lane `i` of `Simulator::try_new` must be
//! the run `Simulator::new` makes of the `i`-th configuration alone, report
//! field for report field and every `f64` bit for bit.
//!
//! Everything here runs `Simulator` directly. It never goes through
//! `Session` (which bundles cells into runs and so cannot check the rule),
//! and the differential runner's invariant 4 keeps simulating every network
//! model on its own: the two are the independent oracle. The test fails when
//! two lanes share one overlay: sent through the flit lane's wormhole mesh,
//! the bus lane's messages queue in it, and the flit lane runs slower than
//! the flit-level model alone.

use denovo_waste::{ScaleProfile, SimConfig, SimReport, Simulator};
use tw_scenarios::{synthesize, SynthConfig};
use tw_types::NetworkModelKind::{self, *};
use tw_types::ProtocolKind;
use tw_workloads::{BenchmarkKind, Workload};

/// Every network model together, the two timed models, and the analytic
/// lane behind another one.
const LANE_SETS: [&[NetworkModelKind]; 3] = [
    &[Analytic, FlitLevel, SnoopBus],
    &[FlitLevel, SnoopBus],
    &[SnoopBus, Analytic],
];

/// `protocol` on `scale`'s system, timed by `network`.
fn config(scale: ScaleProfile, protocol: ProtocolKind, network: NetworkModelKind) -> SimConfig {
    let mut system = scale.system();
    system.network = network;
    SimConfig::new(protocol).with_system(system)
}

/// Every `f64` of a report, as bits: `PartialEq` compares floats with `==`,
/// which cannot tell `0.0` from `-0.0`.
fn f64_bits(report: &SimReport) -> Vec<u64> {
    let mut bits: Vec<u64> = report.traffic.iter().map(|(_, _, v)| v.to_bits()).collect();
    for waste in [&report.l1_waste, &report.l2_waste, &report.mem_waste] {
        bits.extend(waste.flit_hops_iter().map(|(_, _, v)| v.to_bits()));
    }
    bits.extend([
        report.mesh_flit_hops.to_bits(),
        report.dram_row_hit_rate.to_bits(),
    ]);
    bits
}

/// Runs `workload` under each of `protocols` once per network model alone
/// and once per lane set, and requires every lane to equal its model's run.
fn check(scale: ScaleProfile, workload: &Workload, protocols: &[ProtocolKind], what: &str) {
    for &protocol in protocols {
        let alone = NetworkModelKind::ALL
            .map(|network| Simulator::new(config(scale, protocol, network), workload).run());
        for lanes in LANE_SETS {
            let configs = lanes.iter().map(|&n| config(scale, protocol, n)).collect();
            let reports = Simulator::try_new(configs, workload)
                .expect("one machine, distinct networks")
                .run_lanes();
            assert_eq!(reports.len(), lanes.len());
            for (&network, report) in lanes.iter().zip(&reports) {
                let model = NetworkModelKind::ALL.iter().position(|&n| n == network);
                let want = &alone[model.expect("a registered model")];
                let named = format!("{what}: {protocol} on the {network} lane of {lanes:?}");
                assert_eq!(report, want, "{named}");
                assert_eq!(f64_bits(report), f64_bits(want), "{named}");
            }
        }
    }
}

/// The paper's six inputs at `scale` under `protocols`.
fn check_the_paper_inputs(scale: ScaleProfile, protocols: &[ProtocolKind]) {
    let tiles = scale.system().tiles();
    for kind in BenchmarkKind::ALL {
        let workload = scale.try_workload(kind, tiles).unwrap();
        check(scale, &workload, protocols, kind.name());
    }
}

#[test]
fn a_lane_is_the_run_of_its_network_on_every_tiny_input() {
    check_the_paper_inputs(ScaleProfile::Tiny, &ProtocolKind::ALL);
}

#[test]
fn a_lane_is_the_run_of_its_network_on_synthesized_inputs() {
    let general = (0..6).map(synthesize);
    let streaming = (0..2).map(|seed| SynthConfig::streaming(seed).build());
    for (i, workload) in general.chain(streaming).enumerate() {
        let what = format!("synthesized #{i}");
        check(ScaleProfile::Tiny, &workload, &ProtocolKind::ALL, &what);
    }
}

/// The Scaled inputs under one protocol of each family (the three
/// `net_models` times): a hundred and eight Scaled simulations, some twenty
/// seconds in the release profile (where CI runs it), many minutes in the
/// dev profile.
#[test]
#[ignore = "Scaled inputs; CI runs it in the release profile"]
fn a_lane_is_the_run_of_its_network_on_every_scaled_input() {
    use ProtocolKind::*;
    check_the_paper_inputs(ScaleProfile::Scaled, &[Mesi, DBypFull, Dragon]);
}
