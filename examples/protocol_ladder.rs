//! Protocol ladder: walk a benchmark through every protocol configuration of
//! the paper, showing how each added optimization changes traffic, execution
//! time, and residual waste — a miniature version of Figures 5.1a and 5.2.
//!
//! Run with:
//! `cargo run -p denovo-waste --release --example protocol_ladder [benchmark]`
//! where `[benchmark]` is one of fluidanimate, lu, fft, radix, barnes,
//! kdtree (default: kdtree).

use denovo_waste::{SimConfig, Simulator};
use tw_types::ProtocolKind;
use tw_workloads::{BenchmarkKind, ScaleProfile};

fn parse_benchmark(name: &str) -> Option<BenchmarkKind> {
    match name.to_ascii_lowercase().as_str() {
        "fluidanimate" => Some(BenchmarkKind::Fluidanimate),
        "lu" => Some(BenchmarkKind::Lu),
        "fft" => Some(BenchmarkKind::Fft),
        "radix" => Some(BenchmarkKind::Radix),
        "barnes" => Some(BenchmarkKind::Barnes),
        "kdtree" | "kd-tree" => Some(BenchmarkKind::KdTree),
        _ => None,
    }
}

fn main() {
    let bench = std::env::args()
        .nth(1)
        .and_then(|a| parse_benchmark(&a))
        .unwrap_or(BenchmarkKind::KdTree);
    let workload = ScaleProfile::Scaled.try_workload(bench, 16).unwrap();
    println!(
        "benchmark: {bench} ({}), {} memory references",
        workload.input,
        workload.total_mem_ops()
    );
    println!(
        "\n{:<12} {:>14} {:>10} {:>14} {:>10} {:>8}",
        "protocol", "flit-hops", "vs MESI", "cycles", "vs MESI", "waste%"
    );

    let mut baseline = None;
    for protocol in ProtocolKind::ALL {
        let report = Simulator::new(SimConfig::new(protocol), &workload).run();
        let (t_rel, c_rel) = match &baseline {
            Some(base) => (
                report.traffic_relative_to(base),
                report.time_relative_to(base),
            ),
            None => (1.0, 1.0),
        };
        println!(
            "{:<12} {:>14.0} {:>9.1}% {:>14} {:>9.1}% {:>7.1}%",
            protocol.to_string(),
            report.total_flit_hops(),
            100.0 * t_rel,
            report.total_cycles,
            100.0 * c_rel,
            100.0 * report.waste_traffic_fraction()
        );
        if baseline.is_none() {
            baseline = Some(report);
        }
    }
}
