//! Quickstart: simulate one benchmark under MESI and the fully optimized
//! DeNovo protocol and print where the traffic went.
//!
//! Run with: `cargo run -p denovo-waste --release --example quickstart`

use denovo_waste::{SimConfig, Simulator};
use tw_types::{MessageClass, ProtocolKind};
use tw_workloads::{BenchmarkKind, ScaleProfile};

fn main() {
    let workload = ScaleProfile::Scaled
        .try_workload(BenchmarkKind::Radix, 16)
        .unwrap();
    println!(
        "workload: {} ({}), {} memory references across {} cores",
        workload.kind,
        workload.input,
        workload.total_mem_ops(),
        workload.cores()
    );

    let mut baseline = None;
    for protocol in [ProtocolKind::Mesi, ProtocolKind::DBypFull] {
        let report = Simulator::new(SimConfig::new(protocol), &workload).run();
        println!("\n== {protocol} ==");
        println!("execution time: {} cycles", report.total_cycles);
        println!("network traffic: {:.0} flit-hops", report.total_flit_hops());
        for class in MessageClass::ALL {
            println!(
                "  {:8} {:>12.0} flit-hops",
                class.to_string(),
                report.traffic.class_total(class)
            );
        }
        println!(
            "wasted data traffic: {:.1}% of all flit-hops",
            100.0 * report.waste_traffic_fraction()
        );
        if let Some(base) = &baseline {
            println!(
                "relative to MESI: {:.1}% of the traffic, {:.1}% of the time",
                100.0 * report.traffic_relative_to(base),
                100.0 * report.time_relative_to(base)
            );
        } else {
            baseline = Some(report);
        }
    }
}
