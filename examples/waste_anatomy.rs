//! Waste anatomy: reproduce the §4.1 waste characterization for one
//! benchmark, printing the words fetched into the L1s, into the L2, and from
//! memory, broken down by waste category (the data behind Figures 5.3a–5.3c).
//!
//! Run with:
//! `cargo run -p denovo-waste --release --example waste_anatomy [protocol]`
//! where `[protocol]` is one of the nine configurations (default: DBypFull).

use denovo_waste::{SimConfig, Simulator};
use tw_profiler::{WasteCategory, WasteReport};
use tw_types::ProtocolKind;
use tw_workloads::{build_scaled, BenchmarkKind};

fn print_report(level: &str, report: &WasteReport) {
    println!("\n-- words fetched into {level} --");
    let total = report.total_words().max(1) as f64;
    for category in WasteCategory::ALL {
        let words = report.words(category);
        if words > 0 {
            println!(
                "  {:<18} {:>12} words  ({:>5.1}%)",
                category.to_string(),
                words,
                100.0 * words as f64 / total
            );
        }
    }
    println!(
        "  {:<18} {:>12} words  (waste fraction {:.1}%)",
        "total",
        report.total_words(),
        100.0 * report.waste_fraction()
    );
}

fn main() {
    let protocol = std::env::args()
        .nth(1)
        .and_then(|a| ProtocolKind::by_name(&a).ok())
        .unwrap_or(ProtocolKind::DBypFull);
    let workload = build_scaled(BenchmarkKind::Fluidanimate, 16).unwrap();
    println!(
        "benchmark: {} ({}); protocol: {protocol}",
        workload.kind, workload.input
    );

    let report = Simulator::new(SimConfig::new(protocol), &workload).run();
    print_report("the L1 caches (Figure 5.3a)", &report.l1_waste);
    print_report("the shared L2 (Figure 5.3b)", &report.l2_waste);
    print_report("the chip from memory (Figure 5.3c)", &report.mem_waste);
    println!(
        "\nDRAM: {} accesses, {:.1}% row-buffer hit rate",
        report.dram_accesses,
        100.0 * report.dram_row_hit_rate
    );
}
