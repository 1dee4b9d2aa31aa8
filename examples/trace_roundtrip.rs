//! Run a workload, save it as a trace file, replay the file, and verify the
//! replay is bit-identical — the record/replay workflow end to end.
//!
//! ```text
//! cargo run --release -p denovo-waste --example trace_roundtrip
//! ```

use denovo_waste::{SimConfig, Simulator};
use tw_trace::TraceDocument;
use tw_types::ProtocolKind;
use tw_workloads::{build_tiny, BenchmarkKind, Workload};

fn main() {
    // 1. Run one (protocol × benchmark) cell.
    let workload = build_tiny(BenchmarkKind::Radix, 16).unwrap();
    let cfg = SimConfig::new(ProtocolKind::DBypFull);
    let recorded = Simulator::new(cfg.clone(), &workload).run();
    println!(
        "recorded {} / {}: {} cycles, {:.0} flit-hops",
        workload.kind,
        recorded.protocol,
        recorded.total_cycles,
        recorded.total_flit_hops()
    );

    // 2. Persist the workload it ran to a trace file (binary format).
    let path = std::env::temp_dir().join("denovo-waste-roundtrip.trace");
    let doc = workload.to_trace();
    doc.save(&path, false).expect("write trace");
    let bytes = std::fs::metadata(&path).expect("stat trace").len();
    let stats = doc.total_stats();
    println!(
        "wrote {} ({} bytes for {} mem ops, ~{:.2} bytes/op)",
        path.display(),
        bytes,
        stats.mem_ops(),
        bytes as f64 / stats.ops.max(1) as f64
    );

    // 3. Load it back and replay it as a first-class workload.
    let loaded = TraceDocument::load(&path).expect("read trace");
    let replay_wl = Workload::from_trace(loaded).expect("replayable trace");
    let replayed = Simulator::new(cfg, &replay_wl).run();
    println!(
        "replayed {} / {}: {} cycles, {:.0} flit-hops",
        replay_wl.kind,
        replayed.protocol,
        replayed.total_cycles,
        replayed.total_flit_hops()
    );

    // 4. The determinism guarantee: replay is bit-identical.
    assert_eq!(recorded, replayed, "replay must reproduce the run exactly");
    println!("replay is bit-identical to the recorded run");

    // 5. The same trace drives any other protocol configuration.
    let mesi = Simulator::new(SimConfig::new(ProtocolKind::Mesi), &replay_wl).run();
    println!(
        "same trace under MESI: {} cycles, {:.0} flit-hops ({:.3}x the traffic)",
        mesi.total_cycles,
        mesi.total_flit_hops(),
        mesi.total_flit_hops() / replayed.total_flit_hops()
    );

    std::fs::remove_file(&path).ok();
}
