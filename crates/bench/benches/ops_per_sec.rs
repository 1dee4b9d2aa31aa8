//! End-to-end engine throughput in memory operations per second.
//!
//! Each benchmark runs one full *scaled* simulation cell (the same workload
//! size the `experiments all` matrix uses) three times and reports memory
//! operations per second of the fastest run — the `thrpt` column is the
//! number every optimization to the engine hot path is judged by (see
//! PERFORMANCE.md). A plain `main` (`harness = false`): `--test` runs each
//! cell once, untimed (the CI smoke mode), and any other non-flag argument
//! keeps only the cells whose label contains it.
//!
//! The cells are chosen to cover the regimes that dominate matrix wall time:
//! Radix and KdTree under MESI are the two slowest cells (directory +
//! whole-line profiling pressure), Radix under DBypFull exercises the
//! word-granularity DeNovo path, LU under MESI is a small-footprint cell
//! that catches regressions in raw per-op dispatch cost, and Radix under
//! Dragon tracks the write-update design point (same workload as the two
//! invalidation Radix cells, so the three protocol families stay directly
//! comparable in the trajectory). Radix under DValidateL2 is a DeNovo cell
//! that never reads a Bloom filter — it pays for none since PR 13 — and FFT
//! under DBypFull is the bypass-heavy cell of the one protocol that does.
//! That last cell runs twice more, on the flit-level wormhole mesh and on
//! the snooping bus (`_flit` / `_bus` suffix), so the gate covers the timed
//! network overlays too: same workload and protocol as its analytic twin,
//! hence the ratio between the three is the network model's cost alone.
//!
//! CI runs `cargo bench -p tw-bench --bench ops_per_sec`, saves the output
//! next to `BENCH_results.json`, and fails if any cell regresses more than
//! 20% against `crates/bench/benches/ops_per_sec_baseline.json` (see
//! `tools/compare_throughput.py`). Refresh the baseline from the bench
//! output when an intentional engine change moves the numbers.

use denovo_waste::{SimConfig, Simulator};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tw_types::{NetworkModelKind, ProtocolKind, SystemConfig};
use tw_workloads::{build_scaled, BenchmarkKind};

use NetworkModelKind::{Analytic, FlitLevel, SnoopBus};

const CELLS: [(BenchmarkKind, ProtocolKind, NetworkModelKind); 9] = [
    (BenchmarkKind::Radix, ProtocolKind::Mesi, Analytic),
    (BenchmarkKind::KdTree, ProtocolKind::Mesi, Analytic),
    (BenchmarkKind::Radix, ProtocolKind::DBypFull, Analytic),
    (BenchmarkKind::Lu, ProtocolKind::Mesi, Analytic),
    (BenchmarkKind::Radix, ProtocolKind::Dragon, Analytic),
    (BenchmarkKind::Radix, ProtocolKind::DValidateL2, Analytic),
    (BenchmarkKind::Fft, ProtocolKind::DBypFull, Analytic),
    (BenchmarkKind::Fft, ProtocolKind::DBypFull, FlitLevel),
    (BenchmarkKind::Fft, ProtocolKind::DBypFull, SnoopBus),
];

/// Timed runs of each cell; the report line carries their mean and minimum.
const SAMPLES: u32 = 3;

fn main() {
    // Cargo passes `--bench`; every other flag but `--test` is ignored.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let filters: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();

    for (bench, proto, network) in CELLS {
        let suffix = match network {
            Analytic => String::new(),
            timed => format!("_{}", timed.name()),
        };
        let label = format!("ops_per_sec/{bench:?}_{proto:?}{suffix}");
        if !filters.is_empty() && !filters.iter().any(|f| label.contains(f.as_str())) {
            continue;
        }
        let workload = build_scaled(bench, 16).expect("scaled workload builds");
        let ops = workload.total_mem_ops() as f64;
        let system = SystemConfig {
            network,
            ..SystemConfig::default()
        };
        let run = || {
            let cfg = SimConfig::new(proto).with_system(system.clone());
            black_box(Simulator::new(cfg, &workload).run());
        };
        if test_mode {
            run();
            println!("Testing {label}: ok");
            continue;
        }
        let (mut total, mut min) = (Duration::ZERO, Duration::MAX);
        for _ in 0..SAMPLES {
            let started = Instant::now();
            run();
            let took = started.elapsed();
            total += took;
            min = min.min(took);
        }
        let mean = total / SAMPLES;
        let per_sec = ops / min.as_secs_f64();
        println!(
            "{label:<40} mean {mean:>12.2?}   min {min:>12.2?}   thrpt {per_sec:.0} elem/s   ({SAMPLES} samples x 1 iters)"
        );
    }
}
