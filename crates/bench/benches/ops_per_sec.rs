//! End-to-end engine throughput in memory operations per second.
//!
//! Each benchmark runs one full *scaled* simulation cell (the same workload
//! size the `experiments all` matrix uses) and reports ops/sec via the
//! group's `Throughput::Elements` annotation — the `thrpt` column is the
//! number every optimization to the engine hot path is judged by (see
//! PERFORMANCE.md).
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
//!
//! CI runs `cargo bench -p tw-bench --bench ops_per_sec`, saves the output
//! next to `BENCH_results.json`, and fails if any cell regresses more than
//! 20% against `crates/bench/benches/ops_per_sec_baseline.json` (see
//! `tools/compare_throughput.py`). Refresh the baseline from the bench
//! output when an intentional engine change moves the numbers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use denovo_waste::{SimConfig, Simulator};
use std::hint::black_box;
use tw_types::ProtocolKind;
use tw_workloads::{build_scaled, BenchmarkKind};

const CELLS: [(BenchmarkKind, ProtocolKind); 7] = [
    (BenchmarkKind::Radix, ProtocolKind::Mesi),
    (BenchmarkKind::KdTree, ProtocolKind::Mesi),
    (BenchmarkKind::Radix, ProtocolKind::DBypFull),
    (BenchmarkKind::Lu, ProtocolKind::Mesi),
    (BenchmarkKind::Radix, ProtocolKind::Dragon),
    (BenchmarkKind::Radix, ProtocolKind::DValidateL2),
    (BenchmarkKind::Fft, ProtocolKind::DBypFull),
];

fn bench_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops_per_sec");
    group.sample_size(3);
    for (bench, proto) in CELLS {
        let workload = build_scaled(bench, 16).expect("scaled workload builds");
        let ops = workload.total_mem_ops() as u64;
        group.throughput(Throughput::Elements(ops));
        group.bench_function(&format!("{bench:?}_{proto:?}"), |b| {
            b.iter(|| black_box(Simulator::new(SimConfig::new(proto), &workload).run()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cells);
criterion_main!(benches);
