//! One Criterion bench per table and figure of the paper's evaluation
//! section. Each bench measures regenerating that figure's data from a
//! reduced (tiny-scale) experiment matrix — the full-scale numbers recorded
//! in `EXPERIMENTS.md` come from the `experiments` binary instead, because a
//! full matrix takes minutes, not microseconds.

use criterion::{criterion_group, criterion_main, Criterion};
use denovo_waste::{PlanOutcome, SimConfig, Simulator};
use std::hint::black_box;
use tw_bench::run_bench_matrix;
use tw_types::ProtocolKind;
use tw_workloads::{build_tiny, BenchmarkKind};

fn matrix() -> PlanOutcome {
    run_bench_matrix().expect("the bench matrix must run")
}

fn bench_tables(c: &mut Criterion) {
    let outcome = matrix();
    c.bench_function("table4_1_config", |b| {
        b.iter(|| black_box(outcome.table_4_1()))
    });
    c.bench_function("table4_2_inputs", |b| {
        b.iter(|| black_box(outcome.table_4_2()))
    });
}

fn bench_traffic_figures(c: &mut Criterion) {
    let outcome = matrix();
    c.bench_function("fig5_1a_overall_traffic", |b| {
        b.iter(|| black_box(outcome.fig_5_1a()))
    });
    c.bench_function("fig5_1b_load_traffic", |b| {
        b.iter(|| black_box(outcome.fig_5_1b()))
    });
    c.bench_function("fig5_1c_store_traffic", |b| {
        b.iter(|| black_box(outcome.fig_5_1c()))
    });
    c.bench_function("fig5_1d_writeback_traffic", |b| {
        b.iter(|| black_box(outcome.fig_5_1d()))
    });
}

fn bench_time_and_waste_figures(c: &mut Criterion) {
    let outcome = matrix();
    c.bench_function("fig5_2_execution_time", |b| {
        b.iter(|| black_box(outcome.fig_5_2()))
    });
    c.bench_function("fig5_3a_l1_waste", |b| {
        b.iter(|| black_box(outcome.fig_5_3a()))
    });
    c.bench_function("fig5_3b_l2_waste", |b| {
        b.iter(|| black_box(outcome.fig_5_3b()))
    });
    c.bench_function("fig5_3c_memory_waste", |b| {
        b.iter(|| black_box(outcome.fig_5_3c()))
    });
    c.bench_function("headline_summary", |b| {
        b.iter(|| black_box(outcome.headline()))
    });
}

fn bench_single_runs(c: &mut Criterion) {
    // End-to-end simulation throughput for the two protocols at the ends of
    // the optimization ladder (the ablation the figures are built from).
    let mut group = c.benchmark_group("simulate_tiny_fft");
    group.sample_size(10);
    for protocol in [ProtocolKind::Mesi, ProtocolKind::DBypFull] {
        let workload = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        group.bench_function(protocol.name(), |b| {
            b.iter(|| {
                let sim = Simulator::new(SimConfig::new(protocol), &workload);
                black_box(sim.run().total_cycles)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(20);
    targets = bench_tables, bench_traffic_figures, bench_time_and_waste_figures, bench_single_runs
}
criterion_main!(figures);
