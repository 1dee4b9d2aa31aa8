//! Microbenchmarks of the substrate crates: cache arrays, Bloom filters,
//! mesh routing, DRAM timing, the waste profiler, Flex planning, the
//! workload generators, and simulator construction.

use criterion::{criterion_group, criterion_main, Criterion};
use denovo_waste::{SimConfig, Simulator};
use std::hint::black_box;
use tw_bloom::{BloomBank, BloomConfig};
use tw_dram::MemoryController;
use tw_mem::{CacheArray, CacheGeometry};
use tw_noc::{Mesh, NetworkModel, PacketSize, WormholeMesh};
use tw_profiler::{CacheLevel, CacheWasteProfiler};
use tw_protocols::flex_fetch_plan;
use tw_types::{
    Addr, DramConfig, LineAddr, MessageClass, NocConfig, ProtocolKind, SystemConfig, TileId,
};
use tw_workloads::{build_tiny, BenchmarkKind};

fn bench_cache_array(c: &mut Criterion) {
    c.bench_function("cache_array_insert_lookup", |b| {
        let geom = CacheGeometry::new(32 * 1024, 8, 64);
        b.iter(|| {
            let mut cache: CacheArray<u32> = CacheArray::new(geom);
            for i in 0..2048u64 {
                cache.insert(LineAddr::from_aligned(i * 64), i as u32);
                black_box(cache.contains(LineAddr::from_aligned((i / 2) * 64)));
            }
            cache.len()
        })
    });
}

fn bench_bloom(c: &mut Criterion) {
    c.bench_function("bloom_bank_insert_query", |b| {
        b.iter(|| {
            let mut bank = BloomBank::counting(BloomConfig::default());
            for i in 0..4096u64 {
                bank.insert(LineAddr::from_aligned(i * 64));
            }
            let mut hits = 0;
            for i in 0..4096u64 {
                if bank.may_contain(LineAddr::from_aligned(i * 128)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn bench_mesh(c: &mut Criterion) {
    c.bench_function("mesh_send_full_line", |b| {
        let noc = NocConfig::default();
        b.iter(|| {
            let mut mesh = Mesh::new(noc.clone());
            let size = PacketSize::with_data_words(&noc, 16);
            for i in 0..1024u64 {
                let src = TileId((i % 16) as usize);
                let dst = TileId(((i * 7) % 16) as usize);
                black_box(mesh.send(src, dst, size, i));
            }
            mesh.total_flit_hops()
        })
    });
}

fn bench_flit_mesh(c: &mut Criterion) {
    // The flit-level counterpart of `mesh_send_full_line`: same send
    // pattern through the wormhole simulator, so the trajectory artifacts
    // track the cost ratio of the two network models.
    c.bench_function("wormhole_mesh_send_full_line", |b| {
        let noc = NocConfig::default();
        b.iter(|| {
            let mut mesh = WormholeMesh::new(noc.clone());
            let size = PacketSize::with_data_words(&noc, 16);
            for i in 0..1024u64 {
                let src = TileId((i % 16) as usize);
                let dst = TileId(((i * 7) % 16) as usize);
                black_box(mesh.send(src, dst, size, i));
            }
            mesh.total_queueing_cycles()
        })
    });
}

fn bench_dram(c: &mut Criterion) {
    c.bench_function("dram_fr_fcfs_access", |b| {
        b.iter(|| {
            let mut mc = MemoryController::new(DramConfig::default());
            let mut t = 0;
            for i in 0..2048u64 {
                t = mc.access(
                    LineAddr::from_aligned(i * 64 * 7 % (1 << 24)),
                    i % 3 == 0,
                    t,
                );
            }
            black_box(mc.stats().row_hits)
        })
    });
}

fn bench_profiler(c: &mut Criterion) {
    c.bench_function("l1_waste_profiler_churn", |b| {
        b.iter(|| {
            let mut p = CacheWasteProfiler::new(CacheLevel::L1);
            for i in 0..4096u64 {
                let a = Addr::new(i * 4);
                p.arrive(a, i % 5 == 0, 1.5, MessageClass::Load);
                match i % 4 {
                    0 => p.loaded(a),
                    1 => p.stored(a),
                    2 => p.evicted(a),
                    _ => {}
                }
            }
            black_box(p.finish().total_words())
        })
    });
}

fn bench_flex_planning(c: &mut Criterion) {
    let workload = build_tiny(BenchmarkKind::Barnes, 16).unwrap();
    let sys = SystemConfig::default();
    c.bench_function("flex_fetch_plan_barnes_cells", |b| {
        b.iter(|| {
            let mut words = 0;
            for i in 0..512u64 {
                let addr = Addr::new(0x2000_0000 + i * 200);
                let plan = flex_fetch_plan(&workload.regions, addr, sys.cache.line_bytes);
                words += plan.total_words();
            }
            black_box(words)
        })
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generation");
    group.sample_size(10);
    for bench in BenchmarkKind::ALL {
        group.bench_function(bench.name(), |b| {
            b.iter(|| black_box(build_tiny(bench, 16).unwrap().total_mem_ops()))
        });
    }
    group.finish();
}

fn bench_simulator_new(c: &mut Criterion) {
    // Construction alone: what every cell pays before its first record, and
    // most of a Tiny cell. MESI builds no Bloom state; DBypFull, the one
    // protocol that reads it, builds all 272 banks.
    let workload = build_tiny(BenchmarkKind::Fft, 16).unwrap();
    let mut group = c.benchmark_group("simulator_new");
    for protocol in [ProtocolKind::Mesi, ProtocolKind::DBypFull] {
        group.bench_function(&format!("{protocol:?}"), |b| {
            b.iter(|| black_box(Simulator::new(SimConfig::new(protocol), &workload).protocol()))
        });
    }
    group.finish();
}

criterion_group! {
    name = substrates;
    config = Criterion::default().sample_size(20);
    targets = bench_cache_array, bench_bloom, bench_mesh, bench_flit_mesh, bench_dram, bench_profiler,
              bench_flex_planning, bench_workload_generation, bench_simulator_new
}
criterion_main!(substrates);
