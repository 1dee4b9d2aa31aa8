//! Unit costs of the substrate crates, from fixed-size seeded drivers over
//! each crate's public API (the patterns of `crates/bench/benches/
//! substrates.rs`, with the numbers kept). Inputs are generated from the
//! seed before the clock starts; each driver runs several times and
//! reports the median time per event.

use crate::specs::SplitMix64;
use crate::stats;
use crate::workloads::Metric;
use std::hint::black_box;
use std::time::Instant;
use tw_bloom::{BloomBank, BloomConfig};
use tw_dram::MemoryController;
use tw_mem::{CacheArray, CacheGeometry, WriteCombineTable};
use tw_noc::{model_for, PacketSize};
use tw_profiler::{CacheLevel, CacheWasteProfiler, MemoryWasteProfiler};
use tw_protocols::flex_fetch_plan;
use tw_types::{
    Addr, DramConfig, FastMap, LineAddr, MessageClass, NetworkModelKind, NocConfig, SystemConfig,
    TileId, WordIdx,
};
use tw_workloads::{build_tiny, BenchmarkKind};

const REPS: usize = 5;

/// Median nanoseconds per event of `body` over [`REPS`] runs, each on a
/// fresh state from `fresh` (built before the clock starts).
fn ns_per_event<S>(
    events: usize,
    mut fresh: impl FnMut() -> S,
    mut body: impl FnMut(&mut S) -> u64,
) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = fresh();
            let t = Instant::now();
            black_box(body(&mut state));
            t.elapsed().as_nanos() as f64 / events as f64
        })
        .collect();
    stats::median(&samples)
}

/// `n` seeded word addresses within a `span_bytes` footprint.
fn addresses(rng: &mut SplitMix64, n: usize, span_bytes: u64) -> Vec<Addr> {
    (0..n)
        .map(|_| Addr::new(rng.below(span_bytes / 4) * 4))
        .collect()
}

fn lines(rng: &mut SplitMix64, n: usize, span_bytes: u64) -> Vec<LineAddr> {
    (0..n)
        .map(|_| LineAddr::from_aligned(rng.below(span_bytes / 64) * 64))
        .collect()
}

/// One `send` through each network model, behind the trait object the
/// engine calls it through, plus the wormhole event queue's peak depth.
fn noc(rng: &mut SplitMix64, out: &mut Vec<Metric>) {
    let cfg = NocConfig::default();
    let tiles = cfg.cols * cfg.rows;
    let sends: Vec<(TileId, TileId, PacketSize, u64)> = (0..16_384u64)
        .map(|i| {
            let words = [0, 1, 4, 16][rng.below(4) as usize];
            let src = rng.below(tiles as u64) as usize;
            (
                TileId(src),
                TileId((src + 1 + rng.below(tiles as u64 - 1) as usize) % tiles),
                PacketSize::with_data_words(&cfg, words),
                i * 3 + rng.below(3),
            )
        })
        .collect();
    for (name, kind) in [
        ("noc.mesh_send_ns", NetworkModelKind::Analytic),
        ("noc.wormhole_send_ns", NetworkModelKind::FlitLevel),
        ("noc.bus_send_ns", NetworkModelKind::SnoopBus),
    ] {
        let mut high_water = 0;
        let ns = ns_per_event(
            sends.len(),
            || model_for(kind, cfg.clone()),
            |net| {
                let mut last = 0;
                for &(src, dst, size, now) in &sends {
                    last = net.send(src, dst, size, now);
                }
                high_water = net.queue_high_water();
                last
            },
        );
        out.push(Metric::new(name, ns, "ns"));
        if kind == NetworkModelKind::FlitLevel {
            out.push(Metric::new(
                "noc.wormhole_queue_high_water",
                high_water as f64,
                "count",
            ));
        }
    }
}

/// Arrive / use / evict churn through the three waste profilers, and the
/// end-of-run `finish` that classifies what is still pending.
fn profilers(rng: &mut SplitMix64, out: &mut Vec<Metric>) {
    let addrs = addresses(rng, 65_536, 1 << 20);
    let cache_churn = |p: &mut CacheWasteProfiler| {
        for (i, &a) in addrs.iter().enumerate() {
            p.arrive(a, i % 5 == 0, 1.5, MessageClass::Load);
            match i % 4 {
                0 => p.loaded(a),
                1 => p.stored(a),
                2 => p.evicted(a),
                _ => {}
            }
        }
        p.pending_words() as u64
    };
    // Two events per address: the arrival and what happens to the word.
    for (name, level) in [
        ("profiler.l1_event_ns", CacheLevel::L1),
        ("profiler.l2_event_ns", CacheLevel::L2),
    ] {
        let ns = ns_per_event(
            addrs.len() * 2,
            || CacheWasteProfiler::new(level),
            cache_churn,
        );
        out.push(Metric::new(name, ns, "ns"));
    }
    let ns = ns_per_event(addrs.len() * 2, MemoryWasteProfiler::new, |p| {
        for (i, &a) in addrs.iter().enumerate() {
            p.fetched(a, i % 5 == 0, 2.5);
            match i % 4 {
                0 => p.loaded(a),
                1 => p.stored(a),
                2 => p.evicted(a),
                _ => {}
            }
        }
        p.pending_instances() as u64
    });
    out.push(Metric::new("profiler.mem_event_ns", ns, "ns"));

    let finish_ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut p = CacheWasteProfiler::new(CacheLevel::L1);
            cache_churn(&mut p);
            let t = Instant::now();
            black_box(p.finish().total_words());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.push(Metric::new(
        "profiler.finish_ms",
        stats::median(&finish_ms),
        "ms",
    ));
}

fn dram_bloom_mem_types(rng: &mut SplitMix64, out: &mut Vec<Metric>) {
    let dram_lines = lines(rng, 32_768, 1 << 24);
    let ns = ns_per_event(
        dram_lines.len(),
        || MemoryController::new(DramConfig::default()),
        |mc| {
            let mut t = 0;
            for (i, &l) in dram_lines.iter().enumerate() {
                t = mc.access(l, i % 3 == 0, t);
            }
            t
        },
    );
    out.push(Metric::new("dram.access_ns", ns, "ns"));

    let members = lines(rng, 32_768, 1 << 22);
    let probes = lines(rng, 32_768, 1 << 23);
    let fresh_bank = || BloomBank::counting(BloomConfig::default());
    let ns = ns_per_event(members.len(), fresh_bank, |bank| {
        for &l in &members {
            bank.insert(l);
        }
        members.len() as u64
    });
    out.push(Metric::new("bloom.insert_ns", ns, "ns"));
    let ns = ns_per_event(
        probes.len(),
        || {
            let mut bank = fresh_bank();
            members.iter().for_each(|&l| bank.insert(l));
            bank
        },
        |bank| probes.iter().filter(|&&l| bank.may_contain(l)).count() as u64,
    );
    out.push(Metric::new("bloom.query_ns", ns, "ns"));

    // An L1-sized array under a footprint eight times its capacity: one
    // insert and one lookup per event pair.
    let geom = CacheGeometry::new(32 * 1024, 8, 64);
    let cache_lines = lines(rng, 32_768, 256 * 1024);
    let ns = ns_per_event(
        cache_lines.len() * 2,
        || CacheArray::<u32>::new(geom),
        |cache| {
            let mut found = 0;
            for (i, &l) in cache_lines.iter().enumerate() {
                cache.insert(l, i as u32);
                found += u64::from(cache.contains(cache_lines[i / 2]));
            }
            found
        },
    );
    out.push(Metric::new("mem.cache_array_ns", ns, "ns"));

    let writes: Vec<(LineAddr, WordIdx)> = lines(rng, 32_768, 64 * 1024)
        .into_iter()
        .map(|l| (l, WordIdx(rng.below(16) as u8)))
        .collect();
    let ns = ns_per_event(
        writes.len(),
        || WriteCombineTable::new(32, 10_000, 16),
        |table| {
            let mut flushed = 0;
            for (i, &(l, w)) in writes.iter().enumerate() {
                flushed += table.record_write(l, w, i as u64).len() as u64;
            }
            flushed
        },
    );
    out.push(Metric::new("mem.write_combine_ns", ns, "ns"));

    let keys: Vec<u64> = (0..65_536).map(|_| rng.below(1 << 20)).collect();
    let ns = ns_per_event(
        keys.len(),
        || {
            let mut map = FastMap::new();
            for &k in &keys[..keys.len() / 2] {
                map.insert(k, k);
            }
            map
        },
        |map| keys.iter().filter(|&&k| map.get(k).is_some()).count() as u64,
    );
    out.push(Metric::new("types.fastmap_probe_ns", ns, "ns"));
}

/// Flex transfer planning over the Barnes region table (the one benchmark
/// whose regions exercise multi-field structures).
fn flex(rng: &mut SplitMix64, out: &mut Vec<Metric>) -> Result<(), String> {
    let workload = build_tiny(BenchmarkKind::Barnes, 16)?;
    let line_bytes = SystemConfig::default().cache.line_bytes;
    let addrs: Vec<Addr> = (0..8_192)
        .map(|_| Addr::new(0x2000_0000 + rng.below(512 * 200 / 4) * 4))
        .collect();
    let ns = ns_per_event(
        addrs.len(),
        || (),
        |()| {
            addrs
                .iter()
                .map(|&a| flex_fetch_plan(&workload.regions, a, line_bytes).total_words() as u64)
                .sum()
        },
    );
    out.push(Metric::new("protocols.flex_plan_ns", ns, "ns"));
    Ok(())
}

/// Every substrate unit cost, with address streams drawn from `seed`.
pub fn measure(seed: u64) -> Result<Vec<Metric>, String> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    noc(&mut rng, &mut out);
    profilers(&mut rng, &mut out);
    dram_bloom_mem_types(&mut rng, &mut out);
    flex(&mut rng, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_driver_reports_a_positive_cost() {
        let metrics = measure(11).unwrap();
        assert_eq!(metrics.len(), 15);
        for m in &metrics {
            assert!(m.value > 0.0, "{} = {}", m.name, m.value);
        }
    }
}
