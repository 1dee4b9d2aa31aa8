//! The daemon family: serve / submit / stats / metrics / shutdown / loadgen
//! (one-line summaries: `cli.rs`).

use crate::cli::Args;
use denovo_waste::ExperimentSpec;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tw_bench::daemon::client::Client;

/// The `--socket PATH` every daemon command's row marks required.
fn socket(args: &Args) -> PathBuf {
    let path = args.value("--socket");
    path.expect("the parser enforces required flags").into()
}

/// `serve`: `--cache DIR` defaults to `.exp-cache` (the CLI convention);
/// `--no-cache` runs memory-only.
pub fn serve(args: &Args) -> Result<ExitCode, String> {
    let mut config = tw_bench::daemon::Config::new(socket(args));
    config.cache_dir =
        (!args.has("--no-cache")).then(|| args.value("--cache").unwrap_or(".exp-cache").into());
    config.workers = args.number("--workers", config.workers)?;
    config.queue_cap = args.number("--queue", config.queue_cap)?;
    config.record = args.value("--record").map(Into::into);
    eprintln!(
        "serving experiments on {} ({} workers, queue of {}, cache {})",
        config.socket.display(),
        config.workers.max(1),
        config.queue_cap,
        config
            .cache_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".to_string()),
    );
    tw_bench::daemon::serve(&config)?;
    if let Some(path) = &config.record {
        eprintln!("wrote {}", path.display());
    }
    eprintln!("daemon shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

/// The `--json` document is byte-identical to `plan run --json` of the spec.
pub fn submit(args: &Args) -> Result<ExitCode, String> {
    let path = &args.operands()[0];
    let spec_text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut client = Client::connect(&socket(args))?;
    let reply = client.submit(&spec_text)?;
    println!(
        "plan `{}`: cells={} hits={} misses={} coalesced={} queue_us={} exec_us={}",
        reply.plan,
        reply.cells,
        reply.hits,
        reply.misses,
        reply.coalesced,
        reply.queue_us,
        reply.exec_us,
    );
    if let Some(out) = args.value("--json") {
        crate::write_file(out, &reply.figures)?;
    }
    Ok(ExitCode::SUCCESS)
}

pub fn stats(args: &Args) -> Result<ExitCode, String> {
    print!("{}", Client::connect(&socket(args))?.stats()?.pretty());
    Ok(ExitCode::SUCCESS)
}

pub fn metrics(args: &Args) -> Result<ExitCode, String> {
    print!("{}", Client::connect(&socket(args))?.metrics()?);
    Ok(ExitCode::SUCCESS)
}

pub fn shutdown(args: &Args) -> Result<ExitCode, String> {
    let socket = socket(args);
    Client::connect(&socket)?.shutdown()?;
    println!("daemon at {} is shutting down", socket.display());
    Ok(ExitCode::SUCCESS)
}

/// The measured-QPS answer to "how fast does this serve sharing-pattern
/// sweeps": N persistent clients submit the same plan. `--json OUT` writes
/// the document committed as `BENCH_service_baseline.json`.
pub fn loadgen(args: &Args) -> Result<ExitCode, String> {
    use denovo_waste::Json;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let socket = socket(args);
    let requests = args.number("--requests", 16u64)?;
    let clients = args.number("--clients", 2u64)?.max(1);
    if requests == 0 {
        return Err("--requests 0 would measure nothing".to_string());
    }
    let spec_text = match args.value("--spec") {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => ExperimentSpec::full_matrix(args.scale()).to_json(),
    };

    eprintln!(
        "loadgen: {requests} requests from {clients} clients against {}...",
        socket.display()
    );
    let next = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let socket = socket.clone();
            let spec_text = spec_text.clone();
            let next = Arc::clone(&next);
            std::thread::spawn(move || -> Result<(u64, u64, u64, u64, u64, u64), String> {
                let mut client = Client::connect(&socket)?;
                let (mut cells, mut hits, mut misses, mut coalesced) = (0, 0, 0, 0);
                let (mut lat_sum_us, mut lat_max_us) = (0u64, 0u64);
                while next.fetch_add(1, Ordering::Relaxed) < requests {
                    let t = Instant::now();
                    let reply = client.submit(&spec_text)?;
                    let us = t.elapsed().as_micros() as u64;
                    lat_sum_us += us;
                    lat_max_us = lat_max_us.max(us);
                    cells += reply.cells;
                    hits += reply.hits;
                    misses += reply.misses;
                    coalesced += reply.coalesced;
                }
                Ok((cells, hits, misses, coalesced, lat_sum_us, lat_max_us))
            })
        })
        .collect();
    let (mut cells, mut hits, mut misses, mut coalesced) = (0u64, 0u64, 0u64, 0u64);
    let (mut lat_sum_us, mut lat_max_us) = (0u64, 0u64);
    for handle in handles {
        let (c, h, m, co, sum, max) = handle.join().map_err(|_| "a client panicked")??;
        cells += c;
        hits += h;
        misses += m;
        coalesced += co;
        lat_sum_us += sum;
        lat_max_us = lat_max_us.max(max);
    }
    let wall = started.elapsed();

    // The daemon-side view (queue depth/peak, service-lifetime rates).
    let mut client = Client::connect(&socket)?;
    let stats = client.stats()?;
    let daemon_fields: Vec<(String, Json)> = stats
        .as_obj()
        .map_err(|e| format!("stats response: {e}"))?
        .iter()
        .filter(|(k, _)| k != "status" && k != "op")
        .cloned()
        .collect();
    let queue_peak = stats.get("queue_peak").and_then(|v| v.as_u64().ok());

    let wall_us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
    let secs = (wall_us as f64 / 1e6).max(1e-9);
    let cells_per_sec = cells as f64 / secs;
    let requests_per_sec = requests as f64 / secs;
    let hit_rate = if cells == 0 {
        0.0
    } else {
        (hits + coalesced) as f64 / cells as f64
    };
    println!(
        "loadgen: {requests} requests x {} cells in {:.2?} — {:.1} cells/sec, {:.1} req/sec, hit rate {:.3}, queue peak {}",
        cells / requests.max(1),
        wall,
        cells_per_sec,
        requests_per_sec,
        hit_rate,
        queue_peak.map(|q| q.to_string()).unwrap_or_default(),
    );

    if let Some(out) = args.value("--json") {
        // Deterministic request accounting up front; every wall-clock
        // measurement is quarantined in the `timing` block (the same
        // convention as the bench-results sidecar and the flight-recorder
        // span grammar), so tooling can byte-diff the document after
        // dropping exactly one sub-object.
        let doc = Json::Obj(vec![
            (
                "schema".to_string(),
                Json::str("denovo-waste/service-baseline/v2"),
            ),
            ("requests".to_string(), Json::UInt(requests)),
            ("clients".to_string(), Json::UInt(clients)),
            ("cells".to_string(), Json::UInt(cells)),
            ("hits".to_string(), Json::UInt(hits)),
            ("misses".to_string(), Json::UInt(misses)),
            ("coalesced".to_string(), Json::UInt(coalesced)),
            ("hit_rate".to_string(), Json::Str(format!("{hit_rate:.4}"))),
            (
                "timing".to_string(),
                Json::Obj(vec![
                    ("wall_us".to_string(), Json::UInt(wall_us)),
                    (
                        "cells_per_sec".to_string(),
                        Json::Str(format!("{cells_per_sec:.2}")),
                    ),
                    (
                        "requests_per_sec".to_string(),
                        Json::Str(format!("{requests_per_sec:.2}")),
                    ),
                    (
                        "latency_avg_us".to_string(),
                        Json::UInt(lat_sum_us / requests),
                    ),
                    ("latency_max_us".to_string(), Json::UInt(lat_max_us)),
                ]),
            ),
            ("daemon".to_string(), Json::Obj(daemon_fields)),
        ]);
        crate::write_file(out, doc.pretty())?;
    }
    Ok(ExitCode::SUCCESS)
}
