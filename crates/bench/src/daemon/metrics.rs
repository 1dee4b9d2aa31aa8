//! Service metrics for the experiments daemon.
//!
//! Lock-free counters recorded by connection handlers, rendered into the
//! `stats` response. Counts and microsecond latencies are plain `u64`
//! fields; derived rates (cells/sec, hit rate) are **fixed-precision
//! decimal strings**, because the wire JSON subset deliberately has no
//! floats (see `wire.rs`). Request latency is recorded into a fixed-bucket
//! log2 histogram ([`tw_obs::Log2Histogram`]), so `stats` reports
//! p50/p95/p99 alongside the average, and the `metrics` op renders the full
//! distribution in Prometheus text exposition format.

use denovo_waste::{CacheStats, Json, SessionCounters};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tw_obs::Log2Histogram;

/// Cumulative service counters since daemon start.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Submit requests read off the socket, whatever their body.
    requests: AtomicU64,
    /// Submit requests that produced a figures response.
    completed: AtomicU64,
    /// Submit requests that produced an error response (bad body or spec,
    /// run failure) or were refused by a shutting-down daemon.
    failed: AtomicU64,
    cells: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    /// Most submits running at once.
    queue_peak: AtomicU64,
    /// Latency (compile + execute) of completed submits.
    latency_us: Log2Histogram,
}

impl Metrics {
    /// Fresh counters; `started` anchors the cells/sec rate.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cells: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            latency_us: Log2Histogram::new(),
        }
    }

    /// Records a submit request read off the socket.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a submit starting to run; `running` counts it and every
    /// other submit running now (for the peak gauge).
    pub fn record_running(&self, running: u64) {
        self.queue_peak.fetch_max(running, Ordering::Relaxed);
    }

    /// Records a completed submit: its cache stats and its latency in
    /// microseconds.
    pub fn record_completed(&self, stats: &CacheStats, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.cells.fetch_add(stats.total(), Ordering::Relaxed);
        self.hits.fetch_add(stats.hits, Ordering::Relaxed);
        self.misses.fetch_add(stats.misses, Ordering::Relaxed);
        self.coalesced.fetch_add(stats.coalesced, Ordering::Relaxed);
        self.latency_us.record(latency_us);
    }

    /// Records a submit that ended in an error response.
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// The service's own counters and gauges, in `stats` order.
    fn service_rows(&self, running: u64, queue_cap: u64, workers: u64) -> [Row; 12] {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let uptime_us = (self.started.elapsed().as_micros()).min(u128::from(u64::MAX)) as u64;
        [
            Row::counter(
                "requests",
                "tw_daemon_requests_total",
                "Submit requests read off the socket",
                load(&self.requests),
            ),
            Row::counter(
                "completed",
                "tw_daemon_completed_total",
                "Submit requests that produced a figures response",
                load(&self.completed),
            ),
            Row::counter(
                "failed",
                "tw_daemon_failed_total",
                "Submit requests that produced an error response",
                load(&self.failed),
            ),
            Row::counter(
                "cells",
                "tw_daemon_cells_total",
                "Plan cells executed",
                load(&self.cells),
            ),
            Row::counter(
                "hits",
                "tw_daemon_cache_hits_total",
                "Cells served from the on-disk cache",
                load(&self.hits),
            ),
            Row::counter(
                "misses",
                "tw_daemon_cache_misses_total",
                "Cells simulated",
                load(&self.misses),
            ),
            Row::counter(
                "coalesced",
                "tw_daemon_cache_coalesced_total",
                "Cells served from the single-flight table",
                load(&self.coalesced),
            ),
            Row::gauge(
                "queue_depth",
                "tw_daemon_queue_depth",
                "Submits running right now",
                running,
            ),
            Row::gauge(
                "queue_peak",
                "tw_daemon_queue_peak",
                "Most submits running at once",
                load(&self.queue_peak),
            ),
            Row::gauge(
                "queue_cap",
                "tw_daemon_queue_cap",
                "Most connections served at once",
                queue_cap,
            ),
            Row::gauge(
                "workers",
                "tw_daemon_workers",
                "Most threads the session's pool starts",
                workers,
            ),
            Row::gauge(
                "uptime_us",
                "tw_daemon_uptime_us",
                "Microseconds since daemon start",
                uptime_us,
            ),
        ]
    }

    /// Renders the counters as the `stats` response fields. `running` is
    /// the submits running right now, `queue_cap` the connection cap,
    /// `workers` the pool's size; `session` is the shared session's
    /// reading.
    pub fn snapshot(
        &self,
        running: u64,
        queue_cap: u64,
        workers: u64,
        session: &SessionCounters,
    ) -> Vec<(String, Json)> {
        let service = self.service_rows(running, queue_cap, workers);
        let read = |key: &str| service.iter().find(|r| r.key == key).expect(key).value;
        let (cells, uptime_us) = (read("cells"), read("uptime_us"));
        let cells_per_sec = if uptime_us == 0 {
            0.0
        } else {
            cells as f64 / (uptime_us as f64 / 1e6)
        };
        let hit_rate = if cells == 0 {
            0.0
        } else {
            (read("hits") + read("coalesced")) as f64 / cells as f64
        };
        let uint = |key: &str, value: u64| (key.to_string(), Json::UInt(value));
        let latency = &self.latency_us;
        // Key order is the wire order `stats` clients have always read: the
        // service rows, the latency summary, the session rows.
        let mut fields: Vec<_> = service.iter().map(|r| uint(r.key, r.value)).collect();
        fields.extend([
            uint("latency_avg_us", latency.avg()),
            uint("latency_p50_us", latency.percentile(50)),
            uint("latency_p95_us", latency.percentile(95)),
            uint("latency_p99_us", latency.percentile(99)),
            uint("latency_max_us", latency.max()),
            (
                "cells_per_sec".into(),
                Json::Str(format!("{cells_per_sec:.2}")),
            ),
            ("hit_rate".into(), Json::Str(format!("{hit_rate:.4}"))),
        ]);
        fields.extend(session_rows(session).iter().map(|r| uint(r.key, r.value)));
        fields
    }

    /// Renders every counter, gauge and the histogram in Prometheus text
    /// exposition format — the body of the `metrics` wire op.
    pub fn render_prometheus(
        &self,
        running: u64,
        queue_cap: u64,
        workers: u64,
        session: &SessionCounters,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let service = self.service_rows(running, queue_cap, workers);
        for row in service.iter().chain(&session_rows(session)) {
            let Row { family, .. } = row;
            let _ = writeln!(out, "# HELP {family} {}", row.help);
            let _ = writeln!(out, "# TYPE {family} {}", row.kind);
            let _ = writeln!(out, "{family} {}", row.value);
        }
        out.push_str(&self.latency_us.render_prometheus(
            "tw_daemon_latency_us",
            "Submit latency, compile plus execute (microseconds)",
        ));
        out
    }
}

/// One counter or gauge, declared once: the key `stats` reports it under,
/// its exposition family with HELP text and TYPE, and its value now. Both
/// documents are rendered from these rows.
struct Row {
    key: &'static str,
    family: &'static str,
    help: &'static str,
    kind: &'static str,
    value: u64,
}

impl Row {
    fn counter(key: &'static str, family: &'static str, help: &'static str, value: u64) -> Row {
        Row {
            key,
            family,
            help,
            kind: "counter",
            value,
        }
    }

    fn gauge(key: &'static str, family: &'static str, help: &'static str, value: u64) -> Row {
        Row {
            kind: "gauge",
            ..Row::counter(key, family, help, value)
        }
    }
}

/// The shared session's reading, in `stats` order.
fn session_rows(session: &SessionCounters) -> [Row; 7] {
    [
        Row::counter(
            "workload_memo_hits_total",
            "tw_daemon_workload_memo_hits_total",
            "Workload lookups served from the session memo without generating",
            session.memo_hits,
        ),
        Row::counter(
            "workload_memo_builds_total",
            "tw_daemon_workload_memo_builds_total",
            "Workload lookups that made a memo entry, from a committed line or by the digest pass",
            session.memo_builds,
        ),
        Row::counter(
            "workload_digest_passes_total",
            "tw_daemon_workload_digest_passes_total",
            "Memo entries made by running a workload's digest pass",
            session.digest_passes,
        ),
        Row::counter(
            "workloads_materialized_total",
            "tw_daemon_workloads_materialized_total",
            "Digested workloads whose records a run built",
            session.workloads_materialized,
        ),
        Row::gauge(
            "flight_table_slots",
            "tw_daemon_flight_table_slots",
            "Slots in the session's single-flight table",
            session.flight_slots,
        ),
        Row::gauge(
            "pool_threads",
            "tw_daemon_pool_threads",
            "Threads the session's pool has started",
            session.pool_threads,
        ),
        Row::counter(
            "pool_batches_total",
            "tw_daemon_pool_batches_total",
            "Fan-outs of two or more items handed to the session's pool",
            session.pool_batches,
        ),
    ]
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(snap: &'a [(String, Json)], key: &str) -> &'a Json {
        &snap.iter().find(|(k, _)| k == key).expect(key).1
    }

    const SESSION: SessionCounters = SessionCounters {
        memo_hits: 6,
        memo_builds: 12,
        digest_passes: 3,
        workloads_materialized: 5,
        flight_slots: 2,
        pool_threads: 2,
        pool_batches: 9,
    };

    fn two_submits() -> Metrics {
        let m = Metrics::new();
        for running in [3, 1] {
            m.record_request();
            m.record_running(running);
        }
        m.record_completed(
            &CacheStats {
                hits: 4,
                misses: 1,
                coalesced: 1,
            },
            500,
        );
        m.record_completed(
            &CacheStats {
                hits: 0,
                misses: 2,
                coalesced: 0,
            },
            1500,
        );
        m.record_failed();
        m
    }

    #[test]
    fn snapshot_aggregates_and_rates() {
        let snap = two_submits().snapshot(2, 64, 4, &SESSION);
        assert_eq!(field(&snap, "requests").as_u64(), Ok(2));
        assert_eq!(field(&snap, "completed").as_u64(), Ok(2));
        assert_eq!(field(&snap, "failed").as_u64(), Ok(1));
        assert_eq!(field(&snap, "cells").as_u64(), Ok(8));
        assert_eq!(field(&snap, "hits").as_u64(), Ok(4));
        assert_eq!(field(&snap, "misses").as_u64(), Ok(3));
        assert_eq!(field(&snap, "coalesced").as_u64(), Ok(1));
        assert_eq!(field(&snap, "queue_peak").as_u64(), Ok(3));
        assert_eq!(field(&snap, "queue_depth").as_u64(), Ok(2));
        assert_eq!(field(&snap, "queue_cap").as_u64(), Ok(64));
        assert_eq!(field(&snap, "workers").as_u64(), Ok(4));
        assert_eq!(field(&snap, "latency_avg_us").as_u64(), Ok(1000));
        assert_eq!(field(&snap, "latency_max_us").as_u64(), Ok(1500));
        // (4 hits + 1 coalesced) / 8 cells = 0.625.
        assert_eq!(field(&snap, "hit_rate").as_str(), Ok("0.6250"));
        assert_eq!(field(&snap, "workload_memo_hits_total").as_u64(), Ok(6));
        assert_eq!(field(&snap, "workload_memo_builds_total").as_u64(), Ok(12));
        assert_eq!(field(&snap, "workload_digest_passes_total").as_u64(), Ok(3));
        assert_eq!(field(&snap, "workloads_materialized_total").as_u64(), Ok(5));
        assert_eq!(field(&snap, "flight_table_slots").as_u64(), Ok(2));
        assert_eq!(field(&snap, "pool_threads").as_u64(), Ok(2));
        assert_eq!(field(&snap, "pool_batches_total").as_u64(), Ok(9));
        // The whole snapshot must survive the wire's no-float JSON.
        let doc = Json::Obj(snap);
        assert_eq!(Json::parse(&doc.compact()).unwrap(), doc);
    }

    #[test]
    fn snapshot_percentiles_resolve_to_bucket_bounds_clamped_to_max() {
        let snap = two_submits().snapshot(2, 64, 4, &SESSION);
        // Latencies 500 and 1500: p50 is the [256,511] bucket bound, the
        // tail percentiles clamp to the observed max.
        assert_eq!(field(&snap, "latency_p50_us").as_u64(), Ok(511));
        assert_eq!(field(&snap, "latency_p95_us").as_u64(), Ok(1500));
        assert_eq!(field(&snap, "latency_p99_us").as_u64(), Ok(1500));
    }

    #[test]
    fn empty_service_reports_zero_rates() {
        let snap = Metrics::new().snapshot(0, 8, 1, &SessionCounters::default());
        assert_eq!(field(&snap, "hit_rate").as_str(), Ok("0.0000"));
        assert_eq!(field(&snap, "latency_avg_us").as_u64(), Ok(0));
        assert_eq!(field(&snap, "latency_p99_us").as_u64(), Ok(0));
    }

    #[test]
    fn every_counter_and_gauge_stats_key_has_exactly_one_exposition_family() {
        let m = two_submits();
        let snap = m.snapshot(2, 64, 4, &SESSION);
        let text = m.render_prometheus(2, 64, 4, &SESSION);
        // Families by TYPE line; the histogram covers the summary keys.
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter(|l| !l.ends_with(" histogram"))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        let rows: Vec<Row> = (m.service_rows(2, 64, 4).into_iter())
            .chain(session_rows(&SESSION))
            .collect();
        assert_eq!(rows.len(), 19);
        for row in &rows {
            assert!(field(&snap, row.key).as_u64().is_ok(), "{}", row.key);
            let n = families.iter().filter(|f| **f == row.family).count();
            assert_eq!(n, 1, "{} -> {}", row.key, row.family);
            assert_eq!(rows.iter().filter(|r| r.key == row.key).count(), 1);
        }
        assert_eq!(families.len(), rows.len(), "no family without a stats key");
        // Every other stats key is a summary of the histogram or a rate
        // derived from the rows.
        for (key, _) in &snap {
            assert!(
                rows.iter().any(|r| r.key == key)
                    || key.starts_with("latency_")
                    || key == "cells_per_sec"
                    || key == "hit_rate",
                "{key} is neither a row nor a summary"
            );
        }
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = two_submits().render_prometheus(2, 64, 4, &SESSION);
        assert!(text.contains("# TYPE tw_daemon_requests_total counter\n"));
        assert!(text.contains("tw_daemon_requests_total 2\n"));
        assert!(text.contains("tw_daemon_cells_total 8\n"));
        assert!(text.contains("# TYPE tw_daemon_workload_memo_hits_total counter\n"));
        assert!(text.contains("tw_daemon_workload_memo_builds_total 12\n"));
        assert!(text.contains("tw_daemon_workload_digest_passes_total 3\n"));
        assert!(text.contains("# TYPE tw_daemon_flight_table_slots gauge\n"));
        assert!(text.contains("# TYPE tw_daemon_workloads_materialized_total counter\n"));
        assert!(text.contains("tw_daemon_workloads_materialized_total 5\n"));
        assert!(text.contains("# TYPE tw_daemon_pool_threads gauge\n"));
        assert!(text.contains("tw_daemon_pool_batches_total 9\n"));
        assert!(text.contains("# TYPE tw_daemon_queue_depth gauge\n"));
        assert!(text.contains("# TYPE tw_daemon_latency_us histogram\n"));
        assert!(text.contains("tw_daemon_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("tw_daemon_latency_us_sum 2000\n"));
        assert!(text.contains("tw_daemon_latency_us_count 2\n"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty());
            assert!(value.parse::<u64>().is_ok(), "bad sample value: {line}");
        }
    }
}
