//! Service metrics for the experiments daemon.
//!
//! Lock-free counters recorded by connection handlers and workers, rendered
//! into the `stats` response. Counts and microsecond latencies are plain
//! `u64` fields; derived rates (cells/sec, hit rate) are **fixed-precision
//! decimal strings**, because the wire JSON subset deliberately has no
//! floats (see `wire.rs`). Queue-wait and request latency are recorded into
//! fixed-bucket log2 histograms ([`tw_obs::Log2Histogram`]), so `stats`
//! reports p50/p95/p99 alongside the averages, and the `metrics` op renders
//! the full distributions in Prometheus text exposition format.

use denovo_waste::{CacheStats, Json, SessionCounters};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tw_obs::Log2Histogram;

/// Cumulative service counters since daemon start.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Submit requests accepted off the socket (before queueing).
    requests: AtomicU64,
    /// Submit requests that produced a figures response.
    completed: AtomicU64,
    /// Submit requests that produced an error response (bad spec, run
    /// failure) or were refused by a closed/shutting-down queue.
    failed: AtomicU64,
    cells: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    /// Highest queue depth observed at any enqueue.
    queue_peak: AtomicU64,
    /// Time completed submits spent queued, one sample per request.
    queue_wait_us: Log2Histogram,
    /// End-to-end latency (queue + execute) of completed submits.
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
            queue_wait_us: Log2Histogram::new(),
            latency_us: Log2Histogram::new(),
        }
    }

    /// Records a submit request arriving; `queue_depth` is the depth it saw
    /// at enqueue (for the peak gauge).
    pub fn record_enqueue(&self, queue_depth: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.queue_peak.fetch_max(queue_depth, Ordering::Relaxed);
    }

    /// Records a completed submit: its cache stats, time spent queued, and
    /// total request latency (queue + execute), all in microseconds.
    pub fn record_completed(&self, stats: &CacheStats, queue_us: u64, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.cells.fetch_add(stats.total(), Ordering::Relaxed);
        self.hits.fetch_add(stats.hits, Ordering::Relaxed);
        self.misses.fetch_add(stats.misses, Ordering::Relaxed);
        self.coalesced.fetch_add(stats.coalesced, Ordering::Relaxed);
        self.queue_wait_us.record(queue_us);
        self.latency_us.record(latency_us);
    }

    /// Records a submit that ended in an error response.
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the counters as the `stats` response fields. `queue_depth`
    /// and `queue_cap` describe the work queue right now; `workers` is the
    /// pool size; `session` is the shared session's reading.
    pub fn snapshot(
        &self,
        queue_depth: u64,
        queue_cap: u64,
        workers: u64,
        session: &SessionCounters,
    ) -> Vec<(String, Json)> {
        let completed = self.completed.load(Ordering::Relaxed);
        let cells = self.cells.load(Ordering::Relaxed);
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let coalesced = self.coalesced.load(Ordering::Relaxed);
        let uptime_us = (self.started.elapsed().as_micros()).min(u128::from(u64::MAX)) as u64;
        let cells_per_sec = if uptime_us == 0 {
            0.0
        } else {
            cells as f64 / (uptime_us as f64 / 1e6)
        };
        let served = hits + coalesced;
        let hit_rate = if cells == 0 {
            0.0
        } else {
            served as f64 / cells as f64
        };
        vec![
            (
                "requests".into(),
                Json::UInt(self.requests.load(Ordering::Relaxed)),
            ),
            ("completed".into(), Json::UInt(completed)),
            (
                "failed".into(),
                Json::UInt(self.failed.load(Ordering::Relaxed)),
            ),
            ("cells".into(), Json::UInt(cells)),
            ("hits".into(), Json::UInt(hits)),
            ("misses".into(), Json::UInt(misses)),
            ("coalesced".into(), Json::UInt(coalesced)),
            ("queue_depth".into(), Json::UInt(queue_depth)),
            (
                "queue_peak".into(),
                Json::UInt(self.queue_peak.load(Ordering::Relaxed)),
            ),
            ("queue_cap".into(), Json::UInt(queue_cap)),
            ("workers".into(), Json::UInt(workers)),
            ("uptime_us".into(), Json::UInt(uptime_us)),
            (
                "queue_wait_avg_us".into(),
                Json::UInt(self.queue_wait_us.avg()),
            ),
            (
                "queue_wait_p50_us".into(),
                Json::UInt(self.queue_wait_us.percentile(50)),
            ),
            (
                "queue_wait_p95_us".into(),
                Json::UInt(self.queue_wait_us.percentile(95)),
            ),
            (
                "queue_wait_p99_us".into(),
                Json::UInt(self.queue_wait_us.percentile(99)),
            ),
            ("latency_avg_us".into(), Json::UInt(self.latency_us.avg())),
            (
                "latency_p50_us".into(),
                Json::UInt(self.latency_us.percentile(50)),
            ),
            (
                "latency_p95_us".into(),
                Json::UInt(self.latency_us.percentile(95)),
            ),
            (
                "latency_p99_us".into(),
                Json::UInt(self.latency_us.percentile(99)),
            ),
            ("latency_max_us".into(), Json::UInt(self.latency_us.max())),
            (
                "cells_per_sec".into(),
                Json::Str(format!("{cells_per_sec:.2}")),
            ),
            ("hit_rate".into(), Json::Str(format!("{hit_rate:.4}"))),
            (
                "workload_memo_hits_total".into(),
                Json::UInt(session.memo_hits),
            ),
            (
                "workload_memo_builds_total".into(),
                Json::UInt(session.memo_builds),
            ),
            (
                "workload_memo_resident_ops".into(),
                Json::UInt(session.memo_resident_ops),
            ),
            (
                "flight_table_slots".into(),
                Json::UInt(session.flight_slots),
            ),
        ]
    }

    /// Renders every counter, gauge and histogram in Prometheus text
    /// exposition format — the body of the `metrics` wire op.
    pub fn render_prometheus(
        &self,
        queue_depth: u64,
        queue_cap: u64,
        workers: u64,
        session: &SessionCounters,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "tw_daemon_requests_total",
            "Submit requests accepted off the socket",
            self.requests.load(Ordering::Relaxed),
        );
        counter(
            "tw_daemon_completed_total",
            "Submit requests that produced a figures response",
            self.completed.load(Ordering::Relaxed),
        );
        counter(
            "tw_daemon_failed_total",
            "Submit requests that produced an error response",
            self.failed.load(Ordering::Relaxed),
        );
        counter(
            "tw_daemon_cells_total",
            "Plan cells executed",
            self.cells.load(Ordering::Relaxed),
        );
        counter(
            "tw_daemon_cache_hits_total",
            "Cells served from the on-disk cache",
            self.hits.load(Ordering::Relaxed),
        );
        counter(
            "tw_daemon_cache_misses_total",
            "Cells simulated",
            self.misses.load(Ordering::Relaxed),
        );
        counter(
            "tw_daemon_cache_coalesced_total",
            "Cells served from the single-flight table",
            self.coalesced.load(Ordering::Relaxed),
        );
        counter(
            "tw_daemon_workload_memo_hits_total",
            "Workload lookups served from the session memo without generating",
            session.memo_hits,
        );
        counter(
            "tw_daemon_workload_memo_builds_total",
            "Workload lookups that generated and digested a workload",
            session.memo_builds,
        );
        let mut gauge = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "tw_daemon_queue_depth",
            "Work-queue depth right now",
            queue_depth,
        );
        gauge(
            "tw_daemon_queue_peak",
            "Highest queue depth observed at any enqueue",
            self.queue_peak.load(Ordering::Relaxed),
        );
        gauge("tw_daemon_queue_cap", "Work-queue capacity", queue_cap);
        gauge("tw_daemon_workers", "Worker pool size", workers);
        gauge(
            "tw_daemon_workload_memo_resident_ops",
            "Trace ops held by the session memo's resident workloads",
            session.memo_resident_ops,
        );
        gauge(
            "tw_daemon_flight_table_slots",
            "Slots in the session's single-flight table",
            session.flight_slots,
        );
        gauge(
            "tw_daemon_uptime_us",
            "Microseconds since daemon start",
            (self.started.elapsed().as_micros()).min(u128::from(u64::MAX)) as u64,
        );
        out.push_str(&self.queue_wait_us.render_prometheus(
            "tw_daemon_queue_wait_us",
            "Time completed submits spent queued (microseconds)",
        ));
        out.push_str(&self.latency_us.render_prometheus(
            "tw_daemon_latency_us",
            "End-to-end submit latency, queue plus execute (microseconds)",
        ));
        out
    }
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
        memo_resident_ops: 5_959_426,
        flight_slots: 2,
    };

    fn two_submits() -> Metrics {
        let m = Metrics::new();
        m.record_enqueue(3);
        m.record_enqueue(1);
        m.record_completed(
            &CacheStats {
                hits: 4,
                misses: 1,
                coalesced: 1,
            },
            100,
            500,
        );
        m.record_completed(
            &CacheStats {
                hits: 0,
                misses: 2,
                coalesced: 0,
            },
            300,
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
        assert_eq!(field(&snap, "queue_wait_avg_us").as_u64(), Ok(200));
        assert_eq!(field(&snap, "latency_avg_us").as_u64(), Ok(1000));
        assert_eq!(field(&snap, "latency_max_us").as_u64(), Ok(1500));
        // (4 hits + 1 coalesced) / 8 cells = 0.625.
        assert_eq!(field(&snap, "hit_rate").as_str(), Ok("0.6250"));
        assert_eq!(field(&snap, "workload_memo_hits_total").as_u64(), Ok(6));
        assert_eq!(field(&snap, "workload_memo_builds_total").as_u64(), Ok(12));
        assert_eq!(
            field(&snap, "workload_memo_resident_ops").as_u64(),
            Ok(5_959_426)
        );
        assert_eq!(field(&snap, "flight_table_slots").as_u64(), Ok(2));
        // The whole snapshot must survive the wire's no-float JSON.
        let doc = Json::Obj(snap);
        assert_eq!(Json::parse(&doc.compact()).unwrap(), doc);
    }

    #[test]
    fn snapshot_percentiles_resolve_to_bucket_bounds_clamped_to_max() {
        let snap = two_submits().snapshot(2, 64, 4, &SESSION);
        // Queue waits 100 and 300: p50 is the [64,127] bucket bound, the
        // tail percentiles clamp to the observed max.
        assert_eq!(field(&snap, "queue_wait_p50_us").as_u64(), Ok(127));
        assert_eq!(field(&snap, "queue_wait_p95_us").as_u64(), Ok(300));
        assert_eq!(field(&snap, "queue_wait_p99_us").as_u64(), Ok(300));
        // Latencies 500 and 1500: p50 is the [256,511] bound.
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
    fn prometheus_exposition_is_well_formed() {
        let text = two_submits().render_prometheus(2, 64, 4, &SESSION);
        assert!(text.contains("# TYPE tw_daemon_requests_total counter\n"));
        assert!(text.contains("tw_daemon_requests_total 2\n"));
        assert!(text.contains("tw_daemon_cells_total 8\n"));
        assert!(text.contains("# TYPE tw_daemon_workload_memo_hits_total counter\n"));
        assert!(text.contains("tw_daemon_workload_memo_builds_total 12\n"));
        assert!(text.contains("# TYPE tw_daemon_flight_table_slots gauge\n"));
        assert!(text.contains("tw_daemon_workload_memo_resident_ops 5959426\n"));
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
