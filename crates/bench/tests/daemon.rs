//! End-to-end tests of the experiments daemon: an in-process `serve` thread
//! plus real Unix-socket clients.
//!
//! The load-bearing property is **byte-identity**: a plan submitted over
//! the socket must return exactly the bytes `experiments plan run --json`
//! (i.e. `tw_bench::plan_figures_json`) writes for the same spec. The rest
//! is service semantics: warm hits, coalesced concurrent submits, metrics,
//! error responses, clean shutdown.

use denovo_waste::{ExperimentSpec, ScaleProfile, Session, SystemVariant, WorkloadSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tw_bench::daemon::{client::Client, serve, Config};
use tw_types::ProtocolKind;
use tw_workloads::BenchmarkKind;

struct Daemon {
    config: Config,
    thread: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// Serves in a background thread and waits until the socket answers.
    fn start(name: &str, cache: bool) -> Daemon {
        Self::start_with(name, cache, false)
    }

    /// Like [`Daemon::start`], optionally arming the flight recorder. The
    /// trace file lands *outside* the scratch directory so it survives
    /// [`Daemon::stop`] for inspection.
    fn start_with(name: &str, cache: bool, record: bool) -> Daemon {
        let scratch = std::env::temp_dir().join(format!("tw-daemon-{name}"));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        let mut config = Config::new(scratch.join("exp.sock"));
        config.cache_dir = cache.then(|| scratch.join("cache"));
        config.workers = 2;
        config.queue_cap = 8;
        config.record =
            record.then(|| std::env::temp_dir().join(format!("tw-daemon-{name}-flight.jsonl")));
        let thread = std::thread::spawn({
            let config = config.clone();
            move || serve(&config)
        });
        let daemon = Daemon {
            config,
            thread: Some(thread),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut c) = Client::connect(&daemon.config.socket) {
                if c.ping().is_ok() {
                    return daemon;
                }
            }
            assert!(Instant::now() < deadline, "daemon did not come up");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.config.socket).unwrap()
    }

    /// Sends `shutdown`, joins the serve thread, and asserts the socket
    /// file is gone.
    fn stop(mut self) {
        self.connect().shutdown().unwrap();
        self.thread.take().unwrap().join().unwrap().unwrap();
        assert!(
            !self.config.socket.exists(),
            "clean shutdown must remove the socket file"
        );
        let _ = std::fs::remove_dir_all(self.config.socket.parent().unwrap());
    }
}

/// 2 protocols x 2 tiny benches = 4 cells; about a second cold.
fn small_spec() -> ExperimentSpec {
    ExperimentSpec::subset(
        vec![ProtocolKind::Mesi, ProtocolKind::DBypFull],
        vec![BenchmarkKind::Fft, BenchmarkKind::Radix],
        ScaleProfile::Tiny,
    )
}

#[test]
fn submit_is_byte_identical_to_a_direct_run_and_warm_hits() {
    let daemon = Daemon::start("byte-identity", true);
    let spec = small_spec();
    let spec_text = spec.to_json();

    let mut client = daemon.connect();
    assert!(client.ping().unwrap().contains("engine"));

    // Cold: everything simulates.
    let cold = client.submit(&spec_text).unwrap();
    assert_eq!(cold.cells, 4);
    assert_eq!((cold.hits, cold.misses, cold.coalesced), (0, 4, 0));

    // The response body is byte-for-byte the CLI's figures document.
    let direct = Session::new().run(&spec, &WorkloadSet::new()).unwrap();
    let direct_json = tw_bench::plan_figures_json(&direct).unwrap();
    assert_eq!(
        cold.figures,
        direct_json.as_bytes(),
        "daemon figures must be byte-identical to plan_figures_json"
    );

    // Warm: served entirely from the shared cache, same bytes.
    let warm = client.submit(&spec_text).unwrap();
    assert_eq!((warm.hits, warm.misses, warm.coalesced), (4, 0, 0));
    assert_eq!(warm.figures, cold.figures);

    // Metrics agree with what just happened.
    let stats = client.stats().unwrap();
    let get = |k: &str| stats.get(k).unwrap().as_u64().unwrap();
    assert_eq!(get("requests"), 2);
    assert_eq!(get("completed"), 2);
    assert_eq!(get("failed"), 0);
    assert_eq!(get("cells"), 8);
    assert_eq!(get("hits"), 4);
    assert_eq!(get("misses"), 4);
    assert_eq!(stats.get("hit_rate").unwrap().as_str().unwrap(), "0.5000");
    // The second submit regenerated nothing: both of the spec's workloads
    // came out of the session's memo. The cache directory has every entry,
    // so the flight table has let go of all four slots.
    assert_eq!(get("workload_memo_builds_total"), 2);
    assert_eq!(get("workload_memo_hits_total"), 2);
    assert!(get("workload_memo_resident_ops") > 0);
    assert_eq!(get("flight_table_slots"), 0);

    daemon.stop();
}

/// Reads one un-labeled sample (`name value`) out of a Prometheus text
/// exposition.
fn scrape(text: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("`{name}` not in exposition:\n{text}"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn stats_exposes_latency_percentiles_in_order() {
    let daemon = Daemon::start("percentiles", true);
    let spec_text = small_spec().to_json();
    let mut client = daemon.connect();
    client.submit(&spec_text).unwrap();
    client.submit(&spec_text).unwrap();

    let stats = client.stats().unwrap();
    let get = |k: &str| {
        stats
            .get(k)
            .unwrap_or_else(|| panic!("stats lacks `{k}`"))
            .as_u64()
            .unwrap()
    };
    // The histogram percentiles resolve to log2 bucket upper bounds clamped
    // to the observed maximum (exact pins live in the metrics unit tests);
    // end-to-end they must exist, be ordered, and bound the average.
    let (p50, p95, p99) = (
        get("latency_p50_us"),
        get("latency_p95_us"),
        get("latency_p99_us"),
    );
    assert!(p50 > 0, "two real submits took nonzero time");
    assert!(p50 <= p95 && p95 <= p99, "percentiles must be monotone");
    assert!(p99 <= get("latency_max_us"), "p99 is clamped to the max");
    assert!(get("latency_avg_us") <= get("latency_max_us"));
    let (q50, q95, q99) = (
        get("queue_wait_p50_us"),
        get("queue_wait_p95_us"),
        get("queue_wait_p99_us"),
    );
    assert!(q50 <= q95 && q95 <= q99);

    daemon.stop();
}

#[test]
fn metrics_exposition_is_well_formed_and_monotone() {
    let daemon = Daemon::start("metrics-op", true);
    let spec_text = small_spec().to_json();
    let mut client = daemon.connect();
    client.submit(&spec_text).unwrap();
    let m1 = client.metrics().unwrap();
    client.submit(&spec_text).unwrap();
    let m2 = client.metrics().unwrap();

    for needle in [
        "# TYPE tw_daemon_requests_total counter",
        "# TYPE tw_daemon_latency_us histogram",
        "tw_daemon_latency_us_bucket{le=\"+Inf\"}",
        "tw_daemon_queue_wait_us_bucket{le=\"+Inf\"}",
        "tw_daemon_workers 2",
    ] {
        assert!(m2.contains(needle), "missing `{needle}` in:\n{m2}");
    }
    // Counters are monotone across the two scrapes.
    assert_eq!(scrape(&m1, "tw_daemon_requests_total"), 1);
    assert_eq!(scrape(&m2, "tw_daemon_requests_total"), 2);
    assert_eq!(scrape(&m2, "tw_daemon_completed_total"), 2);
    assert!(
        scrape(&m2, "tw_daemon_cells_total") > scrape(&m1, "tw_daemon_cells_total"),
        "the second submit added cells"
    );
    assert_eq!(scrape(&m2, "tw_daemon_latency_us_count"), 2);
    assert_eq!(scrape(&m1, "tw_daemon_workload_memo_hits_total"), 0);
    assert_eq!(
        scrape(&m2, "tw_daemon_workload_memo_hits_total"),
        scrape(&m2, "tw_daemon_workload_memo_builds_total")
    );
    // The cold submit's runs built the spec's two workloads; the warm one,
    // served from the cache, built none.
    assert_eq!(scrape(&m1, "tw_daemon_workloads_materialized_total"), 2);
    assert_eq!(scrape(&m2, "tw_daemon_workloads_materialized_total"), 2);

    daemon.stop();
}

#[test]
fn recording_daemon_writes_a_valid_trace_with_request_and_cell_spans() {
    let daemon = Daemon::start_with("recording", true, true);
    let trace_path = daemon.config.record.clone().unwrap();
    let spec_text = small_spec().to_json();
    let mut client = daemon.connect();
    let cold = client.submit(&spec_text).unwrap();
    assert_eq!(cold.misses, 4);
    let warm = client.submit(&spec_text).unwrap();
    assert_eq!(warm.hits, 4);
    // Recording must not perturb the served bytes.
    assert_eq!(cold.figures, warm.figures);
    daemon.stop();

    // The trace is written on clean shutdown, validates structurally, and
    // carries per-request spans plus the session's per-cell spans.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let summary = tw_obs::validate_trace(&text).unwrap();
    assert!(summary.spans >= 10, "2 requests + 8 cells at minimum");
    assert!(text.contains("\"name\":\"request\""));
    assert!(text.contains("\"outcome\":\"ok\""));
    assert!(text.contains("\"name\":\"cell\""));
    assert!(text.contains("\"outcome\":\"disk_hit\""));
    assert!(text.contains("\"timing\":{"));
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn concurrent_submits_of_one_plan_simulate_each_cell_once() {
    // No cache dir: only the shared single-flight table dedups, which is
    // exactly what two simultaneous clients exercise.
    let daemon = Daemon::start("concurrent", false);
    let spec_text = small_spec().to_json();

    let replies: Vec<_> = {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let socket = daemon.config.socket.clone();
                let spec_text = spec_text.clone();
                std::thread::spawn(move || {
                    Client::connect(&socket)
                        .unwrap()
                        .submit(&spec_text)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };

    let total_misses: u64 = replies.iter().map(|r| r.misses).sum();
    let total: u64 = replies.iter().map(|r| r.cells).sum();
    assert_eq!(total, 8);
    assert_eq!(
        total_misses, 4,
        "each distinct cell must be simulated exactly once across both requests"
    );
    assert_eq!(
        replies[0].figures, replies[1].figures,
        "same plan, same bytes"
    );

    daemon.stop();
}

#[test]
fn bad_requests_get_error_responses_not_a_dead_daemon() {
    let daemon = Daemon::start("errors", false);
    let mut client = daemon.connect();

    let err = client.submit("{ not a spec").unwrap_err();
    assert!(err.contains("bad spec"), "{err}");

    // An unknown op over the raw wire is answered, not ignored.
    use denovo_waste::Json;
    use std::io::BufReader;
    use tw_bench::daemon::wire;
    let stream = std::os::unix::net::UnixStream::connect(&daemon.config.socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    wire::write_frame(
        &mut writer,
        Json::Obj(vec![("op".to_string(), Json::str("bogus"))]),
        None,
    )
    .unwrap();
    let (reply, _) = wire::read_frame(&mut reader).unwrap().unwrap();
    assert_eq!(reply.get("status").unwrap().as_str(), Ok("error"));
    assert!(
        reply
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("bogus"),
        "the unknown op is named"
    );

    // Specs no machine can run — a cache of no sets, a core count FFT's
    // input does not split among — used to pass validation and kill one
    // worker each; two of them left every later submit hanging.
    for (variant, named) in [
        (SystemVariant::l2_slice("no-l2", 0), "`no-l2`"),
        (SystemVariant::mesh("nine", 3, 3), "among 9 cores"),
    ] {
        let mut spec = small_spec();
        spec.variants = vec![variant];
        let err = client.submit(&spec.to_json()).unwrap_err();
        assert!(err.contains(named), "{err}");
    }

    // The connection that produced errors still works...
    let fields = client.stats().unwrap();
    assert_eq!(fields.get("failed").unwrap().as_u64(), Ok(3));
    // ...and so does the daemon as a whole.
    assert!(client.submit(&small_spec().to_json()).is_ok());

    daemon.stop();
}

#[test]
fn serve_refuses_a_live_socket_and_replaces_a_stale_one() {
    let daemon = Daemon::start("stale-socket", false);
    // A second daemon on the same (answering) socket must refuse.
    let err = serve(&daemon.config).unwrap_err();
    assert!(err.contains("already served"), "{err}");
    daemon.stop();

    // A stale socket *file* (nothing listening) is replaced, not fatal.
    let scratch = std::env::temp_dir().join("tw-daemon-stale-file");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let socket: PathBuf = scratch.join("exp.sock");
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(socket.exists(), "a dead listener leaves its socket file");
    let mut config = Config::new(socket);
    config.workers = 1;
    let thread = std::thread::spawn({
        let config = config.clone();
        move || serve(&config)
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        if let Ok(c) = Client::connect(&config.socket) {
            break c;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not replace the stale socket"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    client.shutdown().unwrap();
    thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&scratch);
}
