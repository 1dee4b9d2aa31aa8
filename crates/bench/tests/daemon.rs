//! End-to-end tests of the experiments daemon: an in-process `serve` thread
//! plus real Unix-socket clients.
//!
//! The load-bearing property is **byte-identity**: a plan submitted over
//! the socket must return exactly the bytes `experiments plan run --json`
//! (i.e. `tw_bench::plan_figures_json`) writes for the same spec. The rest
//! is service semantics: warm hits, coalesced concurrent submits, metrics,
//! error responses, clean shutdown.

use denovo_waste::{
    ExperimentSpec, Json, ScaleProfile, Session, SystemVariant, WorkloadSet, WorkloadSpec,
};
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tw_bench::daemon::{client::Client, serve, serve_with, wire, Config};
use tw_types::ProtocolKind;
use tw_workloads::BenchmarkKind;

struct Daemon {
    config: Config,
    thread: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// Serves in a background thread and waits until the socket answers.
    fn start(name: &str, cache: bool) -> Daemon {
        Self::start_with(name, cache, |_| {})
    }

    /// Like [`Daemon::start`], with `configure` applied to the config last.
    fn start_with(name: &str, cache: bool, configure: impl FnOnce(&mut Config)) -> Daemon {
        Self::start_on(name, cache, configure, None)
    }

    /// Like [`Daemon::start_with`], serving on `session` when one is given.
    fn start_on(
        name: &str,
        cache: bool,
        configure: impl FnOnce(&mut Config),
        session: Option<Session>,
    ) -> Daemon {
        let scratch = std::env::temp_dir().join(format!("tw-daemon-{name}"));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        let mut config = Config::new(scratch.join("exp.sock"));
        config.cache_dir = cache.then(|| scratch.join("cache"));
        config.workers = 2;
        config.queue_cap = 8;
        configure(&mut config);
        let thread = std::thread::spawn({
            let config = config.clone();
            move || match session {
                Some(session) => serve_with(&config, session),
                None => serve(&config),
            }
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
    // Both of the spec's workloads are committed lines: neither compile
    // ran a digest pass. The cache directory has every entry, so the flight
    // table has let go of all four slots.
    assert_eq!(get("workload_digest_passes_total"), 0);
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
    // Both workloads' lines are committed: compile read their headers and
    // ran no digest pass.
    assert_eq!(scrape(&m2, "tw_daemon_workload_digest_passes_total"), 0);
    // The cold submit's runs built the spec's two workloads; the warm one,
    // served from the cache, built none.
    assert_eq!(scrape(&m1, "tw_daemon_workloads_materialized_total"), 2);
    assert_eq!(scrape(&m2, "tw_daemon_workloads_materialized_total"), 2);

    daemon.stop();
}

/// Where a recording daemon's trace lands: *outside* its scratch
/// directory, so it survives [`Daemon::stop`] for inspection.
fn flight_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tw-daemon-{name}-flight.jsonl"))
}

#[test]
fn recording_daemon_writes_a_valid_trace_with_request_and_cell_spans() {
    let trace_path = flight_path("recording");
    let daemon = Daemon::start_with("recording", true, |c| c.record = Some(trace_path.clone()));
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
    let stream = UnixStream::connect(&daemon.config.socket).unwrap();
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
    // So is a submit with no body, which is a request like any other.
    wire::write_frame(
        &mut writer,
        Json::Obj(vec![("op".to_string(), Json::str("submit"))]),
        None,
    )
    .unwrap();
    let (reply, _) = wire::read_frame(&mut reader).unwrap().unwrap();
    assert_eq!(reply.get("status").unwrap().as_str(), Ok("error"));

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
    assert_eq!(fields.get("failed").unwrap().as_u64(), Ok(4));
    // ...and so does the daemon as a whole.
    assert!(client.submit(&small_spec().to_json()).is_ok());
    // Every submit read off the socket is a request, and each one either
    // completed or failed.
    let fields = client.stats().unwrap();
    let get = |k: &str| fields.get(k).unwrap().as_u64().unwrap();
    assert_eq!(get("requests"), 5);
    assert_eq!(get("requests"), get("completed") + get("failed"));

    daemon.stop();
}

#[test]
fn a_spec_naming_a_trace_file_is_refused_before_anything_is_read() {
    let daemon = Daemon::start("trace-spec", false);
    // A trace that would compile: the refusal is not the file's fault.
    let path = daemon.config.socket.with_file_name("fft.trace");
    let fft = ScaleProfile::Tiny
        .try_workload(BenchmarkKind::Fft, 16)
        .unwrap();
    fft.to_trace().save(&path, false).unwrap();
    let mut spec = ExperimentSpec::subset(vec![ProtocolKind::Mesi], vec![], ScaleProfile::Tiny);
    spec.workloads = vec![
        WorkloadSpec::bench(BenchmarkKind::Radix),
        WorkloadSpec::trace("from-file", &path),
    ];
    assert!(spec.compile(&WorkloadSet::new()).is_ok());
    let mut client = daemon.connect();
    let err = client.submit(&spec.to_json()).unwrap_err();
    assert_eq!(
        err,
        "cannot compile plan: workload `from-file` names a trace file, \
         which the daemon does not read"
    );
    assert!(client.ping().is_ok());
    let stats = client.stats().unwrap();
    let get = |k: &str| stats.get(k).unwrap().as_u64().unwrap();
    assert_eq!((get("requests"), get("failed")), (1, 1));
    assert_eq!(get("requests"), get("completed") + get("failed"));
    daemon.stop();
}

#[test]
fn a_stale_workload_line_is_an_error_response_not_a_dead_daemon() {
    // Tiny FFT's committed line with its content digest perturbed: its
    // header still digests to the line's, so compile trusts it, and the
    // first run that builds the records refuses them.
    let committed = include_str!("../../../WORKLOADS.digests");
    let line = committed
        .lines()
        .find(|l| l.starts_with("tiny FFT 16 "))
        .unwrap();
    let fields: Vec<&str> = line.split(' ').collect();
    let stale_digest = format!("{}0", &fields[4][..31]);
    assert_ne!(stale_digest, fields[4]);
    let stale = line.replace(fields[4], &stale_digest);
    let session = Session::with_threads(2)
        .with_workload_digests(&committed.replace(line, &stale))
        .unwrap();
    let daemon = Daemon::start_on("stale-line", true, |_| {}, Some(session));
    let spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi],
        vec![BenchmarkKind::Fft],
        ScaleProfile::Tiny,
    );
    let mut client = daemon.connect();
    for _ in 0..2 {
        let err = client.submit(&spec.to_json()).unwrap_err();
        assert_eq!(
            err,
            "cannot execute plan: cannot build workload: tiny scale: \
             FFT on 16 cores built other records than it digested"
        );
        assert!(client.ping().is_ok());
    }
    let stats = client.stats().unwrap();
    let get = |k: &str| stats.get(k).unwrap().as_u64().unwrap();
    assert_eq!((get("requests"), get("failed")), (2, 2));
    assert_eq!(get("workload_digest_passes_total"), 0);
    assert_eq!(get("workloads_materialized_total"), 0);
    assert_eq!(get("flight_table_slots"), 0);
    // The other lines are as committed: radix runs.
    let radix = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi],
        vec![BenchmarkKind::Radix],
        ScaleProfile::Tiny,
    );
    assert_eq!(client.submit(&radix.to_json()).unwrap().misses, 1);
    daemon.stop();
}

/// A raw connection whose reads give up after the two seconds a boundary
/// test allows, so a daemon that takes longer fails the test, not hangs it.
struct Raw {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Raw {
    fn open(daemon: &Daemon) -> Raw {
        let stream = UnixStream::connect(&daemon.config.socket).unwrap();
        stream.set_read_timeout(Some(BOUNDARY)).unwrap();
        Raw {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Sends one frame; returns the reply header and how long the exchange
    /// took, sending included.
    fn exchange(&mut self, header: Json, body: Option<&[u8]>) -> (Json, Duration) {
        let started = Instant::now();
        wire::write_frame(&mut self.writer, header, body).unwrap();
        let (reply, _) = wire::read_frame(&mut self.reader)
            .unwrap_or_else(|e| panic!("no reply within {BOUNDARY:?}: {e}"))
            .expect("a reply");
        (reply, started.elapsed())
    }
}

/// How long the daemon may take over one input, however large its strings.
const BOUNDARY: Duration = Duration::from_secs(2);

fn op(name: &str, fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![("op".to_string(), Json::str(name))];
    all.extend(fields);
    Json::Obj(all)
}

/// `n` bytes of text with 1-, 2-, 3- and 4-byte characters.
fn text_of(n: usize) -> String {
    let piece = "plain \u{e9}\u{20ac}\u{1d11e} ";
    let mut s = piece.repeat(n / piece.len() + 1);
    while s.len() > n {
        s.pop();
    }
    s
}

#[test]
fn a_megabyte_header_string_is_answered_in_time() {
    let daemon = Daemon::start("big-header", false);
    let mut raw = Raw::open(&daemon);
    let pad = text_of((1 << 20) - 64);
    let (reply, took) = raw.exchange(op("ping", vec![("pad".to_string(), Json::Str(pad))]), None);
    assert_eq!(reply.get("status").unwrap().as_str(), Ok("ok"));
    assert!(took < BOUNDARY, "{took:?}");

    // An unknown op is quoted back in the error, which then no longer fits
    // a frame: the reply names its size and the limit instead.
    let (reply, took) = raw.exchange(op(&text_of((1 << 20) - 16), vec![]), None);
    let err = reply.get("error").unwrap().as_str().unwrap();
    assert!(err.starts_with("reply header of "), "{err}");
    assert!(
        err.ends_with("exceeds the 1048576-byte frame limit"),
        "{err}"
    );
    assert!(took < BOUNDARY, "{took:?}");

    assert!(daemon.connect().ping().is_ok());
    daemon.stop();
}

#[test]
fn an_eight_mib_spec_string_is_answered_in_time() {
    let daemon = Daemon::start("big-spec", false);
    let mut spec = match Json::parse(&small_spec().to_json()).unwrap() {
        Json::Obj(fields) => fields,
        other => panic!("a spec is an object: {other:?}"),
    };
    // The protocol axis must be an array, and its error does not repeat
    // the string.
    let protocols = spec.iter_mut().find(|(k, _)| k == "protocols").unwrap();
    protocols.1 = Json::Str(text_of(8 << 20));
    let body = Json::Obj(spec).compact();
    let (reply, took) = Raw::open(&daemon).exchange(op("submit", vec![]), Some(body.as_bytes()));
    let err = reply.get("error").unwrap().as_str().unwrap();
    assert!(err.contains("expected an array, found a string"), "{err}");
    assert!(took < BOUNDARY, "{took:?}");

    let mut client = daemon.connect();
    assert!(client.ping().is_ok());
    assert_eq!(
        client.stats().unwrap().get("failed").unwrap().as_u64(),
        Ok(1)
    );
    daemon.stop();
}

#[test]
fn a_reply_header_too_long_to_send_fails_the_request() {
    let daemon = Daemon::start("long-reply", false);
    // The submit reply echoes the plan's name. Two MiB of it used to be
    // sent, and counted completed, although the client's reader refuses any
    // header over the one-MiB frame limit.
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi],
        vec![BenchmarkKind::Fft],
        ScaleProfile::Tiny,
    );
    spec.name = "n".repeat(2 << 20);
    let mut client = daemon.connect();
    let err = client.submit(&spec.to_json()).unwrap_err();
    assert!(err.starts_with("reply header of 2097"), "{err}");
    assert!(
        err.ends_with(" bytes exceeds the 1048576-byte frame limit"),
        "{err}"
    );

    // The request failed, and the connection and the daemon still answer.
    let stats = client.stats().unwrap();
    let get = |k: &str| stats.get(k).unwrap().as_u64().unwrap();
    assert_eq!(
        (get("requests"), get("completed"), get("failed")),
        (1, 0, 1)
    );
    assert!(client.ping().is_ok());
    daemon.stop();
}

#[test]
fn a_connection_beyond_the_cap_waits_for_a_slot() {
    let daemon = Daemon::start_with("cap", false, |c| c.queue_cap = 1);
    let mut first = daemon.connect();
    first.ping().unwrap();
    let (answered, answer) = std::sync::mpsc::channel();
    let second = std::thread::spawn({
        let socket = daemon.config.socket.clone();
        move || {
            let mut client = Client::connect(&socket).unwrap();
            answered.send(client.ping()).unwrap();
            client
        }
    });
    // The first connection holds the only slot: it is still served, and
    // the second waits in the backlog, unanswered.
    first.ping().unwrap();
    assert!(
        answer.recv_timeout(Duration::from_millis(200)).is_err(),
        "a connection beyond the cap must not be served"
    );
    drop(first);
    let pong = answer
        .recv_timeout(Duration::from_secs(10))
        .expect("the second connection is served once the first hangs up");
    assert!(pong.unwrap().contains("engine"));
    drop(second.join().unwrap());
    daemon.stop();
}

#[test]
fn shutdown_waits_for_a_running_submit() {
    let trace_path = flight_path("drain");
    let daemon = Daemon::start_with("drain", true, |c| c.record = Some(trace_path.clone()));
    let spec = small_spec();
    let submit = std::thread::spawn({
        let socket = daemon.config.socket.clone();
        let spec_text = spec.to_json();
        move || Client::connect(&socket).unwrap().submit(&spec_text)
    });
    // Shut down once the submit has started; a cold run of the spec takes
    // far longer than this poll, so it is still running then.
    let mut probe = daemon.connect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe.stats().unwrap().get("queue_peak").unwrap().as_u64() != Ok(1) {
        assert!(Instant::now() < deadline, "the submit never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    daemon.stop();

    // `serve` returned Ok, and the submit got its whole figures body...
    let reply = submit
        .join()
        .unwrap()
        .expect("a running submit is answered");
    let direct = Session::new().run(&spec, &WorkloadSet::new()).unwrap();
    let direct_json = tw_bench::plan_figures_json(&direct).unwrap();
    assert_eq!(reply.figures, direct_json.as_bytes());
    // ...before `serve` wrote the trace, which has the request's span.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert!(text.contains("\"name\":\"request\""));
    assert!(text.contains("\"outcome\":\"ok\""));
    let _ = std::fs::remove_file(&trace_path);
    // An idle connection was not waited for; it is still answered, but its
    // submits are refused.
    let err = probe.submit(&spec.to_json()).unwrap_err();
    assert!(err.contains("shutting down"), "{err}");
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

/// Kills the daemon child if a test ends before it exits on its own.
struct Child(std::process::Child);

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A header nested deeper than the JSON reader allows is answered with an
/// error, and the daemon goes on serving. The daemon is the `experiments`
/// binary in a child process, so a stack overflow would fail this test
/// rather than abort the test harness.
#[test]
fn a_deeply_nested_header_is_an_error_response_not_a_dead_daemon() {
    let scratch = std::env::temp_dir().join("tw-daemon-nested");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let socket = scratch.join("exp.sock");
    let mut child = Child(
        std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["serve", "--no-cache", "--socket"])
            .arg(&socket)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap(),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while !Client::connect(&socket).is_ok_and(|mut c| c.ping().is_ok()) {
        assert!(Instant::now() < deadline, "daemon did not come up");
        std::thread::sleep(Duration::from_millis(20));
    }

    let stream = UnixStream::connect(&socket).unwrap();
    stream.set_read_timeout(Some(BOUNDARY)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    std::io::Write::write_all(&mut writer, format!("{}\n", "[".repeat(100_000)).as_bytes())
        .unwrap();
    let (reply, _) = wire::read_frame(&mut reader).unwrap().unwrap();
    assert_eq!(reply.get("status").unwrap().as_str(), Ok("error"));
    let error = reply.get("error").unwrap().as_str().unwrap();
    assert!(error.contains("nest deeper than"), "{error}");

    let mut client = Client::connect(&socket).expect("the daemon still accepts");
    assert!(client.ping().is_ok());
    client.shutdown().unwrap();
    let status = child.0.wait().unwrap();
    assert!(status.success(), "{status}");
    let _ = std::fs::remove_dir_all(&scratch);
}
