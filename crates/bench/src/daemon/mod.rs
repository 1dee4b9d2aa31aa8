//! The experiments daemon: plans served as traffic.
//!
//! A long-running service that executes declarative experiment plans over a
//! Unix socket, turning the one-shot `experiments plan run` pipeline into
//! sustained traffic against one shared, content-addressed result cache.
//! The wire protocol is hand-rolled (the workspace is offline-vendored):
//! one compact-JSON header line per frame, optionally followed by a
//! byte-counted opaque body — see [`wire`] and DESIGN.md §13.
//!
//! Service shape (the classic ingest split: accept cheap, queue bounded,
//! workers drain):
//!
//! * the **listener** accepts connections and spawns one handler thread per
//!   connection; handlers answer `ping`/`stats`/`shutdown` inline and
//!   enqueue `submit` work;
//! * the **bounded queue** ([`queue::BoundedQueue`]) is the backpressure: a
//!   full queue blocks the handler, which stops reading its socket, which
//!   pushes back on the client;
//! * the **worker pool** drains the queue through one shared [`Session`],
//!   so every request sees the same on-disk cache and the same in-process
//!   single-flight table — concurrent submits of overlapping plans simulate
//!   each distinct cell once.
//!
//! A submitted plan's figures body is byte-for-byte the output of
//! [`crate::plan_figures_json`], i.e. exactly what `experiments plan run
//! --json` writes; CI diffs the two on every commit.

pub mod client;
pub mod metrics;
pub mod queue;
pub mod wire;
pub mod worker;

use denovo_waste::{sweep_temp_files, Json, Session, ENGINE_VERSION, TEMP_SWEEP_AGE};
use metrics::Metrics;
use queue::BoundedQueue;
use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;
use tw_obs::{FlightRecorder, SpanSink};
use worker::Job;

/// Daemon configuration (socket, cache, pool sizing).
#[derive(Debug, Clone)]
pub struct Config {
    /// Path of the Unix socket to listen on (created at startup, removed on
    /// clean shutdown; a stale socket file from a crashed daemon is
    /// replaced).
    pub socket: PathBuf,
    /// Result-cache directory shared by all requests; `None` runs
    /// cache-less (the single-flight table still coalesces duplicates).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads executing plans.
    pub workers: usize,
    /// Bound of the work queue (requests beyond it block their
    /// connections).
    pub queue_cap: usize,
    /// When set, the daemon runs with a flight recorder attached and
    /// writes the trace (JSONL, `denovo-waste/flight/v1`) to this path on
    /// clean shutdown.
    pub record: Option<PathBuf>,
}

impl Config {
    /// A config with the default pool sizing: one worker per available
    /// core and a 64-deep queue.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Config {
            socket: socket.into(),
            cache_dir: None,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_cap: 64,
            record: None,
        }
    }
}

struct Server {
    session: Session,
    queue: BoundedQueue<Job>,
    metrics: Metrics,
    shutdown: AtomicBool,
    workers: u64,
    /// Per-request span sink, present only when the daemon records.
    recorder: Option<SpanSink>,
}

/// Runs the daemon until a client sends `shutdown`. Binds the socket,
/// sweeps stale cache temp files, serves requests, then drains the queue,
/// joins the workers and removes the socket file.
///
/// # Errors
///
/// A socket already served by a live daemon, an unbindable socket path, or
/// a cache directory that cannot be created/swept.
pub fn serve(config: &Config) -> Result<(), String> {
    // A leftover socket file from a crashed daemon would make bind fail
    // forever; only refuse when something actually answers on it.
    if config.socket.exists() {
        if UnixStream::connect(&config.socket).is_ok() {
            return Err(format!(
                "{} is already served by a live daemon",
                config.socket.display()
            ));
        }
        std::fs::remove_file(&config.socket).map_err(|e| {
            format!(
                "cannot remove stale socket {}: {e}",
                config.socket.display()
            )
        })?;
    }

    let mut session = Session::new();
    if let Some(dir) = &config.cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache directory {}: {e}", dir.display()))?;
        sweep_temp_files(dir, TEMP_SWEEP_AGE)
            .map_err(|e| format!("cannot sweep {}: {e}", dir.display()))?;
        session = session.with_cache_dir(dir);
    }

    // One flight recorder serves the whole daemon lifetime; the session
    // (per-cell spans), engine (per-phase spans) and workers (per-request
    // spans) all fan into it through cloned sinks.
    let flight = config
        .record
        .as_ref()
        .map(|_| Arc::new(FlightRecorder::new()));
    let mut recorder = None;
    if let Some(rec) = &flight {
        let sink = SpanSink::new(Arc::clone(rec), "daemon");
        session = session.with_recorder(sink.clone());
        recorder = Some(sink);
    }

    let listener = UnixListener::bind(&config.socket)
        .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?;

    let workers = config.workers.max(1);
    let server = Arc::new(Server {
        session,
        queue: BoundedQueue::new(config.queue_cap),
        metrics: Metrics::new(),
        shutdown: AtomicBool::new(false),
        workers: workers as u64,
        recorder,
    });

    let pool: Vec<_> = (0..workers)
        .map(|i| {
            let server = Arc::clone(&server);
            std::thread::Builder::new()
                .name(format!("exp-worker-{i}"))
                .spawn(move || {
                    worker::run_worker(
                        &server.queue,
                        &server.session,
                        &server.metrics,
                        server.recorder.as_ref(),
                    )
                })
                .map_err(|e| format!("cannot spawn worker: {e}"))
        })
        .collect::<Result<_, _>>()?;

    for stream in listener.incoming() {
        if server.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(&server);
        let socket = config.socket.clone();
        // Handlers are detached: they die with their connection, and the
        // worker pool (joined below) finishes any job they enqueued.
        let _ = std::thread::Builder::new()
            .name("exp-conn".to_string())
            .spawn(move || handle_connection(&server, stream, &socket));
    }

    // Shutdown: no new pushes succeed, the backlog drains, workers exit.
    server.queue.close();
    for worker in pool {
        let _ = worker.join();
    }
    let _ = std::fs::remove_file(&config.socket);
    // Trace is written last, after the pool joins, so it covers every
    // request the daemon ever accepted.
    if let (Some(path), Some(rec)) = (&config.record, &flight) {
        std::fs::write(path, rec.to_jsonl())
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Serves one connection: a sequence of request frames, one response each,
/// until the peer hangs up or a protocol error poisons the stream.
fn handle_connection(server: &Server, stream: UnixStream, socket: &std::path::Path) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let frame = match wire::read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean hangup
            Err(e) => {
                let _ = wire::write_frame(&mut writer, wire::error_header(e.to_string()), None);
                return;
            }
        };
        let (header, body) = frame;
        let op = match header.get("op").map(|v| v.as_str()) {
            Some(Ok(op)) => op.to_string(),
            _ => {
                let _ = wire::write_frame(
                    &mut writer,
                    wire::error_header("request header must carry a string `op` field"),
                    None,
                );
                continue;
            }
        };
        let keep_going = match op.as_str() {
            "ping" => wire::write_frame(
                &mut writer,
                wire::ok_header(
                    "ping",
                    vec![("engine".to_string(), Json::str(ENGINE_VERSION))],
                ),
                None,
            )
            .is_ok(),
            "stats" => {
                let fields = server.metrics.snapshot(
                    server.queue.len() as u64,
                    server.queue.capacity() as u64,
                    server.workers,
                    &server.session.counters(),
                );
                wire::write_frame(&mut writer, wire::ok_header("stats", fields), None).is_ok()
            }
            "metrics" => {
                // Prometheus text exposition travels as an opaque body: the
                // wire JSON subset has no floats, and scrapers want the raw
                // text anyway.
                let body = server.metrics.render_prometheus(
                    server.queue.len() as u64,
                    server.queue.capacity() as u64,
                    server.workers,
                    &server.session.counters(),
                );
                wire::write_frame(
                    &mut writer,
                    wire::ok_header("metrics", vec![]),
                    Some(body.as_bytes()),
                )
                .is_ok()
            }
            "shutdown" => {
                let _ = wire::write_frame(&mut writer, wire::ok_header("shutdown", vec![]), None);
                server.shutdown.store(true, Ordering::SeqCst);
                // The accept loop is parked in accept(); a throwaway
                // connection wakes it so it can observe the flag.
                let _ = UnixStream::connect(socket);
                return;
            }
            "submit" => handle_submit(server, &mut writer, body),
            other => wire::write_frame(
                &mut writer,
                wire::error_header(format!(
                    "unknown op `{other}`; expected ping | stats | metrics | submit | shutdown"
                )),
                None,
            )
            .is_ok(),
        };
        if !keep_going {
            return;
        }
    }
}

/// Enqueues one submit, waits for its worker, and writes the response.
/// Returns whether the connection is still usable.
fn handle_submit(server: &Server, writer: &mut UnixStream, body: Vec<u8>) -> bool {
    let spec_text = match String::from_utf8(body) {
        Ok(text) if !text.trim().is_empty() => text,
        Ok(_) => {
            server.metrics.record_failed();
            return wire::write_frame(
                writer,
                wire::error_header("submit requires an experiment-spec JSON body"),
                None,
            )
            .is_ok();
        }
        Err(_) => {
            server.metrics.record_failed();
            return wire::write_frame(writer, wire::error_header("submit body is not UTF-8"), None)
                .is_ok();
        }
    };
    let (reply, result) = mpsc::channel();
    let job = Job {
        spec_text,
        reply,
        enqueued: Instant::now(),
    };
    // push blocks while the queue is full — deliberate: that is the
    // service's backpressure (see the module docs).
    if server.queue.push(job).is_err() {
        server.metrics.record_failed();
        return wire::write_frame(writer, wire::error_header("daemon is shutting down"), None)
            .is_ok();
    }
    server.metrics.record_enqueue(server.queue.len() as u64);
    match result.recv() {
        Ok(Ok(out)) => {
            let fields = vec![
                ("plan".to_string(), Json::str(out.plan)),
                ("cells".to_string(), Json::UInt(out.stats.total())),
                ("hits".to_string(), Json::UInt(out.stats.hits)),
                ("misses".to_string(), Json::UInt(out.stats.misses)),
                ("coalesced".to_string(), Json::UInt(out.stats.coalesced)),
                ("queue_us".to_string(), Json::UInt(out.queue_us)),
                ("exec_us".to_string(), Json::UInt(out.exec_us)),
            ];
            wire::write_frame(
                writer,
                wire::ok_header("submit", fields),
                Some(&out.figures),
            )
            .is_ok()
        }
        Ok(Err(msg)) => wire::write_frame(writer, wire::error_header(msg), None).is_ok(),
        Err(_) => wire::write_frame(
            writer,
            wire::error_header("worker pool exited before answering"),
            None,
        )
        .is_ok(),
    }
}
