//! The experiments daemon: plans served as traffic.
//!
//! A long-running service that executes declarative experiment plans over a
//! Unix socket, turning the one-shot `experiments plan run` pipeline into
//! sustained traffic against one shared, content-addressed result cache.
//! The wire protocol is hand-rolled (the workspace is offline-vendored):
//! one compact-JSON header line per frame, optionally followed by a
//! byte-counted opaque body — see [`wire`] and DESIGN.md §13.
//!
//! Service shape: one handler thread per connection, one queue.
//!
//! * the **listener** accepts up to `queue_cap` connections and spawns one
//!   handler thread for each; the next connection waits in the kernel's
//!   backlog until a handler exits, which is the backpressure;
//! * a **handler** answers its connection's requests one at a time,
//!   `submit` included: it compiles and executes the plan through one
//!   shared [`Session`], whose FIFO pool is the daemon's only queue. Every
//!   request sees the same on-disk cache and the same in-process
//!   single-flight table — concurrent submits of overlapping plans
//!   simulate each distinct cell once.
//!
//! `shutdown` stops the accepting and refuses later submits; `serve`
//! returns once every submit already running has written its response.
//!
//! A submitted plan's figures body is byte-for-byte the output of
//! [`crate::plan_figures_json`], i.e. exactly what `experiments plan run
//! --json` writes; CI diffs the two on every commit.

pub mod client;
pub mod metrics;
pub mod wire;

use denovo_waste::{
    sweep_temp_files, CacheStats, ExperimentSpec, Json, Session, WorkloadSet, WorkloadSource,
    ENGINE_VERSION, TEMP_SWEEP_AGE,
};
use metrics::Metrics;
use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use tw_obs::{FlightRecorder, Span, SpanSink};

/// Daemon configuration (socket, cache, sizing).
#[derive(Debug, Clone)]
pub struct Config {
    /// Path of the Unix socket to listen on (created at startup, removed on
    /// clean shutdown; a stale socket file from a crashed daemon is
    /// replaced).
    pub socket: PathBuf,
    /// Result-cache directory shared by all requests; `None` runs
    /// cache-less (the single-flight table still coalesces duplicates).
    pub cache_dir: Option<PathBuf>,
    /// The most threads the shared session's pool starts (below two, every
    /// fan-out runs inline on its handler).
    pub workers: usize,
    /// The most connections served at once; a handler runs one request at
    /// a time, so this also bounds the submits in flight.
    pub queue_cap: usize,
    /// When set, the daemon runs with a flight recorder attached and
    /// writes the trace (JSONL, `denovo-waste/flight/v1`) to this path on
    /// clean shutdown.
    pub record: Option<PathBuf>,
}

impl Config {
    /// A config with the default sizing: one pool thread per available
    /// core and 64 connections.
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

/// What the accept loop, the handlers and shutdown agree on.
#[derive(Debug, Default)]
struct Load {
    /// Connections with a live handler.
    connections: usize,
    /// Submits between their start and their written response.
    running: u64,
    /// Set by `shutdown`: accept no connection and start no submit.
    closed: bool,
}

struct Server {
    session: Session,
    metrics: Metrics,
    load: Mutex<Load>,
    /// Signalled on every change to `load`.
    changed: Condvar,
    queue_cap: usize,
    workers: u64,
    /// Per-request span sink, present only when the daemon records.
    recorder: Option<SpanSink>,
}

impl Server {
    /// The load. No request runs under the lock, so a poisoned one is still
    /// consistent.
    fn load(&self) -> MutexGuard<'_, Load> {
        self.load.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The load once `busy` no longer holds of it.
    fn wait_while(&self, busy: impl FnMut(&mut Load) -> bool) -> MutexGuard<'_, Load> {
        let load = self.changed.wait_while(self.load(), busy);
        load.unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `change` to the load and wakes every waiter.
    fn update(&self, change: impl FnOnce(&mut Load)) {
        change(&mut self.load());
        self.changed.notify_all();
    }

    /// Claims a connection slot, waiting while all `queue_cap` are taken;
    /// `None` once the daemon is shutting down.
    fn connection(self: &Arc<Self>) -> Option<Connection> {
        let mut load = self.wait_while(|load| load.connections >= self.queue_cap && !load.closed);
        if load.closed {
            return None;
        }
        load.connections += 1;
        Some(Connection(Arc::clone(self)))
    }

    /// Starts a submit; `None` once the daemon is shutting down.
    fn start_submit(&self) -> Option<Running<'_>> {
        let mut load = self.load();
        if load.closed {
            return None;
        }
        load.running += 1;
        self.metrics.record_running(load.running);
        Some(Running(self))
    }

    /// Refuses new connections and submits and wakes the accept loop.
    fn close(&self, socket: &std::path::Path) {
        self.update(|load| load.closed = true);
        // The accept loop may be parked in accept(); a throwaway
        // connection wakes it so it can observe the flag.
        let _ = UnixStream::connect(socket);
    }
}

/// A handler's connection slot; dropping it, however the handler ends,
/// gives the slot back.
struct Connection(Arc<Server>);

impl Drop for Connection {
    fn drop(&mut self) {
        self.0.update(|load| load.connections -= 1);
    }
}

/// A running submit; shutdown waits until every one has dropped.
struct Running<'a>(&'a Server);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.update(|load| load.running -= 1);
    }
}

/// Runs the daemon until a client sends `shutdown`. Binds the socket,
/// sweeps stale cache temp files, serves requests, then waits for the
/// running submits and removes the socket file.
///
/// # Errors
///
/// A socket already served by a live daemon, an unbindable socket path, or
/// a cache directory that cannot be created/swept.
pub fn serve(config: &Config) -> Result<(), String> {
    serve_with(config, Session::with_threads(config.workers))
}

/// [`serve`] on `session` (routed through the config's cache directory and
/// recorder here) instead of a fresh one of `config.workers` threads.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_with(config: &Config, mut session: Session) -> Result<(), String> {
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

    if let Some(dir) = &config.cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache directory {}: {e}", dir.display()))?;
        sweep_temp_files(dir, TEMP_SWEEP_AGE)
            .map_err(|e| format!("cannot sweep {}: {e}", dir.display()))?;
        session = session.with_cache_dir(dir);
    }

    // One flight recorder serves the whole daemon lifetime; the session
    // (per-cell spans), engine (per-phase spans) and handlers (per-request
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

    let server = Arc::new(Server {
        session,
        metrics: Metrics::new(),
        load: Mutex::default(),
        changed: Condvar::new(),
        queue_cap: config.queue_cap.max(1),
        workers: config.workers as u64,
        recorder,
    });

    while let Some(connection) = server.connection() {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if server.load().closed {
            break;
        }
        let socket = config.socket.clone();
        // Handlers are detached: they die with their connection, and the
        // wait below covers any submit they started.
        let _ = std::thread::Builder::new()
            .name("exp-conn".to_string())
            .spawn(move || handle_connection(&connection.0, stream, &socket));
    }

    // Shutdown: later connections are refused, running submits finish.
    drop(listener);
    drop(server.wait_while(|load| load.running > 0));
    let _ = std::fs::remove_file(&config.socket);
    // Trace is written last, after the running submits, so it covers every
    // request the daemon ever started.
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
                reply(&mut writer, wire::error_header(e.to_string()), None);
                return;
            }
        };
        let (header, body) = frame;
        let op = match header.get("op").map(|v| v.as_str()) {
            Some(Ok(op)) => op.to_string(),
            _ => {
                reply(
                    &mut writer,
                    wire::error_header("request header must carry a string `op` field"),
                    None,
                );
                continue;
            }
        };
        let keep_going = match op.as_str() {
            "ping" => reply(
                &mut writer,
                wire::ok_header(
                    "ping",
                    vec![("engine".to_string(), Json::str(ENGINE_VERSION))],
                ),
                None,
            ),
            "stats" => {
                let running = server.load().running;
                let fields = server.metrics.snapshot(
                    running,
                    server.queue_cap as u64,
                    server.workers,
                    &server.session.counters(),
                );
                reply(&mut writer, wire::ok_header("stats", fields), None)
            }
            "metrics" => {
                // Prometheus text exposition travels as an opaque body: the
                // wire JSON subset has no floats, and scrapers want the raw
                // text anyway.
                let running = server.load().running;
                let body = server.metrics.render_prometheus(
                    running,
                    server.queue_cap as u64,
                    server.workers,
                    &server.session.counters(),
                );
                reply(
                    &mut writer,
                    wire::ok_header("metrics", vec![]),
                    Some(body.as_bytes()),
                )
            }
            "shutdown" => {
                reply(&mut writer, wire::ok_header("shutdown", vec![]), None);
                server.close(socket);
                return;
            }
            "submit" => handle_submit(server, &mut writer, body),
            other => reply(
                &mut writer,
                wire::error_header(format!(
                    "unknown op `{other}`; expected ping | stats | metrics | submit | shutdown"
                )),
                None,
            ),
        };
        if !keep_going {
            return;
        }
    }
}

/// Writes one response and returns whether the connection is still usable.
/// A header the client's reader would refuse is not sent: an error naming
/// its size and the frame limit goes out instead, with no body.
fn reply(writer: &mut UnixStream, header: Json, body: Option<&[u8]>) -> bool {
    let (line, body) = match wire::header_line(header, body) {
        Ok(line) => (line, body),
        Err(e) => {
            let refusal = wire::error_header(format!("reply {e}"));
            let line = wire::header_line(refusal, None).expect("an error naming a size fits");
            (line, None)
        }
    };
    wire::write_line(writer, &line, body).is_ok()
}

/// Runs one submit on this handler's thread, records it, and writes the
/// response. Returns whether the connection is still usable.
fn handle_submit(server: &Server, writer: &mut UnixStream, body: Vec<u8>) -> bool {
    server.metrics.record_request();
    // Held until the response is written: shutdown waits for it.
    let Some(_running) = server.start_submit() else {
        server.metrics.record_failed();
        return reply(writer, wire::error_header("daemon is shutting down"), None);
    };
    let started = Instant::now();
    let result = execute(&server.session, body);
    let exec_us = started.elapsed().as_micros() as u64;
    // A reply header too long to send fails the request: it echoes the
    // plan's name, which the client chose.
    let result = result.and_then(|out| {
        let fields = vec![
            ("plan".to_string(), Json::str(out.plan.as_str())),
            ("cells".to_string(), Json::UInt(out.stats.total())),
            ("hits".to_string(), Json::UInt(out.stats.hits)),
            ("misses".to_string(), Json::UInt(out.stats.misses)),
            ("coalesced".to_string(), Json::UInt(out.stats.coalesced)),
            // Nothing waits before a submit runs; the field stays for
            // the clients that read it.
            ("queue_us".to_string(), Json::UInt(0)),
            ("exec_us".to_string(), Json::UInt(exec_us)),
        ];
        let line = wire::header_line(wire::ok_header("submit", fields), Some(&out.figures))
            .map_err(|e| format!("reply {e}"))?;
        Ok((out, line))
    });
    let sink = server.recorder.as_ref();
    match result {
        Ok((out, line)) => {
            server.metrics.record_completed(&out.stats, exec_us);
            if let Some(sink) = sink {
                sink.with_track(format!("request/{}", out.plan)).emit(
                    Span::event("request")
                        .attr("outcome", "ok")
                        .attr("cells", out.stats.total())
                        .attr("hits", out.stats.hits)
                        .attr("misses", out.stats.misses)
                        .attr("coalesced", out.stats.coalesced)
                        .timing_us("exec_us", exec_us),
                );
            }
            wire::write_line(writer, &line, Some(&out.figures)).is_ok()
        }
        Err(msg) => {
            server.metrics.record_failed();
            if let Some(sink) = sink {
                sink.with_track("request/error").emit(
                    Span::event("request")
                        .attr("outcome", "error")
                        .attr("error", msg.as_str())
                        .timing_us("exec_us", exec_us),
                );
            }
            reply(writer, wire::error_header(msg), None)
        }
    }
}

/// The figures and cache accounting of one successful submit.
struct Submitted {
    /// Plan name, echoed in the response header.
    plan: String,
    stats: CacheStats,
    /// The exact bytes of `plan_figures_json` — what byte-identity with the
    /// CLI rests on.
    figures: Vec<u8>,
}

/// Compiles and executes a submit body through the shared session. A spec
/// that names a trace file is refused before anything is read. Compile
/// runs on the handler's thread, and the session's pool queues this plan's
/// runs behind those of earlier requests.
fn execute(session: &Session, body: Vec<u8>) -> Result<Submitted, String> {
    let spec_text = String::from_utf8(body).map_err(|_| "submit body is not UTF-8")?;
    if spec_text.trim().is_empty() {
        return Err("submit requires an experiment-spec JSON body".to_string());
    }
    let spec = ExperimentSpec::from_json(&spec_text).map_err(|e| format!("bad spec: {e}"))?;
    // A trace path would be read on the daemon's host: it would let a
    // client probe the server's files, and one such as /dev/zero or a FIFO
    // never finishes reading. The daemon opens none.
    let trace = spec
        .workloads
        .iter()
        .find(|w| matches!(w.source, WorkloadSource::Trace(_)));
    if let Some(w) = trace {
        return Err(format!(
            "cannot compile plan: workload `{}` names a trace file, which the daemon does not read",
            w.name
        ));
    }
    // Provided workloads have no wire representation: a spec naming one
    // fails compilation here with the usual unknown-workload error.
    let plan = session
        .compile(&spec, &WorkloadSet::new())
        .map_err(|e| format!("cannot compile plan: {e}"))?;
    let outcome = session
        .execute(&plan)
        .map_err(|e| format!("cannot execute plan: {e}"))?;
    let figures =
        crate::plan_figures_json(&outcome).map_err(|e| format!("cannot extract figures: {e}"))?;
    Ok(Submitted {
        plan: outcome.name.clone(),
        stats: outcome.cache,
        figures: figures.into_bytes(),
    })
}
