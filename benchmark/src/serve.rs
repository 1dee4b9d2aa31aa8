//! The daemon harness: an in-process `tw_bench::daemon::serve` on its own
//! thread, driven by a closed loop of persistent client connections.
//!
//! Closed loop on the assumption that the daemon's callers are scripts that
//! wait for each reply before sending the next request, so that a slow
//! daemon receives less load; no recorded traffic says otherwise or so.

use crate::specs::{self, Request, Schedule};
use crate::sys;
use crate::workloads::Limits;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tw_bench::daemon::{self, client::Client};
use tw_types::Digest;

/// A running in-process daemon. Dropping it shuts the daemon down and joins
/// its thread, so no error path leaves the thread or the socket behind.
pub struct Daemon {
    socket: PathBuf,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// Starts the daemon (`pool_size` workers, queue of 64) over `cache_dir`
    /// and waits until it answers on `socket`.
    pub fn start(socket: PathBuf, cache_dir: &Path) -> Result<Daemon, String> {
        let mut config = daemon::Config::new(&socket);
        config.cache_dir = Some(cache_dir.to_path_buf());
        config.workers = sys::pool_size();
        config.queue_cap = 64;
        let thread = std::thread::Builder::new()
            .name("bench-daemon".to_string())
            .spawn(move || daemon::serve(&config))
            .map_err(|e| format!("cannot spawn the daemon thread: {e}"))?;
        let daemon = Daemon {
            socket,
            thread: Some(thread),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut client) = daemon.client() {
                client.ping()?;
                return Ok(daemon);
            }
            if daemon.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                let mut daemon = daemon;
                return Err(daemon
                    .join()
                    .err()
                    .unwrap_or_else(|| "the daemon exited before answering".to_string()));
            }
            if Instant::now() > deadline {
                return Err("the daemon did not come up within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.socket)
    }

    fn join(&mut self) -> Result<(), String> {
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .map_err(|_| "the daemon thread panicked".to_string())?,
            None => Ok(()),
        }
    }

    /// Clean shutdown: the daemon drains, joins its workers and removes its
    /// socket; its own result is returned.
    pub fn stop(mut self) -> Result<(), String> {
        self.client()?.shutdown()?;
        self.join()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.thread.is_some() {
            if let Ok(mut client) = self.client() {
                let _ = client.shutdown();
                let _ = self.join();
            }
            // A daemon that never bound its socket has already returned.
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// One answered (or failed) request of the closed loop.
#[derive(Debug)]
pub struct Reply {
    pub position: usize,
    pub request: Request,
    /// Client-side latency: request written → response read.
    pub latency_ms: f64,
    pub queue_ms: f64,
    pub exec_ms: f64,
    pub cells: u64,
    pub hits: u64,
    pub coalesced: u64,
    /// Digest of the figures body (repeats are checked by digest, novel
    /// bodies are kept for the byte comparison after the window).
    pub digest: Digest,
    pub novel_body: Option<Vec<u8>>,
    pub error: Option<String>,
}

/// What the closed loop sends for one schedule position.
pub struct Traffic<'a> {
    pub schedule: &'a Schedule,
    /// Spec text of the repeated request.
    pub repeat_text: &'a str,
}

fn submit(client: &mut Client, traffic: &Traffic, position: usize, request: Request) -> Reply {
    let novel_text;
    let text = match request {
        Request::Repeat => traffic.repeat_text,
        Request::Novel { l2_kib } => {
            novel_text = specs::novel(l2_kib).to_json();
            &novel_text
        }
    };
    let started = Instant::now();
    let result = client.submit(text);
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut reply = Reply {
        position,
        request,
        latency_ms,
        queue_ms: 0.0,
        exec_ms: 0.0,
        cells: 0,
        hits: 0,
        coalesced: 0,
        digest: Digest(0),
        novel_body: None,
        error: None,
    };
    match result {
        Ok(r) => {
            reply.queue_ms = r.queue_us as f64 / 1e3;
            reply.exec_ms = r.exec_us as f64 / 1e3;
            reply.cells = r.cells;
            reply.hits = r.hits;
            reply.coalesced = r.coalesced;
            reply.digest = Digest::of_bytes(&r.figures);
            if matches!(request, Request::Novel { .. }) {
                reply.novel_body = Some(r.figures);
            }
        }
        Err(e) => reply.error = Some(e),
    }
    reply
}

/// Sends schedule positions `from..` over `pool_size` persistent
/// connections, each sending its next request when its previous one is
/// answered. A connection takes another position while `limits` say one is
/// due, and never past the end of the schedule. Returns the replies in
/// schedule order and the wall time from the first send to the last reply.
pub fn closed_loop(
    daemon: &Daemon,
    traffic: &Traffic,
    from: usize,
    limits: &Limits,
) -> Result<(Vec<Reply>, f64), String> {
    let mut clients = (0..sys::pool_size())
        .map(|_| daemon.client())
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(from);
    let started = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let position = next.fetch_add(1, Ordering::Relaxed);
                        if !limits.due(position - from, started.elapsed().as_secs_f64()) {
                            break;
                        }
                        let Some(request) = traffic.schedule.get(position) else {
                            break;
                        };
                        mine.push(submit(client, traffic, position, request));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    replies.sort_by_key(|r| r.position);
    Ok((replies, wall_s))
}
