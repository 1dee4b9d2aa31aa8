//! Typed client for the experiments daemon.
//!
//! One [`Client`] owns one persistent connection; every method sends one
//! request frame and blocks for its response (the protocol allows one
//! request in flight per connection — concurrency comes from opening more
//! connections, which is what the benchmark's `serve_mix` workload does).

use super::wire;
use denovo_waste::Json;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A successful `submit` response: the daemon's per-request accounting plus
/// the figures document bytes.
#[derive(Debug, Clone)]
pub struct SubmitReply {
    /// Plan name as compiled by the daemon.
    pub plan: String,
    /// Cells the plan executed.
    pub cells: u64,
    /// Cells served from the daemon's on-disk cache.
    pub hits: u64,
    /// Cells the daemon simulated.
    pub misses: u64,
    /// Cells coalesced onto an in-flight duplicate.
    pub coalesced: u64,
    /// Always 0: a submit runs on its connection's handler as soon as it
    /// is read, so nothing waits in front of it. Kept because
    /// `benchmark/src/serve.rs` reads it.
    pub queue_us: u64,
    /// Time the plan spent compiling + executing (µs).
    pub exec_us: u64,
    /// The figures document — byte-identical to `experiments plan run
    /// --json` of the same spec.
    pub figures: Vec<u8>,
}

/// A connected daemon client.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects to a daemon's socket.
    ///
    /// # Errors
    ///
    /// Nothing listening (or not a socket) at `socket`.
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(Client {
            writer: stream,
            reader: BufReader::new(read_half),
        })
    }

    /// One request/response exchange. Error responses (`status: "error"`)
    /// surface as `Err` with the daemon's message.
    fn call(&mut self, header: Json, body: Option<&[u8]>) -> Result<(Json, Vec<u8>), String> {
        wire::write_frame(&mut self.writer, header, body).map_err(|e| format!("send: {e}"))?;
        let (reply, reply_body) = wire::read_frame(&mut self.reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("daemon hung up without answering")?;
        match reply.get("status").map(|s| s.as_str()) {
            Some(Ok("ok")) => Ok((reply, reply_body)),
            Some(Ok("error")) => Err(reply
                .get("error")
                .and_then(|e| e.as_str().ok())
                .unwrap_or("daemon reported an unnamed error")
                .to_string()),
            _ => Err("daemon response carries no status field".to_string()),
        }
    }

    fn request(op: &str) -> Json {
        Json::Obj(vec![("op".to_string(), Json::str(op))])
    }

    /// Liveness check; returns the daemon's engine version string.
    ///
    /// # Errors
    ///
    /// Transport failures or an error response.
    pub fn ping(&mut self) -> Result<String, String> {
        let (reply, _) = self.call(Self::request("ping"), None)?;
        Ok(reply
            .get("engine")
            .and_then(|e| e.as_str().ok())
            .unwrap_or_default()
            .to_string())
    }

    /// Fetches the service metrics snapshot (the raw response header; see
    /// `metrics.rs` for the fields).
    ///
    /// # Errors
    ///
    /// Transport failures or an error response.
    pub fn stats(&mut self) -> Result<Json, String> {
        let (reply, _) = self.call(Self::request("stats"), None)?;
        Ok(reply)
    }

    /// Fetches the Prometheus text exposition of the daemon's metrics
    /// (counters, gauges, and the latency histogram).
    ///
    /// # Errors
    ///
    /// Transport failures, an error response, or a non-UTF-8 body.
    pub fn metrics(&mut self) -> Result<String, String> {
        let (_, body) = self.call(Self::request("metrics"), None)?;
        String::from_utf8(body).map_err(|_| "metrics body is not UTF-8".to_string())
    }

    /// Submits an experiment-spec JSON document for execution.
    ///
    /// # Errors
    ///
    /// Transport failures, a rejected spec, or a failed run.
    pub fn submit(&mut self, spec_json: &str) -> Result<SubmitReply, String> {
        let (reply, figures) = self.call(Self::request("submit"), Some(spec_json.as_bytes()))?;
        let u64_field = |key: &str| -> Result<u64, String> {
            reply
                .require(key)
                .and_then(|v| v.as_u64())
                .map_err(|e| format!("submit response field `{key}`: {e}"))
        };
        Ok(SubmitReply {
            plan: reply
                .get("plan")
                .and_then(|p| p.as_str().ok())
                .unwrap_or_default()
                .to_string(),
            cells: u64_field("cells")?,
            hits: u64_field("hits")?,
            misses: u64_field("misses")?,
            coalesced: u64_field("coalesced")?,
            queue_us: u64_field("queue_us")?,
            exec_us: u64_field("exec_us")?,
            figures,
        })
    }

    /// Asks the daemon to shut down (finish its running submits, remove its
    /// socket).
    ///
    /// # Errors
    ///
    /// Transport failures or an error response.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.call(Self::request("shutdown"), None).map(|_| ())
    }
}
