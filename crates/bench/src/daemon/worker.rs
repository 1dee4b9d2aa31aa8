//! The daemon's worker pool: drains the bounded queue and executes plans.
//!
//! Every worker shares one [`Session`], so all requests hit one result
//! cache, one in-process single-flight table *and* one workload memo — two
//! clients submitting plans that overlap on a cache key never simulate that
//! key twice, whether they collide in flight (one coalesces onto the other)
//! or arrive in sequence (the second is a disk hit), and a benchmark's
//! workload is generated and digested for the first plan that names it.

use super::metrics::Metrics;
use super::queue::BoundedQueue;
use denovo_waste::{CacheStats, ExperimentSpec, Session, WorkloadSet};
use std::sync::mpsc::Sender;
use std::time::Instant;
use tw_obs::{Span, SpanSink};

/// The figures payload and per-request accounting of one successful submit.
#[derive(Debug)]
pub struct SubmitOutput {
    /// Plan name, echoed in the response header.
    pub plan: String,
    /// Cache accounting for this plan's cells.
    pub stats: CacheStats,
    /// Time the request spent queued, in microseconds.
    pub queue_us: u64,
    /// Time the plan spent compiling + executing, in microseconds.
    pub exec_us: u64,
    /// The exact bytes of `plan_figures_json` — what byte-identity with the
    /// CLI rests on.
    pub figures: Vec<u8>,
}

/// One queued submit request. The connection handler blocks on `reply`
/// until a worker finishes, so responses stay on the handler's socket.
pub struct Job {
    /// The experiment-spec JSON exactly as received in the request body.
    pub spec_text: String,
    /// Where the worker sends the outcome (handler side may have hung up;
    /// workers ignore a dead receiver).
    pub reply: Sender<Result<SubmitOutput, String>>,
    /// When the handler enqueued the job (for queue-wait accounting).
    pub enqueued: Instant,
}

/// Worker loop: pop until the queue closes and drains, execute each job
/// through the shared session, send the result back to the handler.
pub fn run_worker(
    queue: &BoundedQueue<Job>,
    session: &Session,
    metrics: &Metrics,
    recorder: Option<&SpanSink>,
) {
    while let Some(job) = queue.pop() {
        run_one(session, metrics, recorder, job);
    }
}

/// Executes a single dequeued job: runs the plan, records metrics, emits a
/// per-request span when the daemon records, sends the result to the job's
/// handler.
fn run_one(session: &Session, metrics: &Metrics, recorder: Option<&SpanSink>, job: Job) {
    let queue_us = job.enqueued.elapsed().as_micros() as u64;
    let result = execute(session, &job.spec_text, queue_us);
    match &result {
        Ok(out) => {
            metrics.record_completed(&out.stats, queue_us, queue_us + out.exec_us);
            if let Some(sink) = recorder {
                sink.with_track(format!("request/{}", out.plan)).emit(
                    Span::event("request")
                        .attr("outcome", "ok")
                        .attr("cells", out.stats.total())
                        .attr("hits", out.stats.hits)
                        .attr("misses", out.stats.misses)
                        .attr("coalesced", out.stats.coalesced)
                        .timing_us("queue_us", queue_us)
                        .timing_us("exec_us", out.exec_us),
                );
            }
        }
        Err(msg) => {
            metrics.record_failed();
            if let Some(sink) = recorder {
                sink.with_track("request/error").emit(
                    Span::event("request")
                        .attr("outcome", "error")
                        .attr("error", msg.as_str())
                        .timing_us("queue_us", queue_us)
                        .timing_us("exec_us", 0),
                );
            }
        }
    }
    // A handler that gave up (client hung up) is not a worker error.
    let _ = job.reply.send(result);
}

fn execute(session: &Session, spec_text: &str, queue_us: u64) -> Result<SubmitOutput, String> {
    let started = Instant::now();
    let spec = ExperimentSpec::from_json(spec_text).map_err(|e| format!("bad spec: {e}"))?;
    // Provided workloads have no wire representation: a spec naming one
    // fails compilation here with the usual unknown-workload error.
    // Compiled through the session, so a repeated spec shares the
    // workloads the first one generated.
    let plan = session
        .compile(&spec, &WorkloadSet::new())
        .map_err(|e| format!("cannot compile plan: {e}"))?;
    let outcome = session
        .execute(&plan)
        .map_err(|e| format!("cannot execute plan: {e}"))?;
    let figures =
        crate::plan_figures_json(&outcome).map_err(|e| format!("cannot extract figures: {e}"))?;
    Ok(SubmitOutput {
        plan: outcome.name.clone(),
        stats: outcome.cache,
        queue_us,
        exec_us: started.elapsed().as_micros() as u64,
        figures: figures.into_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};

    fn tiny_spec_text() -> String {
        use denovo_waste::ScaleProfile;
        use tw_types::ProtocolKind;
        use tw_workloads::BenchmarkKind;
        ExperimentSpec::subset(
            vec![ProtocolKind::Mesi, ProtocolKind::DBypFull],
            vec![BenchmarkKind::Fft],
            ScaleProfile::Tiny,
        )
        .to_json()
    }

    #[test]
    fn workers_execute_jobs_and_exit_on_close() {
        let queue = Arc::new(BoundedQueue::new(4));
        let worker = std::thread::spawn({
            let queue = Arc::clone(&queue);
            move || run_worker(&queue, &Session::new(), &Metrics::new(), None)
        });

        let (tx, rx) = mpsc::channel();
        queue
            .push(Job {
                spec_text: tiny_spec_text(),
                reply: tx.clone(),
                enqueued: Instant::now(),
            })
            .unwrap_or_else(|_| panic!("queue open"));
        let out = rx.recv().unwrap().expect("valid spec executes");
        assert_eq!(out.stats.total(), 2);
        assert_eq!(out.stats.misses, 2);
        assert!(out.figures.starts_with(b"{"));

        // A bad spec comes back as an error result, not a dead worker.
        queue
            .push(Job {
                spec_text: "{ not json".to_string(),
                reply: tx,
                enqueued: Instant::now(),
            })
            .unwrap_or_else(|_| panic!("queue open"));
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.contains("bad spec"), "{err}");

        queue.close();
        worker.join().unwrap();
    }
}
