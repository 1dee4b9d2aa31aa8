//! The four end-to-end workloads. An *op* is one plan execution: an
//! in-process pass or a daemon request. All timings are host time; every
//! simulated statistic is checked against a golden and never reported as
//! speed.

use crate::serve::{self, Daemon, Reply, Traffic};
use crate::specs::{self, Request, Schedule};
use crate::stats;
use crate::sys::{self, Scratch};
use denovo_waste::{CompiledPlan, ExperimentSpec, ScaleProfile, Session, WorkloadSet};
use std::cell::Cell;
use std::path::Path;
use std::time::Instant;
use tw_types::Digest;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdMatrix,
    NetModels,
    WarmMatrix,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdMatrix,
        Workload::NetModels,
        Workload::WarmMatrix,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMatrix => "cold_matrix",
            Workload::NetModels => "net_models",
            Workload::WarmMatrix => "warm_matrix",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn by_name(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload `{name}`; expected cold_matrix | net_models | warm_matrix | serve_mix")
            })
    }

    /// The spec whose plan one op of this workload executes (for
    /// `serve_mix`, the repeated request). `cold_matrix`, `warm_matrix` and
    /// `serve_mix` share the paper matrix: same spec, same figure bytes.
    pub fn spec(self, scale: ScaleProfile) -> ExperimentSpec {
        match self {
            Workload::NetModels => specs::net_models(scale),
            _ => ExperimentSpec::full_matrix(scale),
        }
    }

    /// How many ops the timed window holds. The floors are what the time
    /// cap on a complete set of runs leaves room for (a cold pass takes
    /// 6–10 s on the two-core sandbox). More passes would buy little: the
    /// host's slow stretches outlast any window a run can afford, and in
    /// 351 back-to-back `net_models` passes the fastest of eight spread
    /// nearly as widely as the fastest of four (`README.md`).
    pub fn limits(self, seconds: f64, smoke: bool) -> Limits {
        let (min_ops, max_ops) = match (self, smoke) {
            (Workload::ColdMatrix | Workload::NetModels, true) => (2, 2),
            (Workload::WarmMatrix, true) => (5, 5),
            (Workload::ServeMix, true) => (16, 16),
            (Workload::ColdMatrix, false) => (3, 7),
            (Workload::NetModels, false) => (4, 9),
            (Workload::WarmMatrix, false) => (60, 200),
            (Workload::ServeMix, false) => (64, 240),
        };
        Limits {
            seconds,
            min_ops,
            max_ops,
        }
    }
}

/// Bounds of a timed window: it runs for `seconds`, but never fewer than
/// `min_ops` nor more than `max_ops` ops.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub seconds: f64,
    pub min_ops: usize,
    pub max_ops: usize,
}

impl Limits {
    /// A window of exactly `ops` ops, however long they take.
    pub fn exactly(ops: usize) -> Limits {
        Limits {
            seconds: 0.0,
            min_ops: ops,
            max_ops: ops,
        }
    }

    /// Whether another op is due after `taken` ops and `elapsed_s` seconds.
    pub fn due(&self, taken: usize, elapsed_s: f64) -> bool {
        taken < self.max_ops && (taken < self.min_ops || elapsed_s < self.seconds)
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub limits: Limits,
    /// Tiny inputs and a handful of ops: exercises every workload end to
    /// end in seconds. Its numbers mean nothing.
    pub smoke: bool,
    /// Fill the cache in a child process, so the fill's memory does not
    /// count in this process's `peak_rss_mb`. Tests fill in-process (their
    /// executable has no `fill` subcommand).
    pub fill_in_child: bool,
}

impl RunConfig {
    pub fn scale(&self) -> ScaleProfile {
        if self.smoke {
            ScaleProfile::Tiny
        } else {
            ScaleProfile::Scaled
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One completed op of a timed window.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub latency_ms: f64,
    pub cells: u64,
    /// Simulated memory ops whose results the op delivered.
    pub mem_ops: u64,
    /// The op's request class: a `serve_mix` request the daemon has not
    /// seen before. Every other op is of the one common class.
    pub novel: bool,
}

/// What one timed window measured, before it is turned into metrics.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: f64,
    /// What filling the cache took, where the workload's input is a filled
    /// cache: one cold pass, run once, and so not part of `setup_s`.
    pub fill_s: Option<f64>,
    /// The ops that succeeded, in completion order.
    pub ops: Vec<Op>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `VmHWM` when the window ended: what is measured or checked after
    /// the window does not count.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub errors: Vec<String>,
    /// Numbers of the window that carry no bound: printed by the run, and
    /// some of them per-layer metrics of the traced run.
    pub diagnostics: Vec<Metric>,
}

impl Measured {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.latency_ms).collect()
    }

    /// Process CPU time of the window per op (user + system, all threads).
    pub fn cpu_s_per_op(&self) -> f64 {
        self.cpu_s / self.ops.len().max(1) as f64
    }

    /// The end-to-end metrics, by name, as `BENCHMARK.json` lists them.
    ///
    /// Latency is read at the fast tenth of the ops, not at the median: the
    /// sandbox host's interference is one-sided, and the fast end of a
    /// window keeps returning to the same floor while its median moves by a
    /// quarter (`README.md` has the measurements). It is read per request
    /// class and the classes are averaged with equal weight, so that the
    /// one `serve_mix` request in eight that is novel counts as much as the
    /// seven repeats; the other workloads have one class.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        let class_p10s: Vec<f64> = [false, true]
            .into_iter()
            .filter_map(|novel| self.class_p10_ms(novel))
            .collect();
        if class_p10s.is_empty() {
            return Err("no op of the timed window succeeded".to_string());
        }
        Ok(vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new(
                "op_p10_ms",
                class_p10s.iter().sum::<f64>() / class_p10s.len() as f64,
                "ms",
            ),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ])
    }

    /// Latency at the 10th percentile of one request class, if it has ops.
    pub fn class_p10_ms(&self, novel: bool) -> Option<f64> {
        let latencies: Vec<f64> = self
            .ops
            .iter()
            .filter(|op| op.novel == novel)
            .map(|op| op.latency_ms)
            .collect();
        (!latencies.is_empty()).then(|| stats::percentile(&stats::sorted(&latencies), 10))
    }

    /// What the window also measured, without a bound.
    pub fn window_diagnostics(&self) -> Vec<Metric> {
        let cells: u64 = self.ops.iter().map(|op| op.cells).sum();
        // Simulated memory ops an op delivered per second of its latency:
        // host time per simulated op, inverted, read at the fast tenth.
        let rates = stats::sorted(
            &self
                .ops
                .iter()
                .map(|op| op.mem_ops as f64 / (op.latency_ms / 1e3) / 1e6)
                .collect::<Vec<_>>(),
        );
        let mut out = vec![
            Metric::new(
                "window.sim_mops_per_s",
                stats::percentile(&rates, 90),
                "Mops/s",
            ),
            Metric::new(
                "window.op_p50_ms",
                stats::median(&self.latencies_ms()),
                "ms",
            ),
            Metric::new("window.cells_per_s", cells as f64 / self.wall_s, "cells/s"),
            Metric::new("window.cpu_s_per_op", self.cpu_s_per_op(), "s"),
        ];
        if let Some(fill_s) = self.fill_s {
            out.push(Metric::new("window.fill_s", fill_s, "s"));
        }
        out
    }
}

/// Runs `op` back to back within `limits`, timing each call; every call
/// delivers `cells` cells covering `mem_ops` simulated memory ops. A failed
/// op is recorded, not timed, and does not stop the window.
pub fn sequential_window(
    limits: &Limits,
    cells: u64,
    mem_ops: u64,
    mut op: impl FnMut() -> Result<(), String>,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let cpu_before = sys::process_cpu_s()?;
    let started = Instant::now();
    while limits.due(m.attempted as usize, started.elapsed().as_secs_f64()) {
        let t = Instant::now();
        let result = op();
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        m.attempted += 1;
        match result {
            Ok(()) => m.ops.push(Op {
                latency_ms,
                cells,
                mem_ops,
                novel: false,
            }),
            Err(e) => m.errors.push(e),
        }
    }
    m.wall_s = started.elapsed().as_secs_f64();
    m.cpu_s = sys::process_cpu_s()? - cpu_before;
    m.peak_rss_mb = sys::peak_rss_mb()?;
    Ok(m)
}

/// Compiles a spec the way every front end does.
pub fn compile(spec: &ExperimentSpec) -> Result<CompiledPlan, String> {
    spec.compile(&WorkloadSet::new())
        .map_err(|e| format!("cannot compile `{}`: {e}", spec.name))
}

pub fn plan_mem_ops(plan: &CompiledPlan) -> u64 {
    plan.cells
        .iter()
        .map(|c| c.workload.total_mem_ops() as u64)
        .sum()
}

/// Executes a compiled plan on `session` and renders its figures document.
pub fn execute_to_figures(session: &Session, plan: &CompiledPlan) -> Result<(String, u64), String> {
    let outcome = session
        .execute(plan)
        .map_err(|e| format!("cannot execute `{}`: {e}", plan.name))?;
    let figures = tw_bench::plan_figures_json(&outcome)
        .map_err(|e| format!("cannot render figures of `{}`: {e}", plan.name))?;
    Ok((figures, outcome.cache.hits))
}

/// The op of `cold_matrix` and `net_models`: a fresh cache-less session
/// simulates every cell, and the figures must digest to the golden.
pub fn cold_op(plan: &CompiledPlan) -> Result<(), String> {
    let (figures, _) = execute_to_figures(&Session::new(), plan)?;
    specs::check_golden(&plan.name, figures.as_bytes())
}

/// The op of `warm_matrix`, which is what `experiments plan run --cache`
/// does on a filled cache: parse, compile, execute on a fresh session over
/// the cache directory, render. Every cell must come from the cache.
pub fn warm_op(spec_text: &str, cache_dir: &Path) -> Result<(), String> {
    let spec = ExperimentSpec::from_json(spec_text).map_err(|e| format!("bad spec: {e}"))?;
    let plan = compile(&spec)?;
    let session = Session::new().with_cache_dir(cache_dir);
    let (figures, hits) = execute_to_figures(&session, &plan)?;
    if hits != plan.cells.len() as u64 {
        return Err(format!(
            "{hits} of {} cells came from the cache",
            plan.cells.len()
        ));
    }
    specs::check_golden(&plan.name, figures.as_bytes())
}

/// Fills `cache_dir` with every cell of the matrix spec at `scale`.
pub fn fill_cache(scale: ScaleProfile, cache_dir: &Path) -> Result<(), String> {
    let plan = compile(&ExperimentSpec::full_matrix(scale))?;
    let session = Session::new().with_cache_dir(cache_dir);
    execute_to_figures(&session, &plan).map(|_| ())
}

/// Fills the cache and returns how long that took, in seconds.
fn fill_cache_for(config: &RunConfig, cache_dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    if config.fill_in_child {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        let status = std::process::Command::new(exe)
            .args(["fill", "--scale", config.scale().name(), "--dir"])
            .arg(cache_dir)
            .status()
            .map_err(|e| format!("cannot start the cache fill: {e}"))?;
        if !status.success() {
            return Err(format!("the cache fill ended with {status}"));
        }
    } else {
        fill_cache(config.scale(), cache_dir)?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Runs one workload's timed window with tracing off.
pub fn run(config: &RunConfig) -> Result<Measured, String> {
    match config.workload {
        Workload::ColdMatrix | Workload::NetModels => run_engine(config),
        Workload::WarmMatrix => run_warm(config),
        Workload::ServeMix => run_serve(config),
    }
}

/// How often a run sets its workload up before the window, and again after.
pub const SETUP_REPEATS: usize = 3;

/// Times a workload's set-up stage: [`SETUP_REPEATS`] times before the
/// window and as often after it, the fastest of all counting as `setup_s`.
///
/// The fastest and not the median, and on both sides of the window, because
/// the host's interference only ever adds time and lasts for seconds: five
/// repeats in a row are all slow in a slow moment, while the fastest of
/// repeats some twenty seconds apart returns to the same floor.
///
/// A cache fill is not part of any stage. It is one cold pass, which
/// `cold_matrix` measures, it cannot be repeated within the time a run has,
/// and as a single sample it swung `setup_s` by 30 % with the host.
struct SetUp {
    fastest_s: f64,
}

impl SetUp {
    fn new() -> SetUp {
        SetUp {
            fastest_s: f64::INFINITY,
        }
    }

    /// Runs `stage` [`SETUP_REPEATS`] times and returns what the last
    /// repeat set up; what an earlier one set up is dropped, untimed,
    /// before the next begins.
    fn repeat<T>(&mut self, mut stage: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            drop(last.take());
            let t = Instant::now();
            last = Some(stage()?);
            self.fastest_s = self.fastest_s.min(t.elapsed().as_secs_f64());
        }
        Ok(last.expect("set up at least once"))
    }
}

fn run_engine(config: &RunConfig) -> Result<Measured, String> {
    let spec = config.workload.spec(config.scale());
    // Set-up is compiling the plan (workload generation and digests), then
    // a pass over the Tiny matrix to fault in code and allocator arenas; a
    // full warm-up pass would cost as much as a timed one.
    let tiny = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
    let stage = || {
        let plan = compile(&spec)?;
        cold_op(&compile(&tiny)?)?;
        Ok(plan)
    };
    let mut setup = SetUp::new();
    let plan = setup.repeat(stage)?;

    let cells = plan.cells.len() as u64;
    let mut m = sequential_window(&config.limits, cells, plan_mem_ops(&plan), || {
        cold_op(&plan)
    })?;
    drop(plan);
    setup.repeat(stage)?;
    m.setup_s = setup.fastest_s;
    Ok(m)
}

fn run_warm(config: &RunConfig) -> Result<Measured, String> {
    let scratch = Scratch::create()?;
    let cache_dir = scratch.path("cache");
    let spec = config.workload.spec(config.scale());
    let spec_text = spec.to_json();
    let fill_s = fill_cache_for(config, &cache_dir)?;

    // Every op opens a fresh session, so nothing stays set up between ops:
    // set-up is a warm-up op, the first of which also faults the cache
    // files in.
    let stage = || warm_op(&spec_text, &cache_dir);
    let mut setup = SetUp::new();
    setup.repeat(stage)?;

    // Compiled for its counts only and dropped again: held, the plan's
    // workloads would sit under every op's own and double `peak_rss_mb`.
    let (cells, mem_ops) = {
        let plan = compile(&spec)?;
        (plan.cells.len() as u64, plan_mem_ops(&plan))
    };
    let mut m = sequential_window(&config.limits, cells, mem_ops, stage)?;
    setup.repeat(stage)?;
    m.setup_s = setup.fastest_s;
    m.fill_s = Some(fill_s);
    Ok(m)
}

fn run_serve(config: &RunConfig) -> Result<Measured, String> {
    let scratch = Scratch::create()?;
    let cache_dir = scratch.path("cache");
    let spec = config.workload.spec(config.scale());
    let repeat_text = spec.to_json();
    // Compiled for its count only and dropped before anything is measured.
    let repeat_mem_ops = plan_mem_ops(&compile(&spec)?);
    let schedule = Schedule::new(config.seed);
    let traffic = Traffic {
        schedule: &schedule,
        repeat_text: &repeat_text,
    };
    let fill_s = fill_cache_for(config, &cache_dir)?;

    // Set-up is starting the daemon and one round of the schedule, its
    // novel request included. Every repeat starts a daemon of its own, with
    // a session that has seen nothing, and takes the schedule's next round,
    // so that no novel request finds what an earlier one stored.
    let position = Cell::new(0);
    let mut warm_replies = Vec::new();
    let mut stage = || {
        let daemon = Daemon::start(scratch.path("d.sock"), &cache_dir)?;
        let round = Limits::exactly(specs::NOVEL_EVERY);
        let (replies, _) = serve::closed_loop(&daemon, &traffic, position.get(), &round)?;
        position.set(position.get() + replies.len());
        warm_replies.extend(replies);
        Ok(daemon)
    };
    let mut setup = SetUp::new();
    let daemon = setup.repeat(&mut stage)?;

    let cpu_before = sys::process_cpu_s()?;
    let (replies, wall_s) = serve::closed_loop(&daemon, &traffic, position.get(), &config.limits)?;
    let cpu_s = sys::process_cpu_s()? - cpu_before;
    let peak_rss_mb = sys::peak_rss_mb()?;
    position.set(position.get() + replies.len());
    let queue_peak = daemon
        .client()?
        .stats()?
        .require("queue_peak")
        .and_then(|v| v.as_u64())?;
    daemon.stop()?;
    drop(setup.repeat(&mut stage)?);

    let mut m = Measured {
        setup_s: setup.fastest_s,
        fill_s: Some(fill_s),
        wall_s,
        cpu_s,
        peak_rss_mb,
        attempted: replies.len() as u64,
        ..Measured::default()
    };
    // Warm-up replies are checked too, but only timed replies are counted.
    for reply in &warm_replies {
        if let Err(e) = check_reply(reply, &spec.name, repeat_mem_ops) {
            return Err(format!("warm-up request {}: {e}", reply.position));
        }
    }
    for reply in &replies {
        match check_reply(reply, &spec.name, repeat_mem_ops) {
            Ok(mem_ops) => m.ops.push(Op {
                latency_ms: reply.latency_ms,
                cells: reply.cells,
                mem_ops,
                novel: matches!(reply.request, Request::Novel { .. }),
            }),
            Err(e) => m.errors.push(format!("request {}: {e}", reply.position)),
        }
    }
    m.diagnostics = serve_diagnostics(&replies, queue_peak);
    Ok(m)
}

/// Checks one daemon reply and returns the simulated memory ops it covers.
/// A repeat must digest to the golden of `repeat_name`; a novel body must
/// equal, byte for byte, a fresh cache-less in-process run of the same spec.
fn check_reply(reply: &Reply, repeat_name: &str, repeat_mem_ops: u64) -> Result<u64, String> {
    if let Some(e) = &reply.error {
        return Err(e.clone());
    }
    match reply.request {
        Request::Repeat => {
            let want = specs::golden(repeat_name)?;
            if reply.digest != want {
                return Err(format!(
                    "figures digest to {}, golden is {want}",
                    reply.digest
                ));
            }
            Ok(repeat_mem_ops)
        }
        Request::Novel { l2_kib } => {
            let plan = compile(&specs::novel(l2_kib))?;
            let (want, _) = execute_to_figures(&Session::new(), &plan)?;
            if reply.novel_body.as_deref() != Some(want.as_bytes()) {
                return Err(format!(
                    "novel response differs from the in-process run of `{}` ({} vs {})",
                    plan.name,
                    reply.digest,
                    Digest::of_bytes(want.as_bytes())
                ));
            }
            Ok(plan_mem_ops(&plan))
        }
    }
}

/// Per-layer numbers the closed loop yields: latency by request class, the
/// tail percentile the sample count supports, and the daemon's own split of
/// each request into queue wait and execution.
pub fn serve_diagnostics(replies: &[Reply], queue_peak: u64) -> Vec<Metric> {
    let ok: Vec<&Reply> = replies.iter().filter(|r| r.error.is_none()).collect();
    let percentile_of = |p: u32, f: &dyn Fn(&Reply) -> Option<f64>| {
        let v: Vec<f64> = ok.iter().filter_map(|r| f(r)).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(&stats::sorted(&v), p)
        }
    };
    let median_of = |f: &dyn Fn(&Reply) -> Option<f64>| percentile_of(50, f);
    let class = |novel: bool| {
        move |r: &Reply| {
            (matches!(r.request, Request::Novel { .. }) == novel).then_some(r.latency_ms)
        }
    };
    let latencies = stats::sorted(&ok.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
    // Novel requests are not the slow ones (18 Tiny cells simulate faster
    // than the matrix's workloads generate): the tail is contended repeats.
    let (tail_p, tail_ms) = match stats::tail_percentile(latencies.len()) {
        Some(p) => (p, stats::percentile(&latencies, p)),
        None => (100, latencies.last().copied().unwrap_or(0.0)),
    };
    let cells: u64 = ok.iter().map(|r| r.cells).sum();
    let served: u64 = ok.iter().map(|r| r.hits + r.coalesced).sum();
    vec![
        // The two halves of `op_p10_ms` on `serve_mix`.
        Metric::new(
            "serve.repeat_p10_ms",
            percentile_of(10, &class(false)),
            "ms",
        ),
        Metric::new("serve.novel_p10_ms", percentile_of(10, &class(true)), "ms"),
        Metric::new("serve.repeat_p50_ms", median_of(&class(false)), "ms"),
        Metric::new("serve.novel_p50_ms", median_of(&class(true)), "ms"),
        Metric::new("serve.op_tail_ms", tail_ms, "ms"),
        Metric::new("serve.tail_percentile", f64::from(tail_p), "percentile"),
        Metric::new(
            "serve.hit_ratio",
            served as f64 / cells.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "daemon.queue_wait_p50_ms",
            median_of(&|r| Some(r.queue_ms)),
            "ms",
        ),
        Metric::new("daemon.exec_p50_ms", median_of(&|r| Some(r.exec_ms)), "ms"),
        Metric::new("daemon.queue_peak", queue_peak as f64, "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_hold_the_floor_and_the_ceiling() {
        let l = Limits {
            seconds: 10.0,
            min_ops: 3,
            max_ops: 7,
        };
        assert!(l.due(0, 99.0), "below the floor time does not matter");
        assert!(l.due(2, 99.0));
        assert!(!l.due(3, 10.0), "floor met and time up");
        assert!(l.due(3, 9.9));
        assert!(!l.due(7, 0.0), "ceiling");
    }

    /// `--smoke`: all four workloads end to end on Tiny inputs, outputs
    /// checked against the Tiny goldens, every end-to-end metric present.
    #[test]
    fn smoke_runs_all_four_workloads_end_to_end() {
        for workload in Workload::ALL {
            let config = RunConfig {
                workload,
                seed: 3,
                limits: workload.limits(0.2, true),
                smoke: true,
                fill_in_child: false,
            };
            let m = run(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert_eq!(m.errors, Vec::<String>::new(), "{}", workload.name());
            assert_eq!(m.ops.len(), config.limits.max_ops, "{}", workload.name());
            let metrics = m.end_to_end().unwrap();
            let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, ["setup_s", "op_p10_ms", "peak_rss_mb"]);
            for metric in metrics.iter().chain(&m.window_diagnostics()) {
                // CPU time has 10 ms ticks; a Tiny window can read zero.
                assert!(
                    metric.value > 0.0 || metric.name == "window.cpu_s_per_op",
                    "{} {}",
                    workload.name(),
                    metric.name
                );
            }
            assert_eq!(
                m.fill_s.is_some(),
                matches!(workload, Workload::WarmMatrix | Workload::ServeMix)
            );
            if workload == Workload::ServeMix {
                // Both request classes are in the window, and the latency
                // of record is the mean of their fast ends.
                let (repeat, novel) = (
                    m.class_p10_ms(false).unwrap(),
                    m.class_p10_ms(true).unwrap(),
                );
                assert_eq!(metrics[1].value, (repeat + novel) / 2.0);
                let printed =
                    |name: &str| m.diagnostics.iter().find(|d| d.name == name).unwrap().value;
                assert_eq!(printed("serve.repeat_p10_ms"), repeat);
                assert_eq!(printed("serve.novel_p10_ms"), novel);
            } else {
                assert_eq!(m.class_p10_ms(true), None);
            }
        }
    }
}
