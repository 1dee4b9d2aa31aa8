//! Regenerates every table and figure of the paper's evaluation section,
//! runs declarative experiment plans, records/replays trace files, fuzzes
//! the protocol registry and serves plans as traffic.
//!
//! ```text
//! cargo run -p tw-bench --release --bin experiments -- help
//! ```
//!
//! prints every command with its operands and flags, rendered from the one
//! command table in `cli.rs` that the parser also reads (`<command> --help`
//! prints a single command's line). With no arguments, `all` at the scaled
//! profile is assumed (the figure commands are sugar over the built-in
//! full-matrix spec, run through a `Session`). See EXPERIMENTS.md for the
//! `plan`, `trace` and daemon walkthroughs, and DESIGN.md §13 for the wire
//! protocol.
//!
//! Exit codes (uniform across every subcommand; `experiments help` prints
//! the same contract):
//!
//! * **0** — success;
//! * **1** — a *check* failed: `trace diff` divergence, a `trace roundtrip`
//!   mismatch, fuzz invariant violations, a failed fuzz self-test;
//! * **2** — the *request* was invalid or could not be carried out: unknown
//!   flags/figures/subcommands, unreadable or malformed inputs, specs that
//!   do not compile, runs that fail, output that produces no cells, daemon
//!   connection errors.
//!
//! Every command's `run` returns `Ok(code)` for the first two and `Err` for
//! the third; `main` is the only place an `Err` becomes exit 2.

mod cli;
mod daemon;
mod figures;
mod fuzz;
mod plan;
mod profile;
mod trace;

use denovo_waste::{
    CacheStats, CellGroup, CompiledPlan, ExperimentSpec, PlanOutcome, Session, WorkloadSet,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tw_obs::{FlightRecorder, SpanSink};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = cli::parse(&argv).and_then(|parsed| match parsed {
        cli::Parsed::Help(text) => {
            println!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        cli::Parsed::Run(args) => (args.command.run)(&args),
    });
    result.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(2)
    })
}

/// A fresh flight recorder plus a sink rooted at `track`.
fn armed_recorder(track: &str) -> (Arc<FlightRecorder>, SpanSink) {
    let rec = Arc::new(FlightRecorder::new());
    let sink = SpanSink::new(Arc::clone(&rec), track);
    (rec, sink)
}

/// Writes an output file and says so on stderr.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// What [`run_plan`] did: the compiled plan, its outcome, the wall time of
/// compiling and executing it, the generated workloads whose records it
/// built, and the flight recorder when one was armed.
struct Ran {
    plan: CompiledPlan,
    outcome: PlanOutcome,
    wall: Duration,
    materialized: u64,
    recorder: Option<Arc<FlightRecorder>>,
}

/// The one way a command executes a plan: a fresh [`Session`], routed
/// through the result cache when `cache` names a directory. `record` is
/// `(track, out)`: it arms a flight recorder rooted at `track` (returned, for
/// callers that report from it) whose trace is written to `out` when given.
fn run_plan(
    spec: &ExperimentSpec,
    provided: &WorkloadSet,
    cache: Option<&str>,
    record: Option<(&str, Option<&str>)>,
) -> Result<Ran, String> {
    let mut session = Session::new();
    if let Some(dir) = cache {
        session = session.with_cache_dir(dir);
    }
    let flight = record.map(|(track, _)| armed_recorder(track));
    if let Some((_, sink)) = &flight {
        session = session.with_recorder(sink.clone());
    }
    eprintln!("running plan `{}` ({:?} scale)...", spec.name, spec.scale);
    let started = Instant::now();
    let plan = session.compile(spec, provided)?;
    let outcome = session.execute(&plan)?;
    let wall = started.elapsed();
    eprintln!("plan of {} cells finished in {wall:.2?}", outcome.cells());
    let recorder = flight.map(|(rec, _)| rec);
    if let (Some(rec), Some((_, Some(out)))) = (&recorder, record) {
        write_file(out, rec.to_jsonl())?;
    }
    Ok(Ran {
        plan,
        outcome,
        wall,
        materialized: session.counters().workloads_materialized,
        recorder,
    })
}

/// `N cells, D distinct, R runs`: a plan's cells, the distinct machines
/// among them, and the simulations that time those machines, one timed lane
/// per network model ([`Session::groups`]).
fn census(groups: &[CellGroup]) -> String {
    let distinct = groups.iter().enumerate().filter(|&(i, g)| g.leader == i);
    let runs = groups.iter().enumerate().filter(|&(i, g)| g.run == i);
    format!(
        "{} cells, {} distinct, {} runs",
        groups.len(),
        distinct.count(),
        runs.count()
    )
}

/// The cache-statistics line the figure runner and `plan run` print. The
/// three counts sum to the cells run; the rate is the share not simulated.
fn cache_line(s: &CacheStats) -> String {
    format!(
        "cache: {} hits / {} misses / {} coalesced ({:.0}% hit rate)",
        s.hits,
        s.misses,
        s.coalesced,
        100.0 * s.hit_rate()
    )
}
