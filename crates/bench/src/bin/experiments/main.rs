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
//! profile is assumed (the figure commands are sugar over two built-in
//! plans, the full matrix and the update-vs-invalidate primitives, run on
//! one `Session`). See EXPERIMENTS.md for the `plan`, `trace` and daemon
//! walkthroughs, and DESIGN.md §13 for the wire protocol.
//!
//! Exit codes (uniform across every subcommand; `experiments help` prints
//! the same contract):
//!
//! * **0** — success;
//! * **1** — a *check* failed: `trace diff` divergence, a `trace roundtrip`
//!   mismatch, fuzz invariant violations, a failed fuzz self-test, a stale
//!   `WORKLOADS.digests`;
//! * **2** — the *request* was invalid or could not be carried out: unknown
//!   flags/figures/subcommands, unreadable or malformed inputs, specs that
//!   do not compile, runs that fail, output that produces no cells, daemon
//!   connection errors.
//!
//! Every command's `run` returns `Ok(code)` for the first two and `Err` for
//! the third; `main` is the only place an `Err` becomes exit 2. A reader
//! that closes stdout early (`| head -n 1`) ends the command quietly with
//! exit 0: every command prints through `out!` and `outln!`.

/// `print!` whose write to a closed pipe ends the process with exit 0
/// (`write_stdout`).
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` whose write to a closed pipe ends the process with exit 0
/// (`write_stdout`).
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod cli;
mod daemon;
mod figures;
mod fuzz;
mod plan;
mod profile;
mod trace;
mod workloads;

use denovo_waste::{
    CacheStats, CellGroup, CompiledPlan, ExperimentSpec, PlanOutcome, Session, SessionCounters,
    WorkloadSet,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tw_obs::{FlightRecorder, SpanSink};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = cli::parse(&argv).and_then(|parsed| match parsed {
        cli::Parsed::Help(text) => {
            outln!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        cli::Parsed::Run(args) => (args.command.run)(&args),
    });
    result.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(2)
    })
}

/// Writes to stdout. A reader that closed the pipe wants nothing more, so
/// a broken pipe ends the process with exit 0; any other error panics, as
/// `print!` does.
fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::Write::write_fmt(&mut std::io::stdout(), args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
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

/// What [`run_plan`] did: each plan compiled and its outcome, in the order
/// given, the wall time of compiling and executing them all, their
/// session's counters, and the flight recorder when one was armed.
struct Ran {
    plans: Vec<CompiledPlan>,
    outcomes: Vec<PlanOutcome>,
    wall: Duration,
    counters: SessionCounters,
    recorder: Option<Arc<FlightRecorder>>,
}

/// The one way a command executes plans: one fresh [`Session`] compiles and
/// executes each `(spec, provided workloads)` in turn, routed through the
/// result cache when `cache` names a directory. `record` is `(track, out)`:
/// it arms a flight recorder rooted at `track` (returned, for callers that
/// report from it) whose trace is written to `out` when given.
fn run_plan(
    specs: &[(ExperimentSpec, WorkloadSet)],
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
    let started = Instant::now();
    let (mut plans, mut outcomes) = (Vec::new(), Vec::new());
    for (spec, provided) in specs {
        eprintln!("running plan `{}` ({:?} scale)...", spec.name, spec.scale);
        let t = Instant::now();
        let plan = session.compile(spec, provided)?;
        let outcome = session.execute(&plan)?;
        let (cells, took) = (outcome.cells(), t.elapsed());
        eprintln!("plan of {cells} cells finished in {took:.2?}");
        plans.push(plan);
        outcomes.push(outcome);
    }
    let recorder = flight.map(|(rec, _)| rec);
    if let (Some(rec), Some((_, Some(out)))) = (&recorder, record) {
        write_file(out, rec.to_jsonl())?;
    }
    Ok(Ran {
        plans,
        outcomes,
        wall: started.elapsed(),
        counters: session.counters(),
        recorder,
    })
}

/// `N cells, D distinct, R runs`: a plan's cells, the distinct machines
/// among them, and the simulations that time those machines, one lane per
/// network model ([`Session::groups`]).
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

/// The cache-statistics line the figure runner and `plan run` print, over
/// every plan of a run. The three counts sum to the cells run; the rate is
/// the share not simulated.
fn cache_line(outcomes: &[PlanOutcome]) -> String {
    let mut s = CacheStats::default();
    for o in outcomes {
        s.hits += o.cache.hits;
        s.misses += o.cache.misses;
        s.coalesced += o.cache.coalesced;
    }
    format!(
        "cache: {} hits / {} misses / {} coalesced ({:.0}% hit rate)",
        s.hits,
        s.misses,
        s.coalesced,
        100.0 * s.hit_rate()
    )
}
