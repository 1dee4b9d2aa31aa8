//! Regenerates every table and figure of the paper's evaluation section,
//! runs declarative experiment plans, and records/replays trace files.
//!
//! Usage:
//!
//! ```text
//! cargo run -p tw-bench --release --bin experiments -- all
//! cargo run -p tw-bench --release --bin experiments -- fig5_1a headline
//! cargo run -p tw-bench --release --bin experiments -- --paper all
//! cargo run -p tw-bench --release --bin experiments -- all --json
//! cargo run -p tw-bench --release --bin experiments -- all --cache .exp-cache
//! cargo run -p tw-bench --release --bin experiments -- fig5_2 --network flit
//!
//! cargo run -p tw-bench --release --bin experiments -- plan builtin --tiny > spec.json
//! cargo run -p tw-bench --release --bin experiments -- plan builtin --tiny --network analytic,flit > both.json
//! cargo run -p tw-bench --release --bin experiments -- plan show spec.json
//! cargo run -p tw-bench --release --bin experiments -- plan run spec.json --cache .exp-cache
//!
//! cargo run -p tw-bench --release --bin experiments -- trace record out.trace --bench FFT
//! cargo run -p tw-bench --release --bin experiments -- trace replay out.trace
//! cargo run -p tw-bench --release --bin experiments -- trace info out.trace
//! cargo run -p tw-bench --release --bin experiments -- trace diff a.trace b.trace
//! cargo run -p tw-bench --release --bin experiments -- trace roundtrip --tiny
//!
//! cargo run -p tw-bench --release --bin experiments -- fuzz --seeds 50
//! cargo run -p tw-bench --release --bin experiments -- fuzz --self-test
//!
//! cargo run -p tw-bench --release --bin experiments -- profile spec.json --top 10 --trace out.jsonl
//! cargo run -p tw-bench --release --bin experiments -- profile diff a.jsonl b.jsonl
//!
//! cargo run -p tw-bench --release --bin experiments -- serve --socket /tmp/exp.sock
//! cargo run -p tw-bench --release --bin experiments -- submit spec.json --socket /tmp/exp.sock
//! cargo run -p tw-bench --release --bin experiments -- stats --socket /tmp/exp.sock
//! cargo run -p tw-bench --release --bin experiments -- metrics --socket /tmp/exp.sock
//! cargo run -p tw-bench --release --bin experiments -- loadgen --socket /tmp/exp.sock --requests 32
//! cargo run -p tw-bench --release --bin experiments -- shutdown --socket /tmp/exp.sock
//! ```
//!
//! With no arguments, `all` at the scaled profile is assumed (the figure
//! commands are sugar over the built-in full-matrix spec, run through a
//! `Session`). `--json` additionally writes a machine-readable
//! `BENCH_results.json` (matrix wall time, headline averages, per-figure
//! values) to the current directory; `--cache DIR` routes the run through
//! the content-addressed result cache. See EXPERIMENTS.md for the `plan`,
//! `trace` and daemon walkthroughs, and DESIGN.md §13 for the wire
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

use denovo_waste::{
    protocol_by_name, ExperimentError, ExperimentSpec, PlanOutcome, ScaleProfile, Session,
    SimConfig, SimReport, Simulator, WorkloadSet, WorkloadSpec,
};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use tw_obs::{FlightRecorder, SpanSink};
use tw_scenarios::{detect, golden_execute, synthesize, DifferentialRunner, Mutation, SynthConfig};
use tw_trace::TraceDocument;
use tw_types::{NetworkModelKind, ProtocolKind};
use tw_workloads::{BenchmarkKind, Workload};

/// A fresh flight recorder plus a sink rooted at `track` — the arm-recording
/// helper every `--record`/`profile` path shares.
fn armed_recorder(track: &str) -> (Arc<FlightRecorder>, SpanSink) {
    let rec = Arc::new(FlightRecorder::new());
    let sink = SpanSink::new(Arc::clone(&rec) as _, track);
    (rec, sink)
}

/// Writes a recorder's trace JSONL to `path`.
fn write_trace(rec: &FlightRecorder, path: &str) -> Result<(), String> {
    std::fs::write(path, rec.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path} ({} spans)", rec.len());
    Ok(())
}

fn print_headline(outcome: &PlanOutcome) -> Result<(), ExperimentError> {
    let h = outcome.headline()?;
    println!("== Headline cross-benchmark averages (paper value in parentheses) ==");
    println!(
        "DBypFull traffic vs MESI:    {:.3}  (paper ~0.605, i.e. a 39.5% reduction)",
        h.dbypfull_traffic_vs_mesi
    );
    println!(
        "DBypFull traffic vs MMemL1:  {:.3}  (paper ~0.648, i.e. a 35.2% reduction)",
        h.dbypfull_traffic_vs_mmeml1
    );
    println!(
        "DBypFull traffic vs DFlexL1: {:.3}  (paper ~0.811, i.e. an 18.9% reduction)",
        h.dbypfull_traffic_vs_dflexl1
    );
    println!(
        "DeNovo traffic vs MESI:      {:.3}  (paper ~0.861, i.e. a 13.9% reduction)",
        h.denovo_traffic_vs_mesi
    );
    println!(
        "DBypFull time vs MESI:       {:.3}  (paper ~0.895, i.e. a 10.5% reduction)",
        h.dbypfull_time_vs_mesi
    );
    println!(
        "MMemL1 time vs MESI:         {:.3}  (paper ~0.962, i.e. a 3.8% reduction)",
        h.mmeml1_time_vs_mesi
    );
    println!(
        "DBypFull residual waste:     {:.3}  (paper ~0.088)",
        h.dbypfull_waste_fraction
    );
    println!(
        "MESI overhead fraction:      {:.3}  (paper ~0.136)",
        h.mesi_overhead_fraction
    );
    Ok(())
}

const FIGURES: [&str; 13] = [
    "all",
    "table4_1",
    "table4_2",
    "fig5_1a",
    "fig5_1b",
    "fig5_1c",
    "fig5_1d",
    "fig5_2",
    "fig5_3a",
    "fig5_3b",
    "fig5_3c",
    "figupdate",
    "headline",
];

/// The scale profile `args` ask for (`default` when they name none). Two
/// different scale flags are rejected, naming both: resolving them silently
/// could start the multi-minute Paper matrix when `--tiny` was typed last.
fn scale_from(args: &[String], default: ScaleProfile) -> Result<ScaleProfile, String> {
    let mut chosen: Option<&str> = None;
    for a in args.iter().map(String::as_str) {
        if !matches!(a, "--tiny" | "--scaled" | "--paper") {
            continue;
        }
        if let Some(first) = chosen.filter(|first| *first != a) {
            return Err(format!(
                "conflicting scale flags `{first}` and `{a}`: pass at most one scale"
            ));
        }
        chosen = Some(a);
    }
    chosen.map_or(Ok(default), |flag| ScaleProfile::by_name(&flag[2..]))
}

/// Extracts the value following a `--flag` from `args`, removing both.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if at + 1 >= args.len() || args[at + 1].starts_with("--") {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Ok(Some(value))
}

/// Parses a comma-separated `--network` value into model kinds (unknown
/// names are rejected with the name in the error, per the by_name rule).
fn parse_networks(list: &str) -> Result<Vec<NetworkModelKind>, String> {
    list.split(',')
        .map(|n| NetworkModelKind::by_name(n.trim()))
        .collect()
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        return trace_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fuzz") {
        return fuzz_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("plan") {
        return plan_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("profile") {
        return profile_main(&args[1..]);
    }
    if let Some(cmd @ ("serve" | "submit" | "stats" | "metrics" | "shutdown" | "loadgen")) =
        args.first().map(String::as_str)
    {
        let cmd = cmd.to_string();
        return daemon_main(&cmd, &args[1..]);
    }
    if args.first().map(String::as_str) == Some("help")
        || args.iter().any(|a| a == "--help" || a == "-h")
    {
        return print_help();
    }
    let cache = match take_flag_value(&mut args, "--cache") {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let record = match take_flag_value(&mut args, "--record") {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // The figure commands run one network model (the benchmark-keyed figure
    // rows can't represent two models per benchmark); a multi-model sweep
    // is a plan (`plan builtin --network analytic,flit` + `plan run`).
    let network = match take_flag_value(&mut args, "--network").and_then(|v| match v {
        None => Ok(None),
        Some(name) => NetworkModelKind::by_name(&name).map(Some),
    }) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // Reject anything unrecognized up front: a typo'd `--json` or figure
    // name must not silently cost a multi-minute matrix run. The rejected
    // token itself is always named in the error.
    for a in &args {
        if a.starts_with("--")
            && !matches!(a.as_str(), "--paper" | "--scaled" | "--tiny" | "--json")
        {
            eprintln!(
                "unknown flag `{a}`; expected --paper | --scaled | --tiny | --json | --cache DIR | --network NAME | --record FILE"
            );
            return ExitCode::from(2);
        }
        if !a.starts_with("--") && !FIGURES.contains(&a.as_str()) {
            eprintln!(
                "unknown figure `{a}`; expected one of: {} (or the `plan` / `trace` / `fuzz` subcommands)",
                FIGURES.join(" ")
            );
            return ExitCode::from(2);
        }
    }
    let scale = match scale_from(&args, ScaleProfile::Scaled) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let json = args.iter().any(|a| a == "--json");
    let mut wanted: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }

    eprintln!("running the experiment matrix ({scale:?} profile); this takes a little while...");
    let started = Instant::now();
    // The figure commands are sugar over the built-in full-matrix spec run
    // through a (optionally cached) session.
    let mut spec = ExperimentSpec::full_matrix(scale);
    if let Some(n) = network {
        spec.networks = vec![n];
    }
    let mut session = Session::new();
    if let Some(dir) = &cache {
        session = session.with_cache_dir(dir);
    }
    let flight = record.as_ref().map(|_| armed_recorder("cli"));
    if let Some((_, sink)) = &flight {
        session = session.with_recorder(sink.clone());
    }
    let outcome = match session.run(&spec, &WorkloadSet::new()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let matrix_wall = started.elapsed();
    if let (Some(path), Some((rec, _))) = (&record, &flight) {
        if let Err(msg) = write_trace(rec, path) {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "matrix of {} cells finished in {:.2?}",
        outcome.cells(),
        matrix_wall
    );
    if cache.is_some() {
        let s = outcome.cache;
        eprintln!(
            "cache: {} hits / {} misses ({:.0}% hit rate)",
            s.hits,
            s.misses,
            100.0 * s.hit_rate()
        );
    }

    match emit_figures(&outcome, scale, json, &wanted, matrix_wall) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn emit_figures(
    outcome: &PlanOutcome,
    scale: ScaleProfile,
    json: bool,
    wanted: &[String],
    matrix_wall: std::time::Duration,
) -> Result<ExitCode, ExperimentError> {
    let emit_all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| emit_all || wanted.iter().any(|w| w == name);

    // Computed once: both the JSON document and the printed figure use it.
    let update_fig =
        (json || want("figupdate")).then(|| tw_bench::update_vs_invalidate_figure(scale));

    if json {
        let path = "BENCH_results.json";
        let update = update_fig.as_ref().expect("computed when json is set");
        let doc = tw_bench::results_json(outcome, scale, update)?;
        std::fs::write(path, doc)
            .map_err(|e| ExperimentError::Io(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
        // Wall clock lives in a sidecar so the results document itself
        // byte-diffs across reruns (CI compares the whole file).
        let timing_path = "BENCH_results.timing.json";
        std::fs::write(timing_path, tw_bench::bench_timing_json(matrix_wall))
            .map_err(|e| ExperimentError::Io(format!("cannot write {timing_path}: {e}")))?;
        println!("wrote {timing_path}");
    }

    // Every requested figure must contribute at least one cell; a run that
    // prints nothing exits nonzero so scripts and CI can rely on it.
    let mut emitted_cells = 0usize;
    let mut emit = |fig: denovo_waste::FigureTable| {
        emitted_cells += fig.rows().len();
        println!("{fig}");
    };

    if want("table4_1") {
        emit(outcome.table_4_1());
    }
    if want("table4_2") {
        emit(outcome.table_4_2());
    }
    if want("fig5_1a") {
        emit(outcome.fig_5_1a()?);
    }
    if want("fig5_1b") {
        emit(outcome.fig_5_1b()?);
    }
    if want("fig5_1c") {
        emit(outcome.fig_5_1c()?);
    }
    if want("fig5_1d") {
        emit(outcome.fig_5_1d()?);
    }
    if want("fig5_2") {
        emit(outcome.fig_5_2()?);
    }
    if want("fig5_3a") {
        emit(outcome.fig_5_3a()?);
    }
    if want("fig5_3b") {
        emit(outcome.fig_5_3b()?);
    }
    if want("fig5_3c") {
        emit(outcome.fig_5_3c()?);
    }
    if want("figupdate") {
        emit(
            update_fig
                .clone()
                .expect("computed when figupdate is wanted"),
        );
    }
    if want("headline") {
        print_headline(outcome)?;
        emitted_cells += outcome.cells();
    }
    if emitted_cells == 0 {
        // An invalid request (exit 2, like every other malformed input),
        // not a failed check (exit 1) — see the exit-code contract in the
        // module docs.
        eprintln!(
            "error: requested output ({}) produced no cells",
            wanted.join(" ")
        );
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// The `plan` subcommand family: builtin / show / run.
// ---------------------------------------------------------------------------

fn plan_main(args: &[String]) -> ExitCode {
    let Some(sub) = args.first().map(String::as_str) else {
        eprintln!("usage: experiments plan <builtin|show|run> ...");
        return ExitCode::from(2);
    };
    let result = match sub {
        "builtin" => plan_builtin(&args[1..]),
        "show" => plan_show(&args[1..]),
        "run" => plan_run(&args[1..]),
        s => {
            eprintln!("unknown plan subcommand `{s}`; expected builtin | show | run");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `plan builtin`: emit the built-in full-matrix spec as JSON — the exact
/// plan the figure commands are sugar over, and a convenient starting point
/// for hand-edited sweeps. `--network analytic,flit` adds the network axis
/// (the one-command way to author the analytic-vs-flit Fig 5.2 sweep).
fn plan_builtin(args: &[String]) -> Result<ExitCode, ExperimentError> {
    let mut args = args.to_vec();
    let networks = take_flag_value(&mut args, "--network")
        .and_then(|v| v.map(|list| parse_networks(&list)).transpose())
        .map_err(ExperimentError::InvalidSpec)?;
    for a in &args {
        if !matches!(a.as_str(), "--tiny" | "--scaled" | "--paper") {
            return Err(ExperimentError::InvalidSpec(format!(
                "unknown flag `{a}`; expected --tiny | --scaled | --paper | --network LIST"
            )));
        }
    }
    let scale = scale_from(&args, ScaleProfile::Scaled).map_err(ExperimentError::InvalidSpec)?;
    let mut spec = ExperimentSpec::full_matrix(scale);
    if let Some(networks) = networks {
        spec.networks = networks;
    }
    print!("{}", spec.to_json());
    Ok(ExitCode::SUCCESS)
}

/// `plan show <spec.json>`: print every sweep axis of the spec (protocols,
/// workloads, system variants, network models), then the compiled cells
/// with their identity (workload ref, variant geometry, protocol, cache
/// key) — nothing is simulated.
fn plan_show(args: &[String]) -> Result<ExitCode, ExperimentError> {
    let [path] = args else {
        return Err(ExperimentError::InvalidSpec(
            "usage: experiments plan show <spec.json>".to_string(),
        ));
    };
    let spec = ExperimentSpec::load(Path::new(path))?;
    let session = Session::new();
    let plan = session.compile(&spec, &WorkloadSet::new())?;
    println!(
        "plan `{}` ({} scale): {} protocols x {} rows = {} cells",
        plan.name,
        spec.scale.name(),
        plan.protocols.len(),
        plan.rows.len(),
        plan.cells.len()
    );
    println!(
        "axis protocols: {}",
        spec.protocols
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "axis workloads: {}",
        spec.workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "axis variants:  {}",
        if spec.variants.is_empty() {
            "base (implicit)".to_string()
        } else {
            spec.variants
                .iter()
                .map(|v| v.label.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        }
    );
    println!(
        "axis networks:  {}",
        if spec.networks.is_empty() {
            "analytic (default)".to_string()
        } else {
            spec.networks
                .iter()
                .map(|n| n.name())
                .collect::<Vec<_>>()
                .join(" ")
        }
    );
    println!("baseline:       {}", spec.baseline.protocol().name());
    for (label, sys) in &plan.variants {
        println!(
            "variant `{label}`: {} tiles, {} B lines, {} KB L1, {} KB L2/slice, {} network",
            sys.tiles(),
            sys.cache.line_bytes,
            sys.cache.l1_bytes / 1024,
            sys.cache.l2_slice_bytes / 1024,
            sys.network.name(),
        );
    }
    for cell in &plan.cells {
        println!(
            "  {:<28} {:<10} workload {:<24} key {}",
            cell.label,
            cell.protocol.name(),
            cell.workload_ref.to_string(),
            session.key_of(cell),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `plan run <spec.json>`: compile and execute a plan, printing every
/// figure; `--cache DIR` routes through the result cache, `--json OUT`
/// writes the deterministic figures document, `--stats OUT` the cache
/// statistics.
fn plan_run(args: &[String]) -> Result<ExitCode, ExperimentError> {
    let mut args = args.to_vec();
    let bad = |msg: String| ExperimentError::InvalidSpec(msg);
    let cache = take_flag_value(&mut args, "--cache").map_err(bad)?;
    let json_out = take_flag_value(&mut args, "--json").map_err(bad)?;
    let stats_out = take_flag_value(&mut args, "--stats").map_err(bad)?;
    let record = take_flag_value(&mut args, "--record").map_err(bad)?;
    let [path] = args.as_slice() else {
        return Err(ExperimentError::InvalidSpec(
            "usage: experiments plan run <spec.json> [--cache DIR] [--json OUT] [--stats OUT] [--record FILE]"
                .to_string(),
        ));
    };
    let spec = ExperimentSpec::load(Path::new(path))?;
    let mut session = Session::new();
    if let Some(dir) = &cache {
        session = session.with_cache_dir(dir);
    }
    let flight = record.as_ref().map(|_| armed_recorder("plan"));
    if let Some((_, sink)) = &flight {
        session = session.with_recorder(sink.clone());
    }
    eprintln!("running plan `{}` ({:?} scale)...", spec.name, spec.scale);
    let started = Instant::now();
    let outcome = session.run(&spec, &WorkloadSet::new())?;
    eprintln!(
        "plan of {} cells finished in {:.2?}",
        outcome.cells(),
        started.elapsed()
    );
    if let (Some(path), Some((rec, _))) = (&record, &flight) {
        write_trace(rec, path).map_err(ExperimentError::Io)?;
    }
    print_plan_outcome(&outcome, json_out.as_deref(), stats_out.as_deref())
}

fn print_plan_outcome(
    outcome: &PlanOutcome,
    json_out: Option<&str>,
    stats_out: Option<&str>,
) -> Result<ExitCode, ExperimentError> {
    for fig in outcome.all_figures()? {
        println!("{fig}");
    }
    let s = outcome.cache;
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate)",
        s.hits,
        s.misses,
        100.0 * s.hit_rate()
    );
    if let Some(path) = json_out {
        std::fs::write(path, tw_bench::plan_figures_json(outcome)?)
            .map_err(|e| ExperimentError::Io(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = stats_out {
        std::fs::write(path, tw_bench::cache_stats_json(&outcome.name, &s))
            .map_err(|e| ExperimentError::Io(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// The `profile` subcommand: run a plan with the flight recorder armed and
// report where the time went; diff two trace files modulo timing.
// ---------------------------------------------------------------------------

fn profile_main(args: &[String]) -> ExitCode {
    let result = if args.first().map(String::as_str) == Some("diff") {
        profile_diff(&args[1..])
    } else {
        profile_run(args)
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `profile <spec.json>`: execute a plan with recording on and print the
/// hot-spot summary (top-N hottest cells, time per outcome class,
/// cells/sec). `--trace OUT` additionally writes the span trace JSONL.
fn profile_run(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let cache = take_flag_value(&mut args, "--cache")?;
    let trace_out = take_flag_value(&mut args, "--trace")?;
    let top = take_flag_value(&mut args, "--top")?
        .map(|n| n.parse::<usize>().map_err(|e| format!("--top: {e}")))
        .transpose()?
        .unwrap_or(10);
    let [path] = args.as_slice() else {
        return Err(
            "usage: experiments profile <spec.json> [--cache DIR] [--top N] [--trace OUT]"
                .to_string(),
        );
    };
    let spec = ExperimentSpec::load(Path::new(path)).map_err(|e| e.to_string())?;
    let (rec, sink) = armed_recorder("profile");
    let mut session = Session::new().with_recorder(sink);
    if let Some(dir) = &cache {
        session = session.with_cache_dir(dir);
    }
    eprintln!("profiling plan `{}` ({:?} scale)...", spec.name, spec.scale);
    let started = Instant::now();
    let outcome = session
        .run(&spec, &WorkloadSet::new())
        .map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    if let Some(out) = &trace_out {
        write_trace(&rec, out)?;
    }
    print_profile(&rec, outcome.cells(), wall, top);
    Ok(ExitCode::SUCCESS)
}

/// Prints the hot-spot report out of a recorded run: wall throughput, the
/// per-outcome-class time budget, and the top-N hottest cells by recorded
/// wall time (probe + simulate + store).
fn print_profile(rec: &FlightRecorder, cells: usize, wall: std::time::Duration, top: usize) {
    let spans = rec.spans();
    let mut cell_rows: Vec<(String, String, u64)> = Vec::new();
    let mut classes = std::collections::BTreeMap::<String, (u64, u64)>::new();
    for s in spans.iter().filter(|s| s.name == "cell") {
        let outcome = s
            .attrs
            .iter()
            .find(|(k, _)| k == "outcome")
            .map(|(_, v)| match v {
                tw_obs::AttrValue::Str(s) => s.clone(),
                tw_obs::AttrValue::U64(n) => n.to_string(),
            })
            .unwrap_or_else(|| "?".to_string());
        let us: u64 = s.timing.iter().map(|(_, v)| v).sum();
        let class = classes.entry(outcome.clone()).or_default();
        class.0 += 1;
        class.1 += us;
        cell_rows.push((s.track.clone(), outcome, us));
    }
    let secs = wall.as_secs_f64().max(1e-9);
    println!(
        "profile: {} cells in {:.2?} — {:.1} cells/sec, {} spans recorded",
        cells,
        wall,
        cells as f64 / secs,
        rec.len(),
    );
    println!("time per outcome class:");
    for (class, (count, us)) in &classes {
        println!(
            "  {:<10} {:>5} cells  {:>10.1} ms total  {:>8.1} ms avg",
            class,
            count,
            *us as f64 / 1e3,
            *us as f64 / 1e3 / (*count).max(1) as f64,
        );
    }
    // Ties break by track so the listing order is reproducible.
    cell_rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    println!(
        "hottest cells (top {} of {} by recorded time):",
        top.min(cell_rows.len()),
        cell_rows.len(),
    );
    for (i, (track, outcome, us)) in cell_rows.iter().take(top).enumerate() {
        println!(
            "  {:>2}. {:<44} {:>10.1} ms  ({outcome})",
            i + 1,
            track,
            *us as f64 / 1e3,
        );
    }
}

/// `profile diff <a> <b>`: compare two span traces modulo the quarantined
/// `timing` sub-objects. Exit 0 when identical, 1 at the first divergence,
/// 2 when either file is corrupt/truncated.
fn profile_diff(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: experiments profile diff <a.jsonl> <b.jsonl>".to_string());
    };
    let ta = std::fs::read_to_string(a).map_err(|e| format!("cannot read {a}: {e}"))?;
    let tb = std::fs::read_to_string(b).map_err(|e| format!("cannot read {b}: {e}"))?;
    match tw_obs::diff_traces(&ta, &tb).map_err(|e| format!("invalid trace: {e}"))? {
        None => {
            println!("identical modulo timing: {a} == {b}");
            Ok(ExitCode::SUCCESS)
        }
        Some(divergence) => {
            println!("traces diverge: {divergence}");
            Ok(ExitCode::FAILURE)
        }
    }
}

// ---------------------------------------------------------------------------
// The daemon subcommand family: serve / submit / stats / metrics / shutdown /
// loadgen.
// ---------------------------------------------------------------------------

fn daemon_main(cmd: &str, args: &[String]) -> ExitCode {
    let result = match cmd {
        "serve" => daemon_serve(args),
        "submit" => daemon_submit(args),
        "stats" => daemon_stats(args),
        "metrics" => daemon_metrics(args),
        "shutdown" => daemon_shutdown(args),
        "loadgen" => daemon_loadgen(args),
        _ => unreachable!("dispatch checked the command"),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The `--socket PATH` flag every daemon subcommand requires.
fn take_socket(args: &mut Vec<String>) -> Result<std::path::PathBuf, String> {
    take_flag_value(args, "--socket")?
        .map(std::path::PathBuf::from)
        .ok_or_else(|| "--socket PATH is required".to_string())
}

fn reject_unknown(args: &[String], expected: &str) -> Result<(), String> {
    match args.first() {
        None => Ok(()),
        Some(a) => Err(format!("unknown argument `{a}`; expected {expected}")),
    }
}

/// `serve`: run the experiments daemon in the foreground until a client
/// sends `shutdown`. `--cache DIR` defaults to `.exp-cache` (the CLI
/// convention); `--no-cache` runs memory-only.
fn daemon_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let socket = take_socket(&mut args)?;
    let mut config = tw_bench::daemon::Config::new(socket);
    config.cache_dir = Some(
        take_flag_value(&mut args, "--cache")?
            .unwrap_or_else(|| ".exp-cache".to_string())
            .into(),
    );
    if let Some(at) = args.iter().position(|a| a == "--no-cache") {
        args.remove(at);
        config.cache_dir = None;
    }
    let num = |v: Option<String>, flag: &str| -> Result<Option<usize>, String> {
        v.map(|n| n.parse::<usize>().map_err(|e| format!("{flag}: {e}")))
            .transpose()
    };
    if let Some(n) = num(take_flag_value(&mut args, "--workers")?, "--workers")? {
        config.workers = n;
    }
    if let Some(n) = num(take_flag_value(&mut args, "--queue")?, "--queue")? {
        config.queue_cap = n;
    }
    config.record = take_flag_value(&mut args, "--record")?.map(Into::into);
    reject_unknown(
        &args,
        "--socket PATH | --cache DIR | --no-cache | --workers N | --queue N | --record FILE",
    )?;
    eprintln!(
        "serving experiments on {} ({} workers, queue of {}, cache {})",
        config.socket.display(),
        config.workers.max(1),
        config.queue_cap,
        config
            .cache_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".to_string()),
    );
    tw_bench::daemon::serve(&config)?;
    if let Some(path) = &config.record {
        eprintln!("wrote {}", path.display());
    }
    eprintln!("daemon shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

/// `submit <spec.json>`: send one experiment spec to a running daemon and
/// print its per-request accounting; `--json OUT` writes the returned
/// figures document (byte-identical to `plan run --json` of the same spec).
fn daemon_submit(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let socket = take_socket(&mut args)?;
    let json_out = take_flag_value(&mut args, "--json")?;
    let [path] = args.as_slice() else {
        return Err("usage: experiments submit <spec.json> --socket PATH [--json OUT]".to_string());
    };
    let spec_text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut client = tw_bench::daemon::client::Client::connect(&socket)?;
    let reply = client.submit(&spec_text)?;
    println!(
        "plan `{}`: cells={} hits={} misses={} coalesced={} queue_us={} exec_us={}",
        reply.plan,
        reply.cells,
        reply.hits,
        reply.misses,
        reply.coalesced,
        reply.queue_us,
        reply.exec_us,
    );
    if let Some(out) = json_out {
        std::fs::write(&out, &reply.figures).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `stats`: print a running daemon's service metrics as pretty JSON.
fn daemon_stats(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let socket = take_socket(&mut args)?;
    reject_unknown(&args, "--socket PATH")?;
    let mut client = tw_bench::daemon::client::Client::connect(&socket)?;
    print!("{}", client.stats()?.pretty());
    Ok(ExitCode::SUCCESS)
}

/// `metrics`: print a running daemon's Prometheus text exposition —
/// counters, gauges, and the queue-wait / latency histograms.
fn daemon_metrics(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let socket = take_socket(&mut args)?;
    reject_unknown(&args, "--socket PATH")?;
    let mut client = tw_bench::daemon::client::Client::connect(&socket)?;
    print!("{}", client.metrics()?);
    Ok(ExitCode::SUCCESS)
}

/// `shutdown`: ask a running daemon to drain its queue and exit.
fn daemon_shutdown(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let socket = take_socket(&mut args)?;
    reject_unknown(&args, "--socket PATH")?;
    let mut client = tw_bench::daemon::client::Client::connect(&socket)?;
    client.shutdown()?;
    println!("daemon at {} is shutting down", socket.display());
    Ok(ExitCode::SUCCESS)
}

/// `loadgen`: drive a running daemon with N concurrent clients submitting
/// the same plan and report service throughput — the measured-QPS answer to
/// "how fast does this serve sharing-pattern sweeps". `--json OUT` writes
/// the `denovo-waste/service-baseline/v1` document committed as
/// `BENCH_service_baseline.json`.
fn daemon_loadgen(args: &[String]) -> Result<ExitCode, String> {
    use denovo_waste::Json;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let mut args = args.to_vec();
    let socket = take_socket(&mut args)?;
    let json_out = take_flag_value(&mut args, "--json")?;
    let spec_file = take_flag_value(&mut args, "--spec")?;
    let num = |v: Option<String>, flag: &str, default: u64| -> Result<u64, String> {
        v.map(|n| n.parse::<u64>().map_err(|e| format!("{flag}: {e}")))
            .transpose()
            .map(|n| n.unwrap_or(default))
    };
    let requests = num(take_flag_value(&mut args, "--requests")?, "--requests", 16)?;
    let clients = num(take_flag_value(&mut args, "--clients")?, "--clients", 2)?.max(1);
    let scale = scale_from(&args, ScaleProfile::Scaled)?;
    args.retain(|a| !matches!(a.as_str(), "--tiny" | "--scaled" | "--paper"));
    reject_unknown(
        &args,
        "--socket PATH | --requests N | --clients N | --spec FILE | --tiny|--scaled|--paper | --json OUT",
    )?;
    if requests == 0 {
        return Err("--requests 0 would measure nothing".to_string());
    }
    let spec_text = match &spec_file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => ExperimentSpec::full_matrix(scale).to_json(),
    };

    eprintln!(
        "loadgen: {requests} requests from {clients} clients against {}...",
        socket.display()
    );
    let next = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let socket = socket.clone();
            let spec_text = spec_text.clone();
            let next = Arc::clone(&next);
            std::thread::spawn(move || -> Result<(u64, u64, u64, u64, u64, u64), String> {
                let mut client = tw_bench::daemon::client::Client::connect(&socket)?;
                let (mut cells, mut hits, mut misses, mut coalesced) = (0, 0, 0, 0);
                let (mut lat_sum_us, mut lat_max_us) = (0u64, 0u64);
                while next.fetch_add(1, Ordering::Relaxed) < requests {
                    let t = Instant::now();
                    let reply = client.submit(&spec_text)?;
                    let us = t.elapsed().as_micros() as u64;
                    lat_sum_us += us;
                    lat_max_us = lat_max_us.max(us);
                    cells += reply.cells;
                    hits += reply.hits;
                    misses += reply.misses;
                    coalesced += reply.coalesced;
                }
                Ok((cells, hits, misses, coalesced, lat_sum_us, lat_max_us))
            })
        })
        .collect();
    let (mut cells, mut hits, mut misses, mut coalesced) = (0u64, 0u64, 0u64, 0u64);
    let (mut lat_sum_us, mut lat_max_us) = (0u64, 0u64);
    for handle in handles {
        let (c, h, m, co, sum, max) = handle.join().map_err(|_| "a client panicked")??;
        cells += c;
        hits += h;
        misses += m;
        coalesced += co;
        lat_sum_us += sum;
        lat_max_us = lat_max_us.max(max);
    }
    let wall = started.elapsed();

    // The daemon-side view (queue depth/peak, service-lifetime rates).
    let mut client = tw_bench::daemon::client::Client::connect(&socket)?;
    let stats = client.stats()?;
    let daemon_fields: Vec<(String, Json)> = stats
        .as_obj()
        .map_err(|e| format!("stats response: {e}"))?
        .iter()
        .filter(|(k, _)| k != "status" && k != "op")
        .cloned()
        .collect();
    let queue_peak = stats.get("queue_peak").and_then(|v| v.as_u64().ok());

    let wall_us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
    let secs = (wall_us as f64 / 1e6).max(1e-9);
    let cells_per_sec = cells as f64 / secs;
    let requests_per_sec = requests as f64 / secs;
    let hit_rate = if cells == 0 {
        0.0
    } else {
        (hits + coalesced) as f64 / cells as f64
    };
    println!(
        "loadgen: {requests} requests x {} cells in {:.2?} — {:.1} cells/sec, {:.1} req/sec, hit rate {:.3}, queue peak {}",
        cells / requests.max(1),
        wall,
        cells_per_sec,
        requests_per_sec,
        hit_rate,
        queue_peak.map(|q| q.to_string()).unwrap_or_default(),
    );

    if let Some(out) = json_out {
        // Deterministic request accounting up front; every wall-clock
        // measurement is quarantined in the `timing` block (the same
        // convention as the bench-results sidecar and the flight-recorder
        // span grammar), so tooling can byte-diff the document after
        // dropping exactly one sub-object.
        let doc = Json::Obj(vec![
            (
                "schema".to_string(),
                Json::str("denovo-waste/service-baseline/v2"),
            ),
            ("requests".to_string(), Json::UInt(requests)),
            ("clients".to_string(), Json::UInt(clients)),
            ("cells".to_string(), Json::UInt(cells)),
            ("hits".to_string(), Json::UInt(hits)),
            ("misses".to_string(), Json::UInt(misses)),
            ("coalesced".to_string(), Json::UInt(coalesced)),
            ("hit_rate".to_string(), Json::Str(format!("{hit_rate:.4}"))),
            (
                "timing".to_string(),
                Json::Obj(vec![
                    ("wall_us".to_string(), Json::UInt(wall_us)),
                    (
                        "cells_per_sec".to_string(),
                        Json::Str(format!("{cells_per_sec:.2}")),
                    ),
                    (
                        "requests_per_sec".to_string(),
                        Json::Str(format!("{requests_per_sec:.2}")),
                    ),
                    (
                        "latency_avg_us".to_string(),
                        Json::UInt(lat_sum_us / requests),
                    ),
                    ("latency_max_us".to_string(), Json::UInt(lat_max_us)),
                ]),
            ),
            ("daemon".to_string(), Json::Obj(daemon_fields)),
        ]);
        std::fs::write(&out, doc.pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn print_help() -> ExitCode {
    println!(
        "\
experiments — regenerate the paper's tables/figures, run declarative plans,
record/replay traces, fuzz the protocol registry, profile where the time
goes, and serve plans as traffic.

usage:
  experiments [FIGURE..] [--tiny|--scaled|--paper] [--json] [--cache DIR] [--network NAME] [--record FILE]
      figures: {figures}

  experiments plan builtin [--tiny|--scaled|--paper] [--network LIST]
  experiments plan show <spec.json>
  experiments plan run <spec.json> [--cache DIR] [--json OUT] [--stats OUT] [--record FILE]

  experiments profile <spec.json> [--cache DIR] [--top N] [--trace OUT]
  experiments profile diff <a.jsonl> <b.jsonl>

  experiments trace record <out.trace> [--bench NAME] [--protocol NAME] [--text]
  experiments trace replay <in.trace> [--protocol NAME]
  experiments trace info <in.trace>
  experiments trace diff <a.trace> <b.trace>
  experiments trace roundtrip [--bench NAME] [--protocol NAME]

  experiments fuzz [--seeds N] [--start N] [--streaming-every N] [--network NAME] [--record FILE]
  experiments fuzz --self-test

  experiments serve --socket PATH [--cache DIR] [--no-cache] [--workers N] [--queue N] [--record FILE]
  experiments submit <spec.json> --socket PATH [--json OUT]
  experiments stats --socket PATH
  experiments metrics --socket PATH
  experiments loadgen --socket PATH [--requests N] [--clients N] [--spec FILE] [--json OUT]
  experiments shutdown --socket PATH

`--record FILE` arms the flight recorder: spans (cells, engine phases,
daemon requests) are captured and written to FILE as trace JSONL
(schema `denovo-waste/flight/v1`, deterministic modulo the quarantined
`timing` sub-objects). Recording never changes results: the figures,
BENCH_results.json and fuzz digests are byte-identical with and without it.

exit codes (uniform across every subcommand):
  0  success
  1  a check failed: trace diff divergence, profile diff divergence,
     roundtrip mismatch, fuzz invariant violations, failed fuzz self-test
  2  invalid or failed request: unknown flags/figures/subcommands,
     unreadable or malformed inputs (including corrupt/truncated span
     traces), specs that do not compile, runs that fail, output producing
     no cells, daemon connection errors

See EXPERIMENTS.md for walkthroughs, DESIGN.md §13 for the daemon wire
protocol, and DESIGN.md §15 for the span taxonomy and trace grammar.",
        figures = FIGURES.join(" ")
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// The `trace` subcommand family: record / replay / info / diff / roundtrip.
// ---------------------------------------------------------------------------

struct TraceArgs {
    positional: Vec<String>,
    scale: ScaleProfile,
    bench: BenchmarkKind,
    protocol: Option<ProtocolKind>,
    text: bool,
}

/// Parses the flags shared by the trace subcommands. `Err` carries the
/// message to print before exiting with status 2.
fn parse_trace_args(args: &[String]) -> Result<TraceArgs, String> {
    let mut out = TraceArgs {
        positional: Vec::new(),
        scale: scale_from(args, ScaleProfile::Scaled)?,
        bench: BenchmarkKind::Fft,
        protocol: None,
        text: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" | "--scaled" | "--tiny" => {}
            "--text" => out.text = true,
            "--bench" => {
                let name = it.next().ok_or("--bench needs a benchmark name")?;
                // `by_name` rejects unknown names with a message listing
                // every accepted one; kinds without a generator (custom,
                // synthesized) are rejected later by `try_workload` with a
                // message naming the replacement workflow.
                out.bench = BenchmarkKind::by_name(name)?;
            }
            "--protocol" => {
                let name = it.next().ok_or("--protocol needs a protocol name")?;
                out.protocol = Some(protocol_by_name(name).ok_or_else(|| {
                    let names: Vec<&str> = ProtocolKind::ALL.iter().map(|p| p.name()).collect();
                    format!(
                        "unknown protocol `{name}`; expected one of: {}",
                        names.join(" ")
                    )
                })?);
            }
            a if a.starts_with("--") => {
                return Err(format!(
                    "unknown flag `{a}`; expected --tiny | --scaled | --paper | --text | --bench NAME | --protocol NAME"
                ));
            }
            _ => out.positional.push(a.clone()),
        }
    }
    Ok(out)
}

fn summarize(report: &SimReport) {
    println!(
        "{:<10} {:>14} cycles  {:>16.0} flit-hops  waste {:>6.3}  dram {:>10}",
        report.protocol.name(),
        report.total_cycles,
        report.total_flit_hops(),
        report.waste_traffic_fraction(),
        report.dram_accesses,
    );
}

fn load_workload(path: &str) -> Result<Workload, String> {
    let doc =
        TraceDocument::load(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    Workload::from_trace(doc).map_err(|e| format!("{path} is not replayable: {e}"))
}

fn trace_main(args: &[String]) -> ExitCode {
    let Some(sub) = args.first().map(String::as_str) else {
        eprintln!("usage: experiments trace <record|replay|info|diff|roundtrip> ...");
        return ExitCode::from(2);
    };
    let parsed = match parse_trace_args(&args[1..]) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let result = match sub {
        "record" => trace_record(&parsed),
        "replay" => trace_replay(&parsed),
        "info" => trace_info(&parsed),
        "diff" => trace_diff(&parsed),
        "roundtrip" => trace_roundtrip(&parsed),
        s => {
            eprintln!("unknown trace subcommand `{s}`; expected record | replay | info | diff | roundtrip");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            // Unreadable/invalid inputs are bad requests (exit 2); the
            // checking subcommands return exit 1 through `Ok(FAILURE)`
            // above when a *comparison* fails.
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// `trace record <out>`: simulate one (protocol × benchmark) cell with
/// capture armed and persist the serviced reference stream.
fn trace_record(args: &TraceArgs) -> Result<ExitCode, String> {
    let [out] = args.positional.as_slice() else {
        return Err("usage: experiments trace record <out.trace> [--bench NAME] [--protocol NAME] [--tiny|--scaled|--paper] [--text]".into());
    };
    let protocol = args.protocol.unwrap_or(ProtocolKind::Mesi);
    let system = args.scale.system();
    let workload = args.scale.try_workload(args.bench, system.tiles())?;
    let cfg = SimConfig::new(protocol).with_system(system);
    eprintln!(
        "recording {} / {} at the {:?} profile...",
        args.bench, protocol, args.scale
    );
    let (report, captured) = Simulator::new(cfg, &workload).run_captured();
    let doc = captured.to_trace();
    doc.save(Path::new(out), args.text)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    let stats = doc.total_stats();
    println!(
        "wrote {out}: {} cores, {} mem ops, {} barriers/core ({} format)",
        doc.cores(),
        stats.mem_ops(),
        stats.barriers / doc.cores().max(1) as u64,
        if args.text { "text" } else { "binary" },
    );
    summarize(&report);
    Ok(ExitCode::SUCCESS)
}

/// `trace replay <in>`: replay a trace file under one protocol (or all
/// nine) and print per-protocol summaries.
fn trace_replay(args: &TraceArgs) -> Result<ExitCode, String> {
    let [input] = args.positional.as_slice() else {
        return Err("usage: experiments trace replay <in.trace> [--protocol NAME] [--tiny|--scaled|--paper]".into());
    };
    let workload = load_workload(input)?;
    let system = args.scale.system();
    if workload.cores() != system.tiles() {
        return Err(format!(
            "{input} was recorded for {} cores but the {:?} system has {} tiles",
            workload.cores(),
            args.scale,
            system.tiles()
        ));
    }
    println!(
        "replaying {input} ({}, \"{}\") at the {:?} profile",
        workload.kind, workload.input, args.scale
    );
    match args.protocol {
        Some(protocol) => {
            let cfg = SimConfig::new(protocol).with_system(system);
            summarize(&Simulator::new(cfg, &workload).run());
        }
        None => {
            let name = workload.kind.name();
            let mut spec = ExperimentSpec::subset(ProtocolKind::ALL.to_vec(), vec![], args.scale);
            spec.workloads = vec![WorkloadSpec::provided(name)];
            let mut set = WorkloadSet::new();
            set.insert(name, workload);
            let outcome = Session::new().run(&spec, &set).map_err(|e| e.to_string())?;
            let (row, _) = &outcome.rows[0];
            for &p in &ProtocolKind::ALL {
                summarize(outcome.report(row, p).map_err(|e| e.to_string())?);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `trace info <in>`: header, region annotations and per-core statistics.
fn trace_info(args: &TraceArgs) -> Result<ExitCode, String> {
    let [input] = args.positional.as_slice() else {
        return Err("usage: experiments trace info <in.trace>".into());
    };
    let doc =
        TraceDocument::load(Path::new(input)).map_err(|e| format!("cannot read {input}: {e}"))?;
    println!("trace:     {input}");
    println!("benchmark: {}", doc.benchmark);
    println!("input:     {}", doc.input);
    println!("cores:     {}", doc.cores());
    println!("regions:   {}", doc.regions.len());
    let mut accesses_by_region = std::collections::BTreeMap::<_, u64>::new();
    for op in doc.streams.iter().flatten() {
        if let Some(region) = op.region() {
            *accesses_by_region.entry(region).or_default() += 1;
        }
    }
    for r in doc.regions.iter() {
        let mut notes = vec![format!(
            "{} accesses",
            accesses_by_region.get(&r.id).copied().unwrap_or(0)
        )];
        if r.bypass.bypasses_l2() {
            notes.push("bypass".to_string());
        }
        if let Some(c) = &r.comm {
            notes.push(format!("flex {} useful words/obj", c.useful_words()));
        }
        println!(
            "  {} `{}` {:#x}+{} bytes ({})",
            r.id,
            r.name,
            r.base.byte(),
            r.bytes,
            notes.join(", ")
        );
    }
    let total = doc.total_stats();
    for (core, s) in doc.stats().iter().enumerate() {
        println!(
            "  core {core:>2}: {:>9} ops ({:>9} LD, {:>9} ST, {:>9} compute cycles, {} barriers)",
            s.ops, s.loads, s.stores, s.compute_cycles, s.barriers
        );
    }
    println!(
        "total:     {} ops, {} mem ops, {} barriers/core",
        total.ops,
        total.mem_ops(),
        total.barriers / doc.cores().max(1) as u64
    );
    Ok(ExitCode::SUCCESS)
}

/// `trace diff <a> <b>`: byte-level determinism oracle. Exits 0 only when
/// the two traces are structurally identical.
fn trace_diff(args: &TraceArgs) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: experiments trace diff <a.trace> <b.trace>".into());
    };
    let da = TraceDocument::load(Path::new(a)).map_err(|e| format!("cannot read {a}: {e}"))?;
    let db = TraceDocument::load(Path::new(b)).map_err(|e| format!("cannot read {b}: {e}"))?;
    match tw_trace::diff(&da, &db) {
        None => {
            println!("identical: {a} == {b}");
            Ok(ExitCode::SUCCESS)
        }
        Some(divergence) => {
            println!("traces diverge at {divergence}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `trace roundtrip`: the end-to-end CI oracle. Records a cell, encodes the
/// capture through both formats, replays the decoded trace, and fails unless
/// the replayed `SimReport` is bit-identical to the recorded one.
fn trace_roundtrip(args: &TraceArgs) -> Result<ExitCode, String> {
    if !args.positional.is_empty() {
        return Err("usage: experiments trace roundtrip [--bench NAME] [--protocol NAME] [--tiny|--scaled|--paper]".into());
    }
    let protocol = args.protocol.unwrap_or(ProtocolKind::DBypFull);
    let system = args.scale.system();
    let workload = args.scale.try_workload(args.bench, system.tiles())?;
    let cfg = SimConfig::new(protocol).with_system(system.clone());
    eprintln!(
        "roundtrip: {} / {} at the {:?} profile",
        args.bench, protocol, args.scale
    );
    let (recorded, captured) = Simulator::new(cfg.clone(), &workload).run_captured();

    // Binary codec round trip.
    let doc = captured.to_trace();
    let bytes = doc.to_binary_bytes().map_err(|e| e.to_string())?;
    let decoded = TraceDocument::from_bytes(&bytes).map_err(|e| e.to_string())?;
    if let Some(d) = tw_trace::diff(&doc, &decoded) {
        println!("FAIL: binary codec round trip diverges at {d}");
        return Ok(ExitCode::FAILURE);
    }
    // Text codec round trip.
    let reparsed = TraceDocument::from_text(&doc.to_text()).map_err(|e| e.to_string())?;
    if let Some(d) = tw_trace::diff(&doc, &reparsed) {
        println!("FAIL: text codec round trip diverges at {d}");
        return Ok(ExitCode::FAILURE);
    }

    let replayed_wl = Workload::from_trace(decoded).map_err(|e| e.to_string())?;
    let replayed = Simulator::new(cfg, &replayed_wl).run();
    if recorded != replayed {
        println!(
            "FAIL: replayed report differs (recorded {} cycles / {:.0} flit-hops, replayed {} cycles / {:.0} flit-hops)",
            recorded.total_cycles,
            recorded.total_flit_hops(),
            replayed.total_cycles,
            replayed.total_flit_hops()
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "OK: record -> encode({} bytes) -> decode -> replay is bit-identical ({} cycles, {:.0} flit-hops)",
        bytes.len(),
        recorded.total_cycles,
        recorded.total_flit_hops()
    );
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// The `fuzz` subcommand: randomized workload synthesis + differential oracle.
// ---------------------------------------------------------------------------

struct FuzzArgs {
    /// Number of seeds to sweep.
    seeds: u64,
    /// First seed (so CI shards and bisections can window the space).
    start: u64,
    /// Every k-th seed synthesizes the fully-bypass streaming preset, which
    /// additionally checks the `DBypFull ≤ MESI` dominance invariant.
    streaming_every: u64,
    scale: ScaleProfile,
    /// Network model the primary sweep runs under (the runner checks the
    /// cross-model identity against every other registered model either
    /// way).
    network: NetworkModelKind,
    self_test: bool,
    /// When set, the primary sweep runs with a flight recorder attached and
    /// the trace JSONL is written here after the sweep.
    record: Option<String>,
}

fn parse_fuzz_args(args: &[String]) -> Result<FuzzArgs, String> {
    let mut out = FuzzArgs {
        seeds: 20,
        start: 0,
        streaming_every: 5,
        // Fuzzing wants breadth over fidelity: default to the tiny geometry.
        scale: scale_from(args, ScaleProfile::Tiny)?,
        network: NetworkModelKind::default(),
        self_test: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            it.next()
                .ok_or(format!("{flag} needs a number"))?
                .parse::<u64>()
                .map_err(|e| format!("{flag}: {e}"))
        };
        match a.as_str() {
            "--seeds" => out.seeds = num("--seeds")?,
            "--start" => out.start = num("--start")?,
            "--streaming-every" => out.streaming_every = num("--streaming-every")?,
            "--tiny" | "--scaled" | "--paper" => {}
            "--network" => {
                let name = it.next().ok_or("--network needs a model name")?;
                out.network = NetworkModelKind::by_name(name)?;
            }
            "--self-test" => out.self_test = true,
            "--record" => {
                out.record = Some(
                    it.next()
                        .ok_or("--record needs an output path")?
                        .to_string(),
                );
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}`; expected --seeds N | --start N | --streaming-every N | --tiny | --scaled | --paper | --network NAME | --record FILE | --self-test"
                ));
            }
        }
    }
    // An empty window (degenerate shard arithmetic) or an overflowing one
    // (which would wrap to an empty range in release builds) would report a
    // false-green sweep of zero workloads.
    if out.seeds == 0 && !out.self_test {
        return Err("--seeds 0 would sweep nothing and report a vacuous success".to_string());
    }
    if out.start.checked_add(out.seeds).is_none() {
        return Err("--start + --seeds overflows the u64 seed space".to_string());
    }
    Ok(out)
}

/// Order-sensitive digest of the per-protocol summaries, so the printed
/// line (and therefore the byte-diffed fuzz transcript) is sensitive to any
/// change in any protocol's cycles, traffic or waste accounting. Built on
/// the oracle's fingerprint fold so there is exactly one mixer to maintain.
fn summary_digest(summaries: &[tw_scenarios::ProtocolSummary]) -> u64 {
    let mut h: u64 = 0xd1f7_ed5c_e4a2_1097;
    for s in summaries {
        h = tw_scenarios::oracle::fold(
            h,
            [
                s.total_cycles,
                s.flit_hops.to_bits(),
                s.waste_fraction.to_bits(),
                0,
            ],
        );
    }
    h
}

/// Digest of the per-protocol *traffic* numbers only (flit-hops + waste
/// fraction, no cycles) — the quantity that must be byte-identical across
/// network models. CI runs the sweep once per model and diffs exactly these
/// fields out of the transcripts.
fn traffic_digest(summaries: &[tw_scenarios::ProtocolSummary]) -> u64 {
    let mut h: u64 = 0x7aff_1c0d_1935_7a0b;
    for s in summaries {
        h = tw_scenarios::oracle::fold(
            h,
            [s.flit_hops.to_bits(), s.waste_fraction.to_bits(), 0, 0],
        );
    }
    h
}

/// `fuzz`: sweep synthesized workloads across the full protocol registry and
/// diff every run against the golden functional model. The stdout transcript
/// is deterministic in the seed window — CI byte-diffs two runs — and the
/// exit code is nonzero on any invariant violation.
fn fuzz_main(args: &[String]) -> ExitCode {
    let parsed = match parse_fuzz_args(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if parsed.self_test {
        return fuzz_self_test();
    }
    let mut runner = DifferentialRunner::new(parsed.scale).with_network(parsed.network);
    let flight = parsed.record.as_ref().map(|_| armed_recorder("fuzz"));
    if let Some((_, sink)) = &flight {
        runner = runner.with_recorder(sink.clone());
    }
    let started = Instant::now();
    let mut violations = 0usize;
    for seed in parsed.start..parsed.start + parsed.seeds {
        let streaming = parsed.streaming_every != 0 && seed % parsed.streaming_every == 0;
        let wl = if streaming {
            SynthConfig::streaming(seed).build()
        } else {
            synthesize(seed)
        };
        let outcome = runner.check(&wl);
        println!(
            "seed={seed} {} ops={} phases={} fp={:016x} digest={:016x} traffic={:016x} {}",
            if streaming { "streaming" } else { "general" },
            outcome.oracle.mem_ops(),
            outcome.oracle.phases,
            outcome.oracle.fingerprint,
            summary_digest(&outcome.summaries),
            traffic_digest(&outcome.summaries),
            if outcome.ok() { "ok" } else { "VIOLATION" },
        );
        for v in &outcome.violations {
            println!("  violation: {v}");
            violations += 1;
        }
    }
    println!(
        "fuzz: {} workloads x {} protocols, {} violations",
        parsed.seeds,
        runner.protocols.len(),
        violations
    );
    eprintln!(
        "fuzz swept {} seeds in {:.2?}",
        parsed.seeds,
        started.elapsed()
    );
    if let (Some(path), Some((rec, _))) = (&parsed.record, &flight) {
        if let Err(msg) = write_trace(rec, path) {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    }
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `fuzz --self-test`: prove the oracle catches injected coherence
/// violations by applying every known-bad mutation class and requiring a
/// detection for each. Guards against the differential runner silently
/// degrading into a rubber stamp.
fn fuzz_self_test() -> ExitCode {
    let mut undetected = 0usize;
    // Per-class application counts: a class that never found a site was
    // never exercised, and a self-test that skipped a whole detection layer
    // must fail rather than rubber-stamp it.
    let mut applied_per_class = [0usize; Mutation::ALL.len()];
    for seed in 0..8u64 {
        let wl = synthesize(seed);
        let reference = match golden_execute(&wl) {
            Ok(r) => r,
            Err(race) => {
                println!("self-test seed={seed}: reference workload races: {race}");
                return ExitCode::FAILURE;
            }
        };
        for (class, m) in Mutation::ALL.into_iter().enumerate() {
            let Some(mutated) = m.apply(&wl) else {
                println!("self-test seed={seed} {}: no site", m.name());
                continue;
            };
            applied_per_class[class] += 1;
            match detect(&reference, &mutated) {
                Some(d) => {
                    println!(
                        "self-test seed={seed} {}: detected ({})",
                        m.name(),
                        d.label()
                    );
                }
                None => {
                    println!("self-test seed={seed} {}: UNDETECTED", m.name());
                    undetected += 1;
                }
            }
        }
    }
    let mut unexercised = 0usize;
    for (class, m) in Mutation::ALL.into_iter().enumerate() {
        if applied_per_class[class] == 0 {
            println!("self-test: class {} was NEVER EXERCISED", m.name());
            unexercised += 1;
        }
    }
    println!(
        "self-test: {} mutations over {} classes, {} undetected, {} unexercised",
        applied_per_class.iter().sum::<usize>(),
        Mutation::ALL.len(),
        undetected,
        unexercised
    );
    if undetected == 0 && unexercised == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
