//! The `profile` family: run a plan with the flight recorder armed and
//! report where the time went; diff two trace files modulo timing (one-line
//! summaries: `cli.rs`).

use crate::cli::Args;
use crate::{census, run_plan, write_file};
use denovo_waste::{ExperimentSpec, Session, WorkloadSet};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use tw_obs::{AttrValue, FlightRecorder};

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let top = args.number("--top", 10usize)?;
    let spec = ExperimentSpec::load(Path::new(&args.operands()[0]))?;
    let record = Some(("profile", args.value("--trace")));
    let ran = run_plan(&spec, &WorkloadSet::new(), args.value("--cache"), record)?;
    let rec = ran
        .recorder
        .expect("run_plan arms a recorder when `record` is set");
    print_profile(&rec, ran.outcome.cells(), ran.wall, top);
    if let Some(out) = args.value("--counts") {
        let mut counts = work_counts(&rec.spans());
        counts += &census(&Session::new().groups(&ran.plan));
        counts.push('\n');
        write_file(out, counts)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Every simulated cell's `run`-span integers, one line per cell in track
/// order: `<track> name=value ...` in the span's attribute order. Counts,
/// not timings, so the text is the same from every run and every build.
fn work_counts(spans: &[tw_obs::Span]) -> String {
    let mut runs: Vec<&tw_obs::Span> = spans.iter().filter(|s| s.name == "run").collect();
    runs.sort_by(|a, b| a.track.cmp(&b.track));
    let mut text = String::new();
    for span in runs {
        text += &span.track;
        for (key, value) in &span.attrs {
            if let AttrValue::U64(n) = value {
                let _ = write!(text, " {key}={n}");
            }
        }
        text.push('\n');
    }
    text
}

/// Prints, per simulated cell and in total, how much of the waste
/// profilers' line-granular work the one-mask paths served: memory chunks
/// that had to leave the uniform representation, and line finalisations one
/// arrival group held whole. Counts, not timings — the same on every run.
fn print_fast_path_shares(spans: &[tw_obs::Span]) {
    const KEYS: [&str; 4] = [
        "mem_chunks",
        "mem_chunk_spills",
        "line_finalizes",
        "line_finalizes_batched",
    ];
    let share = |part: u64, of: u64| 100.0 * part as f64 / of.max(1) as f64;
    let row = |label: &str, [chunks, spills, finalizes, batched]: [u64; 4]| {
        println!(
            "  {label:<44} {chunks:>9} chunks {:>6.2}% spilled  {finalizes:>9} line finalisations {:>6.2}% batched",
            share(spills, chunks),
            share(batched, finalizes),
        );
    };
    println!("profiler fast paths per simulated cell:");
    let mut total = [0u64; 4];
    let mut spilling = 0;
    let mut cells = 0;
    // Cells finish in a racy order; list them by track.
    let mut runs: Vec<&tw_obs::Span> = spans.iter().filter(|s| s.name == "run").collect();
    runs.sort_by(|a, b| a.track.cmp(&b.track));
    for s in runs {
        let counts = KEYS.map(|k| s.attr_u64(k).unwrap_or(0));
        row(&s.track, counts);
        for (t, c) in total.iter_mut().zip(counts) {
            *t += c;
        }
        spilling += usize::from(counts[1] > 0);
        cells += 1;
    }
    row(&format!("total ({spilling} of {cells} cells spill)"), total);
}

/// Prints the hot-spot report out of a recorded run: wall throughput, the
/// per-outcome-class time budget, the top-N hottest cells by recorded wall
/// time (probe + simulate + store), and the profilers' fast-path shares.
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
    print_fast_path_shares(&spans);
}

/// Exit 0 when identical modulo the quarantined `timing` sub-objects, 1 at
/// the first divergence, 2 when either file is corrupt/truncated.
pub fn diff(args: &Args) -> Result<ExitCode, String> {
    let (a, b) = (&args.operands()[0], &args.operands()[1]);
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
