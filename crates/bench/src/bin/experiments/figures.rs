//! The figure runner: the command with the empty path.

use crate::cli::Args;
use crate::{cache_line, run_plan};
use denovo_waste::{ExperimentError, ExperimentSpec, FigureTable, PlanOutcome, WorkloadSet};
use std::process::ExitCode;
use tw_types::NetworkModelKind;

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

/// Every name the figure runner accepts, in print order.
pub fn figure_names() -> Vec<&'static str> {
    let plan = PlanOutcome::FIGURES.iter().map(|(name, _)| *name);
    std::iter::once("all")
        .chain(plan)
        .chain(["figupdate", "headline"])
        .collect()
}

/// The figure commands are sugar over two built-in plans run on one
/// (optionally cached) session: the full matrix, and the update-vs-invalidate
/// primitives ([`tw_bench::update_vs_invalidate_plan`]). Each runs only when
/// a requested output reads it. They run one network model (the
/// benchmark-keyed figure rows can't represent two models per benchmark);
/// `--network` sets the matrix's, the primitives keep the analytic one. A
/// multi-model sweep is a plan (`plan builtin --network analytic,flit`).
pub fn run(args: &Args) -> Result<ExitCode, String> {
    // A typo'd figure name must not silently cost a multi-minute matrix run.
    let mut wanted: Vec<&str> = args.operands().iter().map(String::as_str).collect();
    let names = figure_names();
    if let Some(bad) = wanted.iter().find(|w| !names.contains(w)) {
        return Err(format!(
            "unknown figure `{bad}`; expected one of: {} (or a subcommand: see `experiments help`)",
            names.join(" ")
        ));
    }
    if wanted.is_empty() {
        wanted.push("all");
    }
    let (scale, json) = (args.scale(), args.has("--json"));
    let want = |name: &str| wanted.contains(&"all") || wanted.contains(&name);
    let reads_matrix =
        json || want("headline") || PlanOutcome::FIGURES.iter().any(|(n, _)| want(n));
    let mut matrix = ExperimentSpec::full_matrix(scale);
    if let Some(name) = args.value("--network") {
        matrix.networks = vec![NetworkModelKind::by_name(name)?];
    }
    let mut specs = Vec::new();
    if reads_matrix {
        specs.push((matrix, WorkloadSet::new()));
    }
    if json || want("figupdate") {
        specs.push(tw_bench::update_vs_invalidate_plan(scale));
    }
    let cache = args.value("--cache");
    let record = args.value("--record").map(|out| ("cli", Some(out)));
    let ran = run_plan(&specs, cache, record)?;
    if cache.is_some() {
        eprintln!("{}", cache_line(&ran.outcomes));
    }
    // The outcomes of the plans that ran, in the order they were pushed.
    let mut outcomes = ran.outcomes.iter();
    let outcome = reads_matrix.then(|| outcomes.next()).flatten();
    let update_fig = outcomes
        .next()
        .map(|o| tw_bench::update_vs_invalidate_figure(o, scale))
        .transpose()?;

    if json {
        let path = "BENCH_results.json";
        let (outcome, update) = outcome.zip(update_fig.as_ref()).expect("--json reads both");
        let doc = tw_bench::results_json(outcome, scale, update)?;
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }

    // Every requested figure must contribute at least one cell; a run that
    // prints nothing exits nonzero so scripts and CI can rely on it.
    let mut emitted_cells = 0usize;
    let mut emit = |fig: FigureTable| {
        emitted_cells += fig.rows().len();
        println!("{fig}");
    };

    if let Some(outcome) = outcome {
        for (_, render) in PlanOutcome::FIGURES.iter().filter(|(name, _)| want(name)) {
            emit(render(outcome)?);
        }
    }
    if let Some(fig) = update_fig.filter(|_| want("figupdate")) {
        emit(fig);
    }
    if let Some(outcome) = outcome.filter(|_| want("headline")) {
        print_headline(outcome)?;
        emitted_cells += outcome.cells();
    }
    if emitted_cells == 0 {
        // An invalid request (exit 2, like every other malformed input),
        // not a failed check (exit 1).
        return Err(format!(
            "requested output ({}) produced no cells",
            wanted.join(" ")
        ));
    }
    Ok(ExitCode::SUCCESS)
}
