//! The `plan` family: builtin / show / run (one-line summaries: `cli.rs`).

use crate::cli::Args;
use crate::{cache_line, census, run_plan, write_file};
use denovo_waste::{ExperimentSpec, Session, WorkloadSet};
use std::path::Path;
use std::process::ExitCode;
use tw_types::NetworkModelKind;

/// The exact plan the figure commands are sugar over.
pub fn builtin(args: &Args) -> Result<ExitCode, String> {
    let mut spec = ExperimentSpec::full_matrix(args.scale());
    if let Some(list) = args.value("--network") {
        // Unknown names are rejected with the name in the error.
        spec.networks = list
            .split(',')
            .map(|n| NetworkModelKind::by_name(n.trim()))
            .collect::<Result<_, _>>()?;
    }
    print!("{}", spec.to_json());
    Ok(ExitCode::SUCCESS)
}

/// Every sweep axis of the spec, then the compiled cells with their
/// identity (workload ref, variant geometry, protocol, cache key); a cell
/// that is the same machine as an earlier one names it instead, and one
/// that is a timed lane of an earlier cell's run names that cell.
pub fn show(args: &Args) -> Result<ExitCode, String> {
    let spec = ExperimentSpec::load(Path::new(&args.operands()[0]))?;
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
    // An empty optional axis means the default the compiler filled in.
    let axis = |label: &str, names: Vec<&str>, implicit: &str| {
        let names = if names.is_empty() {
            implicit.to_string()
        } else {
            names.join(" ")
        };
        println!("axis {label}{names}");
    };
    axis(
        "protocols: ",
        spec.protocols.iter().map(|p| p.name()).collect(),
        "",
    );
    axis(
        "workloads: ",
        spec.workloads.iter().map(|w| w.name.as_str()).collect(),
        "",
    );
    axis(
        "variants:  ",
        spec.variants.iter().map(|v| v.label.as_str()).collect(),
        "base (implicit)",
    );
    axis(
        "networks:  ",
        spec.networks.iter().map(|n| n.name()).collect(),
        "analytic (default)",
    );
    println!("baseline:       {}", spec.baseline.protocol().name());
    for (label, sys) in &plan.variants {
        println!(
            "variant `{label}`: {} tiles, {} KB L1, {} KB L2/slice, {} network",
            sys.tiles(),
            sys.cache.l1_bytes / 1024,
            sys.cache.l2_slice_bytes / 1024,
            sys.network.name(),
        );
    }
    let groups = session.groups(&plan);
    for (i, (cell, group)) in plan.cells.iter().zip(&groups).enumerate() {
        let identity = if group.leader == i {
            format!("workload {:<24}", cell.workload_ref.to_string())
        } else {
            format!("= {:<31}", plan.cells[group.leader].name_from(cell))
        };
        // A leader another cell's run simulates is a timed lane of that run.
        let lane = if group.leader == i && group.run != i {
            format!(" lane of {}", plan.cells[group.run].track())
        } else {
            String::new()
        };
        println!(
            "  {:<28} {:<10} {identity} key {}{lane}",
            cell.label,
            cell.protocol.name(),
            group.key,
        );
    }
    println!("{}", census(&groups));
    Ok(ExitCode::SUCCESS)
}

/// The `--json` document deliberately carries no wall time.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let spec = ExperimentSpec::load(Path::new(&args.operands()[0]))?;
    let record = args.value("--record").map(|out| ("plan", Some(out)));
    let ran = run_plan(&spec, &WorkloadSet::new(), args.value("--cache"), record)?;
    let outcome = ran.outcome;
    for fig in outcome.all_figures()? {
        println!("{fig}");
    }
    println!("{}", cache_line(&outcome.cache));
    if let Some(path) = args.value("--json") {
        write_file(path, tw_bench::plan_figures_json(&outcome)?)?;
    }
    if let Some(path) = args.value("--stats") {
        write_file(
            path,
            tw_bench::cache_stats_json(&outcome.name, &outcome.cache, ran.materialized),
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
