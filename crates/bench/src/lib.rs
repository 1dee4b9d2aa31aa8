//! Benchmark harness for the traffic-waste study.
//!
//! The `experiments` binary regenerates every table and figure of the paper's
//! evaluation section (run `cargo run -p tw-bench --release --bin experiments
//! -- all`, or `-- all --json` for a machine-readable `BENCH_results.json`)
//! and runs arbitrary declarative plans (`experiments plan run spec.json`).
//! Speed is measured by the separate `benchmark/` package; this crate's own
//! work gate is counts (`experiments profile --counts`, `WORK_counts.txt`).
//! The experiment index and recorded full-scale numbers live in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;

use denovo_waste::{
    CacheStats, ExperimentError, ExperimentSpec, FigureTable, PlanOutcome, ScaleProfile,
    SessionCounters, WorkloadSet, WorkloadSpec,
};
use std::fmt::Write as _;
use tw_obs::escaped;
use tw_profiler::WasteCategory;
use tw_scenarios::{SharingPattern, SynthConfig};
use tw_types::ProtocolKind;

/// Seed for the update-vs-invalidate synthesized primitives. Fixed so the
/// committed `BENCH_results.json` numbers and `EXPERIMENTS.md` walkthrough
/// stay reproducible.
const UPDATE_FIGURE_SEED: u64 = 12;

/// The update-vs-invalidate comparison (the Dragon figure family) as a
/// plan: the seven synthesized sharing-pattern primitives, provided
/// workloads named after their pattern, each under MESI (invalidation) and
/// Dragon (write-update) on the scale's base system, analytic network.
pub fn update_vs_invalidate_plan(scale: ScaleProfile) -> (ExperimentSpec, WorkloadSet) {
    let protocols = vec![ProtocolKind::Mesi, ProtocolKind::Dragon];
    let mut spec = ExperimentSpec::subset(protocols, vec![], scale);
    spec.name = format!("{}-update", scale.name());
    let mut set = WorkloadSet::new();
    for pattern in SharingPattern::ALL {
        let wl = SynthConfig {
            seed: UPDATE_FIGURE_SEED,
            cores: scale.system().tiles(),
            phases: 4,
            pattern_instances: 2,
            only: Some(pattern),
            ops_per_phase: (16, 32),
            streaming_stripe_words: (512, 1024),
        }
        .build();
        set.insert(pattern.name(), wl);
        spec.workloads.push(WorkloadSpec::provided(pattern.name()));
    }
    (spec, set)
}

/// Renders the outcome of [`update_vs_invalidate_plan`] at `scale`. Per
/// primitive the row reports total flit-hops under each protocol, the
/// Dragon/MESI traffic ratio (`< 1` means the update protocol moved less),
/// and Dragon's update-waste share — the fraction of words moved into L1s
/// that were update-pushed to a sharer that never read them before they
/// died.
///
/// # Errors
///
/// [`ExperimentError::MissingCell`] for a row without both protocols.
pub fn update_vs_invalidate_figure(
    outcome: &PlanOutcome,
    scale: ScaleProfile,
) -> Result<FigureTable, ExperimentError> {
    let mut fig = FigureTable::new(
        format!("Update vs invalidate: Dragon against MESI on sharing primitives ({scale:?})"),
        [
            "Primitive",
            "MESI hops",
            "Dragon hops",
            "Dragon/MESI",
            "Update waste",
        ]
        .map(String::from)
        .to_vec(),
    );
    for (row, label) in &outcome.rows {
        let mesi = outcome.report(row, ProtocolKind::Mesi)?;
        let dragon = outcome.report(row, ProtocolKind::Dragon)?;
        let l1_words = dragon.l1_waste.total_words();
        let update_share = if l1_words == 0 {
            0.0
        } else {
            dragon.l1_waste.words(WasteCategory::Update) as f64 / l1_words as f64
        };
        fig.push_row(
            label,
            vec![
                mesi.total_flit_hops(),
                dragon.total_flit_hops(),
                dragon.traffic_relative_to(mesi),
                update_share,
            ],
        );
    }
    Ok(fig)
}

/// Geometric mean of the figure's Dragon/MESI traffic ratios — the single
/// scalar the benchmark-trajectory artifact tracks for the update design
/// point.
fn update_ratio_geomean(fig: &FigureTable) -> f64 {
    let ratios: Vec<f64> = fig
        .rows()
        .iter()
        .filter_map(|(_, v)| v.get(2))
        .copied()
        .collect();
    if ratios.is_empty() || ratios.iter().any(|r| *r <= 0.0) {
        return f64::NAN;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Renders a finite `f64` as JSON (JSON has no NaN/inf; those become null).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn figure_json(fig: &FigureTable, out: &mut String) {
    let _ = write!(
        out,
        "{{\"title\":\"{}\",\"columns\":[",
        escaped(fig.title())
    );
    for (i, c) in fig.columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escaped(c));
    }
    out.push_str("],\"rows\":[");
    for (i, (label, values)) in fig.rows().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"label\":\"{}\",\"values\":[", escaped(label));
        for (j, v) in values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_num(*v));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// Writes `  "key": ["a", "b"],` and a newline, each item escaped.
fn string_list(out: &mut String, key: &str, items: &[impl std::fmt::Display]) {
    let quoted: Vec<String> = items
        .iter()
        .map(|item| format!("\"{}\"", escaped(&item.to_string())))
        .collect();
    let _ = writeln!(out, "  \"{key}\": [{}],", quoted.join(", "));
}

/// Writes the `figures` array that ends both results documents, and the
/// closing brace.
fn figures_tail(figures: &[FigureTable], out: &mut String) {
    out.push_str("  \"figures\": [\n");
    for (i, fig) in figures.iter().enumerate() {
        out.push_str("    ");
        figure_json(fig, out);
        out.push_str(if i + 1 < figures.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
}

/// Serializes one experiment run — headline averages, the
/// update-vs-invalidate comparison and every figure of the evaluation
/// section — as the `BENCH_results.json` document consumed by the
/// performance-trajectory tooling. `update` is the
/// [`update_vs_invalidate_figure`] for the same scale, passed in so callers
/// that also print it compute it once.
///
/// The document deliberately carries **no wall clock**: two runs of the
/// same matrix emit byte-identical bytes, so CI diffs the whole file.
///
/// # Errors
///
/// Any [`ExperimentError`] from figure extraction (for example a missing
/// baseline protocol).
pub fn results_json(
    outcome: &PlanOutcome,
    scale: ScaleProfile,
    update: &FigureTable,
) -> Result<String, ExperimentError> {
    let h = outcome.headline()?;
    let figures = outcome.all_figures()?;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"denovo-waste/bench-results/v1\",\n");
    let _ = writeln!(out, "  \"scale\": \"{scale:?}\",");
    string_list(&mut out, "protocols", &outcome.protocols);
    let mut benchmarks = Vec::new();
    for (row, _) in &outcome.rows {
        benchmarks.push(outcome.report(row, outcome.baseline.protocol())?.benchmark);
    }
    string_list(&mut out, "benchmarks", &benchmarks);
    let _ = writeln!(out, "  \"cells\": {},", outcome.cells());
    out.push_str("  \"headline\": {\n");
    let headline_fields = [
        ("dbypfull_traffic_vs_mesi", h.dbypfull_traffic_vs_mesi),
        ("dbypfull_traffic_vs_mmeml1", h.dbypfull_traffic_vs_mmeml1),
        ("dbypfull_traffic_vs_dflexl1", h.dbypfull_traffic_vs_dflexl1),
        ("denovo_traffic_vs_mesi", h.denovo_traffic_vs_mesi),
        ("dbypfull_time_vs_mesi", h.dbypfull_time_vs_mesi),
        ("mmeml1_time_vs_mesi", h.mmeml1_time_vs_mesi),
        ("dbypfull_waste_fraction", h.dbypfull_waste_fraction),
        ("mesi_overhead_fraction", h.mesi_overhead_fraction),
    ];
    let fields =
        headline_fields.map(|(name, value)| format!("    \"{name}\": {}", json_num(value)));
    let _ = writeln!(out, "{}\n  }},", fields.join(",\n"));
    out.push_str("  \"update_vs_invalidate\": {\n");
    let _ = writeln!(
        out,
        "    \"dragon_traffic_vs_mesi_geomean\": {},",
        json_num(update_ratio_geomean(update))
    );
    out.push_str("    \"figure\": ");
    figure_json(update, &mut out);
    out.push_str("\n  },\n");
    figures_tail(&figures, &mut out);
    Ok(out)
}

/// Serializes a plan outcome's figures as a deterministic JSON document —
/// the `plan run --json` artifact. Deliberately contains **no wall time and
/// no cache statistics**, so a cold and a warm run of the same plan emit
/// byte-identical documents (CI diffs exactly that).
///
/// # Errors
///
/// Any [`ExperimentError`] from figure extraction.
pub fn plan_figures_json(outcome: &PlanOutcome) -> Result<String, ExperimentError> {
    let figures = outcome.all_figures()?;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"denovo-waste/plan-results/v1\",\n");
    let _ = writeln!(out, "  \"plan\": \"{}\",", escaped(&outcome.name));
    string_list(&mut out, "protocols", &outcome.protocols);
    let labels: Vec<&String> = outcome.rows.iter().map(|(_, label)| label).collect();
    string_list(&mut out, "rows", &labels);
    let _ = writeln!(out, "  \"cells\": {},", outcome.cells());
    figures_tail(&figures, &mut out);
    Ok(out)
}

/// Serializes a plan run's cache statistics — the `plan run --stats`
/// artifact CI uploads next to `BENCH_results.json` — with the number of
/// generated workloads whose records the run built and of the digest passes
/// its compile ran ([`SessionCounters::workloads_materialized`],
/// [`SessionCounters::digest_passes`]).
pub fn cache_stats_json(plan: &str, stats: &CacheStats, session: &SessionCounters) -> String {
    format!(
        "{{\n  \"schema\": \"denovo-waste/cache-stats/v1\",\n  \"plan\": \"{}\",\n  \"cells\": {},\n  \"hits\": {},\n  \"misses\": {},\n  \"coalesced\": {},\n  \"hit_rate\": {},\n  \"workloads_materialized\": {},\n  \"digest_passes\": {}\n}}\n",
        escaped(plan),
        stats.total(),
        stats.hits,
        stats.misses,
        stats.coalesced,
        json_num(stats.hit_rate()),
        session.workloads_materialized,
        session.digest_passes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use denovo_waste::Session;
    use tw_workloads::BenchmarkKind;

    fn update_figure(scale: ScaleProfile) -> FigureTable {
        let (spec, set) = update_vs_invalidate_plan(scale);
        let outcome = Session::new().run(&spec, &set).unwrap();
        update_vs_invalidate_figure(&outcome, scale).unwrap()
    }

    #[test]
    fn json_numbers_are_finite_or_null() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn results_json_is_structurally_sound() {
        let spec = ExperimentSpec::subset(
            vec![
                ProtocolKind::Mesi,
                ProtocolKind::MMemL1,
                ProtocolKind::DeNovo,
                ProtocolKind::DFlexL1,
                ProtocolKind::DBypFull,
            ],
            vec![BenchmarkKind::Fft, BenchmarkKind::Radix],
            ScaleProfile::Tiny,
        );
        let session = Session::new();
        let plan = session.compile(&spec, &WorkloadSet::new()).unwrap();
        let outcome = session.execute(&plan).unwrap();
        let update = update_figure(ScaleProfile::Tiny);
        let json = results_json(&outcome, ScaleProfile::Tiny, &update).unwrap();
        // Structural sanity without a JSON parser: balanced delimiters and
        // the expected top-level keys.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"schema\"",
            "\"headline\"",
            "\"update_vs_invalidate\"",
            "\"dragon_traffic_vs_mesi_geomean\"",
            "\"figures\"",
            "\"cells\": 10",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(json.contains("Figure 5.1a"));

        // The plan-level document shares the figure payload.
        let plan_json = plan_figures_json(&outcome).unwrap();
        assert!(plan_json.contains("denovo-waste/plan-results/v1"));
        assert!(plan_json.contains("Figure 5.1a"));

        let counters = session.counters();
        assert_eq!(counters.workloads_materialized, 2, "both workloads ran");
        let stats = cache_stats_json(&outcome.name, &outcome.cache, &counters);
        assert!(stats.contains("\"hits\": 0"));
        assert!(stats.contains("\"workloads_materialized\": 2,\n"));
        assert!(stats.contains("\"digest_passes\": 0\n"));
        // One simulation per distinct machine: neither input has a
        // communication region, so DFlexL1 is DeNovo's machine on both.
        let machines: std::collections::BTreeSet<_> = plan
            .cells
            .iter()
            .map(|c| (&c.row, c.protocol.effective_for(&c.workload.regions)))
            .collect();
        assert!(machines.len() < 10, "the spec has alias cells");
        assert!(stats.contains(&format!("\"misses\": {}", machines.len())));
        assert!(stats.contains(&format!("\"coalesced\": {}", 10 - machines.len())));
    }

    #[test]
    fn update_vs_invalidate_covers_every_primitive_and_flips_winners() {
        let fig = update_figure(ScaleProfile::Tiny);
        assert_eq!(fig.rows().len(), SharingPattern::ALL.len());
        let mut dragon_wins = 0usize;
        let mut dragon_losses = 0usize;
        for (label, values) in fig.rows() {
            let (mesi, dragon, ratio, update_share) = (values[0], values[1], values[2], values[3]);
            assert!(mesi > 0.0 && dragon > 0.0, "{label}: empty cell");
            assert!(
                (ratio - dragon / mesi).abs() < 1e-12,
                "{label}: ratio column must be Dragon/MESI"
            );
            assert!(
                (0.0..=1.0).contains(&update_share),
                "{label}: update-waste share {update_share} out of range"
            );
            if ratio < 1.0 {
                dragon_wins += 1;
            } else if ratio > 1.0 {
                dragon_losses += 1;
            }
        }
        // The headline claim: updates win where invalidations ping-pong
        // (false sharing, producer-consumer) and lose where pushed words
        // are never read again — both regimes must be represented.
        assert!(dragon_wins >= 1, "no primitive where Dragon beats MESI");
        assert!(
            dragon_losses >= 1,
            "no primitive where Dragon loses to MESI"
        );
        let geo = update_ratio_geomean(&fig);
        assert!(geo.is_finite() && geo > 0.0);

        // Determinism: the figure is rebuilt bit-identically (CI diffs the
        // containing BENCH_results.json byte-for-byte).
        assert_eq!(fig, update_figure(ScaleProfile::Tiny));
    }
}
