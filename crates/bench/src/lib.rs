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
    CacheStats, ExperimentError, FigureTable, PlanOutcome, ScaleProfile, SimConfig, Simulator,
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

/// Builds the update-vs-invalidate comparison (the Dragon figure family):
/// each of the seven synthesized sharing-pattern primitives run once under
/// MESI (invalidation) and once under Dragon (write-update) on the scale's
/// system, analytic network. Per primitive the row reports total flit-hops
/// under each protocol, the Dragon/MESI traffic ratio (`< 1` means the
/// update protocol moved less), and Dragon's update-waste share — the
/// fraction of words moved into L1s that were update-pushed to a sharer
/// that never read them before they died.
pub fn update_vs_invalidate_figure(scale: ScaleProfile) -> FigureTable {
    let system = scale.system();
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
    for pattern in SharingPattern::ALL {
        let wl = SynthConfig {
            seed: UPDATE_FIGURE_SEED,
            cores: system.tiles(),
            phases: 4,
            pattern_instances: 2,
            only: Some(pattern),
            ops_per_phase: (16, 32),
            streaming_stripe_words: (512, 1024),
        }
        .build();
        let run = |p: ProtocolKind| {
            Simulator::new(SimConfig::new(p).with_system(system.clone()), &wl).run()
        };
        let mesi = run(ProtocolKind::Mesi);
        let dragon = run(ProtocolKind::Dragon);
        let l1_words = dragon.l1_waste.total_words();
        let update_share = if l1_words == 0 {
            0.0
        } else {
            dragon.l1_waste.words(WasteCategory::Update) as f64 / l1_words as f64
        };
        fig.push_row(
            pattern.name(),
            vec![
                mesi.total_flit_hops(),
                dragon.total_flit_hops(),
                dragon.traffic_relative_to(&mesi),
                update_share,
            ],
        );
    }
    fig
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
    let _ = write!(out, "  \"protocols\": [");
    for (i, p) in outcome.protocols.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{p}\"");
    }
    out.push_str("],\n");
    let _ = write!(out, "  \"benchmarks\": [");
    for (i, (row, _)) in outcome.rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let b = outcome.report(row, outcome.baseline.protocol())?.benchmark;
        let _ = write!(out, "\"{b}\"");
    }
    out.push_str("],\n");
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
    for (i, (name, value)) in headline_fields.iter().enumerate() {
        let comma = if i + 1 < headline_fields.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "    \"{name}\": {}{comma}", json_num(*value));
    }
    out.push_str("  },\n");
    out.push_str("  \"update_vs_invalidate\": {\n");
    let _ = writeln!(
        out,
        "    \"dragon_traffic_vs_mesi_geomean\": {},",
        json_num(update_ratio_geomean(update))
    );
    out.push_str("    \"figure\": ");
    figure_json(update, &mut out);
    out.push_str("\n  },\n");
    out.push_str("  \"figures\": [\n");
    for (i, fig) in figures.iter().enumerate() {
        out.push_str("    ");
        figure_json(fig, &mut out);
        if i + 1 < figures.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
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
    let _ = write!(out, "  \"protocols\": [");
    for (i, p) in outcome.protocols.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{p}\"");
    }
    out.push_str("],\n");
    let _ = write!(out, "  \"rows\": [");
    for (i, (_, label)) in outcome.rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", escaped(label));
    }
    out.push_str("],\n");
    let _ = writeln!(out, "  \"cells\": {},", outcome.cells());
    out.push_str("  \"figures\": [\n");
    for (i, fig) in figures.iter().enumerate() {
        out.push_str("    ");
        figure_json(fig, &mut out);
        if i + 1 < figures.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    Ok(out)
}

/// Serializes a plan run's cache statistics — the `plan run --stats`
/// artifact CI uploads next to `BENCH_results.json` — with the number of
/// generated workloads whose records the run built
/// ([`denovo_waste::SessionCounters::workloads_materialized`]).
pub fn cache_stats_json(plan: &str, stats: &CacheStats, workloads_materialized: u64) -> String {
    format!(
        "{{\n  \"schema\": \"denovo-waste/cache-stats/v1\",\n  \"plan\": \"{}\",\n  \"cells\": {},\n  \"hits\": {},\n  \"misses\": {},\n  \"coalesced\": {},\n  \"hit_rate\": {},\n  \"workloads_materialized\": {}\n}}\n",
        escaped(plan),
        stats.total(),
        stats.hits,
        stats.misses,
        stats.coalesced,
        json_num(stats.hit_rate()),
        workloads_materialized,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use denovo_waste::{ExperimentSpec, Session, WorkloadSet};
    use tw_workloads::BenchmarkKind;

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
        let update = update_vs_invalidate_figure(ScaleProfile::Tiny);
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

        let materialized = session.counters().workloads_materialized;
        assert_eq!(materialized, 2, "both workloads ran");
        let stats = cache_stats_json(&outcome.name, &outcome.cache, materialized);
        assert!(stats.contains("\"hits\": 0"));
        assert!(stats.contains("\"workloads_materialized\": 2\n"));
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
        let fig = update_vs_invalidate_figure(ScaleProfile::Tiny);
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
        assert_eq!(fig, update_vs_invalidate_figure(ScaleProfile::Tiny));
    }
}
