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
    CacheStats, ExperimentError, ExperimentSpec, FigureTable, Json, PlanOutcome, ScaleProfile,
    SessionCounters, WorkloadSet, WorkloadSpec,
};
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

/// An object from `(key, value)` pairs, in order.
fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// An array of each item's display text.
fn strings<T: ToString>(items: impl IntoIterator<Item = T>) -> Json {
    Json::Arr(
        items
            .into_iter()
            .map(|item| Json::Str(item.to_string()))
            .collect(),
    )
}

/// One figure, kept on one line of the results documents.
fn figure(fig: &FigureTable) -> Json {
    let rows = fig.rows().iter().map(|(label, values)| {
        obj([
            ("label", Json::str(label.as_str())),
            (
                "values",
                Json::Arr(values.iter().map(|&v| Json::F64(v)).collect()),
            ),
        ])
    });
    Json::Inline(Box::new(obj([
        ("title", Json::str(fig.title())),
        ("columns", strings(fig.columns())),
        ("rows", Json::Arr(rows.collect())),
    ])))
}

/// The `figures` list that ends both results documents.
fn figures(outcome: &PlanOutcome) -> Result<Json, ExperimentError> {
    Ok(Json::Arr(
        outcome.all_figures()?.iter().map(figure).collect(),
    ))
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
    let figures = figures(outcome)?;
    let benchmarks = outcome
        .rows
        .iter()
        .map(|(row, _)| Ok(outcome.report(row, outcome.baseline)?.benchmark))
        .collect::<Result<Vec<_>, ExperimentError>>()?;
    let headline = [
        ("dbypfull_traffic_vs_mesi", h.dbypfull_traffic_vs_mesi),
        ("dbypfull_traffic_vs_mmeml1", h.dbypfull_traffic_vs_mmeml1),
        ("dbypfull_traffic_vs_dflexl1", h.dbypfull_traffic_vs_dflexl1),
        ("denovo_traffic_vs_mesi", h.denovo_traffic_vs_mesi),
        ("dbypfull_time_vs_mesi", h.dbypfull_time_vs_mesi),
        ("mmeml1_time_vs_mesi", h.mmeml1_time_vs_mesi),
        ("dbypfull_waste_fraction", h.dbypfull_waste_fraction),
        ("mesi_overhead_fraction", h.mesi_overhead_fraction),
    ];
    let update = obj([
        (
            "dragon_traffic_vs_mesi_geomean",
            Json::F64(update_ratio_geomean(update)),
        ),
        ("figure", figure(update)),
    ]);
    Ok(obj([
        ("schema", Json::str("denovo-waste/bench-results/v1")),
        ("scale", Json::str(format!("{scale:?}"))),
        ("protocols", strings(&outcome.protocols)),
        ("benchmarks", strings(benchmarks)),
        ("cells", Json::UInt(outcome.cells() as u64)),
        ("headline", obj(headline.map(|(k, v)| (k, Json::F64(v))))),
        ("update_vs_invalidate", update),
        ("figures", figures),
    ])
    .pretty())
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
    Ok(obj([
        ("schema", Json::str("denovo-waste/plan-results/v1")),
        ("plan", Json::str(outcome.name.as_str())),
        ("protocols", strings(&outcome.protocols)),
        ("rows", strings(outcome.rows.iter().map(|(_, label)| label))),
        ("cells", Json::UInt(outcome.cells() as u64)),
        ("figures", figures(outcome)?),
    ])
    .pretty())
}

/// Serializes a plan run's cache statistics — the `plan run --stats`
/// artifact CI uploads next to `BENCH_results.json` — with the number of
/// generated workloads whose records the run built and of the digest passes
/// its compile ran ([`SessionCounters::workloads_materialized`],
/// [`SessionCounters::digest_passes`]).
pub fn cache_stats_json(plan: &str, stats: &CacheStats, session: &SessionCounters) -> String {
    obj([
        ("schema", Json::str("denovo-waste/cache-stats/v1")),
        ("plan", Json::str(plan)),
        ("cells", Json::UInt(stats.total())),
        ("hits", Json::UInt(stats.hits)),
        ("misses", Json::UInt(stats.misses)),
        ("coalesced", Json::UInt(stats.coalesced)),
        ("hit_rate", Json::F64(stats.hit_rate())),
        (
            "workloads_materialized",
            Json::UInt(session.workloads_materialized),
        ),
        ("digest_passes", Json::UInt(session.digest_passes)),
    ])
    .pretty()
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

    /// A figure whose text needs every kind of escape and whose values
    /// take every number form the writers emit.
    fn awkward_figure() -> FigureTable {
        let mut fig = FigureTable::new(
            "T \"q\" \\ \n\u{1} \u{e9}\u{20ac}",
            vec!["c\"1".into(), "\u{fc}\\".into(), "x".into(), "y".into()],
        );
        fig.push_row(
            "r \"1\"\n\u{1}\u{df}",
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
        );
        fig.push_row("plain", vec![7068.0, -0.0, 1.5]);
        fig
    }

    /// An outcome with no rows: every figure is empty and every headline
    /// mean is 0, so the documents are short enough to spell out.
    fn rowless_outcome(name: &str) -> PlanOutcome {
        PlanOutcome {
            name: name.to_string(),
            protocols: ProtocolKind::PAPER.to_vec(),
            baseline: ProtocolKind::Mesi,
            rows: Vec::new(),
            variants: Vec::new(),
            reports: Default::default(),
            cache: CacheStats::default(),
        }
    }

    const AWKWARD_FIGURE: &str = r#"{"title":"T \"q\" \\ \n\u0001 é€","columns":["c\"1","ü\\","x","y"],"rows":[{"label":"r \"1\"\n\u0001ß","values":[null,null,null]},{"label":"plain","values":[7068,-0,1.5]}]}"#;

    #[test]
    fn json_numbers_are_finite_or_null() {
        let mut fig = FigureTable::new("n", (0..9).map(|i| i.to_string()).collect());
        fig.push_row(
            "r",
            vec![
                1.5,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                7068.0,
                -0.0,
                1e21,
                1e-7,
            ],
        );
        let json = results_json(&rowless_outcome("p"), ScaleProfile::Tiny, &fig).unwrap();
        assert!(
            json.contains(
                r#""values":[1.5,null,null,null,7068,-0,1000000000000000000000,0.0000001]"#
            ),
            "{json}"
        );
    }

    #[test]
    fn the_three_writers_pin_every_byte() {
        let name = "p \"n\" \\ \n\u{1} \u{e9}";
        let outcome = rowless_outcome(name);
        let figures = [
            r#"{"title":"Table 4.1: Simulated system parameters","columns":["Component","Value"],"rows":[]}"#,
            r#"{"title":"Table 4.2: Application input sizes (paper input -> simulated input)","columns":["Application","Value"],"rows":[]}"#,
            r#"{"title":"Figure 5.1a: Overall network traffic (flit-hops, normalized to MESI)","columns":["bench/protocol","LD","ST","WB","Overhead","Total"],"rows":[]}"#,
            r#"{"title":"Figure 5.1b: LD network traffic breakdown (normalized to MESI LD traffic)","columns":["bench/protocol","Req Ctl","Resp Ctl","Resp L1 Used","Resp L1 Waste","Resp L2 Used","Resp L2 Waste"],"rows":[]}"#,
            r#"{"title":"Figure 5.1c: ST network traffic breakdown (normalized to MESI ST traffic)","columns":["bench/protocol","Req Ctl","Resp Ctl","Resp L1 Used","Resp L1 Waste","Resp L2 Used","Resp L2 Waste"],"rows":[]}"#,
            r#"{"title":"Figure 5.1d: WB network traffic breakdown (normalized to MESI WB traffic)","columns":["bench/protocol","Control","L2 Used","L2 Waste","Mem Used","Mem Waste"],"rows":[]}"#,
            r#"{"title":"Figure 5.2: Execution time (normalized to MESI)","columns":["bench/protocol","Compute","On-chip Hit","From MC","To MC","Mem","Sync","Total"],"rows":[]}"#,
            r#"{"title":"Figure 5.3a: L1 fetch waste (words fetched into L1, normalized to MESI)","columns":["bench/protocol","Used Words","Fetch Waste","Write Waste","Invalidate Waste","Evict Waste","Unevicted Waste","Excess Waste"],"rows":[]}"#,
            r#"{"title":"Figure 5.3b: L2 fetch waste (words fetched into L2, normalized to MESI)","columns":["bench/protocol","Used Words","Fetch Waste","Write Waste","Invalidate Waste","Evict Waste","Unevicted Waste","Excess Waste"],"rows":[]}"#,
            r#"{"title":"Figure 5.3c: Memory fetch waste (words fetched from memory, normalized to MESI)","columns":["bench/protocol","Used Words","Fetch Waste","Write Waste","Invalidate Waste","Evict Waste","Unevicted Waste","Excess Waste"],"rows":[]}"#,
        ];
        let tail = format!(
            "  \"figures\": [\n    {}\n  ]\n}}\n",
            figures.join(",\n    ")
        );
        let protocols = r#"["MESI", "MMemL1", "DeNovo", "DFlexL1", "DValidateL2", "DMemL1", "DFlexL2", "DBypL2", "DBypFull"]"#;

        let results = results_json(&outcome, ScaleProfile::Tiny, &awkward_figure()).unwrap();
        let want = format!(
            "{{
  \"schema\": \"denovo-waste/bench-results/v1\",
  \"scale\": \"Tiny\",
  \"protocols\": {protocols},
  \"benchmarks\": [],
  \"cells\": 0,
  \"headline\": {{
    \"dbypfull_traffic_vs_mesi\": 0,
    \"dbypfull_traffic_vs_mmeml1\": 0,
    \"dbypfull_traffic_vs_dflexl1\": 0,
    \"denovo_traffic_vs_mesi\": 0,
    \"dbypfull_time_vs_mesi\": 0,
    \"mmeml1_time_vs_mesi\": 0,
    \"dbypfull_waste_fraction\": 0,
    \"mesi_overhead_fraction\": 0
  }},
  \"update_vs_invalidate\": {{
    \"dragon_traffic_vs_mesi_geomean\": null,
    \"figure\": {AWKWARD_FIGURE}
  }},
{tail}"
        );
        assert_eq!(results, want);

        let plan = plan_figures_json(&outcome).unwrap();
        let want = format!(
            "{{
  \"schema\": \"denovo-waste/plan-results/v1\",
  \"plan\": \"p \\\"n\\\" \\\\ \\n\\u0001 \u{e9}\",
  \"protocols\": {protocols},
  \"rows\": [],
  \"cells\": 0,
{tail}"
        );
        assert_eq!(plan, want);

        let stats = CacheStats {
            hits: 3,
            misses: 1,
            coalesced: 2,
        };
        let session = SessionCounters {
            workloads_materialized: 4,
            digest_passes: 5,
            ..SessionCounters::default()
        };
        assert_eq!(
            cache_stats_json(name, &stats, &session),
            "{
  \"schema\": \"denovo-waste/cache-stats/v1\",
  \"plan\": \"p \\\"n\\\" \\\\ \\n\\u0001 \u{e9}\",
  \"cells\": 6,
  \"hits\": 3,
  \"misses\": 1,
  \"coalesced\": 2,
  \"hit_rate\": 0.8333333333333334,
  \"workloads_materialized\": 4,
  \"digest_passes\": 5
}
"
        );
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
