//! The experiment layer: declarative plans, cached sessions, outcomes.
//!
//! The layer is split along its lifecycle (see `DESIGN.md` §10):
//!
//! * [`plan`] — the declarative, JSON-round-trippable [`ExperimentSpec`]
//!   (sweep axes: protocols × workloads × system variants), compiled into
//!   cells with stable identity ([`WorkloadRef`] = name + content digest);
//! * [`session`] — [`Session`] executes compiled plans through an optional
//!   content-addressed result cache keyed by everything that determines a
//!   report (workload content, system, protocol, engine version), fanning
//!   out on one FIFO thread pool its clones share (`pool.rs`);
//! * [`outcome`] — [`PlanOutcome`] extracts the paper's tables and figures,
//!   normalized to an explicit baseline protocol (MESI by default).

mod codec;
mod memo;
pub mod outcome;
pub mod plan;
mod pool;
pub mod session;

pub use memo::workload_digests;
pub use outcome::{FigureRender, HeadlineSummary, PlanOutcome};
pub use plan::{
    CompiledPlan, ExperimentError, ExperimentSpec, PlannedCell, RowKey, SystemVariant, WorkloadRef,
    WorkloadSet, WorkloadSource, WorkloadSpec, SPEC_SCHEMA,
};
pub use session::{
    cache_key, sweep_temp_files, CacheStats, CellGroup, Session, SessionCounters, ENGINE_VERSION,
    TEMP_SWEEP_AGE,
};

// Defined beside the input table in `tw-workloads`; re-exported at its old path.
pub use tw_workloads::ScaleProfile;

#[cfg(test)]
mod tests {
    use super::*;
    use tw_types::ProtocolKind;
    use tw_workloads::{build_tiny, BenchmarkKind, Workload};

    fn tiny_outcome() -> PlanOutcome {
        let spec = ExperimentSpec::subset(
            vec![
                ProtocolKind::Mesi,
                ProtocolKind::DeNovo,
                ProtocolKind::DBypFull,
            ],
            vec![BenchmarkKind::Fft, BenchmarkKind::Radix],
            ScaleProfile::Tiny,
        );
        Session::new().run(&spec, &WorkloadSet::new()).unwrap()
    }

    /// The row of a benchmark in a single-variant plan.
    fn row(bench: BenchmarkKind) -> RowKey {
        RowKey {
            workload: bench.name().to_string(),
            variant: "base".to_string(),
        }
    }

    /// Runs `protocols` over externally supplied workloads, each a plan row
    /// named by its [`BenchmarkKind`].
    fn run_on(
        protocols: Vec<ProtocolKind>,
        workloads: Vec<Workload>,
    ) -> Result<PlanOutcome, ExperimentError> {
        let mut spec = ExperimentSpec::subset(protocols, vec![], ScaleProfile::Tiny);
        let mut set = WorkloadSet::new();
        for wl in workloads {
            spec.workloads.push(WorkloadSpec::provided(wl.kind.name()));
            set.insert(wl.kind.name(), wl);
        }
        Session::new().run(&spec, &set)
    }

    #[test]
    fn matrix_runs_all_pairs() {
        let out = tiny_outcome();
        assert_eq!(out.cells(), 6);
        assert!(
            out.report(&row(BenchmarkKind::Fft), ProtocolKind::Mesi)
                .unwrap()
                .total_cycles
                > 0
        );
    }

    #[test]
    fn missing_cells_are_errors_not_panics() {
        let out = tiny_outcome();
        let err = out
            .report(&row(BenchmarkKind::Lu), ProtocolKind::Mesi)
            .unwrap_err();
        assert!(matches!(err, ExperimentError::MissingCell { .. }), "{err}");
        let err = out.headline().unwrap_err();
        assert!(matches!(err, ExperimentError::MissingProtocol(_)), "{err}");
    }

    /// The headline checks every protocol it quotes before it reads a
    /// cell, so a plan that lacks one is refused by name.
    #[test]
    fn the_headline_names_an_unswept_protocol_it_quotes() {
        use ProtocolKind::{DBypFull, DFlexL1, DeNovo, MMemL1, Mesi};
        for (protocols, missing) in [
            (vec![Mesi, MMemL1, DeNovo, DFlexL1], DBypFull),
            (vec![Mesi, MMemL1, DFlexL1, DBypFull], DeNovo),
        ] {
            let spec =
                ExperimentSpec::subset(protocols, vec![BenchmarkKind::Fft], ScaleProfile::Tiny);
            let out = Session::new().run(&spec, &WorkloadSet::new()).unwrap();
            assert_eq!(
                out.headline().unwrap_err(),
                ExperimentError::MissingProtocol(missing)
            );
        }
    }

    /// Figures 5.3a-c draw an `Update Waste` column only when some cell
    /// produced update waste at the figure's level. Dragon's updates land in
    /// the L1s, so under it 5.3a draws the column and 5.3b-c do not.
    #[test]
    fn waste_figures_draw_the_update_column_only_for_update_waste() {
        use tw_profiler::WasteCategory::Update;
        let run = |p| {
            let spec = ExperimentSpec::subset(
                vec![ProtocolKind::Mesi, p],
                vec![BenchmarkKind::Radix],
                ScaleProfile::Tiny,
            );
            Session::new().run(&spec, &WorkloadSet::new()).unwrap()
        };
        let update_columns = |out: &PlanOutcome| {
            [out.fig_5_3a(), out.fig_5_3b(), out.fig_5_3c()]
                .map(|fig| fig.unwrap().columns().iter().any(|c| c == Update.label()))
        };
        assert_eq!(update_columns(&run(ProtocolKind::DeNovo)), [false; 3]);
        let dragon = run(ProtocolKind::Dragon);
        let r = dragon
            .report(&row(BenchmarkKind::Radix), ProtocolKind::Dragon)
            .unwrap();
        let words = [&r.l1_waste, &r.l2_waste, &r.mem_waste].map(|w| w.words(Update));
        assert!(words[0] > 0 && words[1] == 0 && words[2] == 0, "{words:?}");
        assert_eq!(update_columns(&dragon), [true, false, false]);
    }

    #[test]
    fn fig_5_1a_is_normalized_to_mesi() {
        let out = tiny_outcome();
        let fig = out.fig_5_1a().unwrap();
        let mesi_total = fig.value("FFT/MESI", "Total").unwrap();
        assert!(
            (mesi_total - 1.0).abs() < 1e-9,
            "MESI bar must be exactly 1.0"
        );
        let opt_total = fig.value("FFT/DBypFull", "Total").unwrap();
        assert!(opt_total < 1.0, "optimized protocol must reduce traffic");
    }

    /// Every normalized figure's title names the plan's baseline, the run
    /// its bars are divided by.
    #[test]
    fn figure_titles_name_the_plan_baseline() {
        let mut spec = ExperimentSpec::subset(
            vec![ProtocolKind::Mesi, ProtocolKind::DeNovo],
            vec![BenchmarkKind::Fft],
            ScaleProfile::Tiny,
        );
        spec.baseline = ProtocolKind::DeNovo;
        let out = Session::new().run(&spec, &WorkloadSet::new()).unwrap();
        let figures = out.all_figures().unwrap();
        let titles: Vec<&str> = figures
            .iter()
            .map(|f| f.title())
            .filter(|t| t.starts_with("Figure"))
            .collect();
        assert_eq!(titles.len(), 8);
        for title in titles {
            assert!(title.contains("normalized to DeNovo"), "{title}");
            assert!(!title.contains("MESI"), "{title}");
        }
        let denovo = out
            .fig_5_1a()
            .unwrap()
            .value("FFT/DeNovo", "Total")
            .unwrap();
        assert!((denovo - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig_5_2_mesi_components_sum_to_one() {
        let out = tiny_outcome();
        let fig = out.fig_5_2().unwrap();
        let total = fig.value("radix/MESI", "Total").unwrap();
        assert!((total - 1.0).abs() < 1e-9);
        let parts: f64 = TimeClass::ALL
            .iter()
            .map(|c| fig.value("radix/MESI", c.label()).unwrap())
            .sum();
        assert!((parts - total).abs() < 1e-6);
    }

    use crate::timing::TimeClass;

    #[test]
    fn waste_figures_have_mesi_used_below_one() {
        let out = tiny_outcome();
        for fig in [
            out.fig_5_3a().unwrap(),
            out.fig_5_3b().unwrap(),
            out.fig_5_3c().unwrap(),
        ] {
            let used = fig.value("FFT/MESI", "Used Words").unwrap();
            assert!(used > 0.0 && used <= 1.0, "{}: used={used}", fig.title());
        }
    }

    #[test]
    fn full_figure_set_has_ten_entries() {
        let out = tiny_outcome();
        assert_eq!(out.all_figures().unwrap().len(), 10);
        assert!(out.table_4_2().rows().len() >= 2);
    }

    #[test]
    fn custom_workloads_run_through_the_matrix() {
        // A recorded FFT trace re-labelled as a custom workload must run
        // under every protocol of a matrix and normalize against its own
        // MESI cell.
        let mut wl = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        wl.kind = BenchmarkKind::Custom;
        let out = run_on(vec![ProtocolKind::Mesi, ProtocolKind::DBypFull], vec![wl]).unwrap();
        assert_eq!(
            out.rows,
            vec![(row(BenchmarkKind::Custom), "custom".into())]
        );
        assert_eq!(out.cells(), 2);
        let fig = out.fig_5_1a().unwrap();
        let mesi = fig.value("custom/MESI", "Total").unwrap();
        assert!((mesi - 1.0).abs() < 1e-9);
        assert!(fig.value("custom/DBypFull", "Total").unwrap() > 0.0);
    }

    #[test]
    fn run_on_rejects_duplicate_kinds_without_panicking() {
        let wl = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        let err = run_on(vec![ProtocolKind::Mesi], vec![wl.clone(), wl]).unwrap_err();
        assert!(
            matches!(err, ExperimentError::DuplicateWorkload(_)),
            "{err}"
        );
    }

    #[test]
    fn run_on_rejects_core_count_mismatch_without_panicking() {
        let wl = build_tiny(BenchmarkKind::Fft, 4).unwrap();
        let err = run_on(vec![ProtocolKind::Mesi], vec![wl]).unwrap_err();
        assert!(
            matches!(err, ExperimentError::CoreCountMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn spec_json_round_trips_the_full_matrix_and_a_sweep() {
        let full = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
        let back = ExperimentSpec::from_json(&full.to_json()).unwrap();
        assert_eq!(back, full);

        let sweep = ExperimentSpec {
            name: "l2-sweep".into(),
            scale: ScaleProfile::Tiny,
            protocols: vec![ProtocolKind::Mesi, ProtocolKind::DBypFull],
            workloads: vec![
                WorkloadSpec::bench(BenchmarkKind::Fft),
                WorkloadSpec::provided("synth-a"),
                WorkloadSpec::trace("ext", "some/path.trace"),
            ],
            variants: vec![
                SystemVariant::l2_slice("l2-16k", 16 * 1024),
                SystemVariant::mesh("mesh-2x2", 2, 2),
                SystemVariant::base(),
            ],
            networks: vec![
                tw_types::NetworkModelKind::Analytic,
                tw_types::NetworkModelKind::FlitLevel,
            ],
            baseline: ProtocolKind::Mesi,
        };
        let text = sweep.to_json();
        assert_eq!(ExperimentSpec::from_json(&text).unwrap(), sweep);
    }

    #[test]
    fn spec_errors_name_the_offence() {
        for (mangle, needle) in [
            (
                ExperimentSpec {
                    protocols: vec![],
                    ..ExperimentSpec::full_matrix(ScaleProfile::Tiny)
                },
                "protocol axis is empty",
            ),
            (
                ExperimentSpec {
                    workloads: vec![],
                    ..ExperimentSpec::full_matrix(ScaleProfile::Tiny)
                },
                "workload axis is empty",
            ),
        ] {
            let err = mangle.compile(&WorkloadSet::new()).unwrap_err().to_string();
            assert!(err.contains(needle), "{err}");
        }
        let mut dup = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
        dup.workloads.push(WorkloadSpec::bench(BenchmarkKind::Fft));
        assert!(matches!(
            dup.compile(&WorkloadSet::new()).unwrap_err(),
            ExperimentError::DuplicateWorkload(_)
        ));
        let mut bad_sys = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
        bad_sys.variants = vec![SystemVariant::l2_slice("tiny-l2", 100)];
        assert!(matches!(
            bad_sys.compile(&WorkloadSet::new()).unwrap_err(),
            ExperimentError::InvalidSystem { .. }
        ));
    }

    #[test]
    fn spec_json_rejects_ambiguous_and_unknown_workload_fields() {
        let base = |workloads: &str| {
            format!(
                r#"{{"schema": "{SPEC_SCHEMA}", "name": "x", "scale": "tiny",
                     "workloads": [{workloads}]}}"#
            )
        };
        // Two source keys in one entry must not silently resolve to one.
        let err = ExperimentSpec::from_json(&base(r#"{"bench": "FFT", "provided": "synth"}"#))
            .unwrap_err()
            .to_string();
        assert!(err.contains("exactly one"), "{err}");
        // A stray field is named, like variant entries do it.
        let err = ExperimentSpec::from_json(&base(r#"{"bench": "FFT", "benhc": "LU"}"#))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown workload field `benhc`"), "{err}");
        // A source-less entry is still rejected.
        let err = ExperimentSpec::from_json(&base(r#"{"name": "orphan"}"#))
            .unwrap_err()
            .to_string();
        assert!(err.contains("exactly one"), "{err}");
    }

    #[test]
    fn spec_json_rejects_unknown_fields_at_every_level() {
        let doc = |extra: &str, workload: &str, variant: &str| {
            format!(
                r#"{{"schema": "{SPEC_SCHEMA}", "name": "x", "scale": "tiny",
                     "workloads": [{{"bench": "FFT"{workload}}}],
                     "variants": [{{"label": "v"{variant}}}]{extra}}}"#
            )
        };
        let refused = |text: String| match ExperimentSpec::from_json(&text) {
            Err(ExperimentError::InvalidSpec(msg)) => msg,
            other => panic!("{text} parsed as {other:?}"),
        };
        // A spec without `protocols` still sweeps the paper's nine.
        let spec = ExperimentSpec::from_json(&doc("", "", "")).unwrap();
        assert_eq!(spec.protocols, ProtocolKind::PAPER);
        assert_eq!(spec.baseline, ProtocolKind::Mesi);
        // Each misspelt top-level key is named; none falls back to a
        // default axis.
        for (typo, value) in [
            ("protocol", r#"["MESI"]"#),
            ("network", r#"["flit"]"#),
            ("variant", r#"[{"label": "w"}]"#),
            ("workload", r#"[{"bench": "LU"}]"#),
            ("baselines", r#""DeNovo""#),
        ] {
            assert_eq!(
                refused(doc(&format!(r#", "{typo}": {value}"#), "", "")),
                format!(
                    "unknown spec field `{typo}` (expected schema | name | scale | baseline | \
                     protocols | workloads | variants | networks)"
                )
            );
        }
        // The entries' messages are unchanged.
        assert_eq!(
            refused(doc("", r#", "benhc": "LU""#, "")),
            "unknown workload field `benhc` (expected bench | trace | provided | name)"
        );
        assert_eq!(
            refused(doc("", "", r#", "l2_bytes": 1"#)),
            "unknown field `l2_bytes` in variant `v` (expected label | mesh | l1_bytes | \
             l2_slice_bytes | network)"
        );
    }

    /// Every figure divides a row by its baseline cell, so a document
    /// whose baseline (MESI when absent) is not swept is refused before
    /// anything is simulated.
    #[test]
    fn spec_json_refuses_a_baseline_off_the_protocol_axis() {
        let doc = |extra: &str| {
            format!(
                r#"{{"schema": "{SPEC_SCHEMA}", "name": "x", "scale": "tiny",
                     "workloads": [{{"bench": "FFT"}}]{extra}}}"#
            )
        };
        for (extra, msg) in [
            (
                r#", "baseline": "DeNovo", "protocols": ["MESI", "DBypFull"]"#,
                "baseline `DeNovo` is not on the protocol axis [MESI, DBypFull]",
            ),
            (
                r#", "protocols": ["DBypFull"]"#,
                "baseline `MESI` is not on the protocol axis [DBypFull]",
            ),
        ] {
            assert_eq!(
                ExperimentSpec::from_json(&doc(extra)),
                Err(ExperimentError::InvalidSpec(msg.to_string()))
            );
        }
        let on_axis = r#", "baseline": "DeNovo", "protocols": ["DeNovo", "DBypFull"]"#;
        assert_eq!(
            ExperimentSpec::from_json(&doc(on_axis)).unwrap().baseline,
            ProtocolKind::DeNovo
        );
    }

    #[test]
    fn network_axis_expands_variants_with_model_suffixed_labels() {
        use tw_types::NetworkModelKind;
        let mut spec = ExperimentSpec::subset(
            vec![ProtocolKind::Mesi],
            vec![BenchmarkKind::Fft],
            ScaleProfile::Tiny,
        );
        spec.networks = NetworkModelKind::ALL.to_vec();
        let plan = spec.compile(&WorkloadSet::new()).unwrap();
        assert_eq!(plan.rows.len(), 3);
        assert_eq!(plan.cells.len(), 3);
        assert_eq!(plan.cells[0].label, "FFT@base+analytic");
        assert_eq!(plan.cells[1].label, "FFT@base+flit");
        assert_eq!(plan.cells[2].label, "FFT@base+bus");
        assert_eq!(plan.cells[0].system.network, NetworkModelKind::Analytic);
        assert_eq!(plan.cells[1].system.network, NetworkModelKind::FlitLevel);
        assert_eq!(plan.cells[2].system.network, NetworkModelKind::SnoopBus);
        // Same workload identity on both rows — only the system differs.
        assert_eq!(
            plan.cells[0].workload_ref.digest,
            plan.cells[1].workload_ref.digest
        );

        // A single-model axis keeps the plain labels and just sets the model.
        spec.networks = vec![NetworkModelKind::FlitLevel];
        let plan = spec.compile(&WorkloadSet::new()).unwrap();
        assert_eq!(plan.cells[0].label, "FFT");
        assert_eq!(plan.cells[0].system.network, NetworkModelKind::FlitLevel);
    }

    #[test]
    fn network_axis_misuse_is_a_named_error() {
        use tw_types::NetworkModelKind;
        let mut dup = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
        dup.networks = vec![NetworkModelKind::FlitLevel, NetworkModelKind::FlitLevel];
        let err = dup.compile(&WorkloadSet::new()).unwrap_err().to_string();
        assert!(err.contains("appears twice in the network axis"), "{err}");

        let mut conflict = ExperimentSpec::full_matrix(ScaleProfile::Tiny);
        conflict.networks = vec![NetworkModelKind::FlitLevel];
        conflict.variants = vec![SystemVariant::network(
            "wormhole",
            NetworkModelKind::FlitLevel,
        )];
        let err = conflict
            .compile(&WorkloadSet::new())
            .unwrap_err()
            .to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
        assert!(err.contains("`wormhole`"), "{err}");

        // Unknown model names are rejected with the name in the error, both
        // on the axis and in a variant override (the PR-3 by_name rule).
        for doc in [
            format!(
                r#"{{"schema": "{SPEC_SCHEMA}", "name": "x", "scale": "tiny",
                     "workloads": [{{"bench": "FFT"}}], "networks": ["booksim"]}}"#
            ),
            format!(
                r#"{{"schema": "{SPEC_SCHEMA}", "name": "x", "scale": "tiny",
                     "workloads": [{{"bench": "FFT"}}],
                     "variants": [{{"label": "v", "network": "booksim"}}]}}"#
            ),
        ] {
            let err = ExperimentSpec::from_json(&doc).unwrap_err().to_string();
            assert!(err.contains("`booksim`"), "{err}");
            assert!(err.contains("analytic"), "{err}");
        }
    }

    #[test]
    fn compiled_cells_carry_stable_identity() {
        let spec = ExperimentSpec::subset(
            vec![ProtocolKind::Mesi, ProtocolKind::DeNovo],
            vec![BenchmarkKind::Fft, BenchmarkKind::Lu],
            ScaleProfile::Tiny,
        );
        let plan = spec.compile(&WorkloadSet::new()).unwrap();
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.rows.len(), 2);
        // Same workload across the protocol axis shares one digest; the two
        // benchmarks have distinct digests.
        let fft: Vec<_> = plan
            .cells
            .iter()
            .filter(|c| c.workload_ref.name == "FFT")
            .collect();
        assert_eq!(fft.len(), 2);
        assert_eq!(fft[0].workload_ref.digest, fft[1].workload_ref.digest);
        let lu = plan
            .cells
            .iter()
            .find(|c| c.workload_ref.name == "LU")
            .unwrap();
        assert_ne!(lu.workload_ref.digest, fft[0].workload_ref.digest);
        // Recompiling reproduces the same identities.
        let again = spec.compile(&WorkloadSet::new()).unwrap();
        assert_eq!(
            again.cells[0].workload_ref.digest,
            plan.cells[0].workload_ref.digest
        );
    }

    #[test]
    fn variant_sweep_produces_distinct_systems_per_row() {
        let mut spec = ExperimentSpec::subset(
            vec![ProtocolKind::Mesi],
            vec![BenchmarkKind::Fft],
            ScaleProfile::Tiny,
        );
        spec.variants = vec![
            SystemVariant::base(),
            SystemVariant::l2_slice("l2-64k", 64 * 1024),
        ];
        let plan = spec.compile(&WorkloadSet::new()).unwrap();
        assert_eq!(plan.rows.len(), 2);
        assert_eq!(plan.cells.len(), 2);
        assert_eq!(plan.cells[0].label, "FFT@base");
        assert_eq!(plan.cells[1].label, "FFT@l2-64k");
        assert_ne!(
            plan.cells[0].system.cache.l2_slice_bytes,
            plan.cells[1].system.cache.l2_slice_bytes
        );
        // Same input trace on both variants — identity is per workload, not
        // per cell.
        assert_eq!(
            plan.cells[0].workload_ref.digest,
            plan.cells[1].workload_ref.digest
        );
    }
}
