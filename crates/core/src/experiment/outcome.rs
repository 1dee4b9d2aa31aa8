//! Plan outcomes and figure-data extraction.
//!
//! [`PlanOutcome`] holds the reports of one executed plan, keyed by cell
//! identity (row × protocol), and extracts every table and figure of the
//! paper's evaluation section. Figures normalize each row's bars to the
//! plan's baseline protocol's run of the same row — MESI by default, exactly as the
//! paper does — and a zero-valued baseline yields `0.0` rows rather than
//! NaN/inf, so figure output is always finite and JSON-serializable.

use super::plan::{ExperimentError, RowKey};
use super::session::CacheStats;
use crate::figures::FigureTable;
use crate::report::SimReport;
use crate::timing::TimeClass;
use std::collections::BTreeMap;
use tw_profiler::WasteCategory;
use tw_types::{MessageClass, ProtocolKind, SystemConfig, TrafficBucket};

/// Normalizes `value` to `base`, yielding `0.0` for an empty baseline
/// instead of NaN/inf (a zero-traffic baseline cell must produce all-zero
/// figure rows).
fn norm(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        value / base
    }
}

/// Headline cross-benchmark averages (abstract / §5.1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineSummary {
    /// Mean traffic of DBypFull relative to MESI (paper: ≈ 0.605).
    pub dbypfull_traffic_vs_mesi: f64,
    /// Mean traffic of DBypFull relative to MMemL1 (paper: ≈ 0.648).
    pub dbypfull_traffic_vs_mmeml1: f64,
    /// Mean traffic of DBypFull relative to DFlexL1 (paper: ≈ 0.811).
    pub dbypfull_traffic_vs_dflexl1: f64,
    /// Mean traffic of baseline DeNovo relative to MESI (paper: ≈ 0.861).
    pub denovo_traffic_vs_mesi: f64,
    /// Mean execution time of DBypFull relative to MESI (paper: ≈ 0.895).
    pub dbypfull_time_vs_mesi: f64,
    /// Mean execution time of MMemL1 relative to MESI (paper: ≈ 0.962).
    pub mmeml1_time_vs_mesi: f64,
    /// Mean fraction of DBypFull's data traffic classified as waste
    /// (paper: ≈ 0.088).
    pub dbypfull_waste_fraction: f64,
    /// Mean fraction of MESI traffic that is protocol overhead (paper: ≈ 0.136).
    pub mesi_overhead_fraction: f64,
}

/// Renders one figure of [`PlanOutcome::FIGURES`] from an outcome.
pub type FigureRender = fn(&PlanOutcome) -> Result<FigureTable, ExperimentError>;

/// The collected reports of one executed plan plus figure extraction.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The plan's name.
    pub name: String,
    /// Protocols, in figure order.
    pub protocols: Vec<ProtocolKind>,
    /// The protocol figures normalize each row to.
    pub baseline: ProtocolKind,
    /// Figure rows `(identity, display label)`, in plan order.
    pub rows: Vec<(RowKey, String)>,
    /// Resolved system configuration per variant label.
    pub variants: Vec<(String, SystemConfig)>,
    /// One report per cell.
    pub reports: BTreeMap<(RowKey, ProtocolKind), SimReport>,
    /// Result-cache counters for this execution: disk hits, simulated
    /// misses, and duplicate-key cells coalesced by the session's
    /// single-flight table.
    pub cache: CacheStats,
}

impl PlanOutcome {
    /// Number of cells executed.
    pub fn cells(&self) -> usize {
        self.reports.len()
    }

    /// The report for one cell.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::MissingCell`] if the plan had no such cell.
    pub fn report(
        &self,
        row: &RowKey,
        protocol: ProtocolKind,
    ) -> Result<&SimReport, ExperimentError> {
        self.reports
            .get(&(row.clone(), protocol))
            .ok_or_else(|| ExperimentError::MissingCell {
                row: format!("{}@{}", row.workload, row.variant),
                protocol,
            })
    }

    fn baseline_report(&self, row: &RowKey) -> Result<&SimReport, ExperimentError> {
        self.report(row, self.baseline)
    }

    /// `label/protocol`, concatenated rather than formatted: every bar of
    /// every figure takes one.
    fn row_label(&self, label: &str, protocol: ProtocolKind) -> String {
        [label, "/", protocol.name()].concat()
    }

    /// Arithmetic mean over rows of `f(report, baseline)`, matching the
    /// paper's "average of X%" statements.
    fn mean_over_rows<F: Fn(&SimReport, &SimReport) -> f64>(
        &self,
        protocol: ProtocolKind,
        f: F,
    ) -> Result<f64, ExperimentError> {
        if !self.protocols.contains(&protocol) {
            return Err(ExperimentError::MissingProtocol(protocol));
        }
        let mut sum = 0.0;
        for (row, _) in &self.rows {
            sum += f(self.report(row, protocol)?, self.baseline_report(row)?);
        }
        Ok(sum / self.rows.len().max(1) as f64)
    }

    /// Table 4.1: simulated system parameters, one block per variant.
    pub fn table_4_1(&self) -> FigureTable {
        let mut t = FigureTable::new(
            "Table 4.1: Simulated system parameters",
            vec!["Component".into(), "Value".into()],
        );
        let multi = self.variants.len() > 1;
        for (label, sys) in &self.variants {
            for (component, value) in sys.table_rows() {
                let row = if multi {
                    format!("[{label}] {component}: {value}")
                } else {
                    format!("{component}: {value}")
                };
                t.push_row(row, vec![0.0]);
            }
        }
        t
    }

    /// Table 4.2: application input sizes (paper input and the one actually
    /// simulated).
    pub fn table_4_2(&self) -> FigureTable {
        let mut t = FigureTable::new(
            "Table 4.2: Application input sizes (paper input -> simulated input)",
            vec!["Application".into(), "Value".into()],
        );
        for (row, label) in &self.rows {
            let Some(report) = self
                .reports
                .iter()
                .find(|((r, _), _)| r == row)
                .map(|(_, r)| r)
            else {
                continue;
            };
            t.push_row(
                format!(
                    "{label}: {} -> {}",
                    report.benchmark.paper_input(),
                    report.input
                ),
                vec![0.0],
            );
        }
        t
    }

    /// Figure 5.1a: overall network traffic normalized to the baseline,
    /// stacked by LD/ST/WB/Overhead.
    pub fn fig_5_1a(&self) -> Result<FigureTable, ExperimentError> {
        let mut t = FigureTable::new(
            "Figure 5.1a: Overall network traffic (flit-hops, normalized to MESI)",
            vec![
                "bench/protocol".into(),
                "LD".into(),
                "ST".into(),
                "WB".into(),
                "Overhead".into(),
                "Total".into(),
            ],
        );
        for (row, label) in &self.rows {
            let base = self.baseline_report(row)?.traffic.total();
            for &p in &self.protocols {
                let r = self.report(row, p)?;
                let v = |c: MessageClass| norm(r.traffic.class_total(c), base);
                t.push_row(
                    self.row_label(label, p),
                    vec![
                        v(MessageClass::Load),
                        v(MessageClass::Store),
                        v(MessageClass::Writeback),
                        v(MessageClass::Overhead),
                        norm(r.traffic.total(), base),
                    ],
                );
            }
        }
        Ok(t)
    }

    fn request_response_figure(
        &self,
        title: &str,
        class: MessageClass,
    ) -> Result<FigureTable, ExperimentError> {
        let buckets = TrafficBucket::REQUEST_RESPONSE;
        let mut t = FigureTable::with_series(
            title,
            "bench/protocol",
            buckets.iter().map(|b| b.label().to_string()),
        );
        for (row, label) in &self.rows {
            let base = self.baseline_report(row)?.traffic.class_total(class);
            for &p in &self.protocols {
                let r = self.report(row, p)?;
                let values = buckets
                    .iter()
                    .map(|bucket| norm(r.traffic.get(class, *bucket), base))
                    .collect();
                t.push_row(self.row_label(label, p), values);
            }
        }
        Ok(t)
    }

    /// Figure 5.1b: load-traffic breakdown normalized to the baseline's load
    /// traffic.
    pub fn fig_5_1b(&self) -> Result<FigureTable, ExperimentError> {
        self.request_response_figure(
            "Figure 5.1b: LD network traffic breakdown (normalized to MESI LD traffic)",
            MessageClass::Load,
        )
    }

    /// Figure 5.1c: store-traffic breakdown normalized to the baseline's
    /// store traffic.
    pub fn fig_5_1c(&self) -> Result<FigureTable, ExperimentError> {
        self.request_response_figure(
            "Figure 5.1c: ST network traffic breakdown (normalized to MESI ST traffic)",
            MessageClass::Store,
        )
    }

    /// Figure 5.1d: writeback-traffic breakdown normalized to the baseline's
    /// writeback traffic.
    pub fn fig_5_1d(&self) -> Result<FigureTable, ExperimentError> {
        let buckets = TrafficBucket::WRITEBACK;
        let mut t = FigureTable::with_series(
            "Figure 5.1d: WB network traffic breakdown (normalized to MESI WB traffic)",
            "bench/protocol",
            buckets.iter().map(|b| b.label().to_string()),
        );
        for (row, label) in &self.rows {
            let base = self
                .baseline_report(row)?
                .traffic
                .class_total(MessageClass::Writeback);
            for &p in &self.protocols {
                let r = self.report(row, p)?;
                let values = buckets
                    .iter()
                    .map(|bucket| norm(r.traffic.get(MessageClass::Writeback, *bucket), base))
                    .collect();
                t.push_row(self.row_label(label, p), values);
            }
        }
        Ok(t)
    }

    /// Figure 5.2: execution time normalized to the baseline, stacked by
    /// component.
    pub fn fig_5_2(&self) -> Result<FigureTable, ExperimentError> {
        let mut columns = vec!["bench/protocol".into()];
        columns.extend(TimeClass::ALL.iter().map(|c| c.label().to_string()));
        columns.push("Total".into());
        let mut t = FigureTable::new("Figure 5.2: Execution time (normalized to MESI)", columns);
        for (row, label) in &self.rows {
            let base = self.baseline_report(row)?.time.total() as f64;
            for &p in &self.protocols {
                let r = self.report(row, p)?;
                let mut values: Vec<f64> = TimeClass::ALL
                    .iter()
                    .map(|c| norm(r.time.get(*c) as f64, base))
                    .collect();
                values.push(norm(r.time.total() as f64, base));
                t.push_row(self.row_label(label, p), values);
            }
        }
        Ok(t)
    }

    fn waste_figure<F: Fn(&SimReport) -> &tw_profiler::WasteReport>(
        &self,
        title: &str,
        select: F,
    ) -> Result<FigureTable, ExperimentError> {
        // Update waste is structurally zero under every invalidation protocol,
        // so the column only appears when some cell in the matrix actually
        // produced it (i.e. Dragon is present). The paper's 9-protocol matrix
        // keeps the figure layout the paper uses.
        let mut update_seen = false;
        for (row, _) in &self.rows {
            for &p in &self.protocols {
                if select(self.report(row, p)?).words(WasteCategory::Update) > 0 {
                    update_seen = true;
                }
            }
        }
        let cats: Vec<WasteCategory> = WasteCategory::ALL
            .into_iter()
            .filter(|c| update_seen || *c != WasteCategory::Update)
            .collect();
        let mut t = FigureTable::with_series(
            title,
            "bench/protocol",
            cats.iter().map(|c| c.label().to_string()),
        );
        for (row, label) in &self.rows {
            let base = select(self.baseline_report(row)?).total_words() as f64;
            for &p in &self.protocols {
                let r = select(self.report(row, p)?);
                let values = cats
                    .iter()
                    .map(|c| norm(r.words(*c) as f64, base))
                    .collect();
                t.push_row(self.row_label(label, p), values);
            }
        }
        Ok(t)
    }

    /// Figure 5.3a: words fetched into the L1s by waste category.
    pub fn fig_5_3a(&self) -> Result<FigureTable, ExperimentError> {
        self.waste_figure(
            "Figure 5.3a: L1 fetch waste (words fetched into L1, normalized to MESI)",
            |r| &r.l1_waste,
        )
    }

    /// Figure 5.3b: words fetched into the L2 by waste category.
    pub fn fig_5_3b(&self) -> Result<FigureTable, ExperimentError> {
        self.waste_figure(
            "Figure 5.3b: L2 fetch waste (words fetched into L2, normalized to MESI)",
            |r| &r.l2_waste,
        )
    }

    /// Figure 5.3c: words fetched from memory by waste category.
    pub fn fig_5_3c(&self) -> Result<FigureTable, ExperimentError> {
        self.waste_figure(
            "Figure 5.3c: Memory fetch waste (words fetched from memory, normalized to MESI)",
            |r| &r.mem_waste,
        )
    }

    /// The headline cross-benchmark averages quoted in the abstract and §5.1.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::MissingProtocol`] if the plan did not sweep every
    /// protocol the headline quotes (MESI, MMemL1, DeNovo, DFlexL1,
    /// DBypFull), or [`ExperimentError::MissingCell`] if a quoted cell is
    /// absent.
    pub fn headline(&self) -> Result<HeadlineSummary, ExperimentError> {
        let rel_traffic = |p: ProtocolKind, q: ProtocolKind| -> Result<f64, ExperimentError> {
            if !self.protocols.contains(&q) {
                return Err(ExperimentError::MissingProtocol(q));
            }
            let mut sum = 0.0;
            for (row, _) in &self.rows {
                sum += norm(
                    self.report(row, p)?.total_flit_hops(),
                    self.report(row, q)?.total_flit_hops(),
                );
            }
            Ok(sum / self.rows.len().max(1) as f64)
        };
        let rel_time = |p: ProtocolKind, q: ProtocolKind| -> Result<f64, ExperimentError> {
            let mut sum = 0.0;
            for (row, _) in &self.rows {
                sum += norm(
                    self.report(row, p)?.total_cycles as f64,
                    self.report(row, q)?.total_cycles as f64,
                );
            }
            Ok(sum / self.rows.len().max(1) as f64)
        };
        Ok(HeadlineSummary {
            dbypfull_traffic_vs_mesi: rel_traffic(ProtocolKind::DBypFull, ProtocolKind::Mesi)?,
            dbypfull_traffic_vs_mmeml1: rel_traffic(ProtocolKind::DBypFull, ProtocolKind::MMemL1)?,
            dbypfull_traffic_vs_dflexl1: rel_traffic(
                ProtocolKind::DBypFull,
                ProtocolKind::DFlexL1,
            )?,
            denovo_traffic_vs_mesi: rel_traffic(ProtocolKind::DeNovo, ProtocolKind::Mesi)?,
            dbypfull_time_vs_mesi: rel_time(ProtocolKind::DBypFull, ProtocolKind::Mesi)?,
            mmeml1_time_vs_mesi: rel_time(ProtocolKind::MMemL1, ProtocolKind::Mesi)?,
            dbypfull_waste_fraction: self
                .mean_over_rows(ProtocolKind::DBypFull, |r, _| r.waste_traffic_fraction())?,
            mesi_overhead_fraction: self.mean_over_rows(ProtocolKind::Mesi, |r, _| {
                norm(
                    r.traffic.class_total(MessageClass::Overhead),
                    r.traffic.total(),
                )
            })?,
        })
    }

    /// Every figure of the evaluation section by its command name, in
    /// order: the one list the CLI and [`PlanOutcome::all_figures`] read.
    pub const FIGURES: [(&'static str, FigureRender); 10] = [
        ("table4_1", |o| Ok(o.table_4_1())),
        ("table4_2", |o| Ok(o.table_4_2())),
        ("fig5_1a", PlanOutcome::fig_5_1a),
        ("fig5_1b", PlanOutcome::fig_5_1b),
        ("fig5_1c", PlanOutcome::fig_5_1c),
        ("fig5_1d", PlanOutcome::fig_5_1d),
        ("fig5_2", PlanOutcome::fig_5_2),
        ("fig5_3a", PlanOutcome::fig_5_3a),
        ("fig5_3b", PlanOutcome::fig_5_3b),
        ("fig5_3c", PlanOutcome::fig_5_3c),
    ];

    /// Every figure of the evaluation section, in order.
    pub fn all_figures(&self) -> Result<Vec<FigureTable>, ExperimentError> {
        Self::FIGURES
            .iter()
            .map(|(_, render)| render(self))
            .collect()
    }
}
