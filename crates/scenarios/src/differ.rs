//! The cross-protocol differential runner.
//!
//! For one workload the runner first executes it under the golden
//! SC-per-phase model, which rejects a racy workload and yields the
//! reference fingerprint the fuzz summary prints. It then sweeps the full
//! protocol registry and checks every metamorphic invariant the paper's
//! methodology depends on:
//!
//! 1. **Run determinism** — a second run of the workload under the same
//!    protocol reproduces a bit-identical [`SimReport`];
//! 2. **Sane accounting** — the waste fraction of every report lies in
//!    `[0, 1]` and total traffic is finite and positive;
//! 3. **Bypass dominance** — on a fully-bypass-annotated streaming workload
//!    (the scenario L2 bypass exists for), `DBypFull` moves no more traffic
//!    than MESI. The claim is scoped to [`BYPASS_DOMINANCE_PROTOCOLS`]:
//!    update-based protocols (Dragon) deliberately trade extra update
//!    traffic for sharer latency and are exempt from the dominance check
//!    while still running every other invariant;
//! 4. **Network-model identity** — re-running the cell under every *other*
//!    registered network model (wormhole flit-level, snooping bus) must
//!    reproduce every per-bucket flit-hop number, every waste
//!    classification and the DRAM behavior bit for bit, and every timed
//!    model's execution time must be at or above the analytic lower bound
//!    (DESIGN.md §11: a network model may only move time, never traffic).
//!
//! Every protocol services the workload's own streams — the cores are in
//! order and step each record once — so re-running the golden model on
//! what a protocol serviced would compare the input with itself. No check
//! here reads the values a cache holds.
//!
//! [`SimReport`]: denovo_waste::SimReport

use crate::oracle::{golden_execute, OracleReport};
use crate::synth::is_fully_bypass_streaming;
use denovo_waste::{ScaleProfile, Session, SimConfig, Simulator};
use std::fmt;
use tw_obs::SpanSink;
use tw_types::{NetworkModelKind, ProtocolKind, SystemConfig};
use tw_workloads::Workload;

/// The protocols invariant 3 (streaming bypass dominance) compares, in
/// `(baseline, challenger)` order. The `DBypFull ≤ MESI` claim is an
/// *invalidation-protocol* statement — an update-based protocol like Dragon
/// pushes written words to sharers by design and may legitimately move more
/// traffic on a streaming workload, so it stays outside this allowlist while
/// remaining subject to every other invariant (run determinism,
/// accounting, cross-model identity).
pub const BYPASS_DOMINANCE_PROTOCOLS: [ProtocolKind; 2] =
    [ProtocolKind::Mesi, ProtocolKind::DBypFull];

/// One invariant violation found by the runner.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The workload failed structural validation before any simulation.
    Malformed(String),
    /// The golden model rejected the workload as racy.
    Race(String),
    /// A second run of the workload did not reproduce the first report.
    ReplayMismatch {
        /// The offending protocol.
        protocol: ProtocolKind,
    },
    /// A report's waste fraction left `[0, 1]` or its traffic was not a
    /// positive finite number.
    BadAccounting {
        /// The offending protocol.
        protocol: ProtocolKind,
        /// The waste fraction observed.
        waste_fraction: f64,
        /// The total traffic observed.
        traffic: f64,
    },
    /// `DBypFull` moved more traffic than MESI on a fully-bypass-annotated
    /// streaming workload.
    BypassRegression {
        /// DBypFull's total flit-hops.
        dbypfull: f64,
        /// MESI's total flit-hops.
        mesi: f64,
    },
    /// Re-running under the other network model changed something a network
    /// model is never allowed to touch.
    CrossModelDivergence {
        /// The offending protocol.
        protocol: ProtocolKind,
        /// Which model-invariant quantity moved.
        field: &'static str,
    },
    /// A timed-model run finished before its analytic lower bound.
    LatencyBelowAnalyticBound {
        /// The offending protocol.
        protocol: ProtocolKind,
        /// The timed model's total cycles.
        flit_cycles: u64,
        /// Analytic total cycles (the lower bound).
        analytic_cycles: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Malformed(m) => write!(f, "malformed workload: {m}"),
            Violation::Race(m) => write!(f, "racy workload: {m}"),
            Violation::ReplayMismatch { protocol } => {
                write!(f, "{protocol}: a second run is not bit-identical")
            }
            Violation::BadAccounting {
                protocol,
                waste_fraction,
                traffic,
            } => write!(
                f,
                "{protocol}: waste fraction {waste_fraction} / traffic {traffic} out of range"
            ),
            Violation::BypassRegression { dbypfull, mesi } => write!(
                f,
                "DBypFull moved more traffic ({dbypfull:.0}) than MESI ({mesi:.0}) on a fully-bypass streaming workload"
            ),
            Violation::CrossModelDivergence { protocol, field } => write!(
                f,
                "{protocol}: {field} diverged across network models (the model may only move time)"
            ),
            Violation::LatencyBelowAnalyticBound {
                protocol,
                flit_cycles,
                analytic_cycles,
            } => write!(
                f,
                "{protocol}: timed run ({flit_cycles} cycles) undercut the analytic lower bound ({analytic_cycles})"
            ),
        }
    }
}

/// Per-protocol numbers surfaced in the fuzz summary (all deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSummary {
    /// The protocol.
    pub protocol: ProtocolKind,
    /// Total execution cycles.
    pub total_cycles: u64,
    /// Total flit-hops.
    pub flit_hops: f64,
    /// Fraction of traffic classified as waste.
    pub waste_fraction: f64,
}

/// The verdict on one workload.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// The golden model's report (op counts + fingerprint).
    pub oracle: OracleReport,
    /// One summary per protocol, in registry order.
    pub summaries: Vec<ProtocolSummary>,
    /// Every invariant violation found (empty on success).
    pub violations: Vec<Violation>,
}

impl DiffOutcome {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sweeps one workload across a protocol set and checks the invariants.
#[derive(Debug, Clone)]
pub struct DifferentialRunner {
    /// System scale simulated (geometry + cache sizes).
    pub scale: ScaleProfile,
    /// Network model the primary sweep (first run and its replay) runs
    /// under; the cross-model invariant always compares against every other
    /// registered model.
    pub network: NetworkModelKind,
    /// Protocols swept, in summary order.
    pub protocols: Vec<ProtocolKind>,
    /// Observer-lane flight recording for the primary sweep. Alt-model
    /// reruns and replays are deliberately unrecorded: they exist to check
    /// invariants, and their spans would duplicate every track. The sweep's
    /// printed digests are byte-identical with recording on or off
    /// (CI-asserted).
    pub recorder: Option<SpanSink>,
}

impl DifferentialRunner {
    /// The full ten-protocol registry at the given scale, analytic network.
    pub fn new(scale: ScaleProfile) -> Self {
        DifferentialRunner {
            scale,
            network: NetworkModelKind::default(),
            protocols: ProtocolKind::ALL.to_vec(),
            recorder: None,
        }
    }

    /// The same runner with the primary sweep under `network`.
    pub fn with_network(mut self, network: NetworkModelKind) -> Self {
        self.network = network;
        self
    }

    /// The same runner with flight recording armed on the primary sweep.
    pub fn with_recorder(mut self, sink: SpanSink) -> Self {
        self.recorder = Some(sink);
        self
    }

    /// Runs every protocol over the workload and returns the verdict.
    pub fn check(&self, wl: &Workload) -> DiffOutcome {
        let empty = |violation: Violation| DiffOutcome {
            oracle: OracleReport {
                loads: 0,
                stores: 0,
                phases: 0,
                fingerprint: 0,
            },
            summaries: Vec::new(),
            violations: vec![violation],
        };
        if let Err(msg) = wl.try_well_formed() {
            return empty(Violation::Malformed(msg));
        }
        let mut system = self.scale.system();
        system.network = self.network;
        if wl.cores() != system.tiles() {
            return empty(Violation::Malformed(format!(
                "workload has {} cores but the {:?} system has {} tiles",
                wl.cores(),
                self.scale,
                system.tiles()
            )));
        }
        let oracle = match golden_execute(wl) {
            Ok(o) => o,
            Err(race) => return empty(Violation::Race(race.to_string())),
        };

        // Every (protocol) cell is independent; fan out on the pool of a
        // session made for the call. Its jobs own their context, so they
        // get a copy of the runner and of the workload. Results come back in
        // input order, so summaries stay in registry order and the fuzz
        // output is deterministic.
        let (runner, workload) = (self.clone(), wl.clone());
        let cells = Session::new().fan_out(self.protocols.clone(), move |&protocol| {
            runner.check_protocol(protocol, &workload, &system)
        });

        let mut summaries = Vec::with_capacity(cells.len());
        let mut violations = Vec::new();
        for (s, v) in cells {
            summaries.push(s);
            violations.extend(v);
        }

        if is_fully_bypass_streaming(wl) {
            let hops = |p: ProtocolKind| {
                summaries
                    .iter()
                    .find(|s| s.protocol == p)
                    .map(|s| s.flit_hops)
            };
            let [mesi, dbyp] = BYPASS_DOMINANCE_PROTOCOLS.map(hops);
            if let (Some(mesi), Some(dbyp)) = (mesi, dbyp) {
                if dbyp > mesi {
                    violations.push(Violation::BypassRegression {
                        dbypfull: dbyp,
                        mesi,
                    });
                }
            }
        }

        DiffOutcome {
            oracle,
            summaries,
            violations,
        }
    }

    /// One protocol's cell of [`check`](Self::check): its summary and the
    /// invariants it broke.
    fn check_protocol(
        &self,
        protocol: ProtocolKind,
        wl: &Workload,
        system: &SystemConfig,
    ) -> (ProtocolSummary, Vec<Violation>) {
        let mut cfg = SimConfig::new(protocol).with_system(system.clone());
        if let Some(sink) = &self.recorder {
            cfg.recorder = Some(sink.with_track(format!("{}/{}", wl.kind.name(), protocol.name())));
        }
        let report = Simulator::new(cfg.clone(), wl).run();
        let mut violations = Vec::new();

        // The replay is a checker, not part of the primary sweep —
        // recording it would emit every phase span twice per track.
        cfg.recorder = None;
        let replayed = Simulator::new(cfg, wl).run();
        if replayed != report {
            violations.push(Violation::ReplayMismatch { protocol });
        }

        let waste = report.waste_traffic_fraction();
        let traffic = report.total_flit_hops();
        if !(0.0..=1.0).contains(&waste) || !traffic.is_finite() || traffic <= 0.0 {
            violations.push(Violation::BadAccounting {
                protocol,
                waste_fraction: waste,
                traffic,
            });
        }

        // Invariant 4: every other registered network model must
        // move the exact same flits and classify the exact same
        // words; only time may differ, and timed-model time only
        // upward from the analytic bound.
        let mut cycles_by_model = vec![(self.network, report.total_cycles)];
        for other in NetworkModelKind::ALL {
            if other == self.network {
                continue;
            }
            let mut other_sys = system.clone();
            other_sys.network = other;
            let alt = Simulator::new(SimConfig::new(protocol).with_system(other_sys), wl).run();
            let diverged: [(&'static str, bool); 7] = [
                ("per-bucket traffic", alt.traffic != report.traffic),
                (
                    "mesh flit-hops",
                    alt.mesh_flit_hops != report.mesh_flit_hops,
                ),
                (
                    "waste fraction",
                    alt.waste_traffic_fraction().to_bits()
                        != report.waste_traffic_fraction().to_bits(),
                ),
                ("L1 waste", alt.l1_waste != report.l1_waste),
                ("L2 waste", alt.l2_waste != report.l2_waste),
                ("memory waste", alt.mem_waste != report.mem_waste),
                (
                    "DRAM behavior",
                    alt.dram_accesses != report.dram_accesses
                        || alt.dram_row_hit_rate.to_bits() != report.dram_row_hit_rate.to_bits(),
                ),
            ];
            for (field, moved) in diverged {
                if moved {
                    violations.push(Violation::CrossModelDivergence { protocol, field });
                }
            }
            cycles_by_model.push((other, alt.total_cycles));
        }
        let analytic_cycles = cycles_by_model
            .iter()
            .find(|(k, _)| *k == NetworkModelKind::Analytic)
            .map(|&(_, c)| c);
        if let Some(analytic_cycles) = analytic_cycles {
            for &(kind, flit_cycles) in &cycles_by_model {
                if kind != NetworkModelKind::Analytic && flit_cycles < analytic_cycles {
                    violations.push(Violation::LatencyBelowAnalyticBound {
                        protocol,
                        flit_cycles,
                        analytic_cycles,
                    });
                }
            }
        }

        (
            ProtocolSummary {
                protocol,
                total_cycles: report.total_cycles,
                flit_hops: traffic,
                waste_fraction: waste,
            },
            violations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthConfig};

    #[test]
    fn clean_workloads_pass_every_invariant() {
        let runner = DifferentialRunner::new(ScaleProfile::Tiny);
        for seed in [0u64, 11] {
            let out = runner.check(&synthesize(seed));
            assert!(
                out.ok(),
                "seed {seed}: {:?}",
                out.violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
            );
            assert_eq!(out.summaries.len(), 10);
            assert!(out.oracle.mem_ops() > 0);
        }
    }

    #[test]
    fn flit_level_primary_sweep_passes_every_invariant() {
        // The same seeds, primary sweep under the wormhole model: run
        // determinism and the cross-model identity must all hold with the
        // roles of the two models swapped.
        let runner =
            DifferentialRunner::new(ScaleProfile::Tiny).with_network(NetworkModelKind::FlitLevel);
        let out = runner.check(&synthesize(7));
        assert!(
            out.ok(),
            "{:?}",
            out.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(out.summaries.len(), 10);
    }

    #[test]
    fn snoop_bus_primary_sweep_passes_every_invariant() {
        // Primary sweep under the snooping bus: the broadcast medium may
        // only serialize time; run determinism and the cross-model identity
        // against both point-to-point fabrics must still hold for all ten
        // protocols.
        let runner =
            DifferentialRunner::new(ScaleProfile::Tiny).with_network(NetworkModelKind::SnoopBus);
        let out = runner.check(&synthesize(7));
        assert!(
            out.ok(),
            "{:?}",
            out.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(out.summaries.len(), 10);
    }

    #[test]
    fn dragon_is_oracle_exercised_but_exempt_from_bypass_dominance() {
        // Dragon rides the full differential sweep — the golden model's race
        // check, run determinism, accounting and cross-model identity all
        // apply — but sits outside the invariant-3 allowlist:
        // an update protocol pushes written words to sharers by design, so
        // the streaming `DBypFull ≤ MESI` dominance claim does not bind it.
        assert!(!BYPASS_DOMINANCE_PROTOCOLS.contains(&ProtocolKind::Dragon));
        let runner = DifferentialRunner::new(ScaleProfile::Tiny);
        assert!(runner.protocols.contains(&ProtocolKind::Dragon));
        let wl = SynthConfig::streaming(3).build();
        assert!(is_fully_bypass_streaming(&wl), "invariant 3 must be live");
        let out = runner.check(&wl);
        assert!(
            out.ok(),
            "{:?}",
            out.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        );
        let dragon = out
            .summaries
            .iter()
            .find(|s| s.protocol == ProtocolKind::Dragon)
            .expect("Dragon cell must be swept");
        assert!(dragon.flit_hops > 0.0);
    }

    #[test]
    fn streaming_workloads_satisfy_bypass_dominance() {
        let runner = DifferentialRunner::new(ScaleProfile::Tiny);
        let wl = SynthConfig::streaming(2).build();
        let out = runner.check(&wl);
        assert!(
            out.ok(),
            "{:?}",
            out.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn core_count_mismatch_is_reported_not_panicked() {
        let mut cfg = SynthConfig::general(1);
        cfg.cores = 4;
        let runner = DifferentialRunner::new(ScaleProfile::Tiny);
        let out = runner.check(&cfg.build());
        assert!(matches!(
            out.violations.as_slice(),
            [Violation::Malformed(_)]
        ));
    }
}
