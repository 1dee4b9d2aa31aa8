//! The tiled-machine simulator: core scheduling, barriers, report assembly.
//!
//! The simulator is *transaction level*: each memory reference of the in-order
//! cores is resolved as one atomic coherence transaction whose messages are
//! individually routed (and charged flit-hops) on the mesh, and whose critical
//! path determines how long the issuing core stalls. Cores are interleaved by
//! always stepping the core with the smallest local clock, and barriers
//! synchronize all clocks (charging the difference to `Sync` time). The
//! blocking-directory corner cases the paper's GEMS protocol NACKs or holds
//! never arise under this serialization, matching the paper's observation
//! that NACK traffic is negligible.
//!
//! This module is protocol-agnostic: every protocol-specific action is
//! reached through the four entry points of `engine::Engine` (`load`,
//! `store`, `barrier_released`, `finish`), each a `match` on the protocol
//! family resolved once at construction. The transaction choreographies
//! live in `home.rs` (the directory families' read miss and shared steps),
//! `exec_mesi.rs` / `exec_dragon.rs` (their stores) and `exec_denovo.rs`;
//! the shared machine state and accounting they operate on, and the L1 load
//! hit, live in `engine.rs` (see `DESIGN.md` §3).

#[cfg(test)]
mod directory_defects;
pub(crate) mod engine;
mod exec_denovo;
mod exec_dragon;
mod exec_mesi;
mod home;

use crate::report::SimReport;
use crate::timing::{ExecutionBreakdown, TimeClass};
use engine::Engine;
use std::fmt;
use tw_obs::{Span, SpanSink};
use tw_types::{
    ConfigError, Cycle, MemKind, MessageClass, NetworkModelKind, ProtocolKind, Record, Stamp,
    SystemConfig, TraceOp, TrafficBucket,
};
use tw_workloads::Workload;

/// The fixed cost charged to every core at each barrier (latency of the
/// barrier primitive itself).
pub(crate) const BARRIER_OVERHEAD: Cycle = 100;

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Protocol configuration to simulate.
    pub protocol: ProtocolKind,
    /// Simulated system parameters (Table 4.1 by default).
    pub system: SystemConfig,
    /// Observer-lane span sink for this run. `None` (the default) records
    /// nothing; emission sites guard on it, so an unrecorded run pays one
    /// branch per barrier, not per memory operation. The recorder is
    /// write-only — nothing simulated may depend on it (DESIGN.md §15).
    pub recorder: Option<SpanSink>,
}

impl SimConfig {
    /// A run of `protocol` on the default (Table 4.1) system.
    pub fn new(protocol: ProtocolKind) -> Self {
        SimConfig {
            protocol,
            system: SystemConfig::default(),
            recorder: None,
        }
    }

    /// Replaces the system configuration.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Arms flight recording: phase and run spans are emitted on `sink`.
    pub fn with_recorder(mut self, sink: SpanSink) -> Self {
        self.recorder = Some(sink);
        self
    }
}

/// Why [`Simulator::try_new`] refused to build a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The system configuration fails [`SystemConfig::validate`].
    InvalidSystem(ConfigError),
    /// The workload was made for another number of cores than the machine
    /// has tiles.
    CoreMismatch {
        /// Cores the workload was generated or recorded for.
        workload: usize,
        /// Tiles the machine has.
        machine: usize,
    },
    /// The lane set is empty: no network model times the run.
    NoLanes,
    /// Two lanes name the same network model.
    RepeatedLane(NetworkModelKind),
    /// The lane of this network model differs from the first lane in more
    /// than its network model and recorder, so the lanes are not one
    /// machine.
    NotOneMachine(NetworkModelKind),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSystem(e) => {
                write!(f, "invalid system configuration: {}", e.message())
            }
            SimError::CoreMismatch { workload, machine } => write!(
                f,
                "the workload has {workload} cores but the machine has {machine} tiles"
            ),
            SimError::NoLanes => write!(f, "no network model times the run: the lane set is empty"),
            SimError::RepeatedLane(network) => {
                write!(f, "two lanes time the `{network}` network model")
            }
            SimError::NotOneMachine(network) => write!(
                f,
                "the `{network}` lane is not the machine of the first lane: lanes may differ only in network model and recorder"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// The first minimum of `ready` and the first minimum of the rest, each as
/// `(core, clock)` — the core the scheduler steps and the runner-up it may
/// run ahead of. Cores that cannot run sit at `u64::MAX` (a clock never
/// reaches it) and are never returned; a missing entry is
/// `(usize::MAX, u64::MAX)`.
fn two_earliest(ready: &[u64]) -> ((usize, u64), (usize, u64)) {
    let mut first = (usize::MAX, u64::MAX);
    let mut second = first;
    for (core, &at) in ready.iter().enumerate() {
        if at < first.1 {
            second = first;
            first = (core, at);
        } else if at < second.1 {
            second = (core, at);
        }
    }
    (first, second)
}

/// The simulator for one (protocol, workload) pair, timed under one or more
/// network models.
///
/// The simulator owns the scheduler state (per-core clocks and program
/// counters) and an `Engine` holding all machine state; protocol behavior is
/// dispatched inside the engine's entry points.
#[derive(Debug)]
pub struct Simulator<'wl> {
    pub(crate) engine: Engine<'wl>,
    /// The workload's streams, built once in [`Simulator::try_new`], so a
    /// step reads its record without passing the workload's lazy cell.
    streams: &'wl [Vec<TraceOp>],
    /// The network model and span sink of each configuration the run was
    /// built from, in the order they came.
    lanes: Vec<(NetworkModelKind, Option<SpanSink>)>,
    /// Per-core clocks. Scheduling and barrier release consult only the
    /// analytic lane, so the service order — and with it every traffic and
    /// waste number — is identical under every network model; each other
    /// lane carries its model's latency into that model's report.
    clocks: Vec<Stamp>,
    /// Per core, the index of the next record of its stream: the stream's
    /// length once the core is finished, a barrier record while it waits.
    pc: Vec<usize>,
    /// Scheduler shadow of `clocks`: the analytic clock of each core that
    /// can run, `u64::MAX` for one that is finished or waits at a barrier
    /// — what [`two_earliest`] scans. Ties resolve to the lowest core index.
    ready: Vec<u64>,
    /// Barrier phases released so far (flight-recorder span numbering).
    phases: u64,
}

impl<'wl> Simulator<'wl> {
    /// Builds one simulation of `workload` that times one machine under
    /// several network models: [`Simulator::run_lanes`] returns at index `i`
    /// the report `Simulator::new(lanes[i], workload)` makes, whatever order
    /// the models come in.
    ///
    /// The analytic lane decides every message, cache state and waste word
    /// of the run; each other network model moves only its own lane
    /// (`DESIGN.md` §11). So the configurations may differ in
    /// `system.network` and `recorder` and in nothing else, and a network
    /// model times at most one lane.
    ///
    /// # Errors
    ///
    /// [`SimError::NoLanes`] for an empty lane set,
    /// [`SimError::InvalidSystem`] when the system fails validation,
    /// [`SimError::CoreMismatch`] when the workload's core count is not the
    /// machine's tile count, [`SimError::RepeatedLane`] when two lanes name
    /// one network model and [`SimError::NotOneMachine`] when a lane differs
    /// from the first in anything else.
    pub fn try_new(lanes: Vec<SimConfig>, workload: &'wl Workload) -> Result<Self, SimError> {
        let mut rest = lanes.into_iter();
        let mut cfg = rest.next().ok_or(SimError::NoLanes)?;
        cfg.system.validate().map_err(SimError::InvalidSystem)?;
        let cores = cfg.system.tiles();
        if workload.cores() != cores {
            return Err(SimError::CoreMismatch {
                workload: workload.cores(),
                machine: cores,
            });
        }
        let mut lanes = vec![(cfg.system.network, cfg.recorder.take())];
        for lane in rest {
            let network = lane.system.network;
            if lanes.iter().any(|&(n, _)| n == network) {
                return Err(SimError::RepeatedLane(network));
            }
            let machine = SystemConfig {
                network,
                ..cfg.system.clone()
            };
            if (lane.protocol, &lane.system) != (cfg.protocol, &machine) {
                return Err(SimError::NotOneMachine(network));
            }
            lanes.push((network, lane.recorder));
        }
        let networks: Vec<NetworkModelKind> = lanes.iter().map(|&(n, _)| n).collect();
        Ok(Simulator {
            engine: Engine::new(cfg, &networks, workload),
            streams: &workload.traces,
            lanes,
            clocks: vec![Stamp::at(0); cores],
            pc: vec![0; cores],
            ready: vec![0; cores],
            phases: 0,
        })
    }

    /// Builds a simulator for one protocol configuration and workload: the
    /// one-lane [`Simulator::try_new`].
    ///
    /// # Panics
    ///
    /// Panics where `try_new` returns an error: if the system configuration
    /// is invalid, or the workload was generated for a different number of
    /// cores than the system has tiles.
    pub fn new(cfg: SimConfig, workload: &'wl Workload) -> Self {
        Simulator::try_new(vec![cfg], workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> ProtocolKind {
        self.engine.protocol()
    }

    /// Runs the workload to completion and returns the report of the first
    /// lane, the only one of a simulator [`Simulator::new`] built.
    pub fn run(self) -> SimReport {
        self.run_lanes().swap_remove(0)
    }

    /// Runs the workload to completion once and returns one report per
    /// lane, in lane order. The reports differ only in `time` and
    /// `total_cycles`.
    pub fn run_lanes(mut self) -> Vec<SimReport> {
        self.run_loop();
        self.finish()
    }

    /// The scheduler loop: steps the runnable core with the smallest clock,
    /// releasing barriers when nobody is runnable.
    fn run_loop(&mut self) {
        loop {
            // Analytic-lane ordering: which core runs next must not depend
            // on the configured network models (see `clocks`).
            let ((core, _), (rival, bound)) = two_earliest(&self.ready);
            if core == usize::MAX {
                // Everyone is either done or waiting at a barrier.
                if !self.release_barrier() {
                    break;
                }
                continue;
            }
            // Run ahead: `step_core` changes no `ready` slot but its own
            // core's, so until this core's clock passes the runner-up's
            // (ties to the lower index, as in the scan) a fresh scan would
            // pick it again — the service order is the per-record scan's.
            loop {
                self.step_core(core);
                let at = self.ready[core];
                let still_first = at < bound || (at == bound && core < rival);
                if at == u64::MAX || !still_first {
                    break;
                }
            }
        }
    }

    /// Executes one trace record of `core`.
    fn step_core(&mut self, core: usize) {
        let Some(op) = self.streams[core].get(self.pc[core]).copied() else {
            self.ready[core] = u64::MAX;
            return;
        };
        match op.view() {
            Record::Compute { cycles } => {
                self.clocks[core] += cycles as Cycle;
                self.ready[core] = self.clocks[core].analytic();
                self.engine.time[core].add(TimeClass::Compute, cycles as Cycle);
                self.pc[core] += 1;
            }
            // pc advances when the barrier releases.
            Record::Barrier { .. } => self.ready[core] = u64::MAX,
            Record::Mem { kind, addr, region } => {
                let now = self.clocks[core];
                let done = match kind {
                    MemKind::Load => self.engine.load(core, addr, region, now),
                    MemKind::Store => self.engine.store(core, addr, region, now),
                };
                debug_assert!(done.not_before(now));
                self.clocks[core] = done;
                self.ready[core] = done.analytic();
                self.pc[core] += 1;
            }
        }
    }

    /// The barrier `core` waits at when nobody can run: the record at its
    /// pc. `None` once the core is finished.
    fn barrier_of(&self, core: usize) -> Option<u32> {
        match self.streams[core].get(self.pc[core])?.view() {
            Record::Barrier { id } => Some(id),
            other => unreachable!("core {core} cannot run but its next record is {other:?}"),
        }
    }

    /// Releases the barrier every unfinished core is waiting at, or returns
    /// `false` when every core is finished.
    fn release_barrier(&mut self) -> bool {
        // Finished cores no longer participate; everyone still waiting
        // synchronizes to the latest arrival — on each lane independently,
        // so the analytic release point stays model-invariant while each
        // other lane's release reflects its network model's latency.
        let mut barrier = None;
        let mut waiting = 0u64;
        let mut release = Stamp::at(0);
        for c in 0..self.pc.len() {
            if let Some(id) = self.barrier_of(c) {
                let first = *barrier.get_or_insert(id);
                assert_eq!(first, id, "cores are waiting at different barriers");
                waiting += 1;
                release = release.max(self.clocks[c]);
            }
        }
        let Some(barrier) = barrier else {
            return false;
        };
        let release = release + BARRIER_OVERHEAD;
        for c in 0..self.pc.len() {
            if self.barrier_of(c).is_none() {
                continue;
            }
            let wait = release.since(self.clocks[c]);
            self.engine.time[c].add_lanes(TimeClass::Sync, wait);
            self.clocks[c] = release;
            self.ready[c] = release.analytic();
            self.pc[c] += 1;
        }
        self.engine.barrier_released(release);
        self.phases += 1;
        // Observer lane: every attribute below is a pure function of the
        // run's inputs (every lane and all counters are deterministic), so
        // traces byte-diff across reruns. Each model's track gets the spans
        // a run of that model alone would emit.
        for (network, sink) in &self.lanes {
            let Some(sink) = sink else { continue };
            sink.emit(
                Span::event("phase")
                    .attr("phase", self.phases)
                    .attr("barrier", u64::from(barrier))
                    .attr("cores", waiting)
                    .attr("release", release.analytic())
                    .attr("sends", self.engine.net.sends)
                    .attr("net_stalls", self.engine.net.timed_stall_cycles(*network)),
            );
        }
        true
    }

    /// Drains profilers and builds the final report of every lane.
    fn finish(mut self) -> Vec<SimReport> {
        // Give the protocol a chance to drain still-pending work (e.g.
        // DeNovo registrations) so its traffic is accounted — the paper's
        // measurement period ends at a barrier, where those tables would
        // have drained anyway.
        let last = self.clocks.iter().copied().fold(Stamp::at(0), Stamp::max);
        self.engine.finish(last);
        let (mut accesses, mut hits, mut total) = (0u64, 0u64, 0u64);
        for tile in &self.engine.tiles {
            if let Some(mc) = &tile.mc {
                let s = mc.stats();
                accesses += s.reads + s.writes;
                hits += s.row_hits;
                total += s.row_hits + s.row_misses;
            }
        }
        if self.lanes.iter().any(|(_, sink)| sink.is_some()) {
            // Work counters of the waste profilers, summed over the cache
            // levels: what the hash tables cost, and how many line events
            // and memory chunks the one-mask paths served.
            let (mut probes, mut resizes) = (0u64, 0u64);
            let (mut finalizes, mut batched) = (0u64, 0u64);
            let caches = self.engine.l1_prof.iter().chain([&self.engine.l2_prof]);
            for prof in caches {
                let (_, p, r) = prof.pending_table_stats();
                let (f, b) = prof.finalize_stats();
                probes += p;
                resizes += r;
                finalizes += f;
                batched += b;
            }
            let (_, p, r) = self.engine.mem_prof.pending_table_stats();
            probes += p;
            resizes += r;
            let (mem_chunks, mem_chunk_spills) = self.engine.mem_prof.chunk_stats();
            // Every core is done, so its pc is the records it stepped.
            let records = self.pc.iter().sum::<usize>() as u64;
            for (network, sink) in &self.lanes {
                let Some(sink) = sink else { continue };
                sink.emit(
                    Span::event("run")
                        .attr("protocol", self.engine.cfg.protocol.name())
                        .attr("benchmark", self.engine.workload.kind.name())
                        .attr("network", network.name())
                        .attr("cycles", last.lanes[network.lane()])
                        .attr("phases", self.phases)
                        .attr("sends", self.engine.net.sends)
                        .attr("net_stalls", self.engine.net.timed_stall_cycles(*network))
                        .attr("map_probes", probes)
                        .attr("map_resizes", resizes)
                        .attr("mem_chunks", mem_chunks)
                        .attr("mem_chunk_spills", mem_chunk_spills)
                        .attr("line_finalizes", finalizes)
                        .attr("line_finalizes_batched", batched)
                        .attr("records", records)
                        .attr("dram_accesses", accesses),
                );
            }
        }
        let eng = self.engine;

        let mut l1_waste = tw_profiler::WasteReport::new();
        for p in eng.l1_prof {
            l1_waste.merge(&p.finish());
        }
        let l2_waste = eng.l2_prof.finish();
        let mem_waste = eng.mem_prof.finish();

        // Attribute the profiled response-data flit-hops to the traffic
        // breakdown now that every word has a final classification.
        let mesh_flit_hops = eng.net.total_flit_hops();
        let mut traffic = eng.net.traffic.clone();
        for class in [MessageClass::Load, MessageClass::Store] {
            for (report, used_bucket, waste_bucket) in [
                (
                    &l1_waste,
                    TrafficBucket::RespL1Used,
                    TrafficBucket::RespL1Waste,
                ),
                (
                    &l2_waste,
                    TrafficBucket::RespL2Used,
                    TrafficBucket::RespL2Waste,
                ),
            ] {
                traffic.add(class, used_bucket, report.used_flit_hops(class));
                traffic.add(class, waste_bucket, report.wasted_flit_hops(class));
            }
        }

        let shared = SimReport {
            protocol: eng.cfg.protocol,
            benchmark: eng.workload.kind,
            input: eng.workload.input.clone(),
            total_cycles: 0,
            time: ExecutionBreakdown::new(),
            traffic,
            mesh_flit_hops,
            l1_waste,
            l2_waste,
            mem_waste,
            dram_accesses: accesses,
            dram_row_hit_rate: if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            },
        };
        // Everything above is the analytic lane's and so every model's;
        // reported execution time is each model's own lane.
        let mut reports = Vec::new();
        reports.resize(self.lanes.len(), shared);
        for (report, (network, _)) in reports.iter_mut().zip(&self.lanes) {
            report.total_cycles = last.lanes[network.lane()];
            for t in &eng.time {
                report.time.merge(t.lane(*network));
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tw_workloads::{build_tiny, BenchmarkKind};

    fn run(protocol: ProtocolKind, bench: BenchmarkKind) -> SimReport {
        let wl = build_tiny(bench, 16).unwrap();
        Simulator::new(SimConfig::new(protocol), &wl).run()
    }

    #[test]
    fn mesi_runs_a_tiny_fft_to_completion() {
        let r = run(ProtocolKind::Mesi, BenchmarkKind::Fft);
        assert!(r.total_cycles > 0);
        assert!(r.traffic.total() > 0.0);
        assert!(r.l1_waste.total_words() > 0);
        assert!(r.mem_waste.total_words() > 0);
        assert!(r.dram_accesses > 0);
    }

    #[test]
    fn every_protocol_completes_every_tiny_benchmark() {
        for &p in &ProtocolKind::ALL {
            for &b in &BenchmarkKind::ALL {
                let r = run(p, b);
                assert!(r.total_cycles > 0, "{p} on {b} produced no time");
                assert!(r.traffic.total() > 0.0, "{p} on {b} produced no traffic");
            }
        }
    }

    #[test]
    fn denovo_generates_no_mesi_style_overhead_messages() {
        let mesi = run(ProtocolKind::Mesi, BenchmarkKind::Lu);
        let denovo = run(ProtocolKind::DeNovo, BenchmarkKind::Lu);
        let mesi_ovh = mesi.traffic.class_total(MessageClass::Overhead);
        let denovo_ovh = denovo.traffic.class_total(MessageClass::Overhead);
        assert!(
            denovo_ovh < mesi_ovh * 0.2,
            "DeNovo overhead {denovo_ovh} should be well below MESI's {mesi_ovh}"
        );
    }

    #[test]
    fn optimized_denovo_reduces_traffic_versus_mesi() {
        // At the miniature test scale (tiny inputs on the full Table 4.1
        // caches) some benchmarks fit almost entirely in cache, where MESI's
        // silent E→M upgrades can locally beat DeNovo's registration traffic
        // and the Bloom-copy overhead of DBypFull is not yet amortized. The
        // paper-scale per-benchmark shape is validated by the integration
        // tests and the experiments harness; here we check the aggregate over
        // all six benchmarks with every optimization short of request bypass.
        let (mut mesi_total, mut opt_total) = (0.0, 0.0);
        for &b in &BenchmarkKind::ALL {
            mesi_total += run(ProtocolKind::Mesi, b).total_flit_hops();
            opt_total += run(ProtocolKind::DBypL2, b).total_flit_hops();
        }
        assert!(
            opt_total < mesi_total,
            "DBypL2 ({opt_total}) should move fewer flit-hops than MESI ({mesi_total}) across the suite"
        );
    }

    #[test]
    fn bucketed_ledger_tracks_raw_mesh_flit_hops() {
        let wl = build_tiny(BenchmarkKind::Radix, 16).unwrap();
        let sim = Simulator::new(SimConfig::new(ProtocolKind::DBypFull), &wl);
        assert_eq!(sim.protocol(), ProtocolKind::DBypFull);
        let report = sim.run();
        assert!(report.traffic.total() > 0.0);
        let waste = report.traffic.waste_total();
        assert!(waste >= 0.0 && waste <= report.traffic.total());
        // The bucketed ledger attributes fractional flits; the mesh counts
        // whole flits. The two totals must agree to within a few percent.
        let rel = (report.traffic.total() - report.mesh_flit_hops).abs() / report.mesh_flit_hops;
        assert!(
            rel < 0.05,
            "bucketed total {} vs raw mesh {} differ by {:.1}%",
            report.traffic.total(),
            report.mesh_flit_hops,
            100.0 * rel
        );
    }

    #[test]
    fn mismatched_core_count_is_rejected() {
        let wl = build_tiny(BenchmarkKind::Fft, 4).unwrap();
        let result =
            std::panic::catch_unwind(|| Simulator::new(SimConfig::new(ProtocolKind::Mesi), &wl));
        assert!(result.is_err());
    }

    /// `try_new`'s refusal of `lanes`, as its error.
    fn refusal(lanes: Vec<SimConfig>, wl: &Workload) -> SimError {
        Simulator::try_new(lanes, wl).map(|_| ()).unwrap_err()
    }

    /// A MESI lane timed by `network`.
    fn lane(network: tw_types::NetworkModelKind) -> SimConfig {
        SimConfig::new(ProtocolKind::Mesi).with_system(SystemConfig {
            network,
            ..SystemConfig::default()
        })
    }

    #[test]
    fn an_invalid_system_is_a_typed_error() {
        let wl = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        let mut cfg = SimConfig::new(ProtocolKind::Mesi);
        cfg.system.cache.l1_bytes = 0;
        let err = refusal(vec![cfg], &wl);
        assert!(matches!(err, SimError::InvalidSystem(_)), "{err}");
        assert!(err.to_string().contains("non-zero"), "{err}");
    }

    #[test]
    fn a_core_count_mismatch_is_a_typed_error() {
        let wl = build_tiny(BenchmarkKind::Fft, 4).unwrap();
        let err = refusal(vec![SimConfig::new(ProtocolKind::Mesi)], &wl);
        assert_eq!(
            err,
            SimError::CoreMismatch {
                workload: 4,
                machine: 16
            }
        );
    }

    #[test]
    fn an_empty_lane_set_is_a_typed_error() {
        let wl = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        assert_eq!(refusal(Vec::new(), &wl), SimError::NoLanes);
    }

    #[test]
    fn a_repeated_lane_is_a_typed_error() {
        use tw_types::NetworkModelKind::*;
        let wl = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        let lanes = vec![lane(FlitLevel), lane(SnoopBus), lane(FlitLevel)];
        assert_eq!(refusal(lanes, &wl), SimError::RepeatedLane(FlitLevel));
    }

    #[test]
    fn lanes_of_two_machines_are_a_typed_error() {
        use tw_types::NetworkModelKind::*;
        let wl = build_tiny(BenchmarkKind::Fft, 16).unwrap();
        let other_protocol = SimConfig {
            protocol: ProtocolKind::Dragon,
            ..lane(SnoopBus)
        };
        let mut other_l2 = lane(SnoopBus);
        other_l2.system.cache.l2_slice_bytes /= 2;
        for second in [other_protocol, other_l2] {
            let err = refusal(vec![lane(Analytic), second], &wl);
            assert_eq!(err, SimError::NotOneMachine(SnoopBus));
        }
    }

    #[test]
    fn a_workload_replays_from_its_trace_to_a_bit_identical_report() {
        let wl = build_tiny(BenchmarkKind::Lu, 16).unwrap();
        let bytes = wl.to_trace().to_binary_bytes().unwrap();
        let doc = tw_trace::TraceDocument::from_bytes(&bytes).unwrap();
        let replay = Workload::from_trace(doc).unwrap();
        replay.assert_well_formed();
        assert_eq!(replay.kind, BenchmarkKind::Lu);
        for protocol in [ProtocolKind::DBypFull, ProtocolKind::Mesi] {
            let run = Simulator::new(SimConfig::new(protocol), &wl).run();
            let replayed = Simulator::new(SimConfig::new(protocol), &replay).run();
            assert_eq!(run, replayed, "{protocol}: replay must be bit-identical");
        }
    }

    proptest! {
        #[test]
        fn two_earliest_is_the_first_minimum_scan_applied_twice(
            // Few distinct values, so ties are the common case; 0 stands for
            // a core that cannot run.
            clocks in prop::collection::vec(0u64..5, 1..20),
            lone in 0usize..20,
        ) {
            let first_min = |ready: &[u64]| {
                let (mut core, mut best) = (usize::MAX, u64::MAX);
                for (c, &at) in ready.iter().enumerate() {
                    if at < best {
                        (core, best) = (c, at);
                    }
                }
                (core, best)
            };
            let holes: Vec<u64> = clocks
                .iter()
                .map(|&c| if c == 0 { u64::MAX } else { c })
                .collect();
            let mut single = vec![u64::MAX; clocks.len()];
            single[lone % clocks.len()] = 7;
            for ready in [holes, single, vec![u64::MAX; clocks.len()]] {
                let (first, second) = two_earliest(&ready);
                prop_assert_eq!(first, first_min(&ready));
                let mut rest = ready.clone();
                if first.0 != usize::MAX {
                    rest[first.0] = u64::MAX;
                }
                prop_assert_eq!(second, first_min(&rest));
            }
        }
    }

    #[test]
    fn scheduler_and_ownership_rewrites_leave_reports_pinned() {
        // Literals taken at the parent of PR 13 (first-minimum scan per
        // record, enum-array L2 owners, per-filter Bloom banks): the
        // run-ahead scheduler, the packed owner byte and the flat banks must
        // reproduce them.
        for (bench, protocol, cycles, traffic_bits) in [
            (
                BenchmarkKind::Radix,
                ProtocolKind::DBypFull,
                89_166u64,
                0x40fe_f090_0000_0000u64,
            ),
            (
                BenchmarkKind::Fft,
                ProtocolKind::Mesi,
                63_536,
                0x40e0_9800_0000_0000,
            ),
        ] {
            let wl = build_tiny(bench, 16).unwrap();
            let report = Simulator::new(SimConfig::new(protocol), &wl).run();
            assert_eq!(report.total_cycles, cycles, "{bench}/{protocol}");
            assert_eq!(
                report.traffic.total().to_bits(),
                traffic_bits,
                "{bench}/{protocol}"
            );
            let again = Simulator::new(SimConfig::new(protocol), &wl).run();
            assert_eq!(again, report, "{bench}/{protocol}: two runs agree");
        }
    }

    #[test]
    fn timed_models_move_identical_traffic_and_never_run_faster() {
        // The traffic-identity invariant of DESIGN.md §11, for every
        // non-default network model (flit-level wormhole and snooping bus):
        // the network model may only move time. Everything the analytic
        // lane drives — per-bucket flit-hops, every waste classification,
        // DRAM behavior — must be bit-identical, and the timed execution
        // time must be at or above the analytic lower bound.
        for network in tw_types::NetworkModelKind::ALL {
            if network == tw_types::NetworkModelKind::Analytic {
                continue;
            }
            let timed_sys = SystemConfig {
                network,
                ..SystemConfig::default()
            };
            for &p in &[
                ProtocolKind::Mesi,
                ProtocolKind::DBypFull,
                ProtocolKind::Dragon,
            ] {
                for &b in &[BenchmarkKind::Fft, BenchmarkKind::Fluidanimate] {
                    let wl = build_tiny(b, 16).unwrap();
                    let analytic = Simulator::new(SimConfig::new(p), &wl).run();
                    let timed =
                        Simulator::new(SimConfig::new(p).with_system(timed_sys.clone()), &wl).run();
                    let n = network.name();
                    assert_eq!(timed.traffic, analytic.traffic, "{n}/{p}/{b} traffic");
                    assert_eq!(timed.mesh_flit_hops, analytic.mesh_flit_hops, "{n}/{p}/{b}");
                    assert_eq!(timed.l1_waste, analytic.l1_waste, "{n}/{p}/{b} L1 waste");
                    assert_eq!(timed.l2_waste, analytic.l2_waste, "{n}/{p}/{b} L2 waste");
                    assert_eq!(timed.mem_waste, analytic.mem_waste, "{n}/{p}/{b} mem waste");
                    assert_eq!(timed.dram_accesses, analytic.dram_accesses, "{n}/{p}/{b}");
                    assert_eq!(
                        timed.dram_row_hit_rate, analytic.dram_row_hit_rate,
                        "{n}/{p}/{b}: DRAM evolves on the analytic lane"
                    );
                    assert!(
                        timed.total_cycles >= analytic.total_cycles,
                        "{n}/{p}/{b}: timed {} undercuts analytic {}",
                        timed.total_cycles,
                        analytic.total_cycles
                    );
                    // And the timed run is itself deterministic.
                    let again =
                        Simulator::new(SimConfig::new(p).with_system(timed_sys.clone()), &wl).run();
                    assert_eq!(again, timed, "{n}/{p}/{b} rerun");
                }
            }
        }
    }

    #[test]
    fn barrier_sync_time_is_attributed() {
        // Barnes has a long sequential phase on core 0, so other cores must
        // accumulate Sync time waiting at the first barrier.
        let r = run(ProtocolKind::Mesi, BenchmarkKind::Barnes);
        assert!(r.time.get(TimeClass::Sync) > 0);
        assert!(r.time.get(TimeClass::Compute) > 0);
    }
}
