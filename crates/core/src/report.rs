//! The result of one simulation run.

use crate::timing::ExecutionBreakdown;
use tw_profiler::{TrafficBreakdown, WasteReport};
use tw_types::{Cycle, ProtocolKind};
use tw_workloads::BenchmarkKind;

/// Everything one simulation run produces: the inputs it was run with plus
/// the three result families of the paper (traffic, execution time, fetched
/// words by waste category).
///
/// Equality is exact (including the `f64` fields): two reports compare equal
/// only when bit-identical, which is precisely the determinism oracle the
/// trace record→replay CI check asserts.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Protocol configuration simulated.
    pub protocol: ProtocolKind,
    /// Benchmark simulated.
    pub benchmark: BenchmarkKind,
    /// Workload input description.
    pub input: String,
    /// Total execution time (cycle at which the last core finished).
    pub total_cycles: Cycle,
    /// Execution-time breakdown summed over all cores (Figure 5.2).
    pub time: ExecutionBreakdown,
    /// Flit-hop breakdown (Figures 5.1a–5.1d).
    pub traffic: TrafficBreakdown,
    /// Raw whole-flit hop count from the mesh, before the bucketed ledger's
    /// fractional attribution — a cross-check on `traffic` (the two agree to
    /// within a few percent).
    pub mesh_flit_hops: f64,
    /// Words fetched into the L1s, by waste category (Figure 5.3a).
    pub l1_waste: WasteReport,
    /// Words fetched into the L2 from memory, by waste category (Figure 5.3b).
    pub l2_waste: WasteReport,
    /// Words fetched from memory, by waste category (Figure 5.3c).
    pub mem_waste: WasteReport,
    /// Total DRAM accesses (reads + writes) across all controllers.
    pub dram_accesses: u64,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
}

impl SimReport {
    /// Total network traffic in flit-hops.
    pub fn total_flit_hops(&self) -> f64 {
        self.traffic.total()
    }

    /// Fraction of all traffic spent moving data that was classified as
    /// waste (the paper's "8.8% of the remaining traffic" style metric).
    pub fn waste_traffic_fraction(&self) -> f64 {
        self.traffic.waste_fraction()
    }

    /// Ratio of this run's total traffic to a baseline run's.
    pub fn traffic_relative_to(&self, baseline: &SimReport) -> f64 {
        if baseline.total_flit_hops() == 0.0 {
            return 1.0;
        }
        self.total_flit_hops() / baseline.total_flit_hops()
    }

    /// Ratio of this run's execution time to a baseline run's.
    pub fn time_relative_to(&self, baseline: &SimReport) -> f64 {
        if baseline.total_cycles == 0 {
            return 1.0;
        }
        self.total_cycles as f64 / baseline.total_cycles as f64
    }
}
