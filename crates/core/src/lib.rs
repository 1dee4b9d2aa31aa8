//! `denovo-waste`: a tiled-multicore memory-hierarchy simulator and traffic-
//! waste characterization framework.
//!
//! This crate is the primary contribution of the reproduction: it wires the
//! substrate crates (caches, mesh NoC, DRAM, Bloom filters, waste profilers,
//! protocol state machines, workload generators) into a 16-tile machine and
//! runs each benchmark trace under any of the nine protocol configurations of
//! the paper, producing:
//!
//! * network traffic in flit-hops, broken down by load / store / writeback /
//!   overhead and by control vs. used vs. wasted data (Figures 5.1a–5.1d);
//! * an execution-time breakdown into compute, on-chip stall, to-memory-
//!   controller, DRAM, from-memory-controller and synchronization components
//!   (Figure 5.2);
//! * the number of words fetched into the L1s, the L2 and from memory,
//!   classified by the waste taxonomy of §4.1 (Figures 5.3a–5.3c).
//!
//! # Quick start
//!
//! ```
//! use denovo_waste::{Simulator, SimConfig};
//! use tw_types::ProtocolKind;
//! use tw_workloads::{build_tiny, BenchmarkKind};
//!
//! let workload = build_tiny(BenchmarkKind::Fft, 16).unwrap();
//! let config = SimConfig::new(ProtocolKind::DBypFull);
//! let report = Simulator::new(config, &workload).run();
//! assert!(report.traffic.total() > 0.0);
//! assert!(report.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod machine;
pub mod report;
pub mod sim;
pub mod timing;

pub use experiment::{
    cache_key, sweep_temp_files, workload_digests, CacheStats, CellGroup, CompiledPlan,
    ExperimentError, ExperimentSpec, FigureRender, HeadlineSummary, PlanOutcome, PlannedCell,
    RowKey, ScaleProfile, Session, SessionCounters, SystemVariant, WorkloadRef, WorkloadSet,
    WorkloadSource, WorkloadSpec, ENGINE_VERSION, SPEC_SCHEMA, TEMP_SWEEP_AGE,
};
pub use figures::FigureTable;
pub use report::SimReport;
pub use sim::{SimConfig, SimError, Simulator};
pub use timing::{ExecutionBreakdown, TimeClass};
pub use tw_obs::Json;
