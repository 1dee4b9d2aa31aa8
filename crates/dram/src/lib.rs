//! DRAM and memory-controller timing model.
//!
//! Each of the four corner tiles hosts a memory controller driving a single
//! DDR3-1066 channel with eight banks and two ranks, FR-FCFS scheduling and
//! an open-page policy (paper Table 4.1). The model tracks, per bank, the
//! currently open row and the cycle the bank becomes free; a request pays the
//! row-hit or row-miss latency plus any bank/channel queueing delay. This is
//! the first-order behaviour DRAMSim2 provides that matters for the study:
//! the `Mem` component of execution time and the benefit of keeping requests
//! within an open row (which the L2-Flex optimization exploits).
//!
//! # Example
//!
//! ```
//! use tw_dram::MemoryController;
//! use tw_types::{DramConfig, LineAddr};
//!
//! let mut mc = MemoryController::new(DramConfig);
//! let line = LineAddr::from_aligned(0x10_0000);
//! let first = mc.access(line, false, 0);
//! let second = mc.access(line.next(64, 1), false, first);
//! assert!(second > first, "second access completes later");
//! assert_eq!(mc.stats().row_hits, 1, "same row stays open");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;

pub use controller::{DramStats, MemoryController};
