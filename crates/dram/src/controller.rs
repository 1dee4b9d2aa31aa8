//! The per-channel memory controller.

use tw_types::config::{
    DRAM_BANKS, DRAM_BURST_CYCLES, DRAM_RANKS, DRAM_ROW_BYTES, DRAM_ROW_HIT_CYCLES,
    DRAM_ROW_MISS_CYCLES,
};
use tw_types::{Cycle, DramConfig, LineAddr};

/// Counters exposed by a [`MemoryController`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Number of read accesses.
    pub reads: u64,
    /// Number of write accesses.
    pub writes: u64,
    /// Accesses that hit the open row of their bank.
    pub row_hits: u64,
    /// Accesses that required closing/opening a row.
    pub row_misses: u64,
    /// Total cycles requests spent queued behind busy banks or the channel.
    pub queueing_cycles: u64,
    /// Total cycles of service time (excluding queueing).
    pub service_cycles: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    free_at: Cycle,
}

/// One memory channel with its controller.
///
/// FR-FCFS is approximated at transaction granularity: a request to a bank
/// whose open row matches is serviced with the row-hit latency as soon as the
/// bank and channel are free; otherwise it pays the activate+CAS penalty.
/// The data burst occupies the channel for `DRAM_BURST_CYCLES`. Every
/// parameter is a Table 4.1 constant of `tw_types::config`.
#[derive(Debug, Clone)]
pub struct MemoryController {
    banks: [Bank; DRAM_BANKS * DRAM_RANKS],
    channel_free_at: Cycle,
    stats: DramStats,
}

impl MemoryController {
    /// Creates an idle controller of the Table 4.1 DRAM.
    pub fn new(_: DramConfig) -> Self {
        MemoryController {
            banks: [Bank::default(); DRAM_BANKS * DRAM_RANKS],
            channel_free_at: 0,
            stats: DramStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Performs an access to `line` issued at cycle `now`.
    ///
    /// Returns the cycle at which the data transfer completes (for reads,
    /// when the critical line is available at the controller; for writes,
    /// when the write has been retired to the bank).
    pub fn access(&mut self, line: LineAddr, is_write: bool, now: Cycle) -> Cycle {
        let row = line.dram_row(DRAM_ROW_BYTES);
        // Rows interleave across the banks.
        let bank = &mut self.banks[row as usize % self.banks.len()];

        let ready = now.max(bank.free_at).max(self.channel_free_at);
        let queueing = ready - now;

        let (access_cycles, hit) = if bank.open_row == Some(row) {
            (DRAM_ROW_HIT_CYCLES, true)
        } else {
            (DRAM_ROW_MISS_CYCLES, false)
        };
        bank.open_row = Some(row);

        let service = access_cycles + DRAM_BURST_CYCLES;
        let done = ready + service;
        bank.free_at = done;
        // The channel is only occupied for the burst portion.
        self.channel_free_at = done;

        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.queueing_cycles += queueing;
        self.stats.service_cycles += service;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(DramConfig)
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::from_aligned(n * 64)
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut m = mc();
        let done = m.access(line(0), false, 0);
        assert_eq!(done, DRAM_ROW_MISS_CYCLES + DRAM_BURST_CYCLES);
        assert_eq!(m.stats().row_misses, 1);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn same_row_access_hits_open_row() {
        let mut m = mc();
        let t1 = m.access(line(0), false, 0);
        // The next line is in the same 8 KB row.
        let t2 = m.access(line(1), false, t1);
        assert_eq!(t2 - t1, DRAM_ROW_HIT_CYCLES + DRAM_BURST_CYCLES);
        assert_eq!((m.stats().row_hits, m.stats().row_misses), (1, 1));
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut m = mc();
        let banks = (DRAM_BANKS * DRAM_RANKS) as u64;
        let lines_per_row = DRAM_ROW_BYTES / 64;
        m.access(line(0), false, 0);
        // Same bank, different row: row index differs by `banks`.
        let conflicting = line(banks * lines_per_row);
        m.access(conflicting, false, 0);
        assert_eq!(m.stats().row_misses, 2);
        assert!(
            m.stats().queueing_cycles > 0,
            "second request queued behind first"
        );
    }

    #[test]
    fn writes_are_counted_separately() {
        let mut m = mc();
        m.access(line(0), true, 0);
        m.access(line(1), false, 0);
        assert_eq!(m.stats().writes, 1);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn queueing_respects_issue_time() {
        let mut m = mc();
        let t1 = m.access(line(0), false, 0);
        // Issued long after the first completes: no queueing for this one.
        let before = m.stats().queueing_cycles;
        m.access(line(100_000), false, t1 + 10_000);
        assert_eq!(m.stats().queueing_cycles, before);
    }
}
