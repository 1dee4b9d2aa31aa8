//! Execution-time attribution (Figure 5.2).

use std::fmt;
use tw_types::{Cycle, LANES};

/// The execution-time components of Figure 5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimeClass {
    /// CPU busy time (non-memory instructions and L1 hits).
    Compute,
    /// Stall on hits in the L2 or a remote L1.
    OnChipHit,
    /// Time for a memory-bound request to reach the memory controller.
    ToMc,
    /// Time spent at the memory controller waiting for DRAM.
    Mem,
    /// Time from the memory controller back to the requesting L1.
    FromMc,
    /// Time stalled at barriers.
    Sync,
}

impl TimeClass {
    /// All components in the stacking order of Figure 5.2.
    pub const ALL: [TimeClass; 6] = [
        TimeClass::Compute,
        TimeClass::OnChipHit,
        TimeClass::FromMc,
        TimeClass::ToMc,
        TimeClass::Mem,
        TimeClass::Sync,
    ];

    /// Dense index in declaration (= `Ord`) order, used by
    /// [`ExecutionBreakdown`]'s fixed-size storage.
    const fn idx(self) -> usize {
        match self {
            TimeClass::Compute => 0,
            TimeClass::OnChipHit => 1,
            TimeClass::ToMc => 2,
            TimeClass::Mem => 3,
            TimeClass::FromMc => 4,
            TimeClass::Sync => 5,
        }
    }

    /// The inverse of [`TimeClass::idx`].
    const ORD: [TimeClass; 6] = [
        TimeClass::Compute,
        TimeClass::OnChipHit,
        TimeClass::ToMc,
        TimeClass::Mem,
        TimeClass::FromMc,
        TimeClass::Sync,
    ];

    /// Figure label.
    pub const fn label(self) -> &'static str {
        match self {
            TimeClass::Compute => "Compute",
            TimeClass::OnChipHit => "On-chip Hit",
            TimeClass::ToMc => "To MC",
            TimeClass::Mem => "Mem",
            TimeClass::FromMc => "From MC",
            TimeClass::Sync => "Sync",
        }
    }
}

impl fmt::Display for TimeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycles attributed to each [`TimeClass`] (per core or aggregated).
///
/// Stored as a dense array indexed by [`TimeClass::idx`] — this sits on the
/// per-op hot path (`add` runs for every simulated memory access), where the
/// previous `BTreeMap` lookup cost real time. Cycle counts are integers, so
/// the sums are exact regardless of accumulation order; `iter` emits only
/// non-zero entries in `Ord` order, exactly as the map-based version did, so
/// the result-cache codec bytes are unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionBreakdown {
    cycles: [Cycle; 6],
}

impl ExecutionBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        ExecutionBreakdown::default()
    }

    /// Adds `cycles` to `class`.
    #[inline]
    pub fn add(&mut self, class: TimeClass, cycles: Cycle) {
        self.cycles[class.idx()] += cycles;
    }

    /// Cycles attributed to `class`.
    pub fn get(&self, class: TimeClass) -> Cycle {
        self.cycles[class.idx()]
    }

    /// Total attributed cycles.
    pub fn total(&self) -> Cycle {
        self.cycles.iter().sum()
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &ExecutionBreakdown) {
        for (slot, c) in self.cycles.iter_mut().zip(other.cycles) {
            *slot += c;
        }
    }

    /// Iterates over the non-zero `(class, cycles)` entries in a stable
    /// (`Ord`) order.
    pub fn iter(&self) -> impl Iterator<Item = (TimeClass, Cycle)> + '_ {
        TimeClass::ORD
            .into_iter()
            .zip(self.cycles)
            .filter(|&(_, n)| n > 0)
    }

    /// Rebuilds a breakdown from raw entries — the inverse of
    /// [`ExecutionBreakdown::iter`], used by the experiment result cache's
    /// report codec.
    pub fn from_entries(entries: impl IntoIterator<Item = (TimeClass, Cycle)>) -> Self {
        let mut b = ExecutionBreakdown::new();
        for (class, c) in entries {
            b.cycles[class.idx()] += c;
        }
        b
    }
}

/// One core's [`ExecutionBreakdown`] on each timed lane of a run (see
/// `tw_types::Stamp`): busy time is the same on every lane, a stall is
/// charged to each lane with that lane's own duration.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneBreakdowns([ExecutionBreakdown; LANES]);

impl LaneBreakdowns {
    /// Adds `cycles` to `class` on every lane.
    #[inline]
    pub(crate) fn add(&mut self, class: TimeClass, cycles: Cycle) {
        for lane in &mut self.0 {
            lane.add(class, cycles);
        }
    }

    /// Adds each lane's own `cycles` to `class`.
    #[inline]
    pub(crate) fn add_lanes(&mut self, class: TimeClass, cycles: [Cycle; LANES]) {
        for (lane, c) in self.0.iter_mut().zip(cycles) {
            lane.add(class, c);
        }
    }

    /// The breakdown of timed lane `lane`.
    pub(crate) fn lane(&self, lane: usize) -> &ExecutionBreakdown {
        &self.0[lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_total() {
        let mut b = ExecutionBreakdown::new();
        b.add(TimeClass::Compute, 100);
        b.add(TimeClass::Mem, 50);
        b.add(TimeClass::Mem, 25);
        b.add(TimeClass::Sync, 0);
        assert_eq!(b.get(TimeClass::Compute), 100);
        assert_eq!(b.get(TimeClass::Mem), 75);
        assert_eq!(b.get(TimeClass::Sync), 0);
        assert_eq!(b.total(), 175);
    }

    #[test]
    fn merge_sums_components() {
        let mut a = ExecutionBreakdown::new();
        a.add(TimeClass::Compute, 10);
        let mut b = ExecutionBreakdown::new();
        b.add(TimeClass::Compute, 5);
        b.add(TimeClass::OnChipHit, 7);
        a.merge(&b);
        assert_eq!(a.get(TimeClass::Compute), 15);
        assert_eq!(a.get(TimeClass::OnChipHit), 7);
    }

    #[test]
    fn raw_entries_round_trip_bit_exactly() {
        let mut b = ExecutionBreakdown::new();
        b.add(TimeClass::Compute, 42);
        b.add(TimeClass::Sync, 7);
        assert_eq!(ExecutionBreakdown::from_entries(b.iter()), b);
        assert_eq!(
            ExecutionBreakdown::from_entries(std::iter::empty()),
            ExecutionBreakdown::new()
        );
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(TimeClass::ALL.len(), 6);
        assert_eq!(TimeClass::OnChipHit.to_string(), "On-chip Hit");
        assert_eq!(TimeClass::FromMc.label(), "From MC");
    }
}
