//! Time base shared by all components.

use crate::config::NetworkModelKind;
use std::ops::{Add, AddAssign};

/// A simulation cycle count (core clock domain).
pub type Cycle = u64;

/// How many lanes a [`Stamp`] carries: one per network model, so one run
/// can time a machine under every model at once.
pub const LANES: usize = NetworkModelKind::ALL.len();

/// A simulation timestamp: one cycle per network model, indexed by
/// [`NetworkModelKind::lane`].
///
/// The **analytic** lane (lane 0) is advanced by the analytic network model
/// and is the only lane the engine consults for anything that influences
/// *what happens*: core scheduling order, cache and directory state, the
/// write-combining timeout, DRAM row-buffer evolution — and therefore every
/// flit-hop and every waste classification. Every other lane is advanced by
/// its own network model when the run times that model, and moves with the
/// analytic lane otherwise; a model's reported execution time is built from
/// its lane.
///
/// Under the flit-level and bus models a lane runs at or behind the
/// analytic lane (per-send latencies are clamped to the analytic lower
/// bound, see `DESIGN.md` §11), which is exactly what makes traffic
/// bit-identical across network models while latency is free to grow under
/// congestion — and what lets one run serve every model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp {
    /// The cycle of each network model's lane.
    pub lanes: [Cycle; LANES],
}

impl Stamp {
    /// A timestamp with every lane at `cycle` (the lanes only diverge
    /// through network sends, never at creation).
    pub const fn at(cycle: Cycle) -> Self {
        Stamp {
            lanes: [cycle; LANES],
        }
    }

    /// The analytic lane's cycle: what orders every state change.
    #[inline(always)]
    pub const fn analytic(self) -> Cycle {
        self.lanes[NetworkModelKind::Analytic.lane()]
    }

    /// The stamp whose analytic lane is `analytic` and whose other lanes
    /// each moved on by the same number of cycles: a step every lane takes
    /// at the analytic lane's pace (an analytic send, a DRAM access).
    #[inline(always)]
    pub fn advanced_to(self, analytic: Cycle) -> Stamp {
        self + (analytic - self.analytic())
    }

    /// Lane-wise maximum — the join of two arrival times.
    #[inline(always)]
    pub fn max(self, other: Stamp) -> Stamp {
        Stamp {
            lanes: std::array::from_fn(|lane| self.lanes[lane].max(other.lanes[lane])),
        }
    }

    /// Per-lane duration since `earlier` (saturating) — what each lane's
    /// execution time breakdown is charged with.
    #[inline(always)]
    pub fn since(self, earlier: Stamp) -> [Cycle; LANES] {
        std::array::from_fn(|lane| self.lanes[lane].saturating_sub(earlier.lanes[lane]))
    }

    /// Whether every lane is at or past `other` (time never runs backwards
    /// on any lane).
    #[inline(always)]
    pub fn not_before(self, other: Stamp) -> bool {
        self.lanes.iter().zip(other.lanes).all(|(&a, b)| a >= b)
    }
}

impl Add<Cycle> for Stamp {
    type Output = Stamp;

    #[inline(always)]
    fn add(mut self, rhs: Cycle) -> Stamp {
        self += rhs;
        self
    }
}

impl AddAssign<Cycle> for Stamp {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Cycle) {
        for t in &mut self.lanes {
            *t += rhs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_start_together_and_join_lane_wise() {
        let s = Stamp::at(10);
        assert_eq!(s.lanes, [s.analytic(); LANES]);
        let a = Stamp { lanes: [5, 9, 7] };
        let b = Stamp { lanes: [7, 8, 8] };
        assert_eq!(a.max(b), Stamp { lanes: [7, 9, 8] });
        assert_eq!((a + 3).lanes, [8, 12, 10]);
        assert_eq!(
            b.since(a),
            [2, 0, 1],
            "since saturates instead of underflowing"
        );
        assert_eq!(a.since(b), [0, 1, 0]);
        assert!(!a.not_before(b));
        assert!(!b.not_before(a), "one lane behind is behind");
        assert!(a.max(b).not_before(a));
        assert_eq!(
            a.advanced_to(11),
            Stamp {
                lanes: [11, 15, 13]
            }
        );
    }
}
