//! Time base shared by all components.

use crate::config::NetworkModelKind;
use std::ops::{Add, AddAssign};

/// A simulation cycle count (core clock domain).
pub type Cycle = u64;

/// How many timed lanes a [`Stamp`] carries: one per network model, so one
/// run can time a machine under every model at once.
pub const LANES: usize = NetworkModelKind::ALL.len();

/// A simulation timestamp: one canonical lane plus [`LANES`] timed lanes.
///
/// The **canonical** lane is always advanced by the analytic network model
/// and is the only lane the engine consults for anything that influences
/// *what happens*: core scheduling order, cache and directory state, the
/// write-combining timeout, DRAM row-buffer evolution — and therefore every
/// flit-hop and every waste classification. Each **timed** lane is advanced
/// by one network model of the run and is what that model's reported
/// execution time is built from; a run that times fewer models leaves the
/// rest of the lanes analytic and never reports them.
///
/// An analytic lane equals the canonical lane at every point, so the
/// default configuration reproduces the single-clock engine bit for bit.
/// Under the flit-level and bus models a timed lane runs at or behind the
/// canonical lane (per-send latencies are clamped to the analytic lower
/// bound, see `DESIGN.md` §11), which is exactly what makes traffic
/// bit-identical across network models while latency is free to grow under
/// congestion — and what lets one run serve every model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp {
    /// Canonical-lane cycle (analytic network timing; orders all state
    /// mutation).
    pub canon: Cycle,
    /// Timed-lane cycles, one per lane of the run (that lane's network
    /// model; reported time).
    pub timed: [Cycle; LANES],
}

impl Stamp {
    /// A timestamp with every lane at `cycle` (the lanes only diverge
    /// through network sends, never at creation).
    pub const fn at(cycle: Cycle) -> Self {
        Stamp {
            canon: cycle,
            timed: [cycle; LANES],
        }
    }

    /// The stamp whose canonical lane is `canon` and whose timed lanes each
    /// moved on by the same number of cycles: a step every lane takes at
    /// the canonical lane's pace (an analytic send, a DRAM access).
    #[inline(always)]
    pub fn advanced_to(self, canon: Cycle) -> Stamp {
        let step = canon - self.canon;
        Stamp {
            canon,
            timed: self.timed.map(|t| t + step),
        }
    }

    /// Lane-wise maximum — the join of two arrival times.
    #[inline(always)]
    pub fn max(self, other: Stamp) -> Stamp {
        Stamp {
            canon: self.canon.max(other.canon),
            timed: std::array::from_fn(|lane| self.timed[lane].max(other.timed[lane])),
        }
    }

    /// Per-lane timed duration since `earlier` (saturating) — what each
    /// lane's execution time breakdown is charged with.
    #[inline(always)]
    pub fn since(self, earlier: Stamp) -> [Cycle; LANES] {
        std::array::from_fn(|lane| self.timed[lane].saturating_sub(earlier.timed[lane]))
    }

    /// Whether every lane is at or past `other` (time never runs backwards
    /// on any lane).
    #[inline(always)]
    pub fn not_before(self, other: Stamp) -> bool {
        self.canon >= other.canon && self.timed.iter().zip(other.timed).all(|(&a, b)| a >= b)
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
        self.canon += rhs;
        for t in &mut self.timed {
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
        assert_eq!(s.timed, [s.canon; LANES]);
        let a = Stamp {
            canon: 5,
            timed: [9, 5, 7],
        };
        let b = Stamp {
            canon: 7,
            timed: [8, 8, 7],
        };
        assert_eq!(
            a.max(b),
            Stamp {
                canon: 7,
                timed: [9, 8, 7]
            }
        );
        assert_eq!((a + 3).timed, [12, 8, 10]);
        assert_eq!(
            b.since(a),
            [0, 3, 0],
            "since saturates instead of underflowing"
        );
        assert_eq!(a.since(b), [1, 0, 0]);
        assert!(!a.not_before(b));
        assert!(!b.not_before(a), "one lane behind is behind");
        assert!(a.max(b).not_before(a));
        assert_eq!(
            a.advanced_to(11),
            Stamp {
                canon: 11,
                timed: [15, 11, 13]
            }
        );
    }
}
