//! Mesh links and their occupancy state.

use std::fmt;
use tw_types::{Cycle, MeshCoord, NocConfig, TileId};

/// A unidirectional link between two adjacent routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId {
    /// Upstream router tile.
    pub from: TileId,
    /// Downstream router tile.
    pub to: TileId,
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// Direction encoding of the dense per-link arrays both mesh models keep:
/// a mesh has at most four outgoing links per tile, so link state lives at
/// `tile * 4 + direction` instead of behind a hash map.
pub(crate) const EAST: usize = 0;
pub(crate) const WEST: usize = 1;
pub(crate) const SOUTH: usize = 2;
pub(crate) const NORTH: usize = 3;

/// Slots in a dense per-link array over the mesh of `cfg`.
pub(crate) fn dense_links(cfg: &NocConfig) -> usize {
    cfg.cols * cfg.rows * 4
}

/// Dense index of the link leaving `from` in direction `dir`.
#[inline(always)]
pub(crate) fn link_index(cols: usize, from: MeshCoord, dir: usize) -> usize {
    (from.y * cols + from.x) * 4 + dir
}

/// The link the dense index `idx` names — the inverse of [`link_index`].
pub(crate) fn link_at(cols: usize, idx: usize) -> LinkId {
    let from = TileId(idx / 4);
    let MeshCoord { x, y } = from.coord(cols);
    let to = match idx % 4 {
        EAST => MeshCoord { x: x + 1, y },
        WEST => MeshCoord { x: x - 1, y },
        SOUTH => MeshCoord { x, y: y + 1 },
        _ => MeshCoord { x, y: y - 1 },
    };
    LinkId {
        from,
        to: to.tile(cols),
    }
}

/// One step of XY dimension-order routing from `cur` towards `goal` (X
/// first, then Y): the direction taken and the router reached. Both mesh
/// models walk their routes through this, so they agree hop for hop.
/// `cur != goal`.
#[inline(always)]
pub(crate) fn xy_step(cur: MeshCoord, goal: MeshCoord) -> (usize, MeshCoord) {
    let MeshCoord { x, y } = cur;
    if x != goal.x {
        if goal.x > x {
            (EAST, MeshCoord { x: x + 1, y })
        } else {
            (WEST, MeshCoord { x: x - 1, y })
        }
    } else if goal.y > y {
        (SOUTH, MeshCoord { x, y: y + 1 })
    } else {
        (NORTH, MeshCoord { x, y: y - 1 })
    }
}

/// The dense link indices of the XY route from `src` to `dst`, from a fresh
/// coordinate walk: what the mesh's route table is checked against.
#[cfg(test)]
pub(crate) fn walk_coordinates(cols: usize, src: TileId, dst: TileId) -> Vec<usize> {
    let (mut cur, goal) = (src.coord(cols), dst.coord(cols));
    let mut route = Vec::new();
    while cur != goal {
        let (dir, next) = xy_step(cur, goal);
        route.push(link_index(cols, cur, dir));
        cur = next;
    }
    route
}

/// Occupancy bookkeeping for one link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkState {
    /// Cycle until which the link is busy serializing earlier packets.
    pub busy_until: Cycle,
    /// Total flits that have crossed the link.
    pub flits: u64,
    /// Total cycles of queueing delay packets experienced at this link.
    pub queueing_cycles: u64,
}

impl LinkState {
    /// Reserves the link for `flits` flits arriving at `arrival`.
    ///
    /// Returns `(start, queueing_delay)`: the cycle the head flit actually
    /// starts crossing and how long it waited for the link. All accumulators
    /// saturate, so a link driven to the end of the cycle space (or a run
    /// long enough to exhaust the u64 counters) pins at the maximum instead
    /// of wrapping into bogus small values.
    pub fn reserve(&mut self, arrival: Cycle, flits: usize) -> (Cycle, Cycle) {
        let start = arrival.max(self.busy_until);
        let wait = start - arrival;
        self.busy_until = start.saturating_add(flits as Cycle);
        self.flits = self.flits.saturating_add(flits as u64);
        self.queueing_cycles = self.queueing_cycles.saturating_add(wait);
        (start, wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_serializes_back_to_back_packets() {
        let mut l = LinkState::default();
        let (s1, w1) = l.reserve(100, 5);
        assert_eq!((s1, w1), (100, 0));
        // Second packet arrives while the first still occupies the link.
        let (s2, w2) = l.reserve(102, 2);
        assert_eq!(s2, 105);
        assert_eq!(w2, 3);
        assert_eq!(l.flits, 7);
        assert_eq!(l.queueing_cycles, 3);
    }

    #[test]
    fn idle_link_has_no_wait() {
        let mut l = LinkState::default();
        l.reserve(10, 1);
        let (s, w) = l.reserve(1000, 4);
        assert_eq!((s, w), (1000, 0));
    }

    #[test]
    fn dense_index_round_trips_along_an_xy_walk() {
        let cols = 4;
        let (mut cur, goal) = (TileId(1).coord(cols), TileId(14).coord(cols));
        let mut dirs = Vec::new();
        while cur != goal {
            let (dir, next) = xy_step(cur, goal);
            let link = link_at(cols, link_index(cols, cur, dir));
            assert_eq!((link.from, link.to), (cur.tile(cols), next.tile(cols)));
            dirs.push(dir);
            cur = next;
        }
        assert_eq!(dirs, [EAST, SOUTH, SOUTH, SOUTH], "X first, then Y");
    }

    #[test]
    fn link_id_display() {
        let id = LinkId {
            from: TileId(1),
            to: TileId(2),
        };
        assert_eq!(id.to_string(), "T1->T2");
    }
}
