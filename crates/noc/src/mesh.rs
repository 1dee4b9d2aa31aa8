//! The 2-D mesh: XY routing, flit-hop accounting, and message latency.

use crate::link::{dense_links, link_at, link_index, xy_step, LinkId, LinkState};
use crate::model::NetworkModel;
use crate::packet::PacketSize;
use tw_types::{Cycle, NetworkModelKind, NocConfig, TileId};

/// The sequence of links a packet from `src` to `dst` traverses under XY
/// dimension-order routing (X first, then Y). Empty when `src == dst`.
///
/// Every network model walks its routes through the same `link::xy_step`,
/// which is what makes flit-hop traffic — `hops × flits`, independent of timing —
/// identical across them by construction.
pub fn xy_route(cfg: &NocConfig, src: TileId, dst: TileId) -> Vec<LinkId> {
    let cols = cfg.cols;
    let mut cur = src.coord(cols);
    let goal = dst.coord(cols);
    let mut links = Vec::with_capacity(cur.hops_to(goal));
    while cur != goal {
        let (_, next) = xy_step(cur, goal);
        links.push(LinkId {
            from: cur.tile(cols),
            to: next.tile(cols),
        });
        cur = next;
    }
    links
}

/// Latency of a packet on an unloaded network: one router pipeline and one
/// link traversal per hop, plus tail serialization. Both models collapse to
/// exactly this on an idle mesh.
pub fn unloaded_latency(cfg: &NocConfig, hops: usize, size: PacketSize) -> Cycle {
    if hops == 0 {
        return cfg.router_latency;
    }
    hops as Cycle * (cfg.router_latency + cfg.link_latency) + (size.total_flits() as Cycle - 1)
}

/// The on-chip mesh interconnect.
///
/// Routing is XY dimension-order (X first, then Y), the standard deadlock-free
/// choice for meshes and the one Garnet uses by default. Flit-hops are
/// `total_flits × hops`, which is exact regardless of the latency model.
#[derive(Debug, Clone)]
pub struct Mesh {
    cfg: NocConfig,
    /// Per-link occupancy in a dense array indexed by `link::link_index`
    /// (`tile * 4 + direction`).
    links: Vec<LinkState>,
    flit_hops: f64,
    packets: u64,
}

impl Mesh {
    /// Creates a mesh for the given network configuration.
    pub fn new(cfg: NocConfig) -> Self {
        Mesh {
            links: vec![LinkState::default(); dense_links(&cfg)],
            cfg,
            flit_hops: 0.0,
            packets: 0,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Number of link traversals between two tiles under XY routing
    /// (the Manhattan distance).
    pub fn hops(&self, src: TileId, dst: TileId) -> usize {
        src.coord(self.cfg.cols).hops_to(dst.coord(self.cfg.cols))
    }

    /// The sequence of links a packet from `src` to `dst` traverses
    /// (X dimension first, then Y). Empty when `src == dst`.
    pub fn route(&self, src: TileId, dst: TileId) -> Vec<LinkId> {
        xy_route(&self.cfg, src, dst)
    }

    /// Flit-hops generated by sending a packet of `size` from `src` to `dst`,
    /// without sending it (pure accounting helper).
    pub fn flit_hops(&self, src: TileId, dst: TileId, size: PacketSize) -> usize {
        self.hops(src, dst) * size.total_flits()
    }

    /// Sends a packet, updating flit-hop totals and per-link occupancy, and
    /// returns the cycle at which the tail flit arrives at `dst` together
    /// with the hop count of the route ([`NetworkModel::send`] is this minus
    /// the count).
    ///
    /// Local delivery (`src == dst`) models the cache controller's internal
    /// path: one router traversal, no link occupancy, no flit-hops.
    pub fn send_counted(
        &mut self,
        src: TileId,
        dst: TileId,
        size: PacketSize,
        now: Cycle,
    ) -> (Cycle, usize) {
        self.packets += 1;
        // Walk the XY route in place — same hop sequence as `xy_route`,
        // without materializing the link list (this runs once per message).
        let cols = self.cfg.cols;
        let mut cur = src.coord(cols);
        let goal = dst.coord(cols);
        let flits = size.total_flits();
        let hops = cur.hops_to(goal);
        self.flit_hops += (hops * flits) as f64;

        if cur == goal {
            return (now + self.cfg.router_latency, 0);
        }

        let mut head_time = now;
        while cur != goal {
            let (dir, next) = xy_step(cur, goal);
            let idx = link_index(cols, cur, dir);
            let (start, _wait) = self.links[idx].reserve(head_time, flits);
            // Head flit leaves this router `router_latency` after winning the
            // link, and spends `link_latency` on the wire.
            head_time = start + self.cfg.router_latency + self.cfg.link_latency;
            cur = next;
        }
        // The tail flit follows the head by (flits - 1) cycles of serialization.
        (head_time + (flits as Cycle - 1), hops)
    }

    /// Total flit-hops accumulated by sends.
    pub fn total_flit_hops(&self) -> f64 {
        self.flit_hops
    }

    /// Per-link occupancy states for links that carried traffic (for
    /// utilization reporting), in tile/direction order.
    pub fn link_states(&self) -> impl Iterator<Item = (LinkId, &LinkState)> + '_ {
        let cols = self.cfg.cols;
        self.links
            .iter()
            .enumerate()
            .filter(|(_, s)| s.flits > 0)
            .map(move |(i, s)| (link_at(cols, i), s))
    }
}

impl NetworkModel for Mesh {
    fn kind(&self) -> NetworkModelKind {
        NetworkModelKind::Analytic
    }

    fn send(&mut self, src: TileId, dst: TileId, size: PacketSize, now: Cycle) -> Cycle {
        self.send_counted(src, dst, size, now).0
    }

    fn unloaded_latency(&self, src: TileId, dst: TileId, size: PacketSize) -> Cycle {
        unloaded_latency(&self.cfg, self.hops(src, dst), size)
    }

    /// Aggregate queueing delay suffered at all links.
    fn total_queueing_cycles(&self) -> u64 {
        self.links.iter().map(|l| l.queueing_cycles).sum()
    }

    fn packets(&self) -> u64 {
        self.packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(NocConfig::default())
    }

    #[test]
    fn xy_route_goes_x_then_y() {
        let m = mesh();
        // Tile 1 = (1,0), tile 14 = (2,3): expect 1 X hop then 3 Y hops.
        let route = m.route(TileId(1), TileId(14));
        assert_eq!(route.len(), 4);
        assert_eq!(
            route[0],
            LinkId {
                from: TileId(1),
                to: TileId(2)
            }
        );
        assert_eq!(
            route[1],
            LinkId {
                from: TileId(2),
                to: TileId(6)
            }
        );
        assert_eq!(
            route[3],
            LinkId {
                from: TileId(10),
                to: TileId(14)
            }
        );
    }

    #[test]
    fn route_westward_and_northward() {
        let m = mesh();
        let route = m.route(TileId(15), TileId(0));
        assert_eq!(route.len(), 6);
        assert_eq!(
            route[0],
            LinkId {
                from: TileId(15),
                to: TileId(14)
            }
        );
        assert_eq!(
            route[5],
            LinkId {
                from: TileId(4),
                to: TileId(0)
            }
        );
    }

    #[test]
    fn self_route_is_empty() {
        let m = mesh();
        assert!(m.route(TileId(5), TileId(5)).is_empty());
        assert_eq!(m.hops(TileId(5), TileId(5)), 0);
    }

    #[test]
    fn flit_hop_accounting_is_hops_times_flits() {
        let mut m = mesh();
        let size = PacketSize::with_data_words(m.config(), 16); // 5 flits
        assert_eq!(m.flit_hops(TileId(0), TileId(15), size), 30);
        m.send(TileId(0), TileId(15), size, 0);
        assert_eq!(m.total_flit_hops(), 30.0);
        m.send(TileId(0), TileId(0), size, 0);
        assert_eq!(
            m.total_flit_hops(),
            30.0,
            "local delivery adds no flit-hops"
        );
        assert_eq!(m.packets(), 2);
    }

    #[test]
    fn unloaded_latency_matches_send_on_idle_mesh() {
        let mut m = mesh();
        let size = PacketSize::with_data_words(m.config(), 8); // 3 flits
        let src = TileId(0);
        let dst = TileId(15);
        let arrival = m.send(src, dst, size, 100);
        assert_eq!(arrival, 100 + m.unloaded_latency(src, dst, size));
        // 6 hops * (1 + 3) + 2 = 26 cycles.
        assert_eq!(m.unloaded_latency(src, dst, size), 26);
    }

    #[test]
    fn contention_delays_second_packet_on_shared_link() {
        let mut m = mesh();
        let size = PacketSize::with_data_words(m.config(), 16); // 5 flits
        let a = m.send(TileId(0), TileId(1), size, 0);
        let b = m.send(TileId(0), TileId(1), size, 0);
        assert!(b > a, "second packet must queue behind the first");
        assert!(m.total_queueing_cycles() > 0);
    }

    #[test]
    fn local_delivery_takes_router_latency() {
        let mut m = mesh();
        let t = m.send(TileId(3), TileId(3), PacketSize::control_only(), 50);
        assert_eq!(t, 50 + m.config().router_latency);
    }

    #[test]
    fn link_states_expose_utilization() {
        let mut m = mesh();
        for _ in 0..10 {
            m.send(TileId(0), TileId(1), PacketSize::control_only(), 0);
        }
        let (_, state) = m.link_states().next().expect("one link used");
        assert_eq!(state.flits, 10);
    }
}
