//! The 2-D mesh: XY routing, flit-hop accounting, and message latency.

use crate::link::{dense_links, link_at, link_index, xy_step, LinkId, LinkState};
use crate::model::NetworkModel;
use crate::packet::PacketSize;
use tw_types::config::{LINK_LATENCY, ROUTER_LATENCY};
use tw_types::{Cycle, NocConfig, TileId};

/// Dense indices (`link::link_index`) of the links a packet from `src` to
/// `dst` crosses under XY dimension-order routing, in order. The one route
/// walker of this module: [`Routes`] is built from it and [`xy_route`] names
/// its links.
fn xy_links(cols: usize, src: TileId, dst: TileId) -> impl Iterator<Item = usize> {
    let mut cur = src.coord(cols);
    let goal = dst.coord(cols);
    std::iter::from_fn(move || {
        (cur != goal).then(|| {
            let (dir, next) = xy_step(cur, goal);
            let idx = link_index(cols, cur, dir);
            cur = next;
            idx
        })
    })
}

/// The sequence of links a packet from `src` to `dst` traverses under XY
/// dimension-order routing (X first, then Y). Empty when `src == dst`.
///
/// Every network model walks its routes through the same `link::xy_step`,
/// which is what makes flit-hop traffic — `hops × flits`, independent of timing —
/// identical across them by construction.
pub fn xy_route(cfg: &NocConfig, src: TileId, dst: TileId) -> Vec<LinkId> {
    xy_links(cfg.cols, src, dst)
        .map(|idx| link_at(cfg.cols, idx))
        .collect()
}

/// Latency of a packet on an unloaded network: one router pipeline and one
/// link traversal per hop, plus tail serialization. Both models collapse to
/// exactly this on an idle mesh.
pub fn unloaded_latency(hops: usize, size: PacketSize) -> Cycle {
    if hops == 0 {
        return ROUTER_LATENCY;
    }
    hops as Cycle * (ROUTER_LATENCY + LINK_LATENCY) + (size.total_flits() as Cycle - 1)
}

/// Every XY route of a mesh, resolved when the mesh is built: under
/// dimension-order routing a route is a function of `(src, dst)` alone, so
/// a send looks its links up instead of re-deriving coordinates per hop.
/// Both mesh models read their routes from one.
#[derive(Debug, Clone)]
pub(crate) struct Routes {
    tiles: usize,
    /// The dense link indices of every route, back to back.
    links: Vec<u16>,
    /// `(offset into links, hops)` of the route of pair `src * tiles + dst`.
    pairs: Vec<(u32, u16)>,
}

impl Routes {
    pub(crate) fn new(cfg: &NocConfig) -> Self {
        let tiles = cfg.cols * cfg.rows;
        let mut links = Vec::new();
        let mut pairs = Vec::with_capacity(tiles * tiles);
        for src in 0..tiles {
            for dst in 0..tiles {
                let offset = links.len();
                links.extend(
                    xy_links(cfg.cols, TileId(src), TileId(dst))
                        .map(|idx| u16::try_from(idx).expect("dense link index fits u16")),
                );
                // A route never crosses a link twice, so its length fits the
                // type its link indices do.
                pairs.push((
                    u32::try_from(offset).expect("route table offset fits u32"),
                    (links.len() - offset) as u16,
                ));
            }
        }
        Routes {
            tiles,
            links,
            pairs,
        }
    }

    /// The dense link indices of the route from `src` to `dst`.
    #[inline(always)]
    pub(crate) fn get(&self, src: TileId, dst: TileId) -> &[u16] {
        debug_assert!(src.0 < self.tiles && dst.0 < self.tiles);
        let (offset, hops) = self.pairs[src.0 * self.tiles + dst.0];
        &self.links[offset as usize..offset as usize + hops as usize]
    }
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
    routes: Routes,
    flit_hops: f64,
    packets: u64,
}

impl Mesh {
    /// Creates a mesh for the given network configuration.
    pub fn new(cfg: NocConfig) -> Self {
        Mesh {
            links: vec![LinkState::default(); dense_links(&cfg)],
            routes: Routes::new(&cfg),
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
        self.routes.get(src, dst).len()
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
        let route = self.routes.get(src, dst);
        let flits = size.total_flits();
        let hops = route.len();
        self.flit_hops += (hops * flits) as f64;

        if hops == 0 {
            return (now + ROUTER_LATENCY, 0);
        }

        let mut head_time = now;
        for &idx in route {
            let (start, _wait) = self.links[idx as usize].reserve(head_time, flits);
            // Head flit leaves this router `ROUTER_LATENCY` after winning the
            // link, and spends `LINK_LATENCY` on the wire.
            head_time = start + ROUTER_LATENCY + LINK_LATENCY;
        }
        // The tail flit follows the head by (flits - 1) cycles of serialization.
        (head_time + (flits as Cycle - 1), hops)
    }

    /// Total flit-hops accumulated by sends.
    pub fn total_flit_hops(&self) -> f64 {
        self.flit_hops
    }
}

impl NetworkModel for Mesh {
    fn send(&mut self, src: TileId, dst: TileId, size: PacketSize, now: Cycle) -> Cycle {
        self.send_counted(src, dst, size, now).0
    }

    fn unloaded_latency(&self, src: TileId, dst: TileId, size: PacketSize) -> Cycle {
        unloaded_latency(self.hops(src, dst), size)
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
    use crate::link::walk_coordinates;

    fn mesh() -> Mesh {
        Mesh::new(NocConfig::default())
    }

    #[test]
    fn xy_route_goes_x_then_y() {
        let m = mesh();
        // Tile 1 = (1,0), tile 14 = (2,3): expect 1 X hop then 3 Y hops.
        let route = xy_route(m.config(), TileId(1), TileId(14));
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
        let route = xy_route(m.config(), TileId(15), TileId(0));
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
        assert!(xy_route(m.config(), TileId(5), TileId(5)).is_empty());
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
        assert_eq!(t, 50 + ROUTER_LATENCY);
    }

    /// The shapes the route table is checked on: the paper's, both oblong
    /// orientations, a single column, and the 64-tile ceiling.
    const SHAPES: [(usize, usize); 5] = [(4, 4), (2, 8), (8, 2), (1, 4), (8, 8)];

    fn shaped(cols: usize, rows: usize) -> NocConfig {
        NocConfig {
            cols,
            rows,
            ..NocConfig::default()
        }
    }

    #[test]
    fn every_table_route_is_the_coordinate_walk() {
        for (cols, rows) in SHAPES {
            let m = Mesh::new(shaped(cols, rows));
            let tiles = cols * rows;
            for src in (0..tiles).map(TileId) {
                for dst in (0..tiles).map(TileId) {
                    let walked = walk_coordinates(cols, src, dst);
                    let table: Vec<usize> =
                        m.routes.get(src, dst).iter().map(|&i| i as usize).collect();
                    assert_eq!(table, walked, "{cols}x{rows} {src}->{dst}");
                    assert_eq!(m.hops(src, dst), walked.len());
                    let named: Vec<LinkId> = walked.iter().map(|&i| link_at(cols, i)).collect();
                    assert_eq!(xy_route(m.config(), src, dst), named);
                }
            }
        }
    }

    #[test]
    fn the_dense_link_index_fits_the_table_at_the_tile_ceiling() {
        use tw_types::MAX_TILES;
        // `SystemConfig::validate` refuses more tiles than this; a row of
        // them is the shape with the longest routes.
        for (cols, rows) in [(8, 8), (MAX_TILES, 1), (1, MAX_TILES)] {
            let cfg = shaped(cols, rows);
            assert!(dense_links(&cfg) - 1 <= u16::MAX as usize);
            let m = Mesh::new(cfg);
            assert_eq!(m.routes.pairs.len(), MAX_TILES * MAX_TILES);
            assert_eq!(m.hops(TileId(0), TileId(MAX_TILES - 1)), cols + rows - 2);
        }
    }

    #[test]
    fn sends_match_a_reference_that_walks_coordinates() {
        // Seeded, so a failure names the same send every run.
        let mut stream = tw_types::SplitMix64::new(0x5EED);
        let mut next = move |n: usize| (stream.next_u64() % n as u64) as usize;
        for (cols, rows) in SHAPES {
            let cfg = shaped(cols, rows);
            let (r, l) = (ROUTER_LATENCY, LINK_LATENCY);
            let tiles = cols * rows;
            let mut m = Mesh::new(cfg.clone());
            let mut links = vec![LinkState::default(); dense_links(&cfg)];
            let mut now = 0;
            for i in 0..10_000 {
                let (src, dst) = (TileId(next(tiles)), TileId(next(tiles)));
                let size = match next(cfg.max_data_words() + 1) {
                    0 => PacketSize::control_only(),
                    words => PacketSize::with_data_words(&cfg, words),
                };
                // Bursts at one cycle, so links are contended.
                now += next(4) as Cycle;
                let flits = size.total_flits();
                let route = walk_coordinates(cols, src, dst);
                let mut expect = now + r;
                if !route.is_empty() {
                    let mut head = now;
                    for &idx in &route {
                        head = links[idx].reserve(head, flits).0 + r + l;
                    }
                    expect = head + (flits as Cycle - 1);
                }
                assert_eq!(
                    m.send_counted(src, dst, size, now),
                    (expect, route.len()),
                    "{cols}x{rows} send {i}: {src}->{dst}"
                );
            }
            assert!(m.total_queueing_cycles() > 0, "{cols}x{rows} never queued");
            for (idx, (got, want)) in m.links.iter().zip(&links).enumerate() {
                assert_eq!(
                    (got.busy_until, got.flits, got.queueing_cycles),
                    (want.busy_until, want.flits, want.queueing_cycles),
                    "{cols}x{rows} link {idx}"
                );
            }
        }
    }
}
