//! Flit-level wormhole simulation.
//!
//! [`WormholeMesh`] pushes every flit of a packet through the XY route one
//! link at a time. A traversal `(i, f)` — flit `f` starting to cross link
//! `i` of the route — is subject to four constraints:
//!
//! 1. **pipeline** — a flit reaches router `i` one link latency after it
//!    crossed link `i-1`, then spends the router pipeline latency;
//! 2. **serialization** — a link carries one flit per cycle, so flit `f`
//!    follows flit `f-1` of the same packet by at least a cycle;
//! 3. **credits** — a flit may only leave router `i` once the downstream
//!    VC buffer has a slot, i.e. once flit `f - depth` has left router
//!    `i+1` (wormhole backpressure propagating upstream);
//! 4. **arbitration** — the head flit must win a virtual channel on every
//!    link (held until the tail drains downstream; the earliest-free one),
//!    and every flit must win a one-cycle channel slot against all other
//!    traffic on that link ([`OutPorts`]).
//!
//! One [`send`](NetworkModel::send) runs one packet to completion, so no
//! two packets are ever in flight together and there is nothing for a
//! global event queue to order. Constraints 1–3 make `(i, f)` depend on
//! `(i-1, f)`, `(i, f-1)` and `(i+1, f-depth)` only, and an XY route never
//! crosses a link twice, so each port sees its head's VC grant and then its
//! slot claims in flit order under *any* order that respects those
//! dependencies — the results cannot depend on which one is used
//! (`DESIGN.md` §11; `tests/prop_wormhole.rs` checks it against the
//! event-driven formulation send by send).
//!
//! A send resolves the head row first: a VC grant and a slot at every hop,
//! `s_i` on link `i`. When no hop's head slot follows the previous one's by
//! more than `depth + LINK_LATENCY - 1` cycles (or the packet fits one
//! buffer), constraints 1–3 are slack for every body flit, which crosses
//! link `i` at exactly `s_i + f`: each port's body slots are claimed as one
//! train and the send costs O(hops). Otherwise the rest of the `flits ×
//! hops` grid is resolved by a plain double loop, flit-outer and hop-inner,
//! after the same head row.
//!
//! On an idle mesh the four constraints collapse to exactly the analytic
//! unloaded latency (`hops × (router + link) + flits − 1`); under load, VC
//! exhaustion and credit backpressure — a stalled tail flit holds its
//! upstream link long after the analytic reservation window has closed —
//! produce the congestion the analytic per-link estimate cannot see. All
//! state updates are deterministic, so two runs over the same send sequence
//! are byte-identical.

use crate::link::dense_links;
use crate::mesh::{unloaded_latency, Routes};
use crate::model::NetworkModel;
use crate::packet::PacketSize;
use crate::router::OutPorts;
use tw_types::config::{LINK_LATENCY, ROUTER_LATENCY, VCS_PER_PORT, VC_BUFFER_FLITS};
use tw_types::{Cycle, NocConfig, TileId};

/// The flit-level wormhole-routed mesh.
#[derive(Debug, Clone)]
pub struct WormholeMesh {
    cfg: NocConfig,
    /// One output port per link, indexed by `link::link_index` exactly as
    /// the analytic mesh's link array is.
    ports: OutPorts,
    /// Every XY route, as the analytic mesh resolves them.
    routes: Routes,
    packets: u64,
    /// `cross[f * hops + i]`: cycle flit `f` starts crossing link `i`.
    /// Grow-only: its length is the largest `flits × hops` grid a send has
    /// needed so far, and a send writes every cell it reads before reading
    /// it. A send whose body flits run as a train writes the head row only.
    cross: Vec<Cycle>,
}

impl WormholeMesh {
    /// Creates an idle wormhole mesh for the given network configuration.
    pub fn new(cfg: NocConfig) -> Self {
        WormholeMesh {
            ports: OutPorts::new(dense_links(&cfg), VCS_PER_PORT),
            routes: Routes::new(&cfg),
            cfg,
            packets: 0,
            cross: Vec::new(),
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Total flit traversals forwarded by all ports.
    pub fn total_flits_forwarded(&self) -> u64 {
        self.ports.flits_forwarded()
    }
}

impl NetworkModel for WormholeMesh {
    /// Simulates every flit of the packet through the route.
    ///
    /// Local delivery (`src == dst`) models the cache controller's internal
    /// path: one router traversal, no link occupancy.
    fn send(&mut self, src: TileId, dst: TileId, size: PacketSize, now: Cycle) -> Cycle {
        self.packets += 1;
        let Self {
            ports,
            routes,
            cross,
            ..
        } = self;
        let (r, l, depth) = (ROUTER_LATENCY, LINK_LATENCY, VC_BUFFER_FLITS);

        let route = routes.get(src, dst);
        let hops = route.len();
        if hops == 0 {
            return now + r;
        }
        let flits = size.total_flits();
        if cross.len() < flits * hops {
            cross.resize(flits * hops, 0);
        }

        // The head row: a VC, then a slot, at every hop.
        let mut ready = now + r;
        for (s, &port) in cross.iter_mut().zip(route) {
            let port = usize::from(port);
            let grant = ports.alloc_vc(port, ready);
            *s = ports.claim_slot(port, grant);
            ready = *s + l + r;
        }
        let head = &cross[..hops];

        // Body flits run as a train when no credit can bind: the packet
        // fits one buffer, or every head slot follows the previous hop's
        // by less than `depth + l` (DESIGN.md §11 derives this). Flit `f`
        // then crosses link `i` at `head[i] + f`, unstalled.
        let train = flits <= depth || head.windows(2).all(|w| w[1] - w[0] < depth as Cycle + l);
        // The row that holds the tail's crossings, and how far the tail
        // trails it.
        let (tail_row, lag) = if train {
            for (&s, &port) in head.iter().zip(route) {
                ports.claim_train(usize::from(port), s + 1, flits - 1);
            }
            (0, flits as Cycle - 1)
        } else {
            for f in 1..flits {
                let row = f * hops;
                // Start of this flit's crossing of the previous link.
                let mut upstream = 0;
                for (i, &port) in route.iter().enumerate() {
                    // Earliest start under constraints 1–3; every traversal
                    // read here was resolved earlier in this loop order.
                    let mut ready = if i == 0 { now + r } else { upstream + l + r };
                    ready = ready.max(cross[row - hops + i] + 1);
                    if f >= depth && i + 1 < hops {
                        // The downstream buffer slot frees when flit
                        // f-depth leaves router i+1; this flit lands there
                        // one link latency after it starts crossing, hence
                        // the rebase by `l`.
                        ready =
                            ready.max((cross[(f - depth) * hops + i + 1] + 1).saturating_sub(l));
                    }
                    upstream = ports.claim_slot(usize::from(port), ready);
                    cross[row + i] = upstream;
                }
            }
            (flits - 1, 0)
        };

        // A VC is held from head grant until the tail drains out of the
        // downstream input buffer (crosses the next link, or ejects at dst).
        // The tail crossed link `i` at `tail[i] + lag`.
        let tail = &cross[tail_row * hops..][..hops];
        let arrival = tail[hops - 1] + lag + l;
        for (i, &port) in route.iter().enumerate() {
            let freed = if i + 1 < hops {
                tail[i + 1] + lag + 1
            } else {
                arrival
            };
            ports.release_vc(usize::from(port), freed);
        }

        debug_assert!(arrival >= now + unloaded_latency(hops, size));
        arrival
    }

    fn unloaded_latency(&self, src: TileId, dst: TileId, size: PacketSize) -> Cycle {
        let cols = self.cfg.cols;
        unloaded_latency(src.coord(cols).hops_to(dst.coord(cols)), size)
    }

    /// Total cycles flits spent stalled on arbitration, channel slots or
    /// credits, beyond their pipeline-ready times.
    fn total_queueing_cycles(&self) -> u64 {
        self.ports.stall_cycles()
    }

    fn packets(&self) -> u64 {
        self.packets
    }

    /// The largest `flits × hops` grid any send has needed: the most
    /// traversals one packet ever had outstanding, and the size the scratch
    /// stops growing at.
    fn queue_high_water(&self) -> usize {
        self.cross.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::xy_route;

    fn mesh() -> WormholeMesh {
        WormholeMesh::new(NocConfig::default())
    }

    fn full_line() -> PacketSize {
        PacketSize::with_data_words(&NocConfig::default(), 16) // 5 flits
    }

    #[test]
    fn idle_sends_match_the_analytic_unloaded_latency() {
        let mut m = mesh();
        for (src, dst, words) in [(0, 15, 16), (3, 12, 1), (5, 6, 0), (9, 9, 4)] {
            let size = if words == 0 {
                PacketSize::control_only()
            } else {
                PacketSize::with_data_words(m.config(), words)
            };
            let cfg = m.config().clone();
            let hops = xy_route(&cfg, TileId(src), TileId(dst)).len();
            // A fresh mesh per probe: the point is the idle latency.
            let mut fresh = WormholeMesh::new(cfg.clone());
            let arrival = fresh.send(TileId(src), TileId(dst), size, 100);
            assert_eq!(
                arrival,
                100 + unloaded_latency(hops, size),
                "{src}->{dst} x{words} words"
            );
            m.send(TileId(src), TileId(dst), size, 100);
        }
        assert_eq!(m.packets(), 4);
    }

    #[test]
    fn contended_link_delays_the_second_packet() {
        let mut m = mesh();
        let idle = {
            let mut fresh = mesh();
            fresh.send(TileId(0), TileId(1), full_line(), 0)
        };
        let a = m.send(TileId(0), TileId(1), full_line(), 0);
        let b = m.send(TileId(0), TileId(1), full_line(), 0);
        assert_eq!(a, idle, "the first packet sees an idle wire");
        assert!(b > a, "the second packet queues behind the first's slots");
        assert!(m.total_queueing_cycles() > 0);
        assert_eq!(m.total_flits_forwarded(), 10);
    }

    #[test]
    fn vc_exhaustion_serializes_heads() {
        // Packets that fit one VC buffer cross 0->1 unstalled, then hold
        // their VC there until their tails cross the congested 1->2. A
        // one-hop probe on 0->1 behind `holders` of them finds a free VC
        // while one is left, and waits for the first release once all
        // `VCS_PER_PORT` are held.
        let probe = |holders: usize| {
            let mut m = mesh();
            for _ in 0..10 {
                m.send(TileId(1), TileId(2), full_line(), 0);
            }
            let fits = PacketSize::with_data_words(m.config(), 12);
            assert_eq!(fits.total_flits(), VC_BUFFER_FLITS);
            for _ in 0..holders {
                m.send(TileId(0), TileId(2), fits, 0);
            }
            m.send(TileId(0), TileId(1), PacketSize::control_only(), 0)
        };
        let (free, exhausted) = (probe(VCS_PER_PORT - 1), probe(VCS_PER_PORT));
        assert!(
            exhausted > free + VC_BUFFER_FLITS as Cycle,
            "the fifth head must wait for a VC, not only for slots ({exhausted} vs {free})"
        );
    }

    #[test]
    fn credit_backpressure_holds_upstream_links_beyond_the_analytic_window() {
        // Congest link 1->2, then route a packet 0->2 through it: its tail
        // flit stalls on credits and claims its 0->1 slot only once the
        // downstream buffer drains, keeping the upstream wire formally busy
        // long after the analytic model's reservation window closed. A
        // probe packet on 0->1 therefore arrives strictly later under the
        // wormhole model — congestion the analytic estimate cannot see.
        let mut wh = mesh();
        let mut an = crate::Mesh::new(NocConfig::default());
        for _ in 0..3 {
            wh.send(TileId(1), TileId(2), full_line(), 0);
            an.send(TileId(1), TileId(2), full_line(), 0);
        }
        let through_wh = wh.send(TileId(0), TileId(2), full_line(), 0);
        let through_an = an.send(TileId(0), TileId(2), full_line(), 0);
        assert_eq!(
            through_wh, through_an,
            "the congested path itself agrees across models here"
        );
        let probe_wh = wh.send(TileId(0), TileId(1), full_line(), 6);
        let probe_an = an.send(TileId(0), TileId(1), full_line(), 6);
        assert!(
            probe_wh > probe_an,
            "backpressured tail must hold the 0->1 link ({probe_wh} vs {probe_an})"
        );
    }

    #[test]
    fn identical_send_sequences_are_byte_identical() {
        let run = || {
            let mut m = mesh();
            let mut arrivals = Vec::new();
            for i in 0..200u64 {
                let src = TileId((i % 16) as usize);
                let dst = TileId(((i * 7 + 3) % 16) as usize);
                let words = (i % 17) as usize;
                let size = if words == 0 {
                    PacketSize::control_only()
                } else {
                    PacketSize::with_data_words(m.config(), words)
                };
                arrivals.push(m.send(src, dst, size, i / 3));
            }
            (
                arrivals,
                m.total_queueing_cycles(),
                m.total_flits_forwarded(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scratch_stops_growing_at_the_largest_grid() {
        let mut m = mesh();
        assert_eq!(m.queue_high_water(), 0);
        m.send(TileId(0), TileId(1), PacketSize::control_only(), 0);
        assert_eq!(m.queue_high_water(), 1);
        // Corner to corner with a full line: 6 hops x 5 flits.
        m.send(TileId(0), TileId(15), full_line(), 0);
        assert_eq!(m.queue_high_water(), 30);
        for t in 0..16 {
            m.send(TileId(t), TileId(15 - t), full_line(), 0);
        }
        assert_eq!(m.queue_high_water(), 30, "no send needs more than that");
    }

    #[test]
    fn local_delivery_takes_router_latency() {
        let mut m = mesh();
        assert_eq!(
            m.send(TileId(7), TileId(7), PacketSize::control_only(), 42),
            42 + ROUTER_LATENCY
        );
        assert_eq!(m.total_flits_forwarded(), 0);
    }
}
