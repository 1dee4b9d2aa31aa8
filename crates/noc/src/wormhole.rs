//! Event-driven flit-level wormhole simulation.
//!
//! [`WormholeMesh`] pushes every flit of a packet through the XY route one
//! link at a time. Each flit traversal is a discrete event processed in
//! global `(time, seq)` order through the [`EventQueue`], subject to four
//! constraints:
//!
//! 1. **pipeline** — a flit reaches router `i` one link latency after it
//!    crossed link `i-1`, then spends the router pipeline latency;
//! 2. **serialization** — a link carries one flit per cycle, so flit `f`
//!    follows flit `f-1` of the same packet by at least a cycle;
//! 3. **credits** — a flit may only leave router `i` once the downstream
//!    VC buffer has a slot, i.e. once flit `f - depth` has left router
//!    `i+1` (wormhole backpressure propagating upstream);
//! 4. **arbitration** — the head flit must win a virtual channel on every
//!    link (held until the tail drains downstream), and every flit must win
//!    a one-cycle channel slot against all other traffic on that link
//!    ([`OutPort`], deterministic round-robin).
//!
//! On an idle mesh the four constraints collapse to exactly the analytic
//! unloaded latency (`hops × (router + link) + flits − 1`); under load, VC
//! exhaustion and credit backpressure — a stalled tail flit holds its
//! upstream link long after the analytic reservation window has closed —
//! produce the congestion the analytic per-link estimate cannot see. All
//! state updates are deterministic, so two runs over the same send sequence
//! are byte-identical.

use crate::events::EventQueue;
use crate::link::LinkId;
use crate::mesh::{unloaded_latency, xy_route};
use crate::model::NetworkModel;
use crate::packet::PacketSize;
use crate::router::OutPort;
use std::collections::HashMap;
use tw_types::{Cycle, NetworkModelKind, NocConfig, TileId};

/// One flit traversal: (hop index on the route, flit index in the packet).
type FlitHop = (usize, usize);

/// The flit-level wormhole-routed mesh.
#[derive(Debug, Clone)]
pub struct WormholeMesh {
    cfg: NocConfig,
    ports: HashMap<LinkId, OutPort>,
    events: EventQueue<FlitHop>,
    packets: u64,
}

impl WormholeMesh {
    /// Creates an idle wormhole mesh for the given network configuration.
    pub fn new(cfg: NocConfig) -> Self {
        WormholeMesh {
            cfg,
            ports: HashMap::new(),
            events: EventQueue::new(),
            packets: 0,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Total flit traversals forwarded by all ports.
    pub fn total_flits_forwarded(&self) -> u64 {
        self.ports.values().map(|p| p.flits).sum()
    }

    /// Earliest cycle flit `f` may start crossing link `i`, given every
    /// already-resolved traversal of this packet (constraints 1–3; the
    /// resource constraints are applied by the port when the event pops).
    fn ready_time(
        &self,
        cross: &[Vec<Cycle>],
        inject: Cycle,
        i: usize,
        f: usize,
        hops: usize,
    ) -> Cycle {
        let (r, l) = (self.cfg.router_latency, self.cfg.link_latency);
        let depth = self.cfg.vc_buffer_flits;
        let mut ready = if i == 0 {
            inject + r
        } else {
            cross[i - 1][f] + l + r
        };
        if f > 0 {
            ready = ready.max(cross[i][f - 1] + 1);
        }
        if f >= depth && i + 1 < hops {
            // The downstream buffer slot frees when flit f-depth leaves
            // router i+1; this flit lands there one link latency after it
            // starts crossing, hence the rebase by `l`.
            ready = ready.max((cross[i + 1][f - depth] + 1).saturating_sub(l));
        }
        ready
    }
}

impl NetworkModel for WormholeMesh {
    fn kind(&self) -> NetworkModelKind {
        NetworkModelKind::FlitLevel
    }

    /// Simulates every flit of the packet through the route.
    ///
    /// Local delivery (`src == dst`) models the cache controller's internal
    /// path: one router traversal, no link occupancy.
    fn send(&mut self, src: TileId, dst: TileId, size: PacketSize, now: Cycle) -> Cycle {
        self.packets += 1;
        let route = xy_route(&self.cfg, src, dst);
        if route.is_empty() {
            return now + self.cfg.router_latency;
        }
        let hops = route.len();
        let flits = size.total_flits();
        let depth = self.cfg.vc_buffer_flits;
        let l = self.cfg.link_latency;

        // cross[i][f]: cycle flit f starts crossing link i, once resolved.
        let mut cross = vec![vec![0 as Cycle; flits]; hops];
        let mut resolved = vec![vec![false; flits]; hops];
        let mut vc_of = vec![0usize; hops];
        // Unresolved-predecessor counts per traversal; an event is scheduled
        // exactly when its count reaches zero, so every pop has its ready
        // time fully determined.
        let mut pending: Vec<Vec<usize>> = (0..hops)
            .map(|i| {
                (0..flits)
                    .map(|f| {
                        usize::from(i > 0)
                            + usize::from(f > 0)
                            + usize::from(f >= depth && i + 1 < hops)
                    })
                    .collect()
            })
            .collect();

        self.events.push(now + self.cfg.router_latency, (0, 0));
        while let Some((_, (i, f))) = self.events.pop() {
            let ready = self.ready_time(&cross, now, i, f, hops);
            let port = self
                .ports
                .entry(route[i])
                .or_insert_with(|| OutPort::new(self.cfg.vcs_per_port));
            let start = if f == 0 {
                let (vc, grant) = port.alloc_vc(ready);
                vc_of[i] = vc;
                port.claim_slot(grant)
            } else {
                port.claim_slot(ready)
            };
            cross[i][f] = start;
            resolved[i][f] = true;

            // Wake the traversals this one was the last unresolved
            // predecessor of.
            let dependents = [
                (i + 1 < hops).then(|| (i + 1, f)),
                (f + 1 < flits).then(|| (i, f + 1)),
                (i >= 1 && f + depth < flits).then(|| (i - 1, f + depth)),
            ];
            for (di, df) in dependents.into_iter().flatten() {
                pending[di][df] -= 1;
                if pending[di][df] == 0 {
                    self.events
                        .push(self.ready_time(&cross, now, di, df, hops), (di, df));
                }
            }
        }
        debug_assert!(resolved.iter().flatten().all(|&r| r), "a flit never moved");

        // A VC is held from head grant until the tail drains out of the
        // downstream input buffer (crosses the next link, or ejects at dst).
        for i in 0..hops {
            let freed = if i + 1 < hops {
                cross[i + 1][flits - 1] + 1
            } else {
                cross[hops - 1][flits - 1] + l
            };
            self.ports
                .get_mut(&route[i])
                .expect("every route link has a port by now")
                .release_vc(vc_of[i], freed);
        }

        let arrival = cross[hops - 1][flits - 1] + l;
        debug_assert!(arrival >= now + unloaded_latency(&self.cfg, hops, size));
        arrival
    }

    fn unloaded_latency(&self, src: TileId, dst: TileId, size: PacketSize) -> Cycle {
        unloaded_latency(&self.cfg, xy_route(&self.cfg, src, dst).len(), size)
    }

    /// Total cycles flits spent stalled on arbitration, channel slots or
    /// credits, beyond their pipeline-ready times.
    fn total_queueing_cycles(&self) -> u64 {
        self.ports.values().map(|p| p.stall_cycles).sum()
    }

    fn packets(&self) -> u64 {
        self.packets
    }

    /// Peak depth of the flit-event queue across the run — how much
    /// in-flight work the event loop ever had pending at once.
    fn queue_high_water(&self) -> usize {
        self.events.high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                100 + unloaded_latency(&cfg, hops, size),
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
        let cfg = NocConfig {
            vcs_per_port: 1,
            ..NocConfig::default()
        };
        let mut single = WormholeMesh::new(cfg);
        let mut multi = mesh();
        let mut last_single = 0;
        let mut last_multi = 0;
        for _ in 0..4 {
            last_single = single.send(TileId(0), TileId(3), full_line(), 0);
            last_multi = multi.send(TileId(0), TileId(3), full_line(), 0);
        }
        assert!(
            last_single > last_multi,
            "one VC per port must backpressure harder ({last_single} vs {last_multi})"
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
    fn local_delivery_takes_router_latency() {
        let mut m = mesh();
        assert_eq!(
            m.send(TileId(7), TileId(7), PacketSize::control_only(), 42),
            42 + m.config().router_latency
        );
        assert_eq!(m.total_flits_forwarded(), 0);
    }
}
