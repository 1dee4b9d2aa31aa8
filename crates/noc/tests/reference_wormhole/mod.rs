//! The event-driven wormhole model `WormholeMesh` shipped with until PR 16,
//! kept as the oracle `prop_wormhole.rs` checks the loop-ordered model
//! against.
//!
//! Every flit traversal is a discrete event popped in global `(time, seq)`
//! order from an [`EventQueue`]; a traversal is scheduled when its last
//! unresolved predecessor resolves. This is the GARNET-shaped way to write
//! the model and makes no use of the fact that one `send` runs a single
//! packet to completion — which is exactly why it is a useful reference for
//! a model that does. It shares only the route ([`tw_noc::xy_route`]) with
//! the shipped model: arbitration is its own round-robin port bank
//! ([`ports::OutPorts`], which grants indexed VCs and marks them held),
//! ports live one to a lazily-filled `HashMap` entry, the route is a fresh
//! `Vec`, the grid is `Vec<Vec<_>>`.

mod events;
mod ports;

use events::EventQueue;
use ports::OutPorts;
use std::collections::HashMap;
use tw_noc::{xy_route, LinkId, PacketSize};
use tw_types::config::{LINK_LATENCY, ROUTER_LATENCY, VCS_PER_PORT, VC_BUFFER_FLITS};
use tw_types::{Cycle, NocConfig, TileId};

/// One flit traversal: (hop index on the route, flit index in the packet).
type FlitHop = (usize, usize);

/// The event-driven flit-level wormhole-routed mesh.
pub struct ReferenceWormhole {
    cfg: NocConfig,
    /// One single-port bank per link that has carried a flit.
    ports: HashMap<LinkId, OutPorts>,
    events: EventQueue<FlitHop>,
}

impl ReferenceWormhole {
    pub fn new(cfg: NocConfig) -> Self {
        ReferenceWormhole {
            cfg,
            ports: HashMap::new(),
            events: EventQueue::new(),
        }
    }

    pub fn total_flits_forwarded(&self) -> u64 {
        self.ports.values().map(|p| p.flits_forwarded()).sum()
    }

    pub fn total_queueing_cycles(&self) -> u64 {
        self.ports.values().map(|p| p.stall_cycles()).sum()
    }

    /// Earliest cycle flit `f` may start crossing link `i`, given every
    /// already-resolved traversal of this packet (pipeline, serialization
    /// and credit constraints; the resource constraints are applied by the
    /// port when the event pops).
    fn ready_time(
        &self,
        cross: &[Vec<Cycle>],
        inject: Cycle,
        i: usize,
        f: usize,
        hops: usize,
    ) -> Cycle {
        let (r, l) = (ROUTER_LATENCY, LINK_LATENCY);
        let depth = VC_BUFFER_FLITS;
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

    /// Simulates every flit of the packet through the route; returns the
    /// tail's arrival cycle.
    pub fn send(&mut self, src: TileId, dst: TileId, size: PacketSize, now: Cycle) -> Cycle {
        let route = xy_route(&self.cfg, src, dst);
        if route.is_empty() {
            return now + ROUTER_LATENCY;
        }
        let hops = route.len();
        let flits = size.total_flits();
        let depth = VC_BUFFER_FLITS;
        let l = LINK_LATENCY;

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

        assert!(self.events.is_empty(), "a send starts on a drained queue");
        self.events.push(now + ROUTER_LATENCY, (0, 0));
        while let Some((_, (i, f))) = self.events.pop() {
            let ready = self.ready_time(&cross, now, i, f, hops);
            let port = self
                .ports
                .entry(route[i])
                .or_insert_with(|| OutPorts::new(1, VCS_PER_PORT));
            let start = if f == 0 {
                let (vc, grant) = port.alloc_vc(0, ready);
                vc_of[i] = vc;
                port.claim_slot(0, grant)
            } else {
                port.claim_slot(0, ready)
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
        assert!(resolved.iter().flatten().all(|&r| r), "a flit never moved");

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
                .release_vc(0, vc_of[i], freed);
        }

        cross[hops - 1][flits - 1] + l
    }
}
