//! The round-robin port bank `tw_noc::OutPorts` was before it kept its VCs
//! as bare free times, kept here unchanged as the reference's own
//! arbitration, so `prop_wormhole.rs` never checks the shipped VC
//! bookkeeping against itself.
//!
//! Wormhole router output ports: virtual-channel allocation, per-cycle link
//! slots, and deterministic round-robin arbitration.
//!
//! Each unidirectional mesh link is driven by one output port of an
//! [`OutPorts`] bank. A packet's head flit must first be granted a virtual
//! channel (held until the tail leaves the downstream router), then every
//! flit of the packet competes for the physical channel one cycle at a time.
//! A port hands out exactly one flit slot per cycle, so flits of concurrent
//! packets interleave on the wire — the behavior the analytic model's
//! whole-packet reservation cannot express. All allocation decisions are
//! deterministic: the VC chooser is a round-robin scan with a fixed
//! tie-break, and slot grants are a pure function of request order.
//!
//! The bank is dense: one 32-byte record per port and every port's VC
//! free-times in a single `ports × vcs` array, so a flit traversal touches
//! one cache line and a mesh allocates twice, not once per link.

use tw_types::Cycle;

/// A VC in this state is held by an in-flight packet and cannot be granted.
const VC_HELD: Cycle = Cycle::MAX;

/// The output side of one router port (one per mesh link).
#[derive(Debug, Clone, Copy, Default)]
struct Port {
    /// Earliest cycle the physical channel can carry the next flit.
    link_free: Cycle,
    /// Round-robin cursor: where the next VC scan starts (always `< vcs`).
    rr: usize,
    /// Flits forwarded through this port.
    flits: u64,
    /// Cycles flits waited for the channel or a VC beyond their ready time.
    stall_cycles: u64,
}

/// A bank of router output ports, addressed by dense port index.
#[derive(Debug, Clone)]
pub struct OutPorts {
    vcs: usize,
    ports: Vec<Port>,
    /// Cycle each virtual channel becomes grantable again ([`VC_HELD`]
    /// while a packet occupies it), port-major: `port * vcs + vc`.
    vc_free: Vec<Cycle>,
}

impl OutPorts {
    /// `ports` idle ports of `vcs` virtual channels each.
    pub fn new(ports: usize, vcs: usize) -> Self {
        assert!(vcs > 0, "a port needs at least one virtual channel");
        OutPorts {
            vcs,
            ports: vec![Port::default(); ports],
            vc_free: vec![0; ports * vcs],
        }
    }

    /// Grants a virtual channel of `port` to a head flit ready at `ready`.
    ///
    /// Scans the VCs round-robin from the cursor and picks the one that
    /// frees earliest (first in scan order on ties — the deterministic
    /// tie-break), then marks it held. Returns `(vc, grant)` where `grant`
    /// is the cycle the head may proceed. The caller must eventually
    /// [`OutPorts::release_vc`].
    pub fn alloc_vc(&mut self, port: usize, ready: Cycle) -> (usize, Cycle) {
        let n = self.vcs;
        let vc_free = &mut self.vc_free[port * n..][..n];
        let p = &mut self.ports[port];
        let mut best = p.rr;
        let mut idx = p.rr;
        for _ in 1..n {
            idx = if idx + 1 == n { 0 } else { idx + 1 };
            if vc_free[idx] < vc_free[best] {
                best = idx;
            }
        }
        let free = vc_free[best];
        debug_assert!(free != VC_HELD, "caller leaked a virtual channel");
        let grant = ready.max(free);
        p.stall_cycles = p.stall_cycles.saturating_add(grant - ready);
        vc_free[best] = VC_HELD;
        p.rr = if best + 1 == n { 0 } else { best + 1 };
        (best, grant)
    }

    /// Releases virtual channel `vc` of `port`, grantable again from `at`.
    pub fn release_vc(&mut self, port: usize, vc: usize, at: Cycle) {
        let slot = &mut self.vc_free[port * self.vcs..][..self.vcs][vc];
        debug_assert_eq!(*slot, VC_HELD, "released a VC twice");
        *slot = at;
    }

    /// Claims `port`'s next one-flit channel slot at or after `ready`,
    /// returning the cycle the flit starts crossing.
    #[inline]
    pub fn claim_slot(&mut self, port: usize, ready: Cycle) -> Cycle {
        let p = &mut self.ports[port];
        let slot = ready.max(p.link_free);
        p.link_free = slot.saturating_add(1);
        p.flits = p.flits.saturating_add(1);
        p.stall_cycles = p.stall_cycles.saturating_add(slot - ready);
        slot
    }

    /// Flits forwarded through all ports.
    pub fn flits_forwarded(&self) -> u64 {
        self.ports.iter().map(|p| p.flits).sum()
    }

    /// Cycles flits waited, at any port, for the channel or a VC beyond
    /// their ready time.
    pub fn stall_cycles(&self) -> u64 {
        self.ports.iter().map(|p| p.stall_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_serialize_one_flit_per_cycle() {
        let mut p = OutPorts::new(1, 2);
        assert_eq!(p.claim_slot(0, 10), 10);
        assert_eq!(p.claim_slot(0, 10), 11, "same-cycle requests interleave");
        assert_eq!(p.claim_slot(0, 10), 12);
        assert_eq!(p.claim_slot(0, 20), 20, "idle gaps are free");
        assert_eq!(p.flits_forwarded(), 4);
        assert_eq!(p.stall_cycles(), 1 + 2);
    }

    #[test]
    fn vc_allocation_is_round_robin_and_held_until_release() {
        // Port 1 of a three-port bank: its neighbours must stay untouched.
        let mut p = OutPorts::new(3, 2);
        let (a, ga) = p.alloc_vc(1, 5);
        assert_eq!((a, ga), (0, 5));
        let (b, gb) = p.alloc_vc(1, 5);
        assert_eq!((b, gb), (1, 5), "second packet gets the next VC");
        p.release_vc(1, 0, 30);
        let (c, gc) = p.alloc_vc(1, 6);
        assert_eq!(
            (c, gc),
            (0, 30),
            "a held port stalls the head until release"
        );
        assert!(p.stall_cycles() >= 24);
        assert_eq!(p.alloc_vc(0, 6), (0, 6), "ports do not share VCs");
        assert_eq!(p.alloc_vc(2, 6), (0, 6));
    }

    #[test]
    fn vc_scan_prefers_the_earliest_free_channel() {
        let mut p = OutPorts::new(1, 3);
        let (a, _) = p.alloc_vc(0, 0);
        let (b, _) = p.alloc_vc(0, 0);
        let (c, _) = p.alloc_vc(0, 0);
        p.release_vc(0, a, 100);
        p.release_vc(0, b, 50);
        p.release_vc(0, c, 80);
        let (chosen, grant) = p.alloc_vc(0, 0);
        assert_eq!((chosen, grant), (b, 50), "earliest-free VC wins the scan");
    }

    #[test]
    fn saturated_counters_do_not_wrap() {
        let mut p = OutPorts::new(1, 1);
        assert_eq!(p.claim_slot(0, Cycle::MAX - 1), Cycle::MAX - 1);
        assert_eq!(p.claim_slot(0, 0), Cycle::MAX, "link_free saturates");
        assert_eq!(p.claim_slot(0, 0), Cycle::MAX);
    }
}
