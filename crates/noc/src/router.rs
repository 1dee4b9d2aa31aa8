//! Wormhole router output ports: virtual-channel grants and per-cycle link
//! slots.
//!
//! Each unidirectional mesh link is driven by one output port of an
//! [`OutPorts`] bank. A packet's head flit must first be granted a virtual
//! channel (held until the tail leaves the downstream router), then every
//! flit of the packet competes for the physical channel one cycle at a time.
//! A port hands out exactly one flit slot per cycle, so a packet queues
//! behind the slots earlier packets claimed — the behavior the analytic
//! model's whole-packet reservation cannot express.
//!
//! A port keeps its VCs as the cycles they become grantable again, sorted
//! ascending, and nothing else: the flit-level mesh releases every VC a
//! send took before the send returns, and a route never crosses a port
//! twice, so a port has at most one grant outstanding and no VC is held
//! between sends. Which VC a head gets then decides nothing; a grant waits
//! for the earliest free time, and its release replaces that time
//! (`DESIGN.md` §11). All decisions are a pure function of request order.
//!
//! The bank is dense: one 24-byte record per port and every port's VC
//! free-times in a single `ports × vcs` array, so a mesh allocates twice,
//! not once per link.

use tw_types::Cycle;

/// The output side of one router port (one per mesh link).
#[derive(Debug, Clone, Copy, Default)]
struct Port {
    /// Earliest cycle the physical channel can carry the next flit.
    link_free: Cycle,
    /// Flits forwarded through this port.
    flits: u64,
    /// Cycles flits waited for the channel or a VC beyond their ready time.
    stall_cycles: u64,
}

/// A bank of router output ports, addressed by dense port index.
///
/// A port has at most one VC grant outstanding: every
/// [`alloc_vc`](OutPorts::alloc_vc) is followed by its
/// [`release_vc`](OutPorts::release_vc) before the port's next grant.
#[derive(Debug, Clone)]
pub struct OutPorts {
    vcs: usize,
    ports: Vec<Port>,
    /// Cycle each virtual channel becomes grantable again, ascending within
    /// a port, port-major: `port * vcs ..`.
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

    /// Grants a virtual channel of `port` to a head flit ready at `ready`:
    /// the one that frees earliest. Returns the cycle the head may proceed.
    /// The caller must [`OutPorts::release_vc`] it before the port's next
    /// grant.
    #[inline]
    pub fn alloc_vc(&mut self, port: usize, ready: Cycle) -> Cycle {
        let grant = ready.max(self.vc_free[port * self.vcs]);
        let p = &mut self.ports[port];
        p.stall_cycles = p.stall_cycles.saturating_add(grant - ready);
        grant
    }

    /// Releases the virtual channel `port` granted last, grantable again
    /// from `at` (no earlier than its grant).
    #[inline]
    pub fn release_vc(&mut self, port: usize, at: Cycle) {
        let times = &mut self.vc_free[port * self.vcs..][..self.vcs];
        debug_assert!(at >= times[0], "a VC frees before it was granted");
        // The granted VC held the earliest time: drop it and insert `at`.
        let mut k = 0;
        while k + 1 < times.len() && times[k + 1] < at {
            times[k] = times[k + 1];
            k += 1;
        }
        times[k] = at;
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

    /// Claims the `n` slots `start, start + 1, …` of `port`, whose channel
    /// must be free from `start`: what `n` calls of
    /// [`claim_slot`](OutPorts::claim_slot) ready at those cycles do, none
    /// of them stalled.
    #[inline]
    pub fn claim_train(&mut self, port: usize, start: Cycle, n: usize) {
        let p = &mut self.ports[port];
        debug_assert!(p.link_free <= start, "a train slot is already taken");
        p.link_free = start.saturating_add(n as Cycle);
        p.flits = p.flits.saturating_add(n as u64);
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
    fn a_train_is_its_slots_claimed_one_by_one() {
        let mut one = OutPorts::new(2, 1);
        let mut train = one.clone();
        for p in [&mut one, &mut train] {
            assert_eq!(p.claim_slot(1, 7), 7);
        }
        for k in 0..4 {
            assert_eq!(one.claim_slot(1, 8 + k), 8 + k);
        }
        train.claim_train(1, 8, 4);
        for p in [&mut one, &mut train] {
            assert_eq!(p.flits_forwarded(), 5);
            assert_eq!(p.stall_cycles(), 0);
            assert_eq!(p.claim_slot(1, 0), 12, "the next slot follows the train");
            assert_eq!(p.claim_slot(0, 0), 0, "ports do not share slots");
        }
    }

    #[test]
    fn vc_grants_wait_for_the_earliest_free_time_until_release() {
        // Port 1 of a three-port bank: its neighbours must stay untouched.
        let mut p = OutPorts::new(3, 2);
        assert_eq!(p.alloc_vc(1, 5), 5, "an idle port grants at once");
        p.release_vc(1, 30);
        assert_eq!(p.alloc_vc(1, 5), 5, "the other VC is still free");
        p.release_vc(1, 20);
        assert_eq!(p.stall_cycles(), 0);
        assert_eq!(
            p.alloc_vc(1, 6),
            20,
            "both VCs held past the head: it waits for the earlier release"
        );
        assert_eq!(p.stall_cycles(), 14);
        p.release_vc(1, 40);
        assert_eq!(p.alloc_vc(1, 6), 30, "then for the later one");
        p.release_vc(1, 50);
        assert_eq!(
            p.alloc_vc(1, 45),
            45,
            "a head ready after the earliest release never waits"
        );
        assert_eq!(p.stall_cycles(), 14 + 24);
        assert_eq!(p.alloc_vc(0, 6), 6, "ports do not share VCs");
        assert_eq!(p.alloc_vc(2, 6), 6);
        assert_eq!(p.stall_cycles(), 38);
    }

    #[test]
    fn vc_scan_prefers_the_earliest_free_channel() {
        let mut p = OutPorts::new(1, 3);
        for at in [100, 50, 80] {
            assert_eq!(p.alloc_vc(0, 0), 0);
            p.release_vc(0, at);
        }
        // Free at 50, 80 and 100: grants walk them in order, each release
        // going back in at its own time.
        assert_eq!(p.alloc_vc(0, 0), 50, "earliest-free VC wins");
        p.release_vc(0, 90);
        assert_eq!(p.alloc_vc(0, 0), 80);
        p.release_vc(0, 200);
        assert_eq!(p.alloc_vc(0, 0), 90, "a release is granted in its turn");
        p.release_vc(0, 95);
        assert_eq!(p.alloc_vc(0, 0), 95);
    }

    #[test]
    fn saturated_counters_do_not_wrap() {
        let mut p = OutPorts::new(1, 1);
        assert_eq!(p.claim_slot(0, Cycle::MAX - 1), Cycle::MAX - 1);
        assert_eq!(p.claim_slot(0, 0), Cycle::MAX, "link_free saturates");
        assert_eq!(p.claim_slot(0, 0), Cycle::MAX);
    }
}
