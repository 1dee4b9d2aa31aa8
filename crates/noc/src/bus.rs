//! The snooping-bus timing model: one transaction at a time on a shared
//! medium.
//!
//! The third [`crate::NetworkModel`]: instead of per-link reservations
//! ([`crate::Mesh`]) or per-flit wormhole switching
//! ([`crate::WormholeMesh`]), the whole network is a single broadcast medium
//! arbitrated deterministically in request order (FCFS). A transaction
//! occupies the bus for its serialization time — one cycle per flit — and
//! every later transaction waits for the medium to free before starting.
//!
//! Propagation is unchanged from the mesh: the bus is modeled as an
//! arbitration discipline over the same physical wires, so an *idle*
//! transaction collapses to exactly the analytic unloaded latency
//! ([`crate::mesh::unloaded_latency`]). That keeps the shared lower bound
//! every model's `send` respects, and it is what lets the engine's traffic,
//! decided on the analytic lane, stay bit-identical across models: the bus
//! only ever *adds* waiting, never reroutes.

use crate::mesh::unloaded_latency;
use crate::model::NetworkModel;
use crate::packet::PacketSize;
use tw_types::{Cycle, NocConfig, TileId};

/// A shared snooping bus: deterministic FCFS arbitration, one transaction
/// occupying the medium at a time.
#[derive(Debug, Clone)]
pub struct SnoopBus {
    cfg: NocConfig,
    /// Cycle at which the bus next becomes free.
    busy_until: Cycle,
    flit_hops: f64,
    packets: u64,
    stall_cycles: u64,
}

impl SnoopBus {
    /// Creates an idle bus for the given network configuration.
    pub fn new(cfg: NocConfig) -> Self {
        SnoopBus {
            cfg,
            busy_until: 0,
            flit_hops: 0.0,
            packets: 0,
            stall_cycles: 0,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Number of link traversals between two tiles (the Manhattan distance —
    /// traffic accounting is shared with the mesh models by construction).
    pub fn hops(&self, src: TileId, dst: TileId) -> usize {
        src.coord(self.cfg.cols).hops_to(dst.coord(self.cfg.cols))
    }

    /// Total flit-hops accumulated by sends.
    pub fn total_flit_hops(&self) -> f64 {
        self.flit_hops
    }
}

impl NetworkModel for SnoopBus {
    /// Arbitration: the transaction wins the bus at `max(now, busy_until)`
    /// (FCFS in call order — the engine's deterministic event order makes
    /// this reproducible), occupies it for the serialization time of its
    /// flits, and reaches `dst` one unloaded propagation delay after winning.
    fn send(&mut self, src: TileId, dst: TileId, size: PacketSize, now: Cycle) -> Cycle {
        self.packets += 1;
        let hops = self.hops(src, dst);
        self.flit_hops += (hops * size.total_flits()) as f64;
        let start = now.max(self.busy_until);
        self.stall_cycles += start - now;
        self.busy_until = start + size.total_flits() as Cycle;
        start + unloaded_latency(&self.cfg, hops, size)
    }

    /// An idle bus has no arbitration wait: identical to the analytic
    /// mesh's unloaded latency.
    fn unloaded_latency(&self, src: TileId, dst: TileId, size: PacketSize) -> Cycle {
        unloaded_latency(&self.cfg, self.hops(src, dst), size)
    }

    /// Total cycles transactions spent waiting for the bus.
    fn total_queueing_cycles(&self) -> u64 {
        self.stall_cycles
    }

    fn packets(&self) -> u64 {
        self.packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> SnoopBus {
        SnoopBus::new(NocConfig::default())
    }

    #[test]
    fn idle_send_collapses_to_unloaded_latency() {
        let mut b = bus();
        let size = PacketSize::with_data_words(b.config(), 8); // 3 flits
        let arrival = b.send(TileId(0), TileId(15), size, 100);
        assert_eq!(
            arrival,
            100 + b.unloaded_latency(TileId(0), TileId(15), size)
        );
        assert_eq!(b.total_queueing_cycles(), 0);
    }

    #[test]
    fn second_transaction_waits_for_the_medium() {
        let mut b = bus();
        let size = PacketSize::with_data_words(b.config(), 16); // 5 flits
        let a = b.send(TileId(0), TileId(1), size, 0);
        // Even a transaction on disjoint tiles waits: the bus is one medium.
        let c = b.send(TileId(14), TileId(15), size, 0);
        assert_eq!(c, 5 + b.unloaded_latency(TileId(14), TileId(15), size));
        assert!(c > a, "second transaction must queue behind the first");
        assert_eq!(b.total_queueing_cycles(), 5);
        assert_eq!(b.packets(), 2);
    }

    #[test]
    fn arbitration_is_fcfs_in_call_order() {
        let mut b = bus();
        let size = PacketSize::control_only(); // 1 flit
        let mut last_start = 0;
        for i in 0..4 {
            let arrival = b.send(TileId(0), TileId(5), size, 0);
            let start = arrival - b.unloaded_latency(TileId(0), TileId(5), size);
            assert_eq!(start, i as Cycle, "occupancy is back-to-back");
            assert!(start >= last_start);
            last_start = start;
        }
    }

    #[test]
    fn bus_frees_after_occupancy() {
        let mut b = bus();
        let size = PacketSize::with_data_words(b.config(), 4); // 2 flits
        b.send(TileId(0), TileId(1), size, 0);
        // By cycle 2 the medium is free again: no stall.
        let before = b.total_queueing_cycles();
        b.send(TileId(2), TileId(3), size, 2);
        assert_eq!(b.total_queueing_cycles(), before);
    }

    #[test]
    fn traffic_accounting_matches_the_mesh_rule() {
        let mut b = bus();
        let size = PacketSize::with_data_words(b.config(), 16); // 5 flits
        b.send(TileId(0), TileId(15), size, 0); // 6 hops
        assert_eq!(b.total_flit_hops(), 30.0);
        b.send(TileId(3), TileId(3), size, 0);
        assert_eq!(
            b.total_flit_hops(),
            30.0,
            "local delivery adds no flit-hops"
        );
    }
}
