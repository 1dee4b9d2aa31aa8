//! The pluggable network-model abstraction.
//!
//! All three fabrics — the analytic [`Mesh`], the flit-level
//! [`WormholeMesh`], and the snooping [`SnoopBus`] — implement
//! [`NetworkModel`] next to their state (the trait is their only sending
//! API), and the engine resolves a [`NetworkModelKind`] to a
//! boxed model exactly once at construction through [`model_for`]
//! (`DESIGN.md` §11). Flit-hop *traffic*
//! is model-independent (all account `hops × flits` over the same XY
//! geometry), so the trait only abstracts *timing*: `send` returns the
//! tail-flit arrival cycle under that model's contention behavior.

use crate::bus::SnoopBus;
use crate::mesh::Mesh;
use crate::packet::PacketSize;
use crate::wormhole::WormholeMesh;
use tw_types::{Cycle, NetworkModelKind, NocConfig, TileId};

/// One network timing model: stateful, deterministic, resolved once per
/// simulation run.
pub trait NetworkModel: std::fmt::Debug + Send {
    /// The kind this model implements (the registry round-trip).
    fn kind(&self) -> NetworkModelKind;

    /// Sends a packet, returning the cycle its tail arrives at `dst`.
    fn send(&mut self, src: TileId, dst: TileId, size: PacketSize, now: Cycle) -> Cycle;

    /// Latency the packet would see on an unloaded network — the shared
    /// lower bound every model's `send` respects.
    fn unloaded_latency(&self, src: TileId, dst: TileId, size: PacketSize) -> Cycle;

    /// Total cycles packets spent queueing/stalling beyond their unloaded
    /// pipelines.
    fn total_queueing_cycles(&self) -> u64;

    /// Total packets sent.
    fn packets(&self) -> u64;

    /// Peak amount of work a single send ever had outstanding, for models
    /// that resolve a send in more than one step (the flit-level mesh: its
    /// largest `flits × hops` grid). Closed-form models report 0 (the
    /// default). Observer lane only.
    fn queue_high_water(&self) -> usize {
        0
    }
}

/// Resolves a network-model kind to a fresh model over `cfg`. This is the
/// single place model dispatch is decided.
pub fn model_for(kind: NetworkModelKind, cfg: NocConfig) -> Box<dyn NetworkModel> {
    match kind {
        NetworkModelKind::Analytic => Box::new(Mesh::new(cfg)),
        NetworkModelKind::FlitLevel => Box::new(WormholeMesh::new(cfg)),
        NetworkModelKind::SnoopBus => Box::new(SnoopBus::new(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_resolves_and_round_trips() {
        for kind in NetworkModelKind::ALL {
            let model = model_for(kind, NocConfig::default());
            assert_eq!(model.kind(), kind);
            assert_eq!(model.packets(), 0);
        }
    }

    #[test]
    fn all_models_share_the_unloaded_bound() {
        let size = PacketSize::with_data_words(&NocConfig::default(), 8);
        let mut models: Vec<_> = NetworkModelKind::ALL
            .into_iter()
            .map(|k| model_for(k, NocConfig::default()))
            .collect();
        for m in &mut models {
            let unloaded = m.unloaded_latency(TileId(0), TileId(15), size);
            assert_eq!(m.send(TileId(0), TileId(15), size, 50), 50 + unloaded);
        }
    }
}
