//! Differential property test: the loop-ordered [`WormholeMesh`] against the
//! event-driven formulation it replaced (`reference_wormhole/`).
//!
//! The shipped model resolves a packet's `flits × hops` grid flit-outer,
//! hop-inner; the reference pops the same traversals from a global
//! `(time, seq)` event queue. `DESIGN.md` §11 argues the two cannot differ;
//! this checks it after every single send of random sequences over random
//! mesh shapes, VC counts, buffer depths and latencies.

mod reference_wormhole;

use proptest::prelude::*;
use reference_wormhole::ReferenceWormhole;
use tw_noc::{NetworkModel, PacketSize, WormholeMesh};
use tw_types::{NocConfig, TileId};

proptest! {
    #[test]
    fn every_send_matches_the_event_driven_reference(
        shape in (1usize..=8, 1usize..=8),
        vcs_per_port in 1usize..=4,
        vc_buffer_flits in 1usize..=8,
        latencies in (1u64..=3, 1u64..=3),
        // (src, dst) are reduced modulo the tile count, so local deliveries
        // occur; `now` is deliberately not sorted.
        sends in prop::collection::vec(
            (any::<u16>(), any::<u16>(), 0usize..=16, 0u64..400),
            1..=300,
        ),
    ) {
        let cfg = NocConfig {
            cols: shape.0,
            rows: shape.1,
            router_latency: latencies.0,
            link_latency: latencies.1,
            vcs_per_port,
            vc_buffer_flits,
            ..NocConfig::default()
        };
        let tiles = cfg.tiles();
        let mut model = WormholeMesh::new(cfg.clone());
        let mut reference = ReferenceWormhole::new(cfg.clone());
        for (n, (src, dst, words, now)) in sends.into_iter().enumerate() {
            let src = TileId(src as usize % tiles);
            let dst = TileId(dst as usize % tiles);
            let size = PacketSize::with_data_words(&cfg, words);
            prop_assert_eq!(
                model.send(src, dst, size, now),
                reference.send(src, dst, size, now),
                "arrival of send {} ({}->{} x{} words at {}) under {:?}",
                n, src, dst, words, now, cfg
            );
            prop_assert_eq!(
                model.total_queueing_cycles(),
                reference.total_queueing_cycles(),
                "stall cycles after send {} under {:?}", n, cfg
            );
            prop_assert_eq!(
                model.total_flits_forwarded(),
                reference.total_flits_forwarded(),
                "flits forwarded after send {} under {:?}", n, cfg
            );
        }
    }
}
