//! Differential property test: the loop-ordered [`WormholeMesh`] against the
//! event-driven formulation it replaced (`reference_wormhole/`).
//!
//! The shipped model resolves a packet's head row first, then runs its body
//! flits as one train per port when no credit can bind, and otherwise
//! resolves the rest of the `flits × hops` grid flit-outer, hop-inner; it
//! keeps a port's VCs as sorted free times. The reference pops every
//! traversal from a global `(time, seq)` event queue and arbitrates with its
//! own round-robin port bank over indexed VCs. `DESIGN.md` §11 argues the
//! two cannot differ; this checks it after every single send of random
//! sequences over random mesh shapes, at Table 4.1's VC count, buffer
//! depth and latencies.

mod reference_wormhole;

use proptest::prelude::*;
use reference_wormhole::ReferenceWormhole;
use tw_noc::{NetworkModel, PacketSize, WormholeMesh};
use tw_types::config::{LINK_LATENCY, ROUTER_LATENCY, VC_BUFFER_FLITS};
use tw_types::{Cycle, NocConfig, TileId};

/// Sends `(src, dst, data words, now)` through both models, comparing the
/// arrival, stall cycles and flits forwarded after each. `src` and `dst`
/// are reduced modulo the tile count, so local deliveries occur.
fn check_sends(cfg: &NocConfig, sends: impl IntoIterator<Item = (u16, u16, usize, Cycle)>) {
    let tiles = cfg.tiles();
    let mut model = WormholeMesh::new(cfg.clone());
    let mut reference = ReferenceWormhole::new(cfg.clone());
    for (n, (src, dst, words, now)) in sends.into_iter().enumerate() {
        let src = TileId(src as usize % tiles);
        let dst = TileId(dst as usize % tiles);
        let size = PacketSize::with_data_words(cfg, words);
        assert_eq!(
            model.send(src, dst, size, now),
            reference.send(src, dst, size, now),
            "arrival of send {n} ({src}->{dst} x{words} words at {now}) under {cfg:?}"
        );
        assert_eq!(
            model.total_queueing_cycles(),
            reference.total_queueing_cycles(),
            "stall cycles after send {n} under {cfg:?}"
        );
        assert_eq!(
            model.total_flits_forwarded(),
            reference.total_flits_forwarded(),
            "flits forwarded after send {n} under {cfg:?}"
        );
    }
}

/// The mesh a sampled `(cols, rows)` describes.
fn config(shape: (usize, usize)) -> NocConfig {
    NocConfig {
        cols: shape.0,
        rows: shape.1,
        ..NocConfig::default()
    }
}

proptest! {
    #[test]
    fn every_send_matches_the_event_driven_reference(
        shape in (1usize..=8, 1usize..=8),
        // `now` is deliberately not sorted: a send that comes late finds
        // links claimed far ahead, so most heads stall and the grid loop
        // resolves the body flits.
        sends in prop::collection::vec(
            (any::<u16>(), any::<u16>(), 0usize..=16, 0u64..400),
            1..=300,
        ),
    ) {
        check_sends(&config(shape), sends);
    }

    #[test]
    fn every_send_in_clock_order_matches_the_event_driven_reference(
        shape in (1usize..=8, 1usize..=8),
        // `now` never decreases, as an engine's clocks mostly advance:
        // that is where body flits run as a train.
        sends in prop::collection::vec(
            (any::<u16>(), any::<u16>(), 0usize..=16, 0u64..6),
            1..=300,
        ),
    ) {
        let mut now = 0;
        let sends = sends.into_iter().map(|(src, dst, words, gap)| {
            now += gap;
            (src, dst, words, now)
        });
        check_sends(&config(shape), sends);
    }
}

/// A head slot `depth + l - 1` cycles after the previous hop's is the last
/// that lets the body flits run as a train; one cycle later, flit `depth`
/// waits for a credit at the hop before. Both sides of that threshold must
/// match the reference, and the one cycle must reach the next packet on the
/// first link.
#[test]
fn both_sides_of_the_train_threshold_match_the_reference() {
    let cfg = config((4, 1));
    let (depth, r, l) = (VC_BUFFER_FLITS, ROUTER_LATENCY, LINK_LATENCY);
    let now = 10;
    let mut next_packet_stalls = Vec::new();
    for beyond in [0, 1] {
        // The head's stall at hop 1 that puts its slot there
        // `depth + l - 1 + beyond` cycles after its slot at hop 0.
        let stall = depth as Cycle + l - 1 + beyond - (l + r);
        let sends: [(u16, u16, usize, Cycle); 3] = [
            // One flit on link 1->2 whose slot ends `stall` cycles after
            // the probe's head is ready for it.
            (1, 2, 0, now + r + l + stall - 1),
            // The probe: `depth + 1` flits along 0->1->2->3.
            (0, 3, 4 * depth, now),
            // Ready for link 0->1 the cycle after the probe's tail
            // crossed it as a train.
            (0, 1, 0, now + depth as Cycle + 1),
        ];
        let mut model = WormholeMesh::new(cfg.clone());
        let mut stalls = vec![0];
        for (src, dst, words, at) in sends {
            let size = PacketSize::with_data_words(&cfg, words);
            model.send(TileId(src.into()), TileId(dst.into()), size, at);
            stalls.push(model.total_queueing_cycles());
        }
        check_sends(&cfg, sends);
        assert_eq!(
            stalls[2] - stalls[1],
            stall,
            "the probe stalls at hop 1 only"
        );
        next_packet_stalls.push(stalls[3] - stalls[2]);
    }
    assert_eq!(
        next_packet_stalls,
        [0, 1],
        "the credit binds one cycle past the threshold"
    );
}
