//! Property-based tests of mesh routing and flit-hop accounting.

use proptest::prelude::*;
use tw_noc::{model_for, xy_route, Mesh, NetworkModel, PacketSize};
use tw_types::{Cycle, NetworkModelKind, NocConfig, TileId};

fn mesh() -> Mesh {
    Mesh::new(NocConfig::default())
}

proptest! {
    /// On an idle mesh, `send` arrival equals `unloaded_latency` for every
    /// (src, dst, packet size) over the full tile grid — under BOTH network
    /// models. This is the floor every loaded latency is bounded below by.
    #[test]
    fn idle_send_arrival_equals_unloaded_latency(
        src in 0usize..16,
        dst in 0usize..16,
        words in 0usize..17,
        inject in 0u64..1_000_000,
    ) {
        let cfg = NocConfig::default();
        let size = if words == 0 {
            PacketSize::control_only()
        } else {
            PacketSize::with_data_words(&cfg, words)
        };
        for kind in NetworkModelKind::ALL {
            let mut model = model_for(kind, cfg.clone());
            let unloaded = model.unloaded_latency(TileId(src), TileId(dst), size);
            prop_assert_eq!(
                model.send(TileId(src), TileId(dst), size, inject),
                inject + unloaded,
                "{} model, {}->{} x{} words", kind.name(), src, dst, words
            );
        }
    }

    /// `LinkState` accumulators saturate instead of wrapping when a link is
    /// driven to the end of the cycle space — a wrapped `busy_until` would
    /// silently un-queue every later packet.
    #[test]
    fn saturated_link_state_never_wraps(
        arrivals in prop::collection::vec(0u64..100, 1..20),
        flits in 1usize..6,
    ) {
        let mut l = tw_noc::LinkState::default();
        // Pin the link at the end of the cycle space (3 cycles of headroom,
        // 5 flits of occupancy saturates busy_until to the max).
        l.reserve(Cycle::MAX - 3, 5);
        prop_assert_eq!(l.busy_until, Cycle::MAX, "priming saturates busy_until");
        let mut last_start = 0;
        for a in arrivals {
            let (start, wait) = l.reserve(a, flits);
            prop_assert!(start >= last_start, "starts stay monotone at saturation");
            prop_assert_eq!(start, a + wait, "wait accounting stays consistent");
            last_start = start;
        }
        prop_assert_eq!(l.busy_until, Cycle::MAX, "busy_until stays pinned");
    }
    /// XY routes are loop-free, have exactly Manhattan-distance links, and
    /// every consecutive pair of links shares a router.
    #[test]
    fn routes_are_minimal_and_connected(src in 0usize..16, dst in 0usize..16) {
        let m = mesh();
        let route = xy_route(m.config(), TileId(src), TileId(dst));
        prop_assert_eq!(route.len(), m.hops(TileId(src), TileId(dst)));
        if !route.is_empty() {
            prop_assert_eq!(route[0].from, TileId(src));
            prop_assert_eq!(route[route.len() - 1].to, TileId(dst));
            for pair in route.windows(2) {
                prop_assert_eq!(pair[0].to, pair[1].from);
            }
        }
        // No router is visited twice (loop freedom).
        let mut visited: Vec<_> = route.iter().map(|l| l.from).collect();
        visited.sort_by_key(|t| t.0);
        let before = visited.len();
        visited.dedup();
        prop_assert_eq!(before, visited.len());
    }

    /// Flit-hop accounting is exactly hops × flits for every send, and the
    /// running mesh total equals the sum over all sends.
    #[test]
    fn flit_hop_totals_are_additive(
        sends in prop::collection::vec((0usize..16, 0usize..16, 0usize..17), 1..100)
    ) {
        let cfg = NocConfig::default();
        let mut m = mesh();
        let mut expected = 0.0;
        for (src, dst, words) in sends {
            let size = if words == 0 {
                PacketSize::control_only()
            } else {
                PacketSize::with_data_words(&cfg, words.min(16))
            };
            expected += m.flit_hops(TileId(src), TileId(dst), size) as f64;
            m.send(TileId(src), TileId(dst), size, 0);
        }
        prop_assert!((m.total_flit_hops() - expected).abs() < 1e-9);
    }

    /// Latency is monotone: a packet sent later on the same path never
    /// arrives earlier, and arrival is never before the unloaded latency.
    #[test]
    fn latency_is_monotone_and_bounded_below(
        times in prop::collection::vec(0u64..1000, 2..40),
        words in 1usize..17,
    ) {
        let cfg = NocConfig::default();
        let mut m = mesh();
        let size = PacketSize::with_data_words(&cfg, words);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut last_arrival = 0;
        for t in sorted {
            let arrival = m.send(TileId(0), TileId(15), size, t);
            prop_assert!(arrival >= t + m.unloaded_latency(TileId(0), TileId(15), size));
            prop_assert!(arrival >= last_arrival);
            last_arrival = arrival;
        }
    }

    /// Packet sizing: data words never exceed the payload of the computed
    /// flit count, and the unfilled fraction is consistent with it.
    #[test]
    fn packet_sizing_is_consistent(words in 0usize..17) {
        let cfg = NocConfig::default();
        let size = if words == 0 {
            PacketSize::control_only()
        } else {
            PacketSize::with_data_words(&cfg, words)
        };
        prop_assert!(size.data_words <= size.data_flits * cfg.words_per_flit());
        prop_assert!(size.data_flits <= cfg.max_data_flits);
        let unfilled = size.unfilled_data_flits(&cfg);
        prop_assert!(unfilled >= 0.0);
        prop_assert!(unfilled < 1.0 + 1e-9);
    }
}
