//! Property-based round-trip guarantees of the trace codecs: any op
//! sequence — including degenerate phases with zero memory operations —
//! encodes and decodes identically through both the binary and the text
//! format.

use proptest::prelude::*;
use tw_trace::{diff, TraceDocument};
use tw_types::{Addr, RegionId, RegionInfo, RegionTable, TraceOp, TRACE_ADDR_LIMIT};

/// Decodes one generated 4-tuple into a trace op. Addresses are arbitrary
/// word indices (not confined to the declared regions — the codec must not
/// care) at the bottom and the top of the 48-bit domain, so address deltas
/// of every length arise; regions are arbitrary small ids, and kind 4
/// produces barriers so phases of every length (including zero mem ops)
/// arise naturally.
fn op_from(kind: u8, payload: u64, region: u64, cycles: u64) -> TraceOp {
    let region = RegionId(region as u16);
    match kind {
        0 => TraceOp::load(Addr::new(payload * 4), region),
        1 => TraceOp::store(Addr::new(payload * 4), region),
        2 => TraceOp::store(Addr::new(TRACE_ADDR_LIMIT - 4 - payload * 4), region),
        3 => TraceOp::compute(cycles as u32),
        _ => TraceOp::barrier((payload % 100) as u32),
    }
}

/// Cases per property: the CI release step runs ten times the suite's.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 640 };

fn doc_with_streams(streams: Vec<Vec<TraceOp>>) -> TraceDocument {
    let mut regions = RegionTable::new();
    regions.insert(RegionInfo::plain(
        RegionId(0),
        "anything",
        Addr::new(0),
        1 << 40,
    ));
    TraceDocument {
        benchmark: "custom".into(),
        input: "proptest".into(),
        regions,
        streams,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Binary encode -> decode is the identity for arbitrary op sequences
    /// across multiple cores.
    #[test]
    fn binary_codec_round_trips_arbitrary_streams(
        raw_a in prop::collection::vec((0u8..5, 0u64..1_000_000, 0u64..64, 0u64..10_000), 0..300),
        raw_b in prop::collection::vec((0u8..5, 0u64..1_000_000, 0u64..64, 0u64..10_000), 0..300),
    ) {
        let streams = vec![
            raw_a.into_iter().map(|(k, p, r, c)| op_from(k, p, r, c)).collect(),
            raw_b.into_iter().map(|(k, p, r, c)| op_from(k, p, r, c)).collect(),
        ];
        let doc = doc_with_streams(streams);
        let bytes = doc.to_binary_bytes().unwrap();
        let back = TraceDocument::from_bytes(&bytes).unwrap();
        prop_assert!(diff(&doc, &back).is_none(), "binary round trip diverged");
        prop_assert_eq!(&doc, &back);
    }

    /// The text format round-trips the same arbitrary sequences.
    #[test]
    fn text_codec_round_trips_arbitrary_streams(
        raw in prop::collection::vec((0u8..5, 0u64..1_000_000, 0u64..64, 0u64..10_000), 0..200),
    ) {
        let doc = doc_with_streams(vec![
            raw.into_iter().map(|(k, p, r, c)| op_from(k, p, r, c)).collect(),
        ]);
        let back = TraceDocument::from_text(&doc.to_text()).unwrap();
        prop_assert_eq!(&doc, &back);
    }

    /// Degenerate phase structure: streams that are nothing but barriers
    /// (every phase has zero memory operations) survive both codecs.
    #[test]
    fn degenerate_zero_mem_phases_round_trip(
        barrier_count in 0usize..50,
        cores in 1usize..8,
    ) {
        let stream: Vec<TraceOp> = (0..barrier_count as u32).map(TraceOp::barrier).collect();
        let doc = doc_with_streams(vec![stream; cores]);
        let bytes = doc.to_binary_bytes().unwrap();
        let back = TraceDocument::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&doc, &back);
        let text_back = TraceDocument::from_text(&doc.to_text()).unwrap();
        prop_assert_eq!(&doc, &text_back);
    }

    /// Truncating the binary encoding anywhere strictly inside the payload
    /// never yields a silently valid trace: the reader either errors or (on
    /// header-only truncations that keep the byte sequence self-delimiting)
    /// reports a different document, never the original one with ops lost.
    #[test]
    fn truncation_is_never_a_silent_success(
        raw in prop::collection::vec((0u8..5, 0u64..1_000_000, 0u64..64, 0u64..10_000), 1..100),
        cut_fraction in 1u64..100,
    ) {
        let doc = doc_with_streams(vec![
            raw.into_iter().map(|(k, p, r, c)| op_from(k, p, r, c)).collect(),
        ]);
        let bytes = doc.to_binary_bytes().unwrap();
        let cut = (bytes.len() as u64 * cut_fraction / 100) as usize;
        prop_assert!(cut < bytes.len());
        match TraceDocument::from_bytes(&bytes[..cut]) {
            Err(_) => {}
            Ok(decoded) => prop_assert!(
                diff(&doc, &decoded).is_some(),
                "truncated to {cut}/{} bytes yet decoded identically",
                bytes.len()
            ),
        }
    }
}
