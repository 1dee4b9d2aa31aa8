//! Property tests for the synthesizer, the trace bridge and the oracle.
//!
//! The headline property is the full persistence round trip: any synthesized
//! workload survives `to_trace -> (binary|text) -> from_trace` structurally
//! intact, still well-formed, and functionally indistinguishable under the
//! golden model. The mutation properties prove the differential oracle is
//! not a rubber stamp: every known-bad mutation class is detected on every
//! sampled seed.

use denovo_waste::ScaleProfile;
use proptest::prelude::*;
use tw_scenarios::{
    detect, golden_execute, synthesize, Detection, DifferentialRunner, Mutation, SharingPattern,
    SynthConfig,
};
use tw_trace::TraceDocument;
use tw_types::ProtocolKind;
use tw_workloads::{BenchmarkKind, Workload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// synthesize(seed) -> to_trace -> from_trace -> try_well_formed, plus
    /// kind/fingerprint preservation, through the in-memory document.
    #[test]
    fn synthesized_workloads_round_trip_through_the_trace_bridge(seed in 0u64..1024) {
        let wl = synthesize(seed);
        prop_assert!(wl.try_well_formed().is_ok());
        let reference = golden_execute(&wl).unwrap();

        let doc = wl.to_trace();
        prop_assert_eq!(doc.benchmark.as_str(), "synthesized");
        let back = Workload::from_trace(doc).unwrap();
        prop_assert!(back.try_well_formed().is_ok());
        prop_assert_eq!(back.kind, BenchmarkKind::Synthesized);
        prop_assert_eq!(&back.traces, &wl.traces);
        prop_assert_eq!(back.regions.len(), wl.regions.len());
        prop_assert_eq!(golden_execute(&back).unwrap(), reference);
    }

    /// The same round trip through the serialized binary codec (what
    /// `experiments trace record` writes and CI replays).
    #[test]
    fn synthesized_workloads_round_trip_through_the_binary_codec(seed in 0u64..1024) {
        let wl = synthesize(seed);
        let bytes = wl.to_trace().to_binary_bytes().unwrap();
        let back = Workload::from_trace(TraceDocument::from_bytes(&bytes).unwrap()).unwrap();
        prop_assert_eq!(back.kind, BenchmarkKind::Synthesized);
        prop_assert_eq!(&back.traces, &wl.traces);
        prop_assert_eq!(
            golden_execute(&back).unwrap(),
            golden_execute(&wl).unwrap()
        );
    }

    /// The streaming preset round-trips its bypass annotations (which the
    /// `DBypFull ≤ MESI` invariant depends on after replay).
    #[test]
    fn streaming_annotations_survive_the_round_trip(seed in 0u64..256) {
        let wl = SynthConfig::streaming(seed).build();
        prop_assert!(tw_scenarios::is_fully_bypass_streaming(&wl));
        let bytes = wl.to_trace().to_binary_bytes().unwrap();
        let back = Workload::from_trace(TraceDocument::from_bytes(&bytes).unwrap()).unwrap();
        prop_assert!(tw_scenarios::is_fully_bypass_streaming(&back));
    }

    /// Every injected-bug class is detected on every sampled seed: the
    /// differential oracle demonstrably catches flipped stores, dropped
    /// barriers, reordered streams, lost stores and dropped update
    /// broadcasts.
    #[test]
    fn every_mutation_class_is_detected(seed in 0u64..512) {
        let wl = synthesize(seed);
        let reference = golden_execute(&wl).unwrap();
        for m in Mutation::ALL {
            let mutated = m.apply(&wl)
                .unwrap_or_else(|| panic!("seed {seed}: no site for {}", m.name()));
            let detection = detect(&reference, &mutated);
            prop_assert!(
                detection.is_some(),
                "seed {}: injected {} went undetected", seed, m.name()
            );
        }
    }

    /// A dropped barrier is specifically a *structural* rejection (the
    /// workload never reaches simulation), while a flipped store is a
    /// *functional* one — the two detection layers are both live.
    #[test]
    fn detection_layers_split_as_designed(seed in 0u64..256) {
        let wl = synthesize(seed);
        let reference = golden_execute(&wl).unwrap();
        let dropped = Mutation::DroppedBarrier.apply(&wl).unwrap();
        prop_assert!(matches!(
            detect(&reference, &dropped),
            Some(Detection::Malformed(_))
        ));
        let flipped = Mutation::FlippedStore.apply(&wl).unwrap();
        prop_assert!(matches!(
            detect(&reference, &flipped),
            Some(Detection::FingerprintDiff { .. } | Detection::Race(_))
        ));
    }

    /// Dragon's write-update datapath passes the full differential
    /// invariant set restricted to the Dragon cell, for every
    /// sharing-pattern primitive and random seed: the golden model accepts
    /// the DRF input, a second run is bit-identical, the accounting is sane
    /// and the traffic is the same under every network model.
    #[test]
    fn dragon_passes_the_differential_invariants_on_every_primitive(
        seed in 0u64..512,
        pattern_idx in 0usize..SharingPattern::ALL.len(),
    ) {
        let pattern = SharingPattern::ALL[pattern_idx];
        let mut cfg = SynthConfig::general(seed);
        cfg.only = Some(pattern);
        let wl = cfg.build();
        let runner = DifferentialRunner {
            scale: ScaleProfile::Tiny,
            protocols: vec![ProtocolKind::Dragon],
            recorder: None,
        };
        let out = runner.check(&wl);
        prop_assert!(
            out.ok(),
            "seed {} pattern {:?}: {:?}",
            seed,
            pattern,
            out.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        prop_assert!(out.summaries[0].flit_hops > 0.0);
    }
}
