//! Synthetic workload generators for the six benchmarks of the study.
//!
//! The paper drives its simulator with SPLASH-2 (FFT, LU, radix, Barnes-Hut),
//! PARSEC (fluidanimate) and a parallel kD-tree builder running under a
//! full-system simulator. This crate substitutes trace generators that
//! reproduce each application's data-structure layout, sharing pattern, phase
//! structure and region annotations — the properties the paper's analysis
//! attributes every traffic-waste effect to (see `DESIGN.md` §1 for the
//! substitution rationale and §7 for the scaled default input sizes).
//!
//! Each generator produces a [`Workload`]: a [`tw_types::RegionTable`]
//! describing the software-supplied region, Flex and bypass annotations, and
//! one [`tw_types::TraceOp`] stream per core.
//!
//! # Example
//!
//! ```
//! use tw_workloads::{fft::FftConfig, Workload};
//!
//! let wl: Workload = FftConfig::scaled().build(16).expect("32 K points split 16 ways");
//! assert_eq!(wl.cores(), 16);
//! assert!(wl.total_mem_ops() > 10_000);
//! assert!(wl.regions.len() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barnes;
pub mod builder;
pub mod fft;
pub mod fluidanimate;
pub mod kdtree;
pub mod lu;
pub mod radix;
pub mod workload;

pub use builder::TraceBuilder;
pub use workload::{BenchmarkKind, Workload};

/// The error returned when asked to generate a benchmark kind that has no
/// fixed-input generator ([`BenchmarkKind::Custom`] comes from trace files,
/// [`BenchmarkKind::Synthesized`] from the seeded synthesizer).
fn no_generator(kind: BenchmarkKind) -> String {
    match kind {
        BenchmarkKind::Custom => {
            "custom workloads have no generator; replay them from a trace file".to_string()
        }
        BenchmarkKind::Synthesized => {
            "synthesized workloads have no fixed generator; build them from a seed \
             with the tw-scenarios synthesizer (or replay a saved trace)"
                .to_string()
        }
        other => unreachable!("{other} has a generator"),
    }
}

/// Builds the default (scaled) workload for a benchmark with `cores` cores.
///
/// The trace-only kinds ([`BenchmarkKind::Custom`],
/// [`BenchmarkKind::Synthesized`]) have no generator here and are reported as
/// an error rather than a panic, so callers resolving a kind from user input
/// can surface a diagnosable message.
pub fn build_scaled(kind: BenchmarkKind, cores: usize) -> Result<Workload, String> {
    Ok(match kind {
        BenchmarkKind::Fluidanimate => fluidanimate::FluidanimateConfig::scaled().build(cores),
        BenchmarkKind::Lu => lu::LuConfig::scaled().build(cores),
        BenchmarkKind::Fft => fft::FftConfig::scaled().build(cores)?,
        BenchmarkKind::Radix => radix::RadixConfig::scaled().build(cores)?,
        BenchmarkKind::Barnes => barnes::BarnesConfig::scaled().build(cores)?,
        BenchmarkKind::KdTree => kdtree::KdTreeConfig::scaled().build(cores)?,
        BenchmarkKind::Custom | BenchmarkKind::Synthesized => return Err(no_generator(kind)),
    })
}

/// Builds a miniature workload for a benchmark, suitable for unit tests and
/// Criterion benches where run time matters more than fidelity.
///
/// The trace-only kinds ([`BenchmarkKind::Custom`],
/// [`BenchmarkKind::Synthesized`]) have no generator here and are reported as
/// an error rather than a panic (see [`build_scaled`]).
pub fn build_tiny(kind: BenchmarkKind, cores: usize) -> Result<Workload, String> {
    Ok(match kind {
        BenchmarkKind::Fluidanimate => fluidanimate::FluidanimateConfig::tiny().build(cores),
        BenchmarkKind::Lu => lu::LuConfig::tiny().build(cores),
        BenchmarkKind::Fft => fft::FftConfig::tiny().build(cores)?,
        BenchmarkKind::Radix => radix::RadixConfig::tiny().build(cores)?,
        BenchmarkKind::Barnes => barnes::BarnesConfig::tiny().build(cores)?,
        BenchmarkKind::KdTree => kdtree::KdTreeConfig::tiny().build(cores)?,
        BenchmarkKind::Custom | BenchmarkKind::Synthesized => return Err(no_generator(kind)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_only_kinds_are_errors_not_panics() {
        for kind in [BenchmarkKind::Custom, BenchmarkKind::Synthesized] {
            let err = build_scaled(kind, 16).unwrap_err();
            assert!(err.contains("generator"), "{err}");
            assert!(build_tiny(kind, 16).is_err());
        }
        for kind in BenchmarkKind::ALL {
            assert!(build_tiny(kind, 16).is_ok(), "{kind} must generate");
        }
    }

    proptest::proptest! {
        /// A mesh is any size from 2x2 to 64 tiles; a generator whose input
        /// does not split among that many cores says so, it does not unwind.
        #[test]
        fn no_core_count_makes_a_generator_panic(kind_i in 0usize..6, cores in 1usize..=64) {
            let kind = BenchmarkKind::ALL[kind_i];
            if let Ok(wl) = build_tiny(kind, cores) {
                proptest::prop_assert_eq!(wl.cores(), cores);
            }
        }
    }

    #[test]
    fn tiny_content_digests_are_pinned() {
        // These moved once, when the digest stopped reading the trace
        // encoding and started reading the packed records: the digest
        // function changed, and no generated record and no result byte moved
        // with it. Every cache key is built on one of these, so the next
        // change to any of them is a deliberate key migration, made for its
        // own reason — never an edit that makes this test pass.
        let pinned = [
            "67d883a16801e1d6fbcf678c34248070", // fluidanimate
            "e83e0c88fe4b8cdc6b368a42250eb668", // LU
            "4ee1e7e6abaf92b5ef5481dfe0526b96", // FFT
            "2c8e5e2c3fb45a2af630c88e634be5d8", // radix
            "71faa5fce68132c2889c9f95287b3628", // barnes
            "5810c9adadad660fa17cb3543df6c0e4", // kD-tree
        ];
        let got: Vec<String> = BenchmarkKind::ALL
            .into_iter()
            .map(|kind| {
                let wl = build_tiny(kind, 16).unwrap();
                wl.content_digest().unwrap().to_string()
            })
            .collect();
        assert_eq!(got, pinned);
    }
}
