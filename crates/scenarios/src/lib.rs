//! `tw-scenarios`: randomized workload synthesis and the cross-protocol
//! differential oracle.
//!
//! The paper's traffic/waste comparisons are only meaningful because every
//! protocol services the identical reference stream (the in-order cores step
//! the workload's own records) and agrees on functional memory behavior. The
//! six hand-built generators in `tw-workloads` exercise
//! that claim on six points; this crate multiplies the scenario space to an
//! unbounded seeded family and makes it *trustworthy*:
//!
//! * [`synth`] — a deterministic random synthesizer composing sharing-
//!   pattern primitives (private, read-shared, migratory, producer-consumer,
//!   false-sharing, streaming/bypass, barrier-phased pipelines) into
//!   well-formed, data-race-free [`Workload`]s with region/Flex/bypass
//!   annotations;
//! * [`oracle`] — a golden functional memory model (sequential consistency
//!   per barrier phase) that assigns every store a unique position-derived
//!   value and fingerprints every load observation plus the final image;
//! * [`differ`] — the differential runner: it rejects racy workloads with
//!   the golden model, sweeps the full protocol registry and checks the
//!   metamorphic invariants (bit-identical reruns, sane waste accounting,
//!   bypass dominance on streaming workloads for the invalidation allowlist,
//!   and cross-network-model traffic identity over every registered fabric);
//! * [`mutate`] — known-bad mutation operators proving the oracle actually
//!   catches injected coherence violations.
//!
//! # Example
//!
//! ```
//! use tw_scenarios::{synthesize, DifferentialRunner};
//! use denovo_waste::ScaleProfile;
//!
//! let workload = synthesize(42);
//! workload.try_well_formed().unwrap();
//! let outcome = DifferentialRunner::new(ScaleProfile::Tiny).check(&workload);
//! assert!(outcome.ok(), "{:?}", outcome.violations);
//! ```
//!
//! [`Workload`]: tw_workloads::Workload

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differ;
pub mod mutate;
pub mod oracle;
pub mod synth;

pub use differ::{
    DiffOutcome, DifferentialRunner, ProtocolSummary, Violation, BYPASS_DOMINANCE_PROTOCOLS,
};
pub use mutate::{detect, Detection, Mutation};
pub use oracle::{golden_execute, OracleReport, RaceViolation};
pub use synth::{is_fully_bypass_streaming, synthesize, SharingPattern, SynthConfig};
