//! The flit lane's bytes, pinned from the workspace: the figures document of
//! the net-models plan (MESI, DBypFull and Dragon on FFT, barnes and
//! fluidanimate, each timed on the flit-level mesh and the snooping bus)
//! must digest to its line of the benchmark package's golden file.
//!
//! The Tiny plan runs with `cargo test`; the Scaled twin is `#[ignore]`d and
//! runs in the release profile:
//! `cargo test --release --offline -p tw-bench --test net_models_figures -- --ignored`.

use denovo_waste::{ExperimentSpec, ScaleProfile, Session, WorkloadSet};
use tw_types::{Digest, NetworkModelKind, ProtocolKind};
use tw_workloads::BenchmarkKind;

/// The benchmark package's golden digests of `plan_figures_json` bytes,
/// one `name digest` line per plan.
const GOLDEN: &str = include_str!("../../../benchmark/golden/figures.digests");

/// Runs the `<scale>-net-models` plan and checks its figures document
/// against the golden line of that name.
fn figures_match_the_golden_line(scale: ScaleProfile) {
    let mut spec = ExperimentSpec::subset(
        vec![
            ProtocolKind::Mesi,
            ProtocolKind::DBypFull,
            ProtocolKind::Dragon,
        ],
        vec![
            BenchmarkKind::Fft,
            BenchmarkKind::Barnes,
            BenchmarkKind::Fluidanimate,
        ],
        scale,
    );
    spec.name = format!("{}-net-models", scale.name());
    spec.networks = vec![NetworkModelKind::FlitLevel, NetworkModelKind::SnoopBus];
    let outcome = Session::new()
        .run(&spec, &WorkloadSet::new())
        .expect("the net-models plan must run");
    let figures = tw_bench::plan_figures_json(&outcome).expect("figures render");
    let golden = GOLDEN
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{} ", spec.name)))
        .unwrap_or_else(|| panic!("figures.digests has a {} line", spec.name));
    assert_eq!(
        Digest::of_bytes(figures.as_bytes()).to_string(),
        golden.trim(),
        "plan_figures_json moved a byte of the {} document",
        spec.name
    );
}

#[test]
fn tiny_net_models_figures_match_the_golden_digest() {
    figures_match_the_golden_line(ScaleProfile::Tiny);
}

#[test]
#[ignore = "Scaled inputs; run in the release profile"]
fn scaled_net_models_figures_match_the_golden_digest() {
    figures_match_the_golden_line(ScaleProfile::Scaled);
}
