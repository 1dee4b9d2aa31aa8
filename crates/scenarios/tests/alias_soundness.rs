//! Soundness of `ProtocolKind::effective_for`, the rule by which the plan
//! layer simulates two cells once: whatever it maps a protocol to must be
//! the *same machine* on that input, report field for report field.
//!
//! Everything here runs `Simulator` directly under both names. It never goes
//! through `Session` (which applies the rule and so cannot check it), and
//! the differential runner keeps simulating all ten protocols: the two are
//! the independent oracle. The test fails when the rule is widened — try
//! `DFlexL2 => DMemL1` for inputs without a communication region: equal on
//! LU and FFT, different on radix and fluidanimate.

use denovo_waste::{ScaleProfile, SimConfig, SimReport, Simulator};
use tw_scenarios::{synthesize, SynthConfig};
use tw_types::{BypassKind, ProtocolKind, RegionTable};
use tw_workloads::{BenchmarkKind, Workload};
use ProtocolKind::*;

/// `workload` under `protocol` on `scale`'s system, labelled `named`: the
/// protocol name is the one field two runs of one machine may differ in.
fn report(
    scale: ScaleProfile,
    workload: &Workload,
    protocol: ProtocolKind,
    named: ProtocolKind,
) -> SimReport {
    let cfg = SimConfig::new(protocol).with_system(scale.system());
    let mut report = Simulator::new(cfg, workload).run();
    report.protocol = named;
    report
}

/// Every protocol the rule maps elsewhere on `workload`, simulated under
/// both names; returns the aliases it found.
fn check_aliases(
    scale: ScaleProfile,
    workload: &Workload,
    what: &str,
) -> Vec<(ProtocolKind, ProtocolKind)> {
    let mut aliases = Vec::new();
    for p in ProtocolKind::ALL {
        let effective = p.effective_for(&workload.regions);
        if effective == p {
            continue;
        }
        assert_eq!(
            report(scale, workload, p, p),
            report(scale, workload, effective, p),
            "{what}: {p} is not the machine {effective} is"
        );
        aliases.push((p, effective));
    }
    aliases
}

/// The paper's six inputs at `scale`, with the aliases the rule finds on
/// each — exactly the eight the matrix has, no more and no fewer.
fn check_the_paper_inputs(scale: ScaleProfile) {
    let tiles = scale.system().tiles();
    for kind in BenchmarkKind::ALL {
        let workload = scale.try_workload(kind, tiles).unwrap();
        let want: &[(ProtocolKind, ProtocolKind)] = match kind {
            // No communication region, some bypass annotation.
            BenchmarkKind::Fluidanimate | BenchmarkKind::Fft | BenchmarkKind::Radix => {
                &[(DFlexL1, DeNovo)]
            }
            // Neither annotation.
            BenchmarkKind::Lu => &[(DFlexL1, DeNovo), (DBypL2, DFlexL2), (DBypFull, DFlexL2)],
            // Communication regions, nothing bypasses the L2.
            BenchmarkKind::Barnes => &[(DBypL2, DFlexL2), (DBypFull, DFlexL2)],
            // Both annotations: every rung is its own machine.
            BenchmarkKind::KdTree => &[],
            other => unreachable!("{other} is not one of the paper's inputs"),
        };
        assert_eq!(
            check_aliases(scale, &workload, kind.name()),
            want,
            "{}",
            kind.name()
        );
    }
}

#[test]
fn an_alias_is_the_same_machine_on_every_tiny_input() {
    check_the_paper_inputs(ScaleProfile::Tiny);
}

/// The eight alias pairs of the Scaled matrix `cold_matrix` runs. Sixteen
/// Scaled simulations: seconds in the release profile (where CI runs it),
/// most of a minute in the dev profile.
#[test]
#[ignore = "Scaled inputs; CI runs it in the release profile"]
fn an_alias_is_the_same_machine_on_every_scaled_input() {
    check_the_paper_inputs(ScaleProfile::Scaled);
}

/// `workload` with its annotations kept or dropped.
fn annotated(workload: &Workload, comm: bool, bypass: bool) -> Workload {
    let mut regions = RegionTable::new();
    for region in workload.regions.iter() {
        let mut region = region.clone();
        if !comm {
            region.comm = None;
        }
        if !bypass {
            region.bypass = BypassKind::None;
        }
        regions.insert(region);
    }
    Workload {
        regions,
        ..workload.clone()
    }
}

#[test]
fn an_alias_is_the_same_machine_on_synthesized_inputs() {
    let scale = ScaleProfile::Tiny;
    let mut seen = std::collections::BTreeSet::new();
    let general = (0..6).map(synthesize);
    let streaming = (0..2).map(|seed| SynthConfig::streaming(seed).build());
    for (i, workload) in general.chain(streaming).enumerate() {
        for (comm, bypass) in [(true, true), (true, false), (false, true), (false, false)] {
            let variant = annotated(&workload, comm, bypass);
            let what = format!("synthesized #{i} comm={comm} bypass={bypass}");
            let aliases = check_aliases(scale, &variant, &what);
            // Stripped of an annotation the rung must collapse; whether it
            // does with the annotation kept depends on what the seed drew.
            if !comm {
                assert!(aliases.contains(&(DFlexL1, DeNovo)), "{what}");
            }
            if !bypass {
                assert!(aliases.contains(&(DBypFull, DFlexL2)), "{what}");
            }
            seen.extend(aliases);
        }
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        [(DFlexL1, DeNovo), (DBypL2, DFlexL2), (DBypFull, DFlexL2)]
    );
}

#[test]
fn the_rule_reads_annotations_never_results() {
    let scale = ScaleProfile::Tiny;
    let tiles = scale.system().tiles();
    let input = |kind| scale.try_workload(kind, tiles).unwrap();

    // With both annotations in play the rule is the identity, and the rungs
    // it would otherwise fold really are different machines.
    let kdtree = input(BenchmarkKind::KdTree);
    for p in ProtocolKind::ALL {
        assert_eq!(p.effective_for(&kdtree.regions), p);
    }
    for (p, below) in [(DFlexL1, DeNovo), (DBypL2, DFlexL2), (DBypFull, DBypL2)] {
        assert_ne!(
            report(scale, &kdtree, p, p),
            report(scale, &kdtree, below, p),
            "kD-tree: {p} and {below}"
        );
    }

    // Pairs that report equal numbers on some input without being one
    // machine by construction stay two cells: equal by data, not by rule.
    let equal_by_data = [
        (BenchmarkKind::Lu, DValidateL2, DeNovo),
        (BenchmarkKind::Lu, DFlexL2, DMemL1),
        (BenchmarkKind::Fft, DFlexL2, DMemL1),
        (BenchmarkKind::Lu, Dragon, Mesi),
    ];
    for (kind, p, twin) in equal_by_data {
        let workload = input(kind);
        assert_eq!(
            report(scale, &workload, p, p),
            report(scale, &workload, twin, p),
            "{}: {p} and {twin} no longer report equal numbers",
            kind.name()
        );
        assert_eq!(p.effective_for(&workload.regions), p, "{}", kind.name());
        assert_eq!(twin.effective_for(&workload.regions), twin);
    }
    // ... and the same pair is not equal everywhere, which is why.
    let radix = input(BenchmarkKind::Radix);
    assert_ne!(
        report(scale, &radix, DFlexL2, DFlexL2),
        report(scale, &radix, DMemL1, DFlexL2)
    );
}
