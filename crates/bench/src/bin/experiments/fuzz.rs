//! The `fuzz` command: randomized workload synthesis + differential oracle.

use crate::cli::Args;
use crate::{armed_recorder, write_file};
use std::process::ExitCode;
use std::time::Instant;
use tw_scenarios::{detect, golden_execute, synthesize, DifferentialRunner, Mutation, SynthConfig};
use tw_types::NetworkModelKind;

/// Order-sensitive digest of the per-protocol summaries under one network
/// model, so the printed line (and therefore the byte-diffed fuzz
/// transcript) is sensitive to any change in any protocol's cycles under
/// that model, traffic or waste accounting. Built on the oracle's
/// fingerprint fold so there is exactly one mixer to maintain.
fn summary_digest(summaries: &[tw_scenarios::ProtocolSummary], model: NetworkModelKind) -> u64 {
    let mut h: u64 = 0xd1f7_ed5c_e4a2_1097;
    for s in summaries {
        h = tw_scenarios::oracle::fold(
            h,
            [
                s.cycles[model.lane()],
                s.flit_hops.to_bits(),
                s.waste_fraction.to_bits(),
                0,
            ],
        );
    }
    h
}

/// Every fifth seed synthesizes the fully-bypass streaming preset, which
/// also checks the `DBypFull ≤ MESI` dominance invariant.
const STREAMING_EVERY: u64 = 5;

/// The stdout transcript is deterministic in the seed window — CI byte-diffs
/// two runs — and the exit code is nonzero on any invariant violation.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let seeds = args.number("--seeds", 20u64)?;
    // First seed, so CI shards and bisections can window the space.
    let start = args.number("--start", 0u64)?;
    // An empty window (degenerate shard arithmetic) or an overflowing one
    // (which would wrap to an empty range in release builds) would report a
    // false-green sweep of zero workloads.
    if seeds == 0 && !args.has("--self-test") {
        return Err("--seeds 0 would sweep nothing and report a vacuous success".to_string());
    }
    if start.checked_add(seeds).is_none() {
        return Err("--start + --seeds overflows the u64 seed space".to_string());
    }
    if args.has("--self-test") {
        return Ok(self_test());
    }
    let mut runner = DifferentialRunner::new(args.scale());
    let flight = args
        .value("--record")
        .map(|out| (out, armed_recorder("fuzz")));
    if let Some((_, (_, sink))) = &flight {
        runner = runner.with_recorder(sink.clone());
    }
    let started = Instant::now();
    let mut violations = 0usize;
    for seed in start..start + seeds {
        let streaming = seed % STREAMING_EVERY == 0;
        let wl = if streaming {
            SynthConfig::streaming(seed).build()
        } else {
            synthesize(seed)
        };
        let outcome = runner.check(&wl);
        let digests: String = NetworkModelKind::ALL
            .iter()
            .map(|&m| format!(" {m}={:016x}", summary_digest(&outcome.summaries, m)))
            .collect();
        outln!(
            "seed={seed} {} ops={} phases={} fp={:016x}{digests} {}",
            if streaming { "streaming" } else { "general" },
            outcome.oracle.mem_ops(),
            outcome.oracle.phases,
            outcome.oracle.fingerprint,
            if outcome.ok() { "ok" } else { "VIOLATION" },
        );
        for v in &outcome.violations {
            outln!("  violation: {v}");
            violations += 1;
        }
    }
    outln!(
        "fuzz: {seeds} workloads x {} protocols, {violations} violations",
        runner.protocols.len(),
    );
    eprintln!("fuzz swept {seeds} seeds in {:.2?}", started.elapsed());
    if let Some((out, (rec, _))) = &flight {
        write_file(out, rec.to_jsonl())?;
    }
    Ok(if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `fuzz --self-test`: prove the oracle catches injected coherence
/// violations by applying every known-bad mutation class and requiring a
/// detection for each. Guards against the differential runner silently
/// degrading into a rubber stamp.
fn self_test() -> ExitCode {
    let mut undetected = 0usize;
    // Per-class application counts: a class that never found a site was
    // never exercised, and a self-test that skipped a whole detection layer
    // must fail rather than rubber-stamp it.
    let mut applied_per_class = [0usize; Mutation::ALL.len()];
    for seed in 0..8u64 {
        let wl = synthesize(seed);
        let reference = match golden_execute(&wl) {
            Ok(r) => r,
            Err(race) => {
                outln!("self-test seed={seed}: reference workload races: {race}");
                return ExitCode::FAILURE;
            }
        };
        for (class, m) in Mutation::ALL.into_iter().enumerate() {
            let Some(mutated) = m.apply(&wl) else {
                outln!("self-test seed={seed} {}: no site", m.name());
                continue;
            };
            applied_per_class[class] += 1;
            match detect(&reference, &mutated) {
                Some(d) => {
                    outln!(
                        "self-test seed={seed} {}: detected ({})",
                        m.name(),
                        d.label()
                    );
                }
                None => {
                    outln!("self-test seed={seed} {}: UNDETECTED", m.name());
                    undetected += 1;
                }
            }
        }
    }
    let mut unexercised = 0usize;
    for (class, m) in Mutation::ALL.into_iter().enumerate() {
        if applied_per_class[class] == 0 {
            outln!("self-test: class {} was NEVER EXERCISED", m.name());
            unexercised += 1;
        }
    }
    outln!(
        "self-test: {} mutations over {} classes, {} undetected, {} unexercised",
        applied_per_class.iter().sum::<usize>(),
        Mutation::ALL.len(),
        undetected,
        unexercised
    );
    if undetected == 0 && unexercised == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
