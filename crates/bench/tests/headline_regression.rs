//! Regression test pinning the Tiny-matrix headline ratios against the
//! committed `BENCH_results.json` (recorded at the Scaled profile by
//! `experiments all --json`).
//!
//! The scaled profile preserves the paper's working-set-to-cache
//! relationships, so its headline ratios are the repository's recorded
//! ground truth; the tiny profile is what `cargo test` can afford to run.
//! The two differ (smaller inputs amortize less), but they must stay
//! *close*: a protocol regression that moves a headline ratio by more than
//! the scale gap is caught here without a multi-minute scaled run. The
//! committed numbers and the measured tiny gap (≤ 0.17 on every pinned
//! ratio) make ±0.25 a tolerance that still fails long before a reduction
//! claim inverts (e.g. DBypFull-vs-MESI traffic would fail at 0.79,
//! far below 1.0).

use denovo_waste::{ExperimentSpec, ScaleProfile, Session, WorkloadSet};
use tw_types::Digest;

/// The benchmark package's golden digests of `plan_figures_json` bytes,
/// one `name digest` line per plan.
const GOLDEN: &str = include_str!("../../../benchmark/golden/figures.digests");

/// Extracts `"name": <number>` from the committed results document without
/// a JSON parser (the document is generated by `tw_bench::results_json`,
/// so the layout is stable).
fn headline_field(json: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("BENCH_results.json lacks {name}"));
    let rest = &json[at + key.len()..];
    let end = rest
        .find([',', '\n', '}'])
        .unwrap_or_else(|| panic!("unterminated value for {name}"));
    rest[..end]
        .trim()
        .parse::<f64>()
        .unwrap_or_else(|e| panic!("unparsable value for {name}: {e}"))
}

#[test]
fn tiny_headline_ratios_track_the_committed_results() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read committed {path}: {e}"));
    assert!(
        json.contains("\"schema\": \"denovo-waste/bench-results/v1\""),
        "unexpected results schema"
    );

    let outcome = Session::new()
        .run(
            &ExperimentSpec::full_matrix(ScaleProfile::Tiny),
            &WorkloadSet::new(),
        )
        .expect("the tiny full matrix must run");
    // The figures document is byte-exact: its digest is the benchmark's
    // golden `tiny-matrix` line.
    let figures = tw_bench::plan_figures_json(&outcome).expect("figures render");
    let golden = GOLDEN
        .lines()
        .find_map(|line| line.strip_prefix("tiny-matrix "))
        .expect("figures.digests has a tiny-matrix line");
    assert_eq!(
        Digest::of_bytes(figures.as_bytes()).to_string(),
        golden.trim(),
        "plan_figures_json moved a byte of the Tiny matrix document"
    );
    let h = outcome
        .headline()
        .expect("full matrix has every headline protocol");

    const TOLERANCE: f64 = 0.25;
    let pinned = [
        ("denovo_traffic_vs_mesi", h.denovo_traffic_vs_mesi),
        ("dbypfull_traffic_vs_mesi", h.dbypfull_traffic_vs_mesi),
        ("dbypfull_waste_fraction", h.dbypfull_waste_fraction),
    ];
    for (name, tiny) in pinned {
        let committed = headline_field(&json, name);
        assert!(
            committed.is_finite() && committed > 0.0,
            "{name}: committed value {committed} is not a positive number"
        );
        assert!(
            (tiny - committed).abs() < TOLERANCE,
            "{name}: tiny-matrix value {tiny:.3} drifted more than {TOLERANCE} \
             from the committed scaled value {committed:.3} — protocol \
             behavior changed; regenerate BENCH_results.json with \
             `experiments all --json` if the change is intended"
        );
    }

    // The committed reduction claims themselves must not have inverted.
    assert!(
        headline_field(&json, "dbypfull_traffic_vs_mesi") < 1.0,
        "committed results no longer show a DBypFull traffic reduction"
    );
    assert!(
        headline_field(&json, "denovo_traffic_vs_mesi") < 1.0,
        "committed results no longer show a DeNovo traffic reduction"
    );
    let waste = headline_field(&json, "dbypfull_waste_fraction");
    assert!(
        (0.0..=1.0).contains(&waste),
        "committed waste fraction {waste} out of range"
    );
}
