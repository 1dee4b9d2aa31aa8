//! The benchmark of record for the denovo-waste simulator: four end-to-end
//! workloads, three end-to-end metrics, and an outside-in per-layer ledger.
//! See `README.md` beside this package for what each number means.
//!
//! ```text
//! tw-benchmark run --workload NAME --seed N [--seconds S] [--trace [0|1]] [--smoke] [--out SET]
//! tw-benchmark compare A B
//! ```

mod compare;
mod ledger;
mod metrics;
mod serve;
mod spans;
mod specs;
mod stats;
mod substrates;
mod sys;
mod workloads;

use compare::Record;
use denovo_waste::ScaleProfile;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Metric, RunConfig, Workload};

/// Default length of the timed window; `BENCHMARK.json` passes the same.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  tw-benchmark run --workload cold_matrix|net_models|warm_matrix|serve_mix --seed N
                   [--seconds S] [--trace [0|1]] [--smoke] [--out SET]
  tw-benchmark compare A B";

struct RunArgs {
    config: RunConfig,
    traced: bool,
    out: Option<PathBuf>,
}

fn value_of<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_run(args: &[String], cwd: &Path) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, DEFAULT_SECONDS);
    let (mut traced, mut smoke, mut out) = (false, false, None);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value_of(args, &mut i, "--workload")?)?)
            }
            "--seed" => {
                let v = value_of(args, &mut i, "--seed")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed `{v}` is not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value_of(args, &mut i, "--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds `{v}` is not a positive number"))?;
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    traced = v == "1";
                    i += 1;
                }
                _ => traced = true,
            },
            "--smoke" => smoke = true,
            "--out" => out = Some(cwd.join(value_of(args, &mut i, "--out")?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(RunArgs {
        config: RunConfig {
            workload,
            seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
            limits: workload.limits(seconds, smoke),
            smoke,
            fill_in_child: true,
        },
        traced,
        out,
    })
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// What one run measured.
struct Report {
    attempted: u64,
    failed: u64,
    samples: u64,
    /// The metrics of record, for the result line.
    metrics: Vec<Metric>,
    /// What the run measured besides: printed and recorded in the set, but
    /// not in the result line.
    unbounded: Vec<Metric>,
}

fn untraced_run(config: &RunConfig) -> Result<Report, String> {
    let m = workloads::run(config)?;
    for e in &m.errors {
        eprintln!("FAILED op: {e}");
    }
    let expected = metrics::END_TO_END.iter().map(|m| (m.name, m.unit));
    let mut unbounded = m.window_diagnostics();
    unbounded.extend_from_slice(&m.diagnostics);
    Ok(Report {
        attempted: m.attempted,
        failed: m.errors.len() as u64,
        samples: m.ops.len() as u64,
        metrics: metrics::select(&m.end_to_end()?, expected)?,
        unbounded,
    })
}

fn traced_run(config: &RunConfig) -> Result<Report, String> {
    let mut measured = ledger::unit_costs(config)?;
    let (decomposed, tracer) = ledger::decompose(config)?;
    measured.extend(decomposed);
    let trace_path = sys::out_dir().join(format!("{}.trace.jsonl", config.workload.name()));
    std::fs::write(&trace_path, tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    for (span, (count, self_ns)) in spans::by_name(tracer.spans()) {
        println!(
            "{span}.count = {count}  (self {:.3} ms)",
            self_ns as f64 / 1e6
        );
    }
    println!(
        "{} spans written to benchmark/{}",
        tracer.spans().len(),
        trace_path.display()
    );
    let expected = metrics::PER_LAYER.iter().map(|&(n, u, _)| (n, u));
    // Every traced op was checked against its golden, or the run would
    // have ended in an error above.
    let ops = tracer.spans().iter().filter(|s| s.parent.is_none()).count() as u64;
    Ok(Report {
        attempted: ops,
        failed: 0,
        samples: ops,
        metrics: metrics::select(&measured, expected)?,
        unbounded: Vec::new(),
    })
}

fn run(args: &RunArgs) -> Result<ExitCode, String> {
    let config = &args.config;
    let name = config.workload.name();
    println!(
        "workload {name}, seed {}, {} s window, tracing {}{}",
        config.seed,
        config.limits.seconds,
        if args.traced { "on" } else { "off" },
        if config.smoke {
            ", SMOKE (numbers mean nothing)"
        } else {
            ""
        },
    );
    if config.workload != Workload::ServeMix {
        println!("the paper's inputs are fixed: this workload's inputs do not depend on the seed");
    }
    println!(
        "all timings are host time; the model is unvalidated against hardware (no accuracy figure)"
    );
    let env = sys::environment();
    for (key, value) in &env {
        println!("{key}: {value}");
    }

    let report = if args.traced {
        traced_run(config)?
    } else {
        untraced_run(config)?
    };
    println!(
        "samples = {} ops (percentiles are exact, from sorted samples)",
        report.samples
    );
    for m in report.unbounded.iter().chain(&report.metrics) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &args.out {
        Record {
            workload: name.to_string(),
            seed: config.seed,
            traced: args.traced,
            attempted: report.attempted,
            failed: report.failed,
            samples: report.samples,
            env: env
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            metrics: report
                .metrics
                .iter()
                .chain(&report.unbounded)
                .cloned()
                .collect(),
        }
        .append_to(path)?;
    }
    println!(
        "{}",
        result_line(report.attempted, report.failed, &report.metrics)
    );
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String], cwd: &Path) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run(&parse_run(&args[1..], cwd)?),
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err(format!("compare takes two sets\n{USAGE}"));
            };
            let (report, acceptable) = compare::compare(
                &compare::read_set(&cwd.join(a))?,
                &compare::read_set(&cwd.join(b))?,
            )?;
            print!("{report}");
            Ok(if acceptable {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        // Internal: what a run starts to fill its cache in another process.
        Some("fill") => match &args[1..] {
            [scale_flag, scale, dir_flag, dir]
                if scale_flag == "--scale" && dir_flag == "--dir" =>
            {
                workloads::fill_cache(ScaleProfile::by_name(scale)?, Path::new(dir))?;
                Ok(ExitCode::SUCCESS)
            }
            _ => Err("fill takes --scale S --dir D".to_string()),
        },
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Paths on the command line are relative to where the user stands;
    // everything the benchmark writes itself is relative to its package.
    let entered = std::env::current_dir()
        .and_then(|cwd| std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")).map(|()| cwd))
        .and_then(|cwd| std::fs::create_dir_all(sys::out_dir()).map(|()| cwd));
    let result = match entered {
        Ok(cwd) => dispatch(&args, &cwd),
        Err(e) => Err(format!("cannot enter {}: {e}", env!("CARGO_MANIFEST_DIR"))),
    };
    result.unwrap_or_else(|e| {
        eprintln!("tw-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_in_the_drivers_and_the_issues_form() {
        let cwd = Path::new("/somewhere");
        let driver = strings(&[
            "--workload",
            "serve_mix",
            "--seed",
            "42",
            "--seconds",
            "15",
            "--trace",
            "0",
        ]);
        let a = parse_run(&driver, cwd).unwrap();
        assert_eq!(
            (a.config.workload, a.config.seed, a.traced),
            (Workload::ServeMix, 42, false)
        );
        assert_eq!(a.config.limits.seconds, 15.0);
        assert!(a.config.fill_in_child && !a.config.smoke);

        let issue = strings(&[
            "--workload",
            "warm_matrix",
            "--trace",
            "--seed",
            "1",
            "--out",
            "a.json",
            "--smoke",
        ]);
        let a = parse_run(&issue, cwd).unwrap();
        assert!(a.traced && a.config.smoke);
        assert_eq!(a.out.as_deref(), Some(Path::new("/somewhere/a.json")));
        assert!(
            parse_run(
                &strings(&["--trace", "1", "--workload", "cold_matrix", "--seed", "1"]),
                cwd
            )
            .unwrap()
            .traced
        );

        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "cold_matrix"],
            &["--seed", "1"],
            &["--workload", "cold_matrix", "--seed", "x"],
            &["--workload", "cold_matrix", "--seed", "1", "--seconds", "0"],
            &["--workload", "cold_matrix", "--seed", "1", "--bogus"],
        ] {
            assert!(parse_run(&strings(bad), cwd).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            3,
            0,
            &[
                Metric::new("op_p10_ms", 8123.4567, "ms"),
                Metric::new("setup_s", 0.5, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"op_p10_ms\": {\"value\": 8123.4567, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
