//! Run records and the tool that compares two sets of them.
//!
//! A *record* is one run, one line of JSON, appended to the file `--out`
//! names; a *set* is a file of records, normally ten seeds of every
//! workload on one commit. Records go through the experiment layer's JSON
//! subset, which has no floats, so measured values are decimal strings.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats;
use crate::workloads::{Metric, Workload};
use denovo_waste::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub const RECORD_SCHEMA: &str = "tw-benchmark/run/v1";

/// One run, as recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub samples: u64,
    /// Host facts: `nproc`, `rustc`, `commit`, `loadavg`.
    pub env: Vec<(String, String)>,
    pub metrics: Vec<Metric>,
}

impl Record {
    pub fn to_line(&self) -> String {
        let text = |s: &str| Json::str(s);
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", text(&m.value.to_string())),
                        ("unit", text(m.unit)),
                    ]),
                )
            })
            .collect();
        let env = self.env.iter().map(|(k, v)| (k.clone(), text(v))).collect();
        obj(vec![
            ("schema", text(RECORD_SCHEMA)),
            ("workload", text(&self.workload)),
            ("seed", Json::UInt(self.seed)),
            ("traced", Json::UInt(u64::from(self.traced))),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("samples", Json::UInt(self.samples)),
            ("env", Json::Obj(env)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    pub fn from_line(line: &str) -> Result<Record, String> {
        let doc = Json::parse(line)?;
        if doc.require("schema")?.as_str()? != RECORD_SCHEMA {
            return Err(format!("not a {RECORD_SCHEMA} record"));
        }
        let uint = |key: &str| doc.require(key)?.as_u64();
        let metrics = doc
            .require("metrics")?
            .as_obj()?
            .iter()
            .map(|(name, m)| {
                let value = m.require("value")?.as_str()?;
                Ok(Metric {
                    name: name.clone(),
                    value: value
                        .parse()
                        .map_err(|_| format!("metric {name}: `{value}` is not a number"))?,
                    // Units are not compared; the tables of record hold them.
                    unit: "",
                })
            })
            .collect::<Result<_, String>>()?;
        let env = doc
            .require("env")?
            .as_obj()?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_str()?.to_string())))
            .collect::<Result<_, String>>()?;
        Ok(Record {
            workload: doc.require("workload")?.as_str()?.to_string(),
            seed: uint("seed")?,
            traced: uint("traced")? != 0,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            samples: uint("samples")?,
            env,
            metrics,
        })
    }

    /// Appends the record to the set at `path`.
    pub fn append_to(&self, path: &Path) -> Result<(), String> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(file, "{}", self.to_line())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

pub fn read_set(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            Record::from_line(l).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread of a set is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles of one set's values and their spread: the interquartile
/// distance as a share of the median.
fn summarize(values: &[f64]) -> ([f64; 3], f64) {
    if values.len() < 2 {
        return ([values[0]; 3], 0.0);
    }
    let q = stats::quartiles(values);
    (q, (q[2] - q[0]) / q[1].abs())
}

/// Judges one metric on one workload from the two sets' values.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (qa, a_spread) = summarize(a);
    let (qb, b_spread) = summarize(b);
    let worse_by = match metric.better {
        Better::Lower => (qb[1] - qa[1]) / qa[1].abs(),
        Better::Higher => (qa[1] - qb[1]) / qa[1].abs(),
    };
    let every_b_beats_every_a = match metric.better {
        Better::Lower => stats::sorted(b).last() < stats::sorted(a).first(),
        Better::Higher => stats::sorted(b).first() > stats::sorted(a).last(),
    };
    let verdict = if a_spread.max(b_spread) > metric.bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

fn values_of(set: &[Record], workload: &str, metric: &str, traced: bool) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.iter().find(|m| m.name == metric))
        .map(|m| m.value)
        .collect()
}

/// The comparison report and whether set B is acceptable against set A:
/// no end-to-end metric `worse`, no failed op in either set, and the
/// simulated counts of the traced runs identical.
pub fn compare(a: &[Record], b: &[Record]) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut acceptable = true;
    let _ = writeln!(
        out,
        "{:<12} {:<23} {:>32} {:>32} {:>7} {:>6}  verdict",
        "workload", "metric", "A q1 / median / q3", "B q1 / median / q3", "delta", "bound"
    );
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let va = values_of(a, workload.name(), metric.name, false);
            let vb = values_of(b, workload.name(), metric.name, false);
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{} {} is missing from a set ({} and {} runs)",
                    workload.name(),
                    metric.name,
                    va.len(),
                    vb.len()
                ));
            }
            let (verdict, worse_by) = judge(metric, &va, &vb);
            acceptable &= verdict != Verdict::Worse;
            let cell = |v: &[f64]| {
                let (q, _) = summarize(v);
                format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2])
            };
            let _ = writeln!(
                out,
                "{:<12} {:<23} {:>32} {:>32} {:>+6.1}% {:>5.0}%  {}",
                workload.name(),
                format!("{} [{}]", metric.name, metric.unit),
                cell(&va),
                cell(&vb),
                worse_by * 100.0,
                metric.bound * 100.0,
                verdict.name()
            );
        }
    }
    for (name, set) in [("A", a), ("B", b)] {
        let failed: u64 = set.iter().map(|r| r.failed).sum();
        let attempted: u64 = set.iter().map(|r| r.attempted).sum();
        let _ = writeln!(out, "set {name}: {failed} of {attempted} ops failed");
        acceptable &= failed == 0;
    }
    // Simulated statistics must not move: every traced run of both sets
    // reports one digest per input scale.
    let mut digests: BTreeMap<u64, usize> = BTreeMap::new();
    for r in a.iter().chain(b) {
        for m in r.metrics.iter().filter(|m| m.name == "sim.counts_digest48") {
            *digests.entry(m.value as u64).or_default() += 1;
        }
    }
    match digests.len() {
        0 => {
            let _ = writeln!(out, "sim.counts_digest48: no traced run in either set");
        }
        1 => {
            let _ = writeln!(out, "sim.counts_digest48: identical in all traced runs");
        }
        _ => {
            let _ = writeln!(out, "sim.counts_digest48: DIFFERS {digests:?}");
            acceptable = false;
        }
    }
    Ok((out, acceptable))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "op_p10_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const RATE: EndToEnd = EndToEnd {
        name: "sim_mops_per_s",
        unit: "Mops/s",
        better: Better::Higher,
        bound: 0.10,
    };

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + step * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = around(100.0, 0.2);
        assert_eq!(judge(&LATENCY, &a, &around(105.0, 0.2)).0, Verdict::Same);
        assert_eq!(judge(&LATENCY, &a, &around(115.0, 0.2)).0, Verdict::Worse);
        assert_eq!(judge(&LATENCY, &a, &around(80.0, 0.2)).0, Verdict::Same);
        // Higher is better: a drop is the worsening.
        assert_eq!(judge(&RATE, &a, &around(85.0, 0.2)).0, Verdict::Worse);
        assert_eq!(judge(&RATE, &a, &around(115.0, 0.2)).0, Verdict::Same);
        // A spread wider than the bound resolves nothing...
        let noisy = around(100.0, 4.0);
        assert_eq!(
            judge(&LATENCY, &noisy, &around(101.0, 4.0)).0,
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(judge(&LATENCY, &noisy, &around(40.0, 4.0)).0, Verdict::Same);
        let (_, worse_by) = judge(&LATENCY, &a, &around(110.0, 0.2));
        assert!((worse_by - 0.10).abs() < 1e-9);
    }

    fn record(workload: &str, seed: u64, value: f64) -> Record {
        Record {
            workload: workload.to_string(),
            seed,
            traced: false,
            attempted: 10,
            failed: 0,
            samples: 10,
            env: vec![("nproc".to_string(), "2".to_string())],
            metrics: END_TO_END
                .iter()
                .map(|m| Metric::new(m.name, value, ""))
                .collect(),
        }
    }

    #[test]
    fn records_round_trip_and_sets_compare() {
        let r = record("serve_mix", 7, 1234.5678);
        assert_eq!(Record::from_line(&r.to_line()).unwrap(), r);
        assert!(Record::from_line("{\"schema\": \"other\"}").is_err());

        let set = |center: f64| -> Vec<Record> {
            Workload::ALL
                .iter()
                .flat_map(|w| (0..10).map(move |s| record(w.name(), s, center + 0.01 * s as f64)))
                .collect()
        };
        let (report, ok) = compare(&set(100.0), &set(101.0)).unwrap();
        assert!(ok, "{report}");
        assert_eq!(report.matches(" same").count(), 12);
        // Every metric of record is lower-is-better: 30 % more is worse on
        // all of them, 30 % less on none.
        let (report, ok) = compare(&set(100.0), &set(130.0)).unwrap();
        assert!(!ok);
        assert_eq!(report.matches(" worse").count(), 12, "{report}");
        assert!(compare(&set(100.0), &set(70.0)).unwrap().1);
        // A failed op makes a set unacceptable whatever the timings say.
        let mut failing = set(100.0);
        failing[0].failed = 1;
        assert!(!compare(&set(100.0), &failing).unwrap().1);
        assert!(compare(&set(100.0), &[]).is_err());
    }
}
