//! The metrics of record, as `BENCHMARK.json` lists them. A run must emit
//! exactly these names; `benchmark_json_lists_these_metrics` keeps the two
//! files in step.

use crate::workloads::Metric;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: measured with tracing off on every workload, with
/// the share of the parent's median by which it may worsen.
///
/// A bound is the smallest multiple of 0.05 that is at least one and a half
/// times the widest ten-run spread the metric has shown on any workload in
/// any set measured on the sandbox, and at most the 0.25 the driver allows;
/// `setup_s` has the largest, as the driver asks. `README.md` lists the
/// spreads the three bounds were read from.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "op_p10_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.2 },
];

use Better::{Higher, Lower};

/// Per-layer metrics of the traced run: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, Better); 70] = [
    ("workloads.generate_ms", "ms", Lower),
    ("workloads.digest_ms", "ms", Lower),
    ("workloads.mem_ops", "count", Higher),
    ("plan.parse_us", "us", Lower),
    ("plan.compile_ms", "ms", Lower),
    ("plan.compile_other_ms", "ms", Lower),
    ("session.execute_cold_ms", "ms", Lower),
    ("session.execute_disk_ms", "ms", Lower),
    ("session.hit_ratio", "ratio", Higher),
    ("session.execute_memo_ms", "ms", Lower),
    ("session.coalesced", "count", Higher),
    ("session.fill_ms", "ms", Lower),
    ("session.key_of_ns", "ns", Lower),
    ("figures.render_ms", "ms", Lower),
    ("sim.new_us.mesi", "us", Lower),
    ("sim.run_ns_per_op.mesi.analytic", "ns", Lower),
    ("sim.run_ns_per_op.mesi.flit", "ns", Lower),
    ("sim.run_ns_per_op.mesi.bus", "ns", Lower),
    ("sim.new_us.denovo", "us", Lower),
    ("sim.run_ns_per_op.denovo.analytic", "ns", Lower),
    ("sim.run_ns_per_op.denovo.flit", "ns", Lower),
    ("sim.run_ns_per_op.denovo.bus", "ns", Lower),
    ("sim.new_us.dragon", "us", Lower),
    ("sim.run_ns_per_op.dragon.analytic", "ns", Lower),
    ("sim.run_ns_per_op.dragon.flit", "ns", Lower),
    ("sim.run_ns_per_op.dragon.bus", "ns", Lower),
    ("sim.flit_over_analytic", "ratio", Lower),
    ("sim.bus_over_analytic", "ratio", Lower),
    ("sim.counts_digest48", "hash48", Lower),
    ("noc.mesh_send_ns", "ns", Lower),
    ("noc.wormhole_send_ns", "ns", Lower),
    ("noc.wormhole_queue_high_water", "count", Lower),
    ("noc.bus_send_ns", "ns", Lower),
    ("profiler.l1_event_ns", "ns", Lower),
    ("profiler.l2_event_ns", "ns", Lower),
    ("profiler.mem_event_ns", "ns", Lower),
    ("profiler.finish_ms", "ms", Lower),
    ("dram.access_ns", "ns", Lower),
    ("bloom.insert_ns", "ns", Lower),
    ("bloom.query_ns", "ns", Lower),
    ("mem.cache_array_ns", "ns", Lower),
    ("mem.write_combine_ns", "ns", Lower),
    ("types.fastmap_probe_ns", "ns", Lower),
    ("protocols.flex_plan_ns", "ns", Lower),
    ("trace.encode_mb_per_s", "MB/s", Higher),
    ("trace.decode_mb_per_s", "MB/s", Higher),
    ("daemon.wire_roundtrip_us", "us", Lower),
    ("daemon.ping_us", "us", Lower),
    ("serve.repeat_p10_ms", "ms", Lower),
    ("serve.novel_p10_ms", "ms", Lower),
    ("serve.repeat_p50_ms", "ms", Lower),
    ("serve.novel_p50_ms", "ms", Lower),
    ("serve.op_tail_ms", "ms", Lower),
    ("serve.tail_percentile", "percentile", Higher),
    ("serve.hit_ratio", "ratio", Higher),
    ("daemon.queue_wait_p50_ms", "ms", Lower),
    ("daemon.exec_p50_ms", "ms", Lower),
    ("daemon.queue_peak", "count", Lower),
    ("obs.span_record_ns", "ns", Lower),
    ("ledger.self_ms.plan", "ms", Lower),
    ("ledger.self_ms.workloads", "ms", Lower),
    ("ledger.self_ms.session", "ms", Lower),
    ("ledger.self_ms.sim", "ms", Lower),
    ("ledger.self_ms.figures", "ms", Lower),
    ("ledger.self_ms.daemon", "ms", Lower),
    ("ledger.op_traced_ms", "ms", Lower),
    ("ledger.op_untraced_cpu_ms", "ms", Lower),
    ("ledger.op_untraced_p50_ms", "ms", Lower),
    ("trace.overhead_frac", "ratio", Lower),
    ("ledger.unattributed_frac", "ratio", Lower),
];

/// The metrics of record among `measured`, in the order `expected` lists
/// their `(name, unit)`. Every expected metric must have been measured, with
/// that unit and a finite value.
pub fn select<'a>(
    measured: &[Metric],
    expected: impl Iterator<Item = (&'a str, &'a str)>,
) -> Result<Vec<Metric>, String> {
    expected
        .map(|(name, unit)| {
            let m = measured
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!("metric {name} is in {}, not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            Ok(m.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direction(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` sits at the root of the repository, outside this
    /// package; where it is present it must list these tables verbatim.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let Ok(text) = std::fs::read_to_string("../BENCHMARK.json") else {
            return;
        };
        let mut expected = String::new();
        for m in END_TO_END {
            expected.push_str(&format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                direction(m.better),
                m.bound
            ));
        }
        for (name, unit, better) in PER_LAYER {
            expected.push_str(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                direction(better)
            ));
        }
        let listed: String = text
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("{\"name\": ") && l.contains("\"unit\""))
            .map(|l| l.trim_end_matches(','))
            .collect();
        assert_eq!(listed, expected);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(PER_LAYER.len() <= 128);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
