//! The `trace` family: record / replay / info / diff / roundtrip (one-line
//! summaries: `cli.rs`).

use crate::cli::Args;
use crate::run_plan;
use denovo_waste::{ExperimentSpec, SimConfig, SimReport, Simulator, WorkloadSet, WorkloadSpec};
use std::path::Path;
use std::process::ExitCode;
use tw_trace::TraceDocument;
use tw_types::{ProtocolKind, TraceStats};
use tw_workloads::{BenchmarkKind, Workload};

/// `--bench NAME` (default FFT). `by_name` rejects unknown names with a
/// message listing every accepted one; kinds without a generator (custom,
/// synthesized) are rejected later by `try_workload` with a message naming
/// the replacement workflow.
fn bench_of(args: &Args) -> Result<BenchmarkKind, String> {
    args.value("--bench")
        .map_or(Ok(BenchmarkKind::Fft), BenchmarkKind::by_name)
}

fn protocol_of(args: &Args) -> Result<Option<ProtocolKind>, String> {
    args.value("--protocol")
        .map(ProtocolKind::by_name)
        .transpose()
}

fn summarize(report: &SimReport) {
    outln!(
        "{:<10} {:>14} cycles  {:>16.0} flit-hops  waste {:>6.3}  dram {:>10}",
        report.protocol.name(),
        report.total_cycles,
        report.total_flit_hops(),
        report.waste_traffic_fraction(),
        report.dram_accesses,
    );
}

/// Writes the generated workload of one benchmark as a trace file. No
/// simulation runs: the in-order cores service their input streams as
/// given, so the stream every protocol services is the workload itself.
pub fn record(args: &Args) -> Result<ExitCode, String> {
    let out = &args.operands()[0];
    let (scale, bench, text) = (args.scale(), bench_of(args)?, args.has("--text"));
    let workload = scale.try_workload(bench, scale.system().tiles())?;
    eprintln!("recording {bench} at the {scale:?} profile...");
    let doc = workload.to_trace();
    doc.save(Path::new(out), text)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    let stats = doc.total_stats();
    outln!(
        "wrote {out}: {} cores, {} mem ops, {} barriers/core ({} format)",
        doc.cores(),
        stats.mem_ops(),
        stats.barriers / doc.cores().max(1) as u64,
        if text { "text" } else { "binary" },
    );
    Ok(ExitCode::SUCCESS)
}

/// Replays a trace as a one-row plan under `--protocol`, or all ten.
/// Compile reads the file and refuses a core count the scale's system does
/// not have.
pub fn replay(args: &Args) -> Result<ExitCode, String> {
    let (input, scale) = (&args.operands()[0], args.scale());
    let protocols = protocol_of(args)?.map_or(ProtocolKind::ALL.to_vec(), |p| vec![p]);
    let mut spec = ExperimentSpec::subset(protocols, vec![], scale);
    spec.name = format!("{}-replay", scale.name());
    spec.workloads = vec![WorkloadSpec::trace(input.as_str(), input.as_str())];
    let ran = run_plan(&[(spec, WorkloadSet::new())], None, None)?;
    let (cells, outcome) = (&ran.plans[0].cells, &ran.outcomes[0]);
    let workload = &cells[0].workload;
    outln!(
        "replaying {input} ({}, \"{}\") at the {:?} profile",
        workload.kind,
        workload.input,
        scale
    );
    for cell in cells {
        summarize(outcome.report(&cell.row, cell.protocol)?);
    }
    Ok(ExitCode::SUCCESS)
}

pub fn info(args: &Args) -> Result<ExitCode, String> {
    let input = &args.operands()[0];
    let doc =
        TraceDocument::load(Path::new(input)).map_err(|e| format!("cannot read {input}: {e}"))?;
    outln!("trace:     {input}");
    outln!("benchmark: {}", doc.benchmark);
    outln!("input:     {}", doc.input);
    let cores = doc.cores();
    outln!("cores:     {cores}");
    let (regions, stats) = (doc.regions.clone(), doc.stats());
    let mut accesses_by_region = std::collections::BTreeMap::<_, u64>::new();
    for op in doc.streams.iter().flatten() {
        if let Some(region) = op.region() {
            *accesses_by_region.entry(region).or_default() += 1;
        }
    }
    // The workload half of every cache key the trace is served under: the
    // digest of the workload it replays as. One that does not replay is
    // served under none.
    match Workload::from_trace(doc).and_then(|wl| wl.content_digest()) {
        Ok(digest) => outln!("digest:    {digest}"),
        Err(e) => outln!("digest:    none ({e})"),
    }
    outln!("regions:   {}", regions.len());
    for r in regions.iter() {
        let mut notes = vec![format!(
            "{} accesses",
            accesses_by_region.get(&r.id).copied().unwrap_or(0)
        )];
        if r.bypass.bypasses_l2() {
            notes.push("bypass".to_string());
        }
        if let Some(c) = &r.comm {
            notes.push(format!("flex {} useful words/obj", c.useful_words()));
        }
        outln!(
            "  {} `{}` {:#x}+{} bytes ({})",
            r.id,
            r.name,
            r.base.byte(),
            r.bytes,
            notes.join(", ")
        );
    }
    let mut total = TraceStats::default();
    for (core, s) in stats.iter().enumerate() {
        total.merge(s);
        outln!(
            "  core {core:>2}: {:>9} ops ({:>9} LD, {:>9} ST, {:>9} compute cycles, {} barriers)",
            s.ops,
            s.loads,
            s.stores,
            s.compute_cycles,
            s.barriers
        );
    }
    outln!(
        "total:     {} ops, {} mem ops, {} barriers/core",
        total.ops,
        total.mem_ops(),
        total.barriers / cores.max(1) as u64
    );
    Ok(ExitCode::SUCCESS)
}

/// The byte-level determinism oracle.
pub fn diff(args: &Args) -> Result<ExitCode, String> {
    let (a, b) = (&args.operands()[0], &args.operands()[1]);
    let da = TraceDocument::load(Path::new(a)).map_err(|e| format!("cannot read {a}: {e}"))?;
    let db = TraceDocument::load(Path::new(b)).map_err(|e| format!("cannot read {b}: {e}"))?;
    match tw_trace::diff(&da, &db) {
        None => {
            outln!("identical: {a} == {b}");
            Ok(ExitCode::SUCCESS)
        }
        Some(divergence) => {
            outln!("traces diverge at {divergence}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// The end-to-end CI oracle: runs a cell, encodes its workload through
/// both formats, replays the decoded trace, and fails unless the replayed
/// `SimReport` is bit-identical to the recorded one.
pub fn roundtrip(args: &Args) -> Result<ExitCode, String> {
    let (scale, bench) = (args.scale(), bench_of(args)?);
    let protocol = protocol_of(args)?.unwrap_or(ProtocolKind::DBypFull);
    let system = scale.system();
    let workload = scale.try_workload(bench, system.tiles())?;
    let cfg = SimConfig::new(protocol).with_system(system);
    eprintln!("roundtrip: {bench} / {protocol} at the {scale:?} profile");
    let recorded = Simulator::new(cfg.clone(), &workload).run();

    // Binary codec round trip.
    let doc = workload.to_trace();
    let bytes = doc.to_binary_bytes().map_err(|e| e.to_string())?;
    let decoded = TraceDocument::from_bytes(&bytes).map_err(|e| e.to_string())?;
    if let Some(d) = tw_trace::diff(&doc, &decoded) {
        outln!("FAIL: binary codec round trip diverges at {d}");
        return Ok(ExitCode::FAILURE);
    }
    // Text codec round trip.
    let reparsed = TraceDocument::from_text(&doc.to_text()).map_err(|e| e.to_string())?;
    if let Some(d) = tw_trace::diff(&doc, &reparsed) {
        outln!("FAIL: text codec round trip diverges at {d}");
        return Ok(ExitCode::FAILURE);
    }

    let replayed_wl = Workload::from_trace(decoded).map_err(|e| e.to_string())?;
    let replayed = Simulator::new(cfg, &replayed_wl).run();
    if recorded != replayed {
        outln!(
            "FAIL: replayed report differs (recorded {} cycles / {:.0} flit-hops, replayed {} cycles / {:.0} flit-hops)",
            recorded.total_cycles,
            recorded.total_flit_hops(),
            replayed.total_cycles,
            replayed.total_flit_hops()
        );
        return Ok(ExitCode::FAILURE);
    }
    outln!(
        "OK: record -> encode({} bytes) -> decode -> replay is bit-identical ({} cycles, {:.0} flit-hops)",
        bytes.len(),
        recorded.total_cycles,
        recorded.total_flit_hops()
    );
    Ok(ExitCode::SUCCESS)
}
