//! The traced run: an outside-in ledger of what each layer costs.
//!
//! Two parts. [`unit_costs`] measures each layer on its own through its
//! public API — the same numbers whichever workload the traced run names.
//! [`decompose`] takes one workload's op apart into the public calls it is
//! made of, records a span around each, and reconciles the layers' self
//! times with what the untraced op costs. The program itself carries no
//! spans from this package; tracing inside it is a later change.
//!
//! Ops run their cells and workload builds on every core, so their wall
//! time is not the sum of their parts. The decomposition runs the parts one
//! after another on one thread and is therefore reconciled against the
//! untraced op's **CPU time**, not its wall time.

use crate::serve::{self, Daemon, Traffic};
use crate::spans::{self, Tracer};
use crate::specs::{self, Request, Schedule, FAMILIES};
use crate::stats;
use crate::substrates;
use crate::sys::Scratch;
use crate::workloads::{self, Limits, Metric, RunConfig, Workload};
use denovo_waste::{
    CacheStats, CompiledPlan, ExperimentSpec, PlanOutcome, PlannedCell, RowKey, ScaleProfile,
    Session, SimConfig, SimReport, Simulator, SystemVariant, WorkloadRef, WorkloadSource,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tw_bench::daemon::wire;
use tw_trace::TraceDocument;
use tw_types::{Digester, NetworkModelKind};
use tw_workloads::BenchmarkKind;

/// Layers whose self time the decomposition reports, in the order an op
/// passes through them.
pub const OP_LAYERS: [&str; 6] = ["plan", "workloads", "session", "sim", "figures", "daemon"];

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `f` over `reps` calls, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f()?);
        samples.push(ms_since(t));
    }
    Ok(stats::median(&samples))
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// Decomposition of one op into public calls
// ---------------------------------------------------------------------------

/// `ExperimentSpec::compile`, taken apart: each workload is generated and
/// digested under its own span, one after another, and the cells are then
/// assembled exactly as `compile` assembles them (row-major: workload,
/// variant × network, protocol). Covers the specs this benchmark submits —
/// generated workloads on one mesh size; `assembles_what_compile_compiles`
/// holds it to the real thing.
///
/// A copy of the program's logic that a change to `compile` has to be
/// mirrored in by hand: delete it, and span the real `compile`, as soon as
/// spans may be recorded inside the program.
pub fn traced_compile(t: &mut Tracer, spec: &ExperimentSpec) -> Result<CompiledPlan, String> {
    let assemble = t.begin("plan.assemble");
    let base = if spec.variants.is_empty() {
        vec![SystemVariant::base()]
    } else {
        spec.variants.clone()
    };
    let variants: Vec<SystemVariant> = if spec.networks.is_empty() {
        base
    } else {
        base.iter()
            .flat_map(|v| {
                spec.networks.iter().map(|&n| {
                    let mut v = v.clone();
                    v.network = Some(n);
                    if spec.networks.len() > 1 {
                        v.label = format!("{}+{}", v.label, n.name());
                    }
                    v
                })
            })
            .collect()
    };
    let mut systems = Vec::new();
    for v in &variants {
        let mut sys = spec.scale.system();
        v.apply(&mut sys);
        sys.validate().map_err(err("invalid system"))?;
        systems.push((v.label.clone(), sys));
    }
    let tiles = systems[0].1.tiles();
    if systems.iter().any(|(_, s)| s.tiles() != tiles) {
        return Err("the decomposition covers specs with one mesh size".to_string());
    }
    t.end(assemble);

    let mut built = Vec::new();
    for w in &spec.workloads {
        let WorkloadSource::Bench(kind) = w.source else {
            return Err("the decomposition covers generated workloads".to_string());
        };
        let workload = Arc::new(t.span("workloads.generate", || {
            spec.scale.try_workload(kind, tiles)
        })?);
        let digest = t
            .span("workloads.digest", || workload.content_digest())
            .map_err(err("cannot digest a workload"))?;
        built.push((workload, digest));
    }

    let assemble = t.begin("plan.assemble");
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (w, (workload, digest)) in spec.workloads.iter().zip(&built) {
        for (variant_label, sys) in &systems {
            let row = RowKey {
                workload: w.name.clone(),
                variant: variant_label.clone(),
            };
            let label = if systems.len() > 1 {
                format!("{}@{}", w.name, variant_label)
            } else {
                w.name.clone()
            };
            rows.push((row.clone(), label.clone()));
            for &protocol in &spec.protocols {
                cells.push(PlannedCell {
                    row: row.clone(),
                    label: label.clone(),
                    workload: Arc::clone(workload),
                    workload_ref: WorkloadRef {
                        name: w.name.clone(),
                        digest: *digest,
                    },
                    protocol,
                    system: sys.clone(),
                });
            }
        }
    }
    let plan = CompiledPlan {
        name: spec.name.clone(),
        scale: spec.scale,
        protocols: spec.protocols.clone(),
        baseline: spec.baseline,
        rows,
        variants: systems,
        cells,
    };
    t.end(assemble);
    Ok(plan)
}

/// What a cache-less `Session::execute` does, cell by cell in plan order on
/// this thread: key, `Simulator::new`, `Simulator::run`.
fn traced_simulate(t: &mut Tracer, plan: &CompiledPlan) -> PlanOutcome {
    let session = Session::new();
    let mut reports = BTreeMap::new();
    for cell in &plan.cells {
        black_box(t.span("session.key_of", || session.key_of(cell)));
        let config = SimConfig::new(cell.protocol).with_system(cell.system.clone());
        let sim = t.span("sim.new", || Simulator::new(config, &cell.workload));
        let report = t.span("sim.run", || sim.run());
        reports.insert((cell.row.clone(), cell.protocol), report);
    }
    PlanOutcome {
        name: plan.name.clone(),
        protocols: plan.protocols.clone(),
        baseline: plan.baseline,
        rows: plan.rows.clone(),
        variants: plan.variants.clone(),
        reports,
        cache: CacheStats {
            misses: plan.cells.len() as u64,
            ..CacheStats::default()
        },
    }
}

/// Frames `body` as a `submit` response and reads it back, in memory: the
/// codec's share of a request, without the socket.
fn wire_roundtrip(body: &[u8]) -> Result<usize, String> {
    let mut framed = Vec::with_capacity(body.len() + 128);
    wire::write_frame(&mut framed, wire::ok_header("submit", vec![]), Some(body))
        .map_err(err("cannot frame"))?;
    let (_, read) = wire::read_frame(&mut BufReader::new(framed.as_slice()))
        .map_err(err("cannot read the frame back"))?
        .ok_or("empty frame")?;
    Ok(read.len())
}

/// How a decomposed op gets its reports.
enum Execute<'a> {
    /// Simulate every cell (`cold_matrix`, `net_models`).
    Simulate,
    /// `Session::execute` over a filled cache, as one span: the probe and
    /// decode inside it are not public calls (`warm_matrix`, `serve_mix`).
    Cached(&'a Session),
}

/// One op, decomposed. Returns the figures document, which the caller
/// checks: the decomposition must produce the bytes the real op produces.
fn traced_op(
    t: &mut Tracer,
    spec_text: &str,
    execute: &Execute,
    over_the_wire: bool,
) -> Result<String, String> {
    t.next_op();
    let op = t.begin("op");
    let spec = t
        .span("plan.parse", || ExperimentSpec::from_json(spec_text))
        .map_err(err("bad spec"))?;
    let plan = traced_compile(t, &spec)?;
    let outcome = match execute {
        Execute::Simulate => traced_simulate(t, &plan),
        Execute::Cached(session) => t
            .span("session.execute", || session.execute(&plan))
            .map_err(err("cannot execute"))?,
    };
    let figures = t
        .span("figures.render", || tw_bench::plan_figures_json(&outcome))
        .map_err(err("cannot render figures"))?;
    if over_the_wire {
        t.span("daemon.wire", || wire_roundtrip(figures.as_bytes()))?;
    }
    t.end(op);
    Ok(figures)
}

/// How many ops the traced run decomposes, and how many untraced ops it
/// measures first for reference.
fn traced_sizes(workload: Workload, smoke: bool) -> (usize, usize) {
    match (workload, smoke) {
        (Workload::ColdMatrix | Workload::NetModels, _) => (1, 1),
        (Workload::WarmMatrix, false) => (10, 30),
        (Workload::WarmMatrix, true) => (2, 2),
        (Workload::ServeMix, false) => (2 * specs::NOVEL_EVERY, 4 * specs::NOVEL_EVERY),
        (Workload::ServeMix, true) => (specs::NOVEL_EVERY, specs::NOVEL_EVERY),
    }
}

/// Decomposes `config.workload`'s op and reconciles it with the untraced
/// op. Returns the ledger metrics and the recorded spans.
pub fn decompose(config: &RunConfig) -> Result<(Vec<Metric>, Tracer), String> {
    let (traced_ops, reference_ops) = traced_sizes(config.workload, config.smoke);
    let reference = workloads::run(&RunConfig {
        limits: Limits::exactly(reference_ops),
        ..config.clone()
    })?;
    if let Some(e) = reference.errors.first() {
        return Err(format!("the untraced reference failed: {e}"));
    }
    let untraced_cpu_ms = reference.cpu_s_per_op() * 1e3;

    let scale = config.scale();
    let spec = config.workload.spec(scale);
    let spec_text = spec.to_json();
    let scratch = Scratch::create()?;
    let mut tracer = Tracer::new();
    let t = &mut tracer;
    match config.workload {
        Workload::ColdMatrix | Workload::NetModels => {
            for _ in 0..traced_ops {
                let figures = traced_op(t, &spec_text, &Execute::Simulate, false)?;
                specs::check_golden(&spec.name, figures.as_bytes())?;
            }
        }
        Workload::WarmMatrix => {
            let cache_dir = scratch.path("cache");
            workloads::fill_cache(scale, &cache_dir)?;
            for _ in 0..traced_ops {
                // A fresh session per op, as in the untraced op.
                let session = Session::new().with_cache_dir(&cache_dir);
                let figures = traced_op(t, &spec_text, &Execute::Cached(&session), false)?;
                specs::check_golden(&spec.name, figures.as_bytes())?;
            }
        }
        Workload::ServeMix => {
            // The daemon's worker, replicated: one long-lived session over
            // the filled cache, the schedule's mix of specs, and the
            // response framed for the wire.
            let cache_dir = scratch.path("cache");
            workloads::fill_cache(scale, &cache_dir)?;
            let session = Session::new().with_cache_dir(&cache_dir);
            let schedule = Schedule::new(config.seed);
            for position in 0..traced_ops {
                let execute = Execute::Cached(&session);
                match schedule.get(position).ok_or("schedule too short")? {
                    Request::Repeat => {
                        let figures = traced_op(t, &spec_text, &execute, true)?;
                        specs::check_golden(&spec.name, figures.as_bytes())?;
                    }
                    Request::Novel { l2_kib } => {
                        let novel = specs::novel(l2_kib);
                        let figures = traced_op(t, &novel.to_json(), &execute, true)?;
                        let (want, _) = workloads::execute_to_figures(
                            &Session::new(),
                            &workloads::compile(&novel)?,
                        )?;
                        if figures != want {
                            return Err(format!("decomposed `{}` moved a byte", novel.name));
                        }
                    }
                }
            }
        }
    }

    let mine = tracer.spans();
    let own = spans::self_times(mine);
    let per_op = |ns: u64| ns as f64 / 1e6 / traced_ops as f64;
    let mut layer_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut traced_ns = 0;
    for (span, own) in mine.iter().zip(&own) {
        if span.parent.is_none() {
            traced_ns += span.end_ns - span.start_ns;
        } else {
            *layer_ns.entry(spans::layer_of(span.name)).or_default() += own;
        }
    }
    let attributed_ms = per_op(layer_ns.values().sum());
    let traced_ms = per_op(traced_ns);

    let mut out: Vec<Metric> = OP_LAYERS
        .iter()
        .map(|layer| {
            Metric::new(
                format!("ledger.self_ms.{layer}"),
                per_op(layer_ns.get(layer).copied().unwrap_or(0)),
                "ms",
            )
        })
        .collect();
    out.extend([
        Metric::new("ledger.op_traced_ms", traced_ms, "ms"),
        Metric::new("ledger.op_untraced_cpu_ms", untraced_cpu_ms, "ms"),
        Metric::new(
            "ledger.op_untraced_p50_ms",
            stats::median(&reference.latencies_ms()),
            "ms",
        ),
        Metric::new(
            "trace.overhead_frac",
            (traced_ms - untraced_cpu_ms) / untraced_cpu_ms,
            "ratio",
        ),
        Metric::new(
            "ledger.unattributed_frac",
            1.0 - attributed_ms / untraced_cpu_ms,
            "ratio",
        ),
    ]);
    Ok((out, tracer))
}

// ---------------------------------------------------------------------------
// Unit costs of each layer
// ---------------------------------------------------------------------------

/// The simulated statistics of one cell that must repeat exactly.
fn fold_counts(d: &mut Digester, r: &SimReport) {
    d.write_u64(r.total_cycles);
    d.write_u64(r.mesh_flit_hops.to_bits());
    d.write_u64(r.traffic.total().to_bits());
    d.write_u64(r.dram_accesses);
    for waste in [&r.l1_waste, &r.l2_waste, &r.mem_waste] {
        d.write_u64(waste.total_words());
    }
}

/// `workloads`, `plan`: generation, digest, parse and compile of the
/// matrix spec. Returns the compiled plan for the later sections.
fn workloads_and_plan(scale: ScaleProfile, out: &mut Vec<Metric>) -> Result<CompiledPlan, String> {
    let spec = ExperimentSpec::full_matrix(scale);
    let tiles = scale.system().tiles();
    let (mut generate_ms, mut digest_ms, mut mem_ops) = (0.0, 0.0, 0u64);
    for kind in BenchmarkKind::ALL {
        generate_ms += median_ms(3, || scale.try_workload(kind, tiles))?;
        let workload = scale.try_workload(kind, tiles)?;
        digest_ms += median_ms(3, || {
            workload.content_digest().map_err(err("cannot digest"))
        })?;
        mem_ops += workload.total_mem_ops() as u64;
    }
    out.push(Metric::new("workloads.generate_ms", generate_ms, "ms"));
    out.push(Metric::new("workloads.digest_ms", digest_ms, "ms"));
    out.push(Metric::new("workloads.mem_ops", mem_ops as f64, "count"));

    let text = spec.to_json();
    let parse_ms = median_ms(5, || {
        for _ in 0..100 {
            black_box(ExperimentSpec::from_json(&text).map_err(err("bad spec"))?);
        }
        Ok(())
    })?;
    out.push(Metric::new("plan.parse_us", parse_ms * 1e3 / 100.0, "us"));
    out.push(Metric::new(
        "plan.compile_ms",
        median_ms(3, || workloads::compile(&spec))?,
        "ms",
    ));
    // What compile does besides generating and digesting: validation and
    // assembling the cells, the same at any input size. Measured on a
    // one-workload Tiny spec — with one build the fan-out runs inline, so
    // the three timings are serial, and on Tiny inputs the two that are
    // subtracted are small.
    let tiny = ScaleProfile::Tiny;
    let one = ExperimentSpec::subset(spec.protocols.clone(), vec![BenchmarkKind::Fft], tiny);
    let fft = tiny.try_workload(BenchmarkKind::Fft, tiles)?;
    let compile_one = median_ms(20, || workloads::compile(&one))?;
    let generate_one = median_ms(20, || tiny.try_workload(BenchmarkKind::Fft, tiles))?;
    let digest_one = median_ms(20, || fft.content_digest().map_err(err("cannot digest")))?;
    out.push(Metric::new(
        "plan.compile_other_ms",
        compile_one - generate_one - digest_one,
        "ms",
    ));
    workloads::compile(&spec)
}

/// `session`, `figures`: one plan through the cache in each of its states.
/// Leaves `cache_dir` filled with the plan's cells.
fn session_and_figures(
    plan: &CompiledPlan,
    cache_dir: &Path,
    scratch: &Scratch,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let execute = |session: &Session, plan: &CompiledPlan| {
        session.execute(plan).map_err(err("cannot execute"))
    };
    // Empty directory: every cell simulates and is stored.
    let t = Instant::now();
    let cold = execute(&Session::new().with_cache_dir(cache_dir), plan)?;
    out.push(Metric::new("session.execute_cold_ms", ms_since(t), "ms"));
    // Filled directory, fresh session: probe and decode.
    let mut hit_ratio = 0.0;
    let disk_ms = median_ms(5, || {
        let outcome = execute(&Session::new().with_cache_dir(cache_dir), plan)?;
        hit_ratio = outcome.cache.hit_rate();
        Ok(())
    })?;
    out.push(Metric::new("session.execute_disk_ms", disk_ms, "ms"));
    out.push(Metric::new("session.hit_ratio", hit_ratio, "ratio"));

    // The flight table and a first fill are per-cell costs, the same at any
    // input size: measured on the Tiny matrix.
    let tiny = workloads::compile(&ExperimentSpec::full_matrix(ScaleProfile::Tiny))?;
    let memo_session = Session::new();
    execute(&memo_session, &tiny)?;
    let mut coalesced = 0;
    let memo_ms = median_ms(5, || {
        coalesced = execute(&memo_session, &tiny)?.cache.coalesced;
        Ok(())
    })?;
    out.push(Metric::new("session.execute_memo_ms", memo_ms, "ms"));
    out.push(Metric::new("session.coalesced", coalesced as f64, "count"));
    let t = Instant::now();
    execute(
        &Session::new().with_cache_dir(scratch.path("ledger-fill")),
        &tiny,
    )?;
    out.push(Metric::new("session.fill_ms", ms_since(t), "ms"));

    let session = Session::new();
    let keys_ms = median_ms(5, || {
        for _ in 0..100 {
            for cell in &plan.cells {
                black_box(session.key_of(cell));
            }
        }
        Ok(())
    })?;
    out.push(Metric::new(
        "session.key_of_ns",
        keys_ms * 1e6 / (100 * plan.cells.len()) as f64,
        "ns",
    ));

    out.push(Metric::new(
        "figures.render_ms",
        median_ms(20, || {
            tw_bench::plan_figures_json(&cold).map_err(err("cannot render figures"))
        })?,
        "ms",
    ));
    Ok(())
}

/// `sim`: host time per simulated memory op for each executor family under
/// each network model, on one thread, on the FFT input of `scale` — and a
/// digest of the simulated statistics, which must repeat exactly.
fn sim(scale: ScaleProfile, out: &mut Vec<Metric>) -> Result<(), String> {
    let system = scale.system();
    let fft = scale.try_workload(BenchmarkKind::Fft, system.tiles())?;
    let mem_ops = fft.total_mem_ops() as f64;
    let mut counts = Digester::new();
    let mut run_ms_by_net = BTreeMap::new();
    for (family, protocol) in FAMILIES {
        for network in NetworkModelKind::ALL {
            let mut system = system.clone();
            system.network = network;
            let config = || SimConfig::new(protocol).with_system(system.clone());
            if network == NetworkModelKind::Analytic {
                let new_ms = median_ms(5, || Ok(Simulator::new(config(), &fft)))?;
                out.push(Metric::new(
                    format!("sim.new_us.{family}"),
                    new_ms * 1e3,
                    "us",
                ));
            }
            let mut samples = Vec::new();
            for rep in 0..3 {
                let sim = Simulator::new(config(), &fft);
                let t = Instant::now();
                let report = sim.run();
                samples.push(ms_since(t));
                if rep == 0 {
                    fold_counts(&mut counts, &report);
                }
            }
            let run_ms = stats::median(&samples);
            *run_ms_by_net.entry(network.name()).or_insert(0.0) += run_ms;
            out.push(Metric::new(
                format!("sim.run_ns_per_op.{family}.{}", network.name()),
                run_ms * 1e6 / mem_ops,
                "ns",
            ));
        }
    }
    let analytic = run_ms_by_net["analytic"];
    out.push(Metric::new(
        "sim.flit_over_analytic",
        run_ms_by_net["flit"] / analytic,
        "ratio",
    ));
    out.push(Metric::new(
        "sim.bus_over_analytic",
        run_ms_by_net["bus"] / analytic,
        "ratio",
    ));
    // 48 bits of the digest: the most a JSON number carries exactly.
    out.push(Metric::new(
        "sim.counts_digest48",
        (counts.finish().0 >> 80) as f64,
        "hash48",
    ));
    Ok(())
}

/// `trace`: the DNVT binary codec the workload digest streams through.
fn trace_codec(scale: ScaleProfile, out: &mut Vec<Metric>) -> Result<(), String> {
    let fft = scale.try_workload(BenchmarkKind::Fft, scale.system().tiles())?;
    let doc = fft.to_trace();
    let bytes = doc.to_binary_bytes().map_err(err("cannot encode"))?;
    let mb = bytes.len() as f64 / 1e6;
    let encode_ms = median_ms(5, || doc.to_binary_bytes().map_err(err("cannot encode")))?;
    let decode_ms = median_ms(5, || {
        TraceDocument::from_bytes(&bytes).map_err(err("cannot decode"))
    })?;
    out.push(Metric::new(
        "trace.encode_mb_per_s",
        mb / (encode_ms / 1e3),
        "MB/s",
    ));
    out.push(Metric::new(
        "trace.decode_mb_per_s",
        mb / (decode_ms / 1e3),
        "MB/s",
    ));
    Ok(())
}

/// `daemon`: a ping, the frame codec on a figures-sized body, and a short
/// closed loop of the `serve_mix` traffic over `cache_dir`, which holds the
/// plan's cells.
fn daemon(
    plan: &CompiledPlan,
    cache_dir: &Path,
    config: &RunConfig,
    scratch: &Scratch,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let (figures, _) =
        workloads::execute_to_figures(&Session::new().with_cache_dir(cache_dir), plan)?;
    let wire_ms = median_ms(5, || {
        for _ in 0..100 {
            black_box(wire_roundtrip(figures.as_bytes())?);
        }
        Ok(())
    })?;
    out.push(Metric::new(
        "daemon.wire_roundtrip_us",
        wire_ms * 1e3 / 100.0,
        "us",
    ));

    let daemon = Daemon::start(scratch.path("l.sock"), cache_dir)?;
    let mut client = daemon.client()?;
    let ping_ms = median_ms(5, || {
        for _ in 0..100 {
            client.ping()?;
        }
        Ok(())
    })?;
    out.push(Metric::new("daemon.ping_us", ping_ms * 1e3 / 100.0, "us"));

    let schedule = Schedule::new(config.seed);
    let repeat_text = ExperimentSpec::full_matrix(plan.scale).to_json();
    let traffic = Traffic {
        schedule: &schedule,
        repeat_text: &repeat_text,
    };
    let requests = if config.smoke { 1 } else { 4 } * specs::NOVEL_EVERY;
    let (replies, _) = serve::closed_loop(&daemon, &traffic, 0, &Limits::exactly(requests))?;
    if let Some(e) = replies.iter().find_map(|r| r.error.as_ref()) {
        return Err(format!("a ledger request failed: {e}"));
    }
    let queue_peak = client
        .stats()?
        .require("queue_peak")
        .and_then(|v| v.as_u64())?;
    drop(client);
    daemon.stop()?;
    out.extend(workloads::serve_diagnostics(&replies, queue_peak));
    Ok(())
}

/// `obs`: what recording one span costs the traced run itself.
fn span_cost(out: &mut Vec<Metric>) {
    let mut t = Tracer::new();
    let started = Instant::now();
    for _ in 0..100_000 {
        t.span("obs.probe", || ());
    }
    let ns = started.elapsed().as_nanos() as f64 / 100_000.0;
    black_box(t.spans().len());
    out.push(Metric::new("obs.span_record_ns", ns, "ns"));
}

/// Every layer's unit costs. Independent of the workload the traced run
/// names; the seed drives the substrate drivers' address streams and the
/// daemon section's novel requests.
///
/// Measured again by every traced run, though one would do: the driver has
/// each traced run print every per-layer metric and takes no time that
/// reads the same in every run, so a run cannot hand its numbers on.
pub fn unit_costs(config: &RunConfig) -> Result<Vec<Metric>, String> {
    let scale = config.scale();
    let scratch = Scratch::create()?;
    let cache_dir = scratch.path("cache");
    let mut out = Vec::new();
    let plan = workloads_and_plan(scale, &mut out)?;
    session_and_figures(&plan, &cache_dir, &scratch, &mut out)?;
    sim(scale, &mut out)?;
    out.extend(substrates::measure(config.seed)?);
    trace_codec(scale, &mut out)?;
    daemon(&plan, &cache_dir, config, &scratch, &mut out)?;
    span_cost(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use denovo_waste::WorkloadSet;

    #[test]
    fn assembles_what_compile_compiles() {
        let session = Session::new();
        for spec in [
            ExperimentSpec::full_matrix(ScaleProfile::Tiny),
            specs::net_models(ScaleProfile::Tiny),
            specs::novel(24),
        ] {
            let real = spec.compile(&WorkloadSet::new()).unwrap();
            let mine = traced_compile(&mut Tracer::new(), &spec).unwrap();
            assert_eq!(mine.name, real.name);
            assert_eq!(mine.protocols, real.protocols);
            assert_eq!(mine.rows, real.rows);
            assert_eq!(mine.variants, real.variants);
            assert_eq!(mine.cells.len(), real.cells.len());
            for (a, b) in mine.cells.iter().zip(&real.cells) {
                assert_eq!(
                    (&a.row, &a.label, a.protocol),
                    (&b.row, &b.label, b.protocol)
                );
                assert_eq!(a.workload_ref, b.workload_ref);
                assert_eq!(a.system, b.system);
                assert_eq!(session.key_of(a), session.key_of(b));
            }
        }
    }

    #[test]
    fn decomposed_ops_reproduce_the_goldens_and_account_for_every_layer() {
        for workload in Workload::ALL {
            let config = RunConfig {
                workload,
                seed: 5,
                limits: workload.limits(0.0, true),
                smoke: true,
                fill_in_child: false,
            };
            let (metrics, t) =
                decompose(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let value = |name: &str| {
                metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("no {name}"))
                    .value
            };
            // Layer self times and the root's own time tile the traced op.
            let layers: f64 = OP_LAYERS
                .iter()
                .map(|l| value(&format!("ledger.self_ms.{l}")))
                .sum();
            assert!(layers > 0.0 && layers <= value("ledger.op_traced_ms") * 1.0001);
            assert!(
                layers > 0.9 * value("ledger.op_traced_ms"),
                "{}",
                workload.name()
            );
            let sim_ms = value("ledger.self_ms.sim");
            let session_ms = value("ledger.self_ms.session");
            match workload {
                Workload::ColdMatrix | Workload::NetModels => assert!(sim_ms > session_ms),
                Workload::WarmMatrix | Workload::ServeMix => assert_eq!(sim_ms, 0.0),
            }
            assert_eq!(
                value("ledger.self_ms.daemon") > 0.0,
                workload == Workload::ServeMix
            );
            let names = spans::by_name(t.spans());
            assert!(names.contains_key("workloads.generate"));
            assert!(names.contains_key("plan.parse"));
        }
    }

    #[test]
    fn unit_costs_cover_every_layer_and_counts_repeat() {
        let a = unit_costs(&RunConfig {
            workload: Workload::ColdMatrix,
            seed: 9,
            limits: Limits::exactly(1),
            smoke: true,
            fill_in_child: false,
        })
        .unwrap();
        let digest = |m: &[Metric]| {
            m.iter()
                .find(|m| m.name == "sim.counts_digest48")
                .unwrap()
                .value
        };
        for layer in [
            "workloads",
            "plan",
            "session",
            "sim",
            "noc",
            "profiler",
            "dram",
            "bloom",
            "mem",
            "types",
            "protocols",
            "trace",
            "figures",
            "daemon",
            "serve",
            "obs",
        ] {
            assert!(
                a.iter().any(|m| spans::layer_of(&m.name) == layer),
                "no metric for layer {layer}"
            );
        }
        let mut again = Vec::new();
        sim(ScaleProfile::Tiny, &mut again).unwrap();
        assert_eq!(digest(&a), digest(&again));
        let ratio = a.iter().find(|m| m.name == "session.hit_ratio").unwrap();
        assert_eq!(ratio.value, 1.0);
    }
}
