//! Plan execution through a content-addressed result cache.
//!
//! A [`Session`] turns a compiled plan into a [`PlanOutcome`]. The plan's
//! cells are grouped by cache key, the keys whose cells differ only in
//! their network model are bundled into one run, the runs are queued on the
//! session's thread pool (`pool.rs`), and every cell of a group is handed
//! its key's report. The cache key of a cell digests **everything that
//! determines its `SimReport`** (bar the protocol label the report
//! carries):
//!
//! * the workload's content digest (trace header and packed records),
//! * the fully-resolved [`SystemConfig`] (every result-affecting field),
//! * the protocol whose machine the cell simulates
//!   ([`PlannedCell::effective_protocol`]): a protocol feature the
//!   workload's annotations cannot exercise does not make a new key,
//! * the barrier overhead (the constant `sim::BARRIER_OVERHEAD`), and
//! * [`ENGINE_VERSION`] — bumped whenever simulation semantics change, which
//!   retires every stale entry at once.
//!
//! Entries are one JSON file per key under the cache directory (`codec.rs`
//! writes and reads them, the report bit-exactly). A corrupt, truncated or
//! mismatched entry is treated as a miss and recomputed/overwritten, so the
//! cache can never poison a run — at worst it fails to speed one up.

use super::codec;
use super::memo::{self, Table};
use super::outcome::PlanOutcome;
use super::plan::{CompiledPlan, ExperimentError, ExperimentSpec, PlannedCell, WorkloadSet};
use super::pool::Pool;
use super::ScaleProfile;
use crate::report::SimReport;
use crate::sim::{SimConfig, Simulator, BARRIER_OVERHEAD};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tw_obs::{Span, SpanSink};
use tw_types::{Digest, Digester, ProtocolKind, SystemConfig};
use tw_workloads::Workload;

/// Version stamp of the simulation engine, folded into every cache key.
///
/// Bump this whenever a change alters any simulated number — protocol
/// behavior, timing model, traffic accounting, workload generators feeding
/// digested traces, the trace binary format, or the report codec. The cache
/// then misses on every old entry instead of serving stale results. The
/// suffix tracks the PR history: v3 is the engine as of the plan/session
/// redesign.
pub const ENGINE_VERSION: &str = "denovo-waste/engine-v3";

/// Cache hit/miss counters for one executed plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells served from the on-disk cache.
    pub hits: u64,
    /// Cells simulated (and, when a cache directory is configured, stored).
    pub misses: u64,
    /// Cells served from memory instead of simulating: by the first cell of
    /// the plan with the same key, or by the in-process single-flight table
    /// (the key was being, or had been, computed for another request of
    /// this session).
    pub coalesced: u64,
}

impl CacheStats {
    /// Total cells executed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses + self.coalesced
    }

    /// Fraction of cells served without running a simulation — from the
    /// on-disk cache or the single-flight table (0 when nothing ran).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / self.total() as f64
        }
    }
}

/// Computes the content-addressed cache key for one cell.
///
/// Exposed so tests can prove key sensitivity to every component; everything
/// else should go through [`Session`].
pub fn cache_key(
    trace_digest: Digest,
    system: &SystemConfig,
    protocol: ProtocolKind,
    engine_version: &str,
) -> Digest {
    let mut d = Digester::new();
    d.write_str(engine_version);
    d.write_str(protocol.name());
    // A constant, kept where every existing key has it.
    d.write_u64(BARRIER_OVERHEAD);
    system.digest_fields(&mut d);
    // The trace digest already covers regions, streams and metadata.
    d.write_u64((trace_digest.0 >> 64) as u64);
    d.write_u64(trace_digest.0 as u64);
    d.finish()
}

/// How one cell's report was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellSource {
    /// Loaded from the on-disk cache.
    DiskHit,
    /// Simulated by this call (the single-flight leader).
    Simulated,
    /// Shared from the single-flight table, or from the cell's leader in
    /// the plan, without simulating.
    Coalesced,
}

impl CellSource {
    /// The `outcome` attribute of the cell's span.
    fn name(self) -> &'static str {
        match self {
            CellSource::DiskHit => "disk_hit",
            CellSource::Simulated => "simulated",
            CellSource::Coalesced => "coalesced",
        }
    }
}

/// Where one cell of a plan gets its report (see [`Session::groups`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellGroup {
    /// The cell's cache key.
    pub key: Digest,
    /// The first cell of the plan with that key, which probes, simulates
    /// and stores it for the whole group (a leader's index is its own).
    pub leader: usize,
    /// The first leader of the run that simulates the key: leaders whose
    /// cells differ only in their network model share one run, a lane each ([`PlannedCell::shares_run_with`]).
    pub run: usize,
}

/// A leader's report and how it was obtained.
type Led = (SimReport, CellSource);

/// A leader as its run's pool job owns it: the cell's index in its plan,
/// its key, and the cell.
type Leader = (usize, Digest, PlannedCell);

/// One single-flight slot: a key's report once its leader has it. The
/// leader holds the lock from before its disk probe until the report is in.
type Slot = Arc<Mutex<Option<SimReport>>>;

/// State shared by every clone of a [`Session`]: the in-process
/// single-flight table, the workload counters, the thread pool and the
/// once-per-session temp-file sweep marker.
#[derive(Debug, Default)]
pub(super) struct SessionState {
    /// One slot per cache key being computed by this session. A cell of a
    /// concurrent request with the same key — two daemon clients submitting
    /// overlapping plans — waits on the leader's slot instead of simulating
    /// again (duplicates within one plan are grouped before they get here).
    /// A session without a cache directory retains its
    /// completed slots: the table is its only result cache. A session with
    /// one drops a slot as soon as the leader has stored the entry, so a
    /// long-lived daemon's table holds only what is in flight.
    inflight: Mutex<BTreeMap<Digest, Slot>>,
    /// Workloads that compile digested by their digest pass: keys with no
    /// committed line.
    pub(super) digest_passes: AtomicU64,
    /// Workload records that a run of this session built: at most one
    /// build per distinct workload per `execute`.
    materialized: AtomicU64,
    /// Where execute's runs fan out: every request of a daemon queues
    /// behind the ones before it.
    pub(super) pool: Pool,
    /// Whether this session already swept stray temp files from its cache
    /// directory (done once, on first execute).
    swept: AtomicBool,
}

/// What a session holds in memory right now and how often its compiles
/// digested a workload and its thread pool was used, for service metrics.
/// How many threads a pool starts depends on the host, so none of this
/// belongs in a recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Workloads that compile digested by running their digest pass, once
    /// per compile that needs them: keys with no committed
    /// `WORKLOADS.digests` line (a core count no builtin plan uses), or
    /// whose line's header digest the generator no longer makes. A builtin
    /// plan counts none, cold or warm.
    pub digest_passes: u64,
    /// Workload records that runs built: compile only digests a generated
    /// workload, and each `execute` builds a workload's records at most
    /// once, when one of its runs simulates, and drops them after its last
    /// run. A plan executed twice counts its builds twice; one whose every
    /// cell is cached counts none.
    pub workloads_materialized: u64,
    /// Slots in the single-flight table.
    pub flight_slots: u64,
    /// Threads the session's pool has started.
    pub pool_threads: u64,
    /// Fan-outs of two or more items handed to the session's pool.
    pub pool_batches: u64,
}

/// Executes experiment plans, optionally through a persistent result cache.
///
/// Clones share one single-flight table and one thread pool, so a session
/// handed to several threads (the daemon's handlers) never simulates the
/// same cache key twice concurrently, and runs the requests' simulations in
/// the order the requests queued them. Within one plan the same holds by
/// construction: `execute` runs one cell per distinct key. The pool's
/// threads start on the first fan-out and are joined when the last clone
/// drops, so a session made for one call keeps its threads for that call.
#[derive(Debug, Clone, Default)]
pub struct Session {
    cache_dir: Option<PathBuf>,
    /// Observer-lane flight recording: when set, every cell emits a span on
    /// the `<label>/<protocol>` track and hands the simulator a sink on the
    /// same track for its phase/run spans. Never read back — recording on
    /// or off, every simulated number is identical.
    recorder: Option<SpanSink>,
    /// The `WORKLOADS.digests` lines compile reads; the committed ones when
    /// `None`.
    digests: Option<Arc<Table>>,
    state: Arc<SessionState>,
}

impl Session {
    /// A session with no cache: every cell simulates.
    pub fn new() -> Self {
        Session::default()
    }

    /// A session with no cache whose pool starts up to `threads` threads,
    /// whatever the host's core count ([`Session::new`] starts up to one
    /// per core).
    pub fn with_threads(threads: usize) -> Self {
        Session {
            state: Arc::new(SessionState {
                pool: Pool::with_threads(threads),
                ..SessionState::default()
            }),
            ..Session::new()
        }
    }

    /// Routes this session through a cache directory (created on first
    /// use). Re-running a plan whose cells are cached is near-instant, and
    /// editing one protocol only recomputes that protocol's column.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The cache directory, if one is configured.
    pub fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// Arms flight recording on this session (and the simulators it runs).
    pub fn with_recorder(mut self, sink: SpanSink) -> Self {
        self.recorder = Some(sink);
        self
    }

    /// This session, compiling against `table` (the format of
    /// `WORKLOADS.digests`) instead of the committed table: a way to see
    /// what a stale or edited line does.
    ///
    /// # Errors
    ///
    /// A table that does not parse, naming its line.
    pub fn with_workload_digests(mut self, table: &str) -> Result<Self, ExperimentError> {
        let table = memo::parse_table(table).map_err(ExperimentError::Workload)?;
        self.digests = Some(Arc::new(table));
        Ok(self)
    }

    /// Compiles a spec on the calling thread, reading each generated
    /// workload's digest from this session's `WORKLOADS.digests` table, or
    /// running its digest pass for a key with no line (counted in
    /// [`SessionCounters::digest_passes`]). Its records are built by each
    /// [`Session::execute`] whose runs read them.
    /// [`ExperimentSpec::compile`] is this, on a session made for the call.
    pub fn compile(
        &self,
        spec: &ExperimentSpec,
        provided: &WorkloadSet,
    ) -> Result<CompiledPlan, ExperimentError> {
        let digests = self.digests.as_deref().unwrap_or(&memo::BUILTIN);
        spec.compile_with(provided, digests, &self.state.digest_passes)
    }

    /// Maps `f` over `items` on this session's thread pool, behind every
    /// fan-out its clones queued before, and returns the results in input
    /// order. Each item is dropped when its call returns. A fan-out from
    /// inside `f` runs inline, and a panic in `f` is resumed here.
    pub fn fan_out<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        self.state.pool.map(items, f)
    }

    /// Compiles and executes a spec in one step.
    pub fn run(
        &self,
        spec: &ExperimentSpec,
        provided: &WorkloadSet,
    ) -> Result<PlanOutcome, ExperimentError> {
        self.execute(&self.compile(spec, provided)?)
    }

    /// A reading of this session's in-memory state (shared by its clones).
    pub fn counters(&self) -> SessionCounters {
        SessionCounters {
            digest_passes: self.state.digest_passes.load(Ordering::Relaxed),
            workloads_materialized: self.state.materialized.load(Ordering::Relaxed),
            flight_slots: self.state.inflight.lock().expect("inflight lock").len() as u64,
            pool_threads: self.state.pool.threads(),
            pool_batches: self.state.pool.batches(),
        }
    }

    /// Executes a compiled plan: one report per distinct cache key, every
    /// cell of a key handed that report under its own protocol's name, and
    /// one simulation for all the keys of a run ([`Session::groups`]). How
    /// a cell is counted depends on the plan and the cache's state, never
    /// on timing: a group's leader as what it did, the rest of the group as
    /// `hits` if the leader read the report from disk, else `coalesced`.
    pub fn execute(&self, plan: &CompiledPlan) -> Result<PlanOutcome, ExperimentError> {
        if let Some(dir) = &self.cache_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                ExperimentError::Io(format!(
                    "cannot create cache directory {}: {e}",
                    dir.display()
                ))
            })?;
            // First execute of this session: sweep temp files orphaned by a
            // crashed writer. The age threshold keeps a *live* concurrent
            // writer's temp file safe (no store takes minutes, let alone
            // this long).
            if !self.state.swept.swap(true, Ordering::Relaxed) {
                let _ = sweep_temp_files(dir, TEMP_SWEEP_AGE);
            }
        }
        // Each distinct machine is simulated once, and the machines that
        // differ only in their network model in one run: only the runs fan
        // out, so a duplicate never parks a pool thread on its leader's slot
        // while another key waits for a core.
        let groups = self.groups(plan);
        let mut runs: BTreeMap<usize, Vec<Leader>> = BTreeMap::new();
        for (i, group) in groups.iter().enumerate() {
            if group.leader == i {
                let leader = (i, group.key, plan.cells[i].clone());
                runs.entry(group.run).or_default().push(leader);
            }
        }
        // The runs over one workload share one `Arc` of it per execute, so
        // its records are built at most once per execute, and the pool
        // drops each run when it returns, so the last of them drops the
        // records. Plan order is workload-major and the pool is FIFO, so
        // only the workloads of the runs in flight hold records.
        let mut workloads: BTreeMap<Digest, Arc<Workload>> = BTreeMap::new();
        let runs: Vec<(Arc<Workload>, Vec<Leader>)> = runs
            .into_values()
            .map(|leaders| {
                let cell = &leaders[0].2;
                let workload = workloads
                    .entry(cell.workload_ref.digest)
                    .or_insert_with(|| runs_read(&cell.workload));
                (Arc::clone(workload), leaders)
            })
            .collect();
        // The runs hold the only handles.
        drop(workloads);
        let (session, scale) = (self.clone(), plan.scale);
        let results = self.fan_out(runs, move |(workload, leaders)| {
            session.run_together(&leaders, &workload, scale)
        });
        let mut led = BTreeMap::new();
        for result in results {
            led.extend(result?);
        }

        let mut reports = BTreeMap::new();
        let mut cache = CacheStats::default();
        // Last to first, so that a leader — the first cell of its group — is
        // reached after everyone it serves and gives its report away: only
        // a duplicate costs a copy (PERFORMANCE.md, PR 21, has what copying
        // every report on this thread did to peak RSS).
        for (i, cell) in plan.cells.iter().enumerate().rev() {
            let leader = groups[i].leader;
            let (mut report, led_source) = if leader == i {
                led.remove(&i).expect("every leader ran")
            } else {
                led[&leader].clone()
            };
            // The leader counts as what it did; the rest of its group was
            // served by it — from the disk if that is where it found the
            // report, from memory otherwise.
            let source = if leader == i || led_source == CellSource::DiskHit {
                led_source
            } else {
                CellSource::Coalesced
            };
            match source {
                CellSource::DiskHit => cache.hits += 1,
                CellSource::Simulated => cache.misses += 1,
                CellSource::Coalesced => cache.coalesced += 1,
            }
            if leader != i {
                if let Some(sink) = &self.recorder {
                    sink.with_track(cell.track()).emit(
                        Span::event("cell")
                            .attr("outcome", source.name())
                            .attr("alias_of", plan.cells[leader].name_from(cell)),
                    );
                }
            }
            report.protocol = cell.protocol;
            reports.insert((cell.row.clone(), cell.protocol), report);
        }
        Ok(PlanOutcome {
            name: plan.name.clone(),
            protocols: plan.protocols.clone(),
            baseline: plan.baseline,
            rows: plan.rows.clone(),
            variants: plan.variants.clone(),
            reports,
            cache,
        })
    }

    /// The cache key of one planned cell under this session's run
    /// configuration: the identity of the machine it simulates, so cells
    /// that differ only in a protocol feature their workload cannot
    /// exercise share one key and one entry.
    pub fn key_of(&self, cell: &PlannedCell) -> Digest {
        cache_key(
            cell.workload_ref.digest,
            &cell.system,
            cell.effective_protocol(),
            ENGINE_VERSION,
        )
    }

    /// Where every cell of `plan` gets its report: its cache key, its
    /// group's leader (the first cell with that key) and its run (the first
    /// leader among the leaders whose cells differ only in their network
    /// model, [`PlannedCell::shares_run_with`]). A pure function of the
    /// plan: [`Session::execute`] simulates each run once, a lane per
    /// leader, and hands every cell its leader's report.
    pub fn groups(&self, plan: &CompiledPlan) -> Vec<CellGroup> {
        let mut first = BTreeMap::new();
        let mut runs: Vec<usize> = Vec::new();
        let mut groups: Vec<CellGroup> = Vec::with_capacity(plan.cells.len());
        for (i, cell) in plan.cells.iter().enumerate() {
            let key = self.key_of(cell);
            let leader = *first.entry(key).or_insert(i);
            let run = if leader != i {
                groups[leader].run
            } else if let Some(&run) = runs
                .iter()
                .find(|&&run| plan.cells[run].shares_run_with(cell))
            {
                run
            } else {
                runs.push(i);
                i
            };
            groups.push(CellGroup { key, leader, run });
        }
        groups
    }

    /// Resolves the leaders of one run, returning each one's report and how
    /// it was obtained. Every leader takes its key's single-flight slot and
    /// probes the disk under its own key; the leaders that miss are
    /// simulated together, a lane each, on `workload`, and stored under
    /// their own keys.
    fn run_together(
        &self,
        leaders: &[Leader],
        workload: &Workload,
        scale: ScaleProfile,
    ) -> Result<Vec<(usize, Led)>, ExperimentError> {
        // Timers exist only when a recorder is attached, so the unrecorded
        // path pays one Option probe per cell, nothing per op.
        let timer = || self.recorder.as_ref().map(|_| Instant::now());
        let micros = |t: Option<Instant>| t.map_or(0, |t| t.elapsed().as_micros() as u64);
        let mut members: Vec<Member> = leaders
            .iter()
            .map(|&(index, key, ref cell)| Member {
                index,
                cell,
                key,
                sink: self.recorder.as_ref().map(|s| s.with_track(cell.track())),
                path: self
                    .cache_dir
                    .as_ref()
                    .map(|d| d.join(format!("{key}.json"))),
                source: CellSource::Coalesced,
                probe_us: 0,
                sim_us: 0,
                store_us: 0,
            })
            .collect();
        // A run holds the slots of all its leaders at once, so it takes them
        // in key order: two runs that share keys never wait on each other.
        members.sort_by_key(|m| m.key);
        // Single-flight: the slots are taken before anything is looked up,
        // so exactly one caller per key — the leader — probes the disk and,
        // on a miss, simulates; everyone who arrives while it runs shares
        // its report, and whoever arrives after it dropped the slot leads a
        // fresh one and finds the entry on disk.
        let slots: Vec<Slot> = {
            let mut inflight = self.state.inflight.lock().expect("inflight lock");
            let mut slot = |key| Arc::clone(inflight.entry(key).or_default());
            members.iter().map(|m| slot(m.key)).collect()
        };
        // The slots this run leads leave the table when it ends, after
        // `held` lets go of them, unless it succeeds without a cache
        // directory (below). An `Err` or a panic leaves them empty, and
        // their next leader simulates.
        let mut led = Vacate {
            inflight: &self.state.inflight,
            keys: Vec::new(),
        };
        // A slot is written once and whole, so one whose holder panicked is
        // still empty, and its next leader simulates.
        let mut held: Vec<_> = slots
            .iter()
            .map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let mut missing = Vec::new();
        for (k, (member, slot)) in members.iter_mut().zip(&mut held).enumerate() {
            if slot.is_some() {
                continue; // another request's leader filled it
            }
            led.keys.push(member.key);
            if let Some(path) = &member.path {
                let t = timer();
                let hit = probe_entry(path, member.key);
                member.probe_us = micros(t);
                if hit.is_some() {
                    member.source = CellSource::DiskHit;
                    **slot = hit;
                    continue;
                }
            }
            member.source = CellSource::Simulated;
            missing.push(k);
        }
        if let Some(&first) = missing.first() {
            let t = timer();
            // The first run to simulate builds the records, counted once,
            // while any other waits for them; a refused build is every
            // run's error.
            let built = workload
                .traces
                .try_materialize()
                .map_err(|e| ExperimentError::Workload(format!("{} scale: {e}", scale.name())))?;
            if built {
                self.state.materialized.fetch_add(1, Ordering::Relaxed);
            }
            let lanes = missing
                .iter()
                .map(|&k| self.config(members[k].cell, members[k].sink.clone()))
                .collect();
            let reports = Simulator::try_new(lanes, workload)
                .map_err(ExperimentError::Simulation)?
                .run_lanes();
            // One run's wall time is counted once: every cell it simulated
            // gets an equal share, the first one also the remainder.
            let (us, n) = (micros(t), missing.len() as u64);
            for (&k, report) in missing.iter().zip(reports) {
                members[k].sim_us = us / n;
                *held[k] = Some(report);
            }
            members[first].sim_us += us % n;
        }
        let reports: Vec<SimReport> = held
            .iter()
            .map(|slot| (**slot).clone().expect("every slot is filled"))
            .collect();
        drop(held);
        // Without a cache directory the table is the session's only result
        // cache, and every slot this run led now holds its report. With one,
        // the entry goes to disk, where the next leader finds it, and
        // whoever coalesced holds the slot already: it has no reader left.
        // Dropping it after a failed store as well means the next request
        // for the key simulates and stores again, instead of being served
        // from memory while the entry stays missing (or corrupt) on disk.
        if self.cache_dir.is_none() {
            led.keys.clear();
        }
        let mut stored = Ok(());
        for (member, report) in members.iter_mut().zip(&reports) {
            let Some(path) = &member.path else { continue };
            if member.source == CellSource::Coalesced {
                continue;
            }
            let t = timer();
            if member.source == CellSource::Simulated {
                stored = stored.and(store_entry(path, member.key, member.cell, report));
            }
            member.store_us = micros(t);
        }
        stored?;
        // The outcome is the deterministic payload; every wall-clock
        // measurement is quarantined in `timing`.
        for member in &members {
            if let Some(sink) = &member.sink {
                sink.emit(
                    Span::event("cell")
                        .attr("outcome", member.source.name())
                        .timing_us("probe_us", member.probe_us)
                        .timing_us("sim_us", member.sim_us)
                        .timing_us("store_us", member.store_us),
                );
            }
        }
        Ok(members
            .iter()
            .zip(reports)
            .map(|(member, report)| (member.index, (report, member.source)))
            .collect())
    }

    /// The run configuration of `cell` under this session, its spans on
    /// `sink`.
    fn config(&self, cell: &PlannedCell, sink: Option<SpanSink>) -> SimConfig {
        let mut cfg = SimConfig::new(cell.effective_protocol()).with_system(cell.system.clone());
        cfg.recorder = sink;
        cfg
    }

    #[cfg(test)]
    pub(super) fn pool(&self) -> &Pool {
        &self.state.pool
    }
}

/// One leader of a run while [`Session::run_together`] resolves it.
struct Member<'p> {
    /// The cell's index in its plan.
    index: usize,
    cell: &'p PlannedCell,
    key: Digest,
    sink: Option<SpanSink>,
    /// The cell's cache entry, when the session has a cache directory.
    path: Option<PathBuf>,
    source: CellSource,
    probe_us: u64,
    sim_us: u64,
    store_us: u64,
}

/// The single-flight slots one run leads. Dropping it takes the slots of
/// `keys` out of the table, whether the run returns, fails or panics.
struct Vacate<'s> {
    inflight: &'s Mutex<BTreeMap<Digest, Slot>>,
    keys: Vec<Digest>,
}

impl Drop for Vacate<'_> {
    fn drop(&mut self) {
        // No one panics while holding the table, so it is never poisoned;
        // a second panic here, while unwinding, would abort.
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        for key in &self.keys {
            inflight.remove(key);
        }
    }
}

/// The workload the runs of one [`Session::execute`] over `workload` read:
/// `workload` itself if its records are in memory (a trace, a provided
/// workload), else a clone of its recipe, which the first run to simulate
/// builds, so that the plan's workload stays a recipe.
fn runs_read(workload: &Arc<Workload>) -> Arc<Workload> {
    if workload.traces.is_built() {
        Arc::clone(workload)
    } else {
        // A clone of unbuilt streams is the recipe alone.
        Arc::new(Workload::clone(workload))
    }
}

/// Probes a cache entry; never errors. An entry that is absent, unreadable,
/// garbled, truncated, or carrying the wrong engine version or key is a
/// miss: the cell is simulated and the entry written over.
fn probe_entry(path: &std::path::Path, key: Digest) -> Option<SimReport> {
    let text = std::fs::read_to_string(path).ok()?;
    codec::entry_report(&text, key).ok()
}

/// Persists one entry atomically (write to a sibling temp file, then
/// rename), so a crashed or concurrent run can never leave a torn entry.
fn store_entry(
    path: &std::path::Path,
    key: Digest,
    cell: &PlannedCell,
    report: &SimReport,
) -> Result<(), ExperimentError> {
    let doc = codec::entry_to_json(
        key,
        cell.workload_ref.to_string(),
        cell.effective_protocol(),
        report,
    );
    // Two cells can legitimately share a key (same content under two
    // names), and two processes can share a cache directory; the cell
    // identity plus the process id keep every writer on its own temp file.
    let mut nonce = Digester::new();
    nonce.write_str(&cell.label);
    nonce.write_str(cell.protocol.name());
    let tmp = path.with_extension(format!(
        "tmp-{}-{}",
        std::process::id(),
        nonce.finish().short()
    ));
    // A failed write or rename must not strand the temp file: a long-running
    // daemon would slowly fill its cache directory with orphans. The sweep
    // in `Session::execute` (and at daemon startup) is the second line of
    // defense, for writers that crash between the two calls.
    if let Err(e) = std::fs::write(&tmp, doc.pretty()) {
        let _ = std::fs::remove_file(&tmp);
        return Err(ExperimentError::Io(format!(
            "cannot write {}: {e}",
            tmp.display()
        )));
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(ExperimentError::Io(format!(
            "cannot commit {}: {e}",
            path.display()
        )));
    }
    Ok(())
}

/// Minimum age before the automatic sweeps consider a temp file orphaned.
/// Stores take milliseconds; a concurrent writer's live temp file is never
/// anywhere near this old.
pub const TEMP_SWEEP_AGE: Duration = Duration::from_secs(15 * 60);

/// Removes stray `*.tmp-<pid>-<nonce>` files older than `older_than` from a
/// cache directory, returning how many were removed.
///
/// These are the intermediate files of `store_entry`'s write-then-rename
/// commit; one survives only if a writer crashed between the two syscalls
/// (the error paths clean up after themselves). Sessions sweep their
/// directory once on first execute and the daemon sweeps at startup, both
/// with [`TEMP_SWEEP_AGE`]; tests pass [`Duration::ZERO`] to sweep
/// unconditionally. A missing directory is not an error (0 removed).
///
/// # Errors
///
/// Any I/O error listing the directory. Per-file removal failures are
/// ignored (another sweeper may have won the race).
pub fn sweep_temp_files(dir: &std::path::Path, older_than: Duration) -> std::io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let now = std::time::SystemTime::now();
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_temp = std::path::Path::new(name)
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.starts_with("tmp-"));
        if !is_temp {
            continue;
        }
        let old_enough = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .is_some_and(|age| age >= older_than);
        if old_enough && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_is_sensitive_to_every_component() {
        let sys = SystemConfig::default();
        let digest = Digest::of_bytes(b"trace");
        let base = cache_key(digest, &sys, ProtocolKind::Mesi, ENGINE_VERSION);
        assert_eq!(
            base,
            cache_key(digest, &sys, ProtocolKind::Mesi, ENGINE_VERSION)
        );
        // Trace bytes.
        assert_ne!(
            base,
            cache_key(
                Digest::of_bytes(b"tracf"),
                &sys,
                ProtocolKind::Mesi,
                ENGINE_VERSION
            )
        );
        // Protocol.
        assert_ne!(
            base,
            cache_key(digest, &sys, ProtocolKind::DeNovo, ENGINE_VERSION)
        );
        // System geometry.
        let mut other = sys.clone();
        other.cache.l2_slice_bytes = 128 * 1024;
        assert_ne!(
            base,
            cache_key(digest, &other, ProtocolKind::Mesi, ENGINE_VERSION)
        );
        // Engine version.
        assert_ne!(
            base,
            cache_key(digest, &sys, ProtocolKind::Mesi, "denovo-waste/engine-v2")
        );
    }

    #[test]
    fn cache_key_is_pinned() {
        // A literal, so a change to the key recipe (or to the digest under
        // it) cannot pass unnoticed: every entry of every existing cache
        // directory is addressed by values like this one.
        let key = cache_key(
            Digest::of_bytes(b"trace"),
            &SystemConfig::default(),
            ProtocolKind::Mesi,
            ENGINE_VERSION,
        );
        assert_eq!(key.to_string(), "73655566b013b016bb07a90aea010652");
    }

    #[test]
    fn cache_keys_of_every_scale_and_variant_axis_are_pinned() {
        // Literals, one per scale and per axis a spec variant sets, so that
        // no change to how the machine is described can move the key of a
        // system a plan can name.
        let variant = |f: fn(&mut SystemConfig)| {
            let mut sys = SystemConfig::default();
            f(&mut sys);
            sys
        };
        let systems = [
            (
                "scaled",
                ScaleProfile::Scaled.system(),
                "5d10466fe3f233d73c53a29148ead6d8",
            ),
            (
                "tiny",
                ScaleProfile::Tiny.system(),
                "5a0a5f9e63b7cc7e598211f62585b906",
            ),
            (
                "5x2 mesh",
                variant(|s| (s.noc.cols, s.noc.rows) = (5, 2)),
                "ea296377750bff670378c40eaf30737f",
            ),
            (
                "16 KiB L1",
                variant(|s| s.cache.l1_bytes = 16 * 1024),
                "b07f1dda0ccd6cf0e36497bfc84d16f0",
            ),
            (
                "24 KiB L2 slice",
                variant(|s| s.cache.l2_slice_bytes = 24 * 1024),
                "97c4326f4bef27febddee231488aea97",
            ),
            (
                "flit",
                variant(|s| s.network = tw_types::NetworkModelKind::FlitLevel),
                "5ecfa68d40755b88b1a8c616adeb3fa1",
            ),
            (
                "bus",
                variant(|s| s.network = tw_types::NetworkModelKind::SnoopBus),
                "cc14165f322ac68bf6cb011d9b06478d",
            ),
        ];
        for (name, sys, want) in systems {
            let key = cache_key(
                Digest::of_bytes(b"trace"),
                &sys,
                ProtocolKind::Mesi,
                ENGINE_VERSION,
            );
            assert_eq!(key.to_string(), want, "{name}");
        }
    }

    #[test]
    fn the_default_session_is_the_new_session() {
        let plan = ExperimentSpec::subset(
            vec![ProtocolKind::Mesi],
            vec![tw_workloads::BenchmarkKind::Fft],
            ScaleProfile::Tiny,
        )
        .compile(&WorkloadSet::new())
        .unwrap();
        assert_eq!(
            Session::default().key_of(&plan.cells[0]),
            Session::new().key_of(&plan.cells[0])
        );
    }

    #[test]
    fn a_cell_the_simulator_refuses_is_an_experiment_error() {
        // `compile` refuses such a system; a plan built by hand is refused
        // when it runs, as a typed error rather than a panic.
        let mut plan = ExperimentSpec::subset(
            vec![ProtocolKind::Mesi],
            vec![tw_workloads::BenchmarkKind::Fft],
            ScaleProfile::Tiny,
        )
        .compile(&WorkloadSet::new())
        .unwrap();
        plan.cells[0].system.cache.l1_bytes = 0;
        let err = Session::new().execute(&plan).unwrap_err();
        assert!(
            matches!(
                err,
                ExperimentError::Simulation(crate::sim::SimError::InvalidSystem(_))
            ),
            "{err}"
        );
    }

    #[test]
    fn records_that_are_not_the_committed_ones_are_an_experiment_error() {
        // A hand-built plan whose workload carries a stale committed digest:
        // its first run that builds the records refuses them, names the
        // workload, and keeps no copy, so the next execute fails alike.
        let mut plan = ExperimentSpec::subset(
            vec![ProtocolKind::Mesi, ProtocolKind::DeNovo],
            vec![tw_workloads::BenchmarkKind::Fft],
            ScaleProfile::Tiny,
        )
        .compile(&WorkloadSet::new())
        .unwrap();
        let fft = &plan.cells[0].workload;
        let (stale, _) =
            tw_workloads::Generator::new(tw_workloads::BenchmarkKind::Fft, ScaleProfile::Tiny)
                .unwrap()
                .committed(
                    16,
                    Digest(1),
                    fft.traces.record_count(),
                    fft.traces.mem_ops(),
                )
                .unwrap();
        let stale = Arc::new(stale);
        for cell in &mut plan.cells {
            cell.workload = Arc::clone(&stale);
        }
        let session = Session::new();
        for _ in 0..2 {
            let err = session.execute(&plan).unwrap_err();
            assert_eq!(
                err,
                ExperimentError::Workload(
                    "tiny scale: FFT on 16 cores built other records than it digested".into()
                )
            );
        }
        assert_eq!(session.counters().workloads_materialized, 0);
        assert_eq!(session.counters().flight_slots, 0);
        assert!(!stale.traces.is_built());
    }

    /// A lazy Tiny FFT workload on four cores: its digest pass is done, its
    /// records are not built.
    fn lazy_fft() -> Arc<Workload> {
        let (workload, _) =
            tw_workloads::Generator::new(tw_workloads::BenchmarkKind::Fft, ScaleProfile::Tiny)
                .unwrap()
                .digested(4)
                .unwrap();
        assert!(!workload.traces.is_built());
        Arc::new(workload)
    }

    #[test]
    fn a_provided_workload_is_shared_not_copied() {
        let workload = tw_workloads::build_tiny(tw_workloads::BenchmarkKind::Fft, 16).unwrap();
        let built = Arc::new(workload.clone());
        assert!(Arc::ptr_eq(&runs_read(&built), &built));
        // A recipe is not: its runs build a clone, and it stays a recipe.
        let recipe = lazy_fft();
        let read = runs_read(&recipe);
        assert!(!Arc::ptr_eq(&read, &recipe));
        assert_eq!(read.traces.try_materialize(), Ok(true));
        assert!(!recipe.traces.is_built());

        // The same through `execute`: the plan's workload is the one the
        // runs read, and nothing is built.
        let mut spec = ExperimentSpec::subset(
            vec![ProtocolKind::Mesi, ProtocolKind::DeNovo],
            vec![],
            ScaleProfile::Tiny,
        );
        spec.workloads = vec![super::super::WorkloadSpec::provided("fft")];
        let mut provided = WorkloadSet::new();
        provided.insert("fft", workload);
        let plan = spec.compile(&provided).unwrap();
        assert!(Arc::ptr_eq(
            &plan.cells[0].workload,
            provided.get("fft").unwrap()
        ));
        let session = Session::new();
        session.execute(&plan).unwrap();
        assert_eq!(session.counters().workloads_materialized, 0);
    }

    #[test]
    fn compile_starts_no_thread() {
        let session = Session::with_threads(4);
        let plan = session
            .compile(
                &ExperimentSpec::full_matrix(ScaleProfile::Tiny),
                &WorkloadSet::new(),
            )
            .unwrap();
        assert_eq!(plan.cells.len(), 54);
        let counters = session.counters();
        assert_eq!((counters.pool_threads, counters.pool_batches), (0, 0));
    }

    #[test]
    fn a_trace_file_is_read_on_every_compile() {
        let dir = std::env::temp_dir().join("tw-session-trace-compile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.trace");
        let mut spec = ExperimentSpec::subset(vec![ProtocolKind::Mesi], vec![], ScaleProfile::Tiny);
        spec.workloads = vec![super::super::WorkloadSpec::trace("from-file", &path)];
        let session = Session::new();
        let digest_after_writing = |kind| {
            let workload = ScaleProfile::Tiny.try_workload(kind, 16).unwrap();
            workload.to_trace().save(&path, false).unwrap();
            let plan = session.compile(&spec, &WorkloadSet::new()).unwrap();
            assert_eq!(
                plan.cells[0].workload_ref.digest,
                workload.content_digest().unwrap()
            );
            plan.cells[0].workload_ref.digest
        };
        // Same path, new content: the second compile follows the file.
        let fft = digest_after_writing(tw_workloads::BenchmarkKind::Fft);
        let lu = digest_after_writing(tw_workloads::BenchmarkKind::Lu);
        assert_ne!(fft, lu);
        assert_eq!(session.counters().digest_passes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_stats_arithmetic() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            coalesced: 0,
        };
        assert_eq!(s.total(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        // Coalesced cells count as served-without-simulating.
        let c = CacheStats {
            hits: 1,
            misses: 2,
            coalesced: 1,
        };
        assert_eq!(c.total(), 4);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }
}
