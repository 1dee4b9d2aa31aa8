//! Declarative experiment plans: the spec grammar, cell identity, and
//! compilation into runnable cells.
//!
//! An [`ExperimentSpec`] is the serializable description of an experiment —
//! three sweep axes (protocols × workloads × system variants) plus the
//! baseline figures normalize to. [`ExperimentSpec::compile`] resolves every
//! axis into a flat list of [`PlannedCell`]s with *stable identity*: each
//! cell names a workload by [`WorkloadRef`] (label + content digest of the
//! trace header and records), a protocol, and a fully-resolved
//! [`SystemConfig`]. Identity is what makes the result cache sound (see
//! `session.rs`) and what kills the old duplicate-`BenchmarkKind`
//! restriction: two synthesized workloads are two distinct refs no matter
//! what kind they carry.

use super::session::{Session, SessionState};
use super::ScaleProfile;
use crate::sim::SimError;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tw_obs::Json;
use tw_types::{Digest, NetworkModelKind, ProtocolKind, SystemConfig};
use tw_workloads::{BenchmarkKind, Workload};

/// Schema tag of the spec JSON document.
pub const SPEC_SCHEMA: &str = "denovo-waste/experiment-spec/v1";

/// Everything that can go wrong compiling or executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// Two workloads in one plan share a name (old API: shared a
    /// `BenchmarkKind`).
    DuplicateWorkload(String),
    /// A workload's core count does not match a variant's tile count.
    CoreCountMismatch {
        /// The workload's label.
        workload: String,
        /// Cores the workload was recorded/generated for.
        workload_cores: usize,
        /// The system variant's label.
        variant: String,
        /// Tiles that variant's mesh has.
        tiles: usize,
    },
    /// A figure or accessor quoted a (row, protocol) cell the plan did not
    /// contain.
    MissingCell {
        /// The row label quoted.
        row: String,
        /// The protocol quoted.
        protocol: ProtocolKind,
    },
    /// The headline summary quotes a protocol the plan did not sweep.
    MissingProtocol(ProtocolKind),
    /// The spec document is structurally invalid (bad JSON, unknown names,
    /// empty axes, duplicate variant labels, ...).
    InvalidSpec(String),
    /// A system variant resolved to a configuration that fails validation.
    InvalidSystem {
        /// The variant's label.
        variant: String,
        /// The validation failure.
        reason: String,
    },
    /// A workload could not be built or loaded.
    Workload(String),
    /// The simulator refused a cell (a plan the compiler did not make).
    Simulation(SimError),
    /// Filesystem trouble (cache directory, trace files, spec files).
    Io(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::DuplicateWorkload(name) => {
                write!(f, "two workloads in the plan share the name `{name}`")
            }
            ExperimentError::CoreCountMismatch {
                workload,
                workload_cores,
                variant,
                tiles,
            } => write!(
                f,
                "workload `{workload}` has {workload_cores} cores but variant `{variant}` has {tiles} tiles"
            ),
            ExperimentError::MissingCell { row, protocol } => {
                write!(f, "the plan has no cell for {row} under {protocol}")
            }
            ExperimentError::MissingProtocol(p) => {
                write!(f, "the headline summary needs protocol {p}, which the plan did not sweep")
            }
            ExperimentError::InvalidSpec(msg) => write!(f, "invalid experiment spec: {msg}"),
            ExperimentError::InvalidSystem { variant, reason } => {
                write!(f, "variant `{variant}` is not a valid system: {reason}")
            }
            ExperimentError::Workload(msg) => write!(f, "cannot build workload: {msg}"),
            ExperimentError::Simulation(e) => write!(f, "cannot simulate: {e}"),
            ExperimentError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Lets callers whose error type is a plain message (the `experiments`
/// binary) apply `?` to an [`ExperimentError`].
impl From<ExperimentError> for String {
    fn from(e: ExperimentError) -> String {
        e.to_string()
    }
}

/// First-class workload identity: a human-chosen label plus the workload's
/// content digest.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WorkloadRef {
    /// The label the plan knows the workload by (unique within a plan).
    pub name: String,
    /// `Workload::content_digest`: the trace header and the packed records,
    /// the same whether the workload was generated or read from either
    /// trace encoding. It is the workload half of every cache key.
    pub digest: Digest,
}

impl fmt::Display for WorkloadRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.name, self.digest.short())
    }
}

/// Where one workload of a plan comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSource {
    /// Generated by a paper benchmark's generator at the plan's scale (core
    /// count comes from each variant).
    Bench(BenchmarkKind),
    /// Replayed from a trace file on disk.
    Trace(PathBuf),
    /// Supplied at run time through a [`WorkloadSet`] — the intake for
    /// synthesized workloads and other in-memory traces.
    Provided(String),
}

impl WorkloadSource {
    /// The name a workload from this source has when its spec entry names
    /// none. The spec codec writes a `name` only where it differs, keeping
    /// hand-written specs terse.
    pub fn default_name(&self) -> String {
        match self {
            WorkloadSource::Bench(kind) => kind.name().to_string(),
            WorkloadSource::Trace(path) => path.to_string_lossy().into_owned(),
            WorkloadSource::Provided(name) => name.clone(),
        }
    }
}

/// One named workload axis entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Unique label within the plan (also the figure row prefix).
    pub name: String,
    /// Where the workload comes from.
    pub source: WorkloadSource,
}

impl WorkloadSpec {
    /// A paper benchmark, labelled by its figure name.
    pub fn bench(kind: BenchmarkKind) -> Self {
        WorkloadSpec {
            name: kind.name().to_string(),
            source: WorkloadSource::Bench(kind),
        }
    }

    /// A trace file, labelled `name`.
    pub fn trace(name: impl Into<String>, path: impl Into<PathBuf>) -> Self {
        WorkloadSpec {
            name: name.into(),
            source: WorkloadSource::Trace(path.into()),
        }
    }

    /// A run-time-supplied workload, labelled `name` (the same name must be
    /// registered in the [`WorkloadSet`] passed to `compile`).
    pub fn provided(name: impl Into<String>) -> Self {
        let name = name.into();
        WorkloadSpec {
            name: name.clone(),
            source: WorkloadSource::Provided(name),
        }
    }
}

/// One system-variant axis entry: the plan-scale base system with any of the
/// sweepable geometry parameters overridden.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemVariant {
    /// Unique label within the plan ("base" for the no-override variant).
    pub label: String,
    /// Mesh geometry `(cols, rows)` — sweeps the core count.
    pub mesh: Option<(usize, usize)>,
    /// Private L1 size in bytes.
    pub l1_bytes: Option<u64>,
    /// Shared L2 slice size in bytes.
    pub l2_slice_bytes: Option<u64>,
    /// Network timing model (mutually exclusive with the spec-level
    /// `networks` axis, which expands into this field).
    pub network: Option<NetworkModelKind>,
}

impl SystemVariant {
    /// The no-override variant.
    pub fn base() -> Self {
        SystemVariant {
            label: "base".to_string(),
            mesh: None,
            l1_bytes: None,
            l2_slice_bytes: None,
            network: None,
        }
    }

    /// A labelled variant overriding only the network timing model.
    pub fn network(label: impl Into<String>, model: NetworkModelKind) -> Self {
        SystemVariant {
            network: Some(model),
            ..SystemVariant::base()
        }
        .with_label(label)
    }

    /// A labelled variant overriding only the L2 slice size.
    pub fn l2_slice(label: impl Into<String>, bytes: u64) -> Self {
        SystemVariant {
            l2_slice_bytes: Some(bytes),
            ..SystemVariant::base()
        }
        .with_label(label)
    }

    /// A labelled variant overriding only the mesh (and therefore the core
    /// count = cols × rows).
    pub fn mesh(label: impl Into<String>, cols: usize, rows: usize) -> Self {
        SystemVariant {
            mesh: Some((cols, rows)),
            ..SystemVariant::base()
        }
        .with_label(label)
    }

    fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Applies the overrides to a base system.
    pub fn apply(&self, sys: &mut SystemConfig) {
        if let Some((cols, rows)) = self.mesh {
            sys.noc.cols = cols;
            sys.noc.rows = rows;
        }
        if let Some(b) = self.l1_bytes {
            sys.cache.l1_bytes = b;
        }
        if let Some(b) = self.l2_slice_bytes {
            sys.cache.l2_slice_bytes = b;
        }
        if let Some(n) = self.network {
            sys.network = n;
        }
    }
}

/// The top-level keys of a spec document.
const SPEC_FIELDS: [&str; 8] = [
    "schema",
    "name",
    "scale",
    "baseline",
    "protocols",
    "workloads",
    "variants",
    "networks",
];

/// Refuses a field of the spec object `entry` that `known` does not list:
/// `unknown(key)` names it, followed by the accepted keys. The document and
/// its workload and variant entries are all checked, so a misspelt key is
/// an error, never a silently applied default.
fn known_fields(
    entry: &Json,
    known: &[&str],
    unknown: impl Fn(&str) -> String,
) -> Result<(), ExperimentError> {
    let fields = entry.as_obj().map_err(ExperimentError::InvalidSpec)?;
    match fields
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, _)) => Err(ExperimentError::InvalidSpec(format!(
            "{} (expected {})",
            unknown(key),
            known.join(" | ")
        ))),
        None => Ok(()),
    }
}

/// The declarative, JSON-round-trippable description of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Plan name (used in output headers and artifact labels).
    pub name: String,
    /// Input scale for generated workloads and the base system.
    pub scale: ScaleProfile,
    /// Protocol axis, in figure order.
    pub protocols: Vec<ProtocolKind>,
    /// Workload axis, in figure order.
    pub workloads: Vec<WorkloadSpec>,
    /// System-variant axis (a single `base` variant if left empty).
    pub variants: Vec<SystemVariant>,
    /// Network-model axis: each variant is swept under every listed model
    /// (empty = the variants' own settings, analytic by default). Mutually
    /// exclusive with per-variant `network` overrides.
    pub networks: Vec<NetworkModelKind>,
    /// The protocol whose run of each (workload, variant) row the
    /// figures normalize that row to; the paper normalizes to MESI.
    pub baseline: ProtocolKind,
}

impl ExperimentSpec {
    /// The paper's full evaluation: the nine figure protocols on all six
    /// benchmarks, one base variant, MESI baseline. The CLI's figure
    /// commands are sugar over this spec; it is pinned to
    /// [`ProtocolKind::PAPER`] so registry extensions (Dragon) cannot move
    /// the committed figure artifacts.
    pub fn full_matrix(scale: ScaleProfile) -> Self {
        ExperimentSpec::subset(
            ProtocolKind::PAPER.to_vec(),
            BenchmarkKind::ALL.to_vec(),
            scale,
        )
    }

    /// A reduced matrix: the given protocols on the given benchmarks.
    pub fn subset(
        protocols: Vec<ProtocolKind>,
        benchmarks: Vec<BenchmarkKind>,
        scale: ScaleProfile,
    ) -> Self {
        ExperimentSpec {
            name: format!("{}-matrix", scale.name()),
            scale,
            protocols,
            workloads: benchmarks.into_iter().map(WorkloadSpec::bench).collect(),
            variants: vec![SystemVariant::base()],
            networks: Vec::new(),
            baseline: ProtocolKind::Mesi,
        }
    }

    // --- JSON codec -----------------------------------------------------

    /// Serializes the spec as a JSON document (see `DESIGN.md` §10 for the
    /// grammar).
    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let mut fields = Vec::new();
                match &w.source {
                    WorkloadSource::Bench(kind) => {
                        fields.push(("bench".to_string(), Json::str(kind.name())));
                    }
                    WorkloadSource::Trace(path) => {
                        fields.push((
                            "trace".to_string(),
                            Json::str(path.to_string_lossy().into_owned()),
                        ));
                    }
                    WorkloadSource::Provided(name) => {
                        fields.push(("provided".to_string(), Json::str(name.clone())));
                    }
                }
                if w.name != w.source.default_name() {
                    fields.push(("name".to_string(), Json::str(w.name.clone())));
                }
                Json::Obj(fields)
            })
            .collect();
        let variants = self
            .variants
            .iter()
            .map(|v| {
                let mut fields = vec![("label".to_string(), Json::str(v.label.clone()))];
                if let Some((cols, rows)) = v.mesh {
                    fields.push((
                        "mesh".to_string(),
                        Json::Arr(vec![Json::UInt(cols as u64), Json::UInt(rows as u64)]),
                    ));
                }
                for (key, value) in [
                    ("l1_bytes", v.l1_bytes),
                    ("l2_slice_bytes", v.l2_slice_bytes),
                ] {
                    if let Some(value) = value {
                        fields.push((key.to_string(), Json::UInt(value)));
                    }
                }
                if let Some(n) = v.network {
                    fields.push(("network".to_string(), Json::str(n.name())));
                }
                Json::Obj(fields)
            })
            .collect();
        let mut doc = vec![
            ("schema".to_string(), Json::str(SPEC_SCHEMA)),
            ("name".to_string(), Json::str(self.name.clone())),
            ("scale".to_string(), Json::str(self.scale.name())),
            ("baseline".to_string(), Json::str(self.baseline.name())),
            (
                "protocols".to_string(),
                Json::Arr(self.protocols.iter().map(|p| Json::str(p.name())).collect()),
            ),
            ("workloads".to_string(), Json::Arr(workloads)),
            ("variants".to_string(), Json::Arr(variants)),
        ];
        // Like `variants`, an absent axis parses back to the empty vector,
        // so only a populated axis is spelled out.
        if !self.networks.is_empty() {
            doc.push((
                "networks".to_string(),
                Json::Arr(self.networks.iter().map(|n| Json::str(n.name())).collect()),
            ));
        }
        Json::Obj(doc).pretty()
    }

    /// Parses a spec from its JSON form.
    pub fn from_json(text: &str) -> Result<Self, ExperimentError> {
        let bad = ExperimentError::InvalidSpec;
        let doc = Json::parse(text).map_err(bad)?;
        let schema = doc.require("schema").and_then(Json::as_str).map_err(bad)?;
        if schema != SPEC_SCHEMA {
            return Err(bad(format!(
                "unknown schema `{schema}` (expected `{SPEC_SCHEMA}`)"
            )));
        }
        known_fields(&doc, &SPEC_FIELDS, |key| {
            format!("unknown spec field `{key}`")
        })?;
        let name = doc
            .require("name")
            .and_then(Json::as_str)
            .map_err(bad)?
            .to_string();
        let scale =
            ScaleProfile::by_name(doc.require("scale").and_then(Json::as_str).map_err(bad)?)
                .map_err(bad)?;
        let baseline = match doc.get("baseline") {
            None => ProtocolKind::Mesi,
            Some(v) => ProtocolKind::by_name(v.as_str().map_err(bad)?)
                .map_err(|e| bad(format!("baseline: {e}")))?,
        };
        let protocols = match doc.get("protocols") {
            // Specs written before the Dragon extension omit the key to mean
            // "the paper's figure set"; defaulting to PAPER keeps their cell
            // count (and result-cache digests) stable.
            None => ProtocolKind::PAPER.to_vec(),
            Some(v) => v
                .as_arr()
                .map_err(bad)?
                .iter()
                .map(|p| {
                    let pname = p.as_str().map_err(bad)?;
                    ProtocolKind::by_name(pname).map_err(bad)
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let workloads = doc
            .require("workloads")
            .and_then(Json::as_arr)
            .map_err(bad)?
            .iter()
            .map(|w| {
                // Conflicting sources are a named error too, never
                // silently resolved in favour of one key.
                known_fields(w, &["bench", "trace", "provided", "name"], |key| {
                    format!("unknown workload field `{key}`")
                })?;
                let sources = ["bench", "trace", "provided"]
                    .iter()
                    .filter(|k| w.get(k).is_some())
                    .count();
                if sources != 1 {
                    return Err(bad(format!(
                        "a workload entry needs exactly one of `bench`, `trace`, `provided` (found {sources})"
                    )));
                }
                let source = if let Some(b) = w.get("bench") {
                    WorkloadSource::Bench(
                        BenchmarkKind::by_name(b.as_str().map_err(bad)?).map_err(bad)?,
                    )
                } else if let Some(p) = w.get("trace") {
                    WorkloadSource::Trace(PathBuf::from(p.as_str().map_err(bad)?))
                } else {
                    let n = w.get("provided").expect("counted above");
                    WorkloadSource::Provided(n.as_str().map_err(bad)?.to_string())
                };
                let name = match w.get("name") {
                    Some(n) => n.as_str().map_err(bad)?.to_string(),
                    None => source.default_name(),
                };
                Ok(WorkloadSpec { name, source })
            })
            .collect::<Result<Vec<_>, _>>()?;
        // An absent or empty `variants` array compiles as the single `base`
        // variant (see `compile`); parsing preserves the spelling so the
        // codec round-trips exactly.
        let variants = match doc.get("variants") {
            None => Vec::new(),
            Some(v) => {
                let entries = v.as_arr().map_err(bad)?;
                entries
                    .iter()
                    .map(|entry| {
                        let label = entry
                            .require("label")
                            .and_then(Json::as_str)
                            .map_err(bad)?
                            .to_string();
                        known_fields(
                            entry,
                            &["label", "mesh", "l1_bytes", "l2_slice_bytes", "network"],
                            |key| format!("unknown field `{key}` in variant `{label}`"),
                        )?;
                        let mesh = match entry.get("mesh") {
                            None => None,
                            Some(m) => {
                                let dims = m.as_arr().map_err(bad)?;
                                let [cols, rows] = dims else {
                                    return Err(bad(
                                        "`mesh` must be a [cols, rows] pair".to_string()
                                    ));
                                };
                                Some((
                                    cols.as_u64().map_err(bad)? as usize,
                                    rows.as_u64().map_err(bad)? as usize,
                                ))
                            }
                        };
                        let field = |key: &str| -> Result<Option<u64>, ExperimentError> {
                            entry.get(key).map(|v| v.as_u64().map_err(bad)).transpose()
                        };
                        let network = entry
                            .get("network")
                            .map(|v| {
                                v.as_str()
                                    .map_err(bad)
                                    .and_then(|n| NetworkModelKind::by_name(n).map_err(bad))
                            })
                            .transpose()?;
                        Ok(SystemVariant {
                            label,
                            mesh,
                            l1_bytes: field("l1_bytes")?,
                            l2_slice_bytes: field("l2_slice_bytes")?,
                            network,
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let networks = match doc.get("networks") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .map_err(bad)?
                .iter()
                .map(|n| {
                    n.as_str()
                        .map_err(bad)
                        .and_then(|name| NetworkModelKind::by_name(name).map_err(bad))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(ExperimentSpec {
            name,
            scale,
            protocols,
            workloads,
            variants,
            networks,
            baseline,
        })
    }

    /// Reads a spec from a JSON file.
    pub fn load(path: &Path) -> Result<Self, ExperimentError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ExperimentError::Io(format!("cannot read {}: {e}", path.display())))?;
        ExperimentSpec::from_json(&text)
    }

    // --- compilation ----------------------------------------------------

    /// Resolves every axis into runnable cells with stable identity.
    ///
    /// Workloads are resolved once per distinct (source, core count) pair
    /// and shared across the protocol axis; their content digests are
    /// computed here, so every cell knows its full identity before anything
    /// is simulated. A generated workload is only digested here, and the
    /// plan keeps only its recipe: each [`Session::execute`] builds the
    /// records for the runs that read them and drops them after the last,
    /// so a plan whose every cell is cached builds none.
    ///
    /// This is [`Session::compile`] on a session made for the call, so every
    /// call generates its benchmark workloads afresh, on threads of its own;
    /// a [`Session`] that compiles many specs shares both.
    pub fn compile(&self, provided: &WorkloadSet) -> Result<CompiledPlan, ExperimentError> {
        Session::new().compile(self, provided)
    }

    /// [`compile`](Self::compile) on a session's state: generated workloads
    /// are looked up in (and left behind in) its memo, and built on its
    /// pool.
    pub(super) fn compile_with(
        &self,
        provided: &WorkloadSet,
        session: &Arc<SessionState>,
    ) -> Result<CompiledPlan, ExperimentError> {
        if self.protocols.is_empty() {
            return Err(ExperimentError::InvalidSpec(
                "the protocol axis is empty".to_string(),
            ));
        }
        if self.workloads.is_empty() {
            return Err(ExperimentError::InvalidSpec(
                "the workload axis is empty".to_string(),
            ));
        }
        for (i, w) in self.workloads.iter().enumerate() {
            if self.workloads[..i].iter().any(|x| x.name == w.name) {
                return Err(ExperimentError::DuplicateWorkload(w.name.clone()));
            }
        }
        let mut variants = if self.variants.is_empty() {
            vec![SystemVariant::base()]
        } else {
            self.variants.clone()
        };
        // The network axis crosses the variant axis: every variant is swept
        // under every listed model, labels suffixed with the model name
        // whenever more than one model is in play. A spec that also sets
        // per-variant networks would have two owners for the same field.
        if !self.networks.is_empty() {
            for (i, n) in self.networks.iter().enumerate() {
                if self.networks[..i].contains(n) {
                    return Err(ExperimentError::InvalidSpec(format!(
                        "network model `{n}` appears twice in the network axis"
                    )));
                }
            }
            if let Some(v) = variants.iter().find(|v| v.network.is_some()) {
                return Err(ExperimentError::InvalidSpec(format!(
                    "the `networks` axis and the per-variant `network` override of `{}` are mutually exclusive",
                    v.label
                )));
            }
            let multi_net = self.networks.len() > 1;
            variants = variants
                .iter()
                .flat_map(|v| {
                    self.networks.iter().map(move |&n| {
                        let mut expanded = v.clone();
                        expanded.network = Some(n);
                        if multi_net {
                            expanded.label = format!("{}+{}", v.label, n.name());
                        }
                        expanded
                    })
                })
                .collect();
        }
        for (i, v) in variants.iter().enumerate() {
            if variants[..i].iter().any(|x| x.label == v.label) {
                return Err(ExperimentError::InvalidSpec(format!(
                    "two variants share the label `{}`",
                    v.label
                )));
            }
        }
        for p in &self.protocols {
            if self.protocols.iter().filter(|q| *q == p).count() > 1 {
                return Err(ExperimentError::InvalidSpec(format!(
                    "protocol {p} appears twice in the protocol axis"
                )));
            }
        }

        let systems: Vec<(String, SystemConfig)> = variants
            .iter()
            .map(|v| {
                let mut sys = self.scale.system();
                v.apply(&mut sys);
                sys.validate().map_err(|e| ExperimentError::InvalidSystem {
                    variant: v.label.clone(),
                    reason: e.to_string(),
                })?;
                Ok((v.label.clone(), sys))
            })
            .collect::<Result<Vec<_>, ExperimentError>>()?;

        // Resolve each workload once per distinct core count it is needed
        // at (generators generate per core count; traces and provided
        // workloads have a fixed one and error on mismatch). A generator's
        // digest pass is the expensive part of compilation — and the whole
        // cost of a fully-warm cached run unless the session's memo already
        // holds their digests — so the distinct workloads fan out on the
        // session's pool; errors surface in deterministic (workload,
        // variant) order.
        let mut wanted: Vec<(usize, usize, String)> = Vec::new();
        for (wi, _) in self.workloads.iter().enumerate() {
            for (variant_label, sys) in &systems {
                if !wanted.iter().any(|(i, t, _)| *i == wi && *t == sys.tiles()) {
                    wanted.push((wi, sys.tiles(), variant_label.clone()));
                }
            }
        }
        type BuiltEntry = ((usize, usize), (Arc<Workload>, Digest));
        let (state, scale) = (Arc::clone(session), self.scale);
        let (workloads, provided) = (self.workloads.clone(), provided.clone());
        let build_results: Vec<Result<BuiltEntry, ExperimentError>> =
            session.pool.map(wanted, move |(wi, tiles, variant_label)| {
                let w = &workloads[*wi];
                // A generated workload comes out of the memo with its
                // digest; a trace file is read every time (it may have been
                // rewritten) and a provided workload is digested as given.
                let (wl, memoized) = match &w.source {
                    WorkloadSource::Bench(kind) => {
                        let (wl, digest) = state.memo.get_or_build((*kind, scale, *tiles))?;
                        (wl, Some(digest))
                    }
                    WorkloadSource::Trace(path) => {
                        let doc = tw_trace::TraceDocument::load(path).map_err(|err| {
                            ExperimentError::Io(format!("cannot read {}: {err}", path.display()))
                        })?;
                        let wl = Workload::from_trace(doc)
                            .map_err(|err| ExperimentError::Workload(err.to_string()))?;
                        (Arc::new(wl), None)
                    }
                    WorkloadSource::Provided(name) => {
                        let wl = provided.get(name).ok_or_else(|| {
                            ExperimentError::Workload(format!(
                                "the plan references provided workload `{name}`, which was not registered"
                            ))
                        })?;
                        (Arc::clone(wl), None)
                    }
                };
                if wl.cores() != *tiles {
                    return Err(ExperimentError::CoreCountMismatch {
                        workload: w.name.clone(),
                        workload_cores: wl.cores(),
                        variant: variant_label.clone(),
                        tiles: *tiles,
                    });
                }
                let digest = match memoized {
                    Some(digest) => digest,
                    None => wl
                        .content_digest()
                        .map_err(|e| ExperimentError::Workload(e.to_string()))?,
                };
                Ok(((*wi, *tiles), (wl, digest)))
            });
        let built: BTreeMap<(usize, usize), (Arc<Workload>, Digest)> = build_results
            .into_iter()
            .collect::<Result<_, ExperimentError>>(
        )?;

        let multi = systems.len() > 1;
        let mut rows = Vec::new();
        let mut cells = Vec::new();
        for (wi, w) in self.workloads.iter().enumerate() {
            for (variant_label, sys) in &systems {
                let (workload, digest) = built[&(wi, sys.tiles())].clone();
                let row = RowKey {
                    workload: w.name.clone(),
                    variant: variant_label.clone(),
                };
                let label = if multi {
                    format!("{}@{}", w.name, variant_label)
                } else {
                    w.name.clone()
                };
                rows.push((row.clone(), label.clone()));
                for &protocol in &self.protocols {
                    cells.push(PlannedCell {
                        row: row.clone(),
                        label: label.clone(),
                        workload: workload.clone(),
                        workload_ref: WorkloadRef {
                            name: w.name.clone(),
                            digest,
                        },
                        protocol,
                        system: sys.clone(),
                    });
                }
            }
        }
        Ok(CompiledPlan {
            name: self.name.clone(),
            scale: self.scale,
            protocols: self.protocols.clone(),
            baseline: self.baseline,
            rows,
            variants: systems,
            cells,
        })
    }
}

/// Identity of one figure row: a workload under one system variant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RowKey {
    /// The workload's plan-unique name.
    pub workload: String,
    /// The system variant's label.
    pub variant: String,
}

/// Run-time workload registry for [`WorkloadSource::Provided`] entries.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSet {
    map: BTreeMap<String, Arc<Workload>>,
}

impl WorkloadSet {
    /// An empty set.
    pub fn new() -> Self {
        WorkloadSet::default()
    }

    /// Registers a workload under `name`, replacing any previous entry.
    pub fn insert(&mut self, name: impl Into<String>, workload: Workload) -> &mut Self {
        self.map.insert(name.into(), Arc::new(workload));
        self
    }

    /// Looks up a registered workload.
    pub fn get(&self, name: &str) -> Option<&Arc<Workload>> {
        self.map.get(name)
    }

    /// Number of registered workloads.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// One runnable cell of a compiled plan, with full identity.
#[derive(Debug, Clone)]
pub struct PlannedCell {
    /// The figure row this cell belongs to.
    pub row: RowKey,
    /// The row's display label (`workload` or `workload@variant`).
    pub label: String,
    /// The resolved workload (shared across the protocol axis).
    pub workload: Arc<Workload>,
    /// The workload's stable identity.
    pub workload_ref: WorkloadRef,
    /// The protocol to simulate.
    pub protocol: ProtocolKind,
    /// The fully-resolved system configuration.
    pub system: SystemConfig,
}

impl PlannedCell {
    /// The protocol whose machine this cell simulates: its own, unless the
    /// workload's region annotations cannot exercise what it adds (see
    /// [`ProtocolKind::effective_for`]). Cells that agree on it, on the
    /// workload content and on the system are one simulation.
    pub fn effective_protocol(&self) -> ProtocolKind {
        self.protocol.effective_for(&self.workload.regions)
    }

    /// Whether this cell and `other` are one machine timed by two network
    /// models: equal in workload content, effective protocol and every
    /// system field but `network`. Such cells are one simulation with a
    /// lane each (`Simulator::try_new`): a network model moves only its own
    /// lane, and the analytic lane decides every message, cache state and
    /// waste word of both.
    pub fn shares_run_with(&self, other: &PlannedCell) -> bool {
        self.workload_ref.digest == other.workload_ref.digest
            && self.effective_protocol() == other.effective_protocol()
            && self.system
                == SystemConfig {
                    network: self.system.network,
                    ..other.system.clone()
                }
    }

    /// The cell's flight-recorder track and display name,
    /// `<label>/<protocol>`.
    pub fn track(&self) -> String {
        format!("{}/{}", self.label, self.protocol.name())
    }

    /// How `other` refers to this cell: by protocol alone within one row,
    /// by the whole track across rows.
    pub fn name_from(&self, other: &PlannedCell) -> String {
        if self.label == other.label {
            self.protocol.name().to_string()
        } else {
            self.track()
        }
    }
}

/// The output of [`ExperimentSpec::compile`]: every cell resolved and ready
/// to execute.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// Plan name (from the spec).
    pub name: String,
    /// The spec's scale.
    pub scale: ScaleProfile,
    /// Protocol axis, in figure order.
    pub protocols: Vec<ProtocolKind>,
    /// The protocol figures normalize each row to.
    pub baseline: ProtocolKind,
    /// Figure rows `(identity, display label)` in plan order.
    pub rows: Vec<(RowKey, String)>,
    /// Resolved system configuration per variant label.
    pub variants: Vec<(String, SystemConfig)>,
    /// All cells, row-major (workload, then variant, then protocol).
    pub cells: Vec<PlannedCell>,
}
