//! Declarative experiment plans: the spec grammar, cell identity, and
//! compilation into runnable cells.
//!
//! An [`ExperimentSpec`] is the serializable description of an experiment —
//! three sweep axes (protocols × workloads × system variants) plus the
//! baseline figures normalize to. [`ExperimentSpec::compile`] resolves every
//! axis into a flat list of [`PlannedCell`]s with *stable identity*: each
//! cell names a workload by [`WorkloadRef`] (label + content digest of the
//! canonical trace bytes), a protocol, and a fully-resolved
//! [`SystemConfig`]. Identity is what makes the result cache sound (see
//! `session.rs`) and what kills the old duplicate-`BenchmarkKind`
//! restriction: two synthesized workloads are two distinct refs no matter
//! what kind they carry.

use super::json::Json;
use super::memo::WorkloadMemo;
use super::ScaleProfile;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
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
            ExperimentError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// First-class workload identity: a human-chosen label plus the content
/// digest of the workload's canonical trace encoding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WorkloadRef {
    /// The label the plan knows the workload by (unique within a plan).
    pub name: String,
    /// Content digest of the binary trace encoding.
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
    /// Cache line size in bytes.
    pub line_bytes: Option<u64>,
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
            line_bytes: None,
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
        if let Some(b) = self.line_bytes {
            sys.cache.line_bytes = b;
        }
        if let Some(n) = self.network {
            sys.network = n;
        }
    }
}

/// What figures normalize each row to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Normalize to the named protocol's run of the same (workload,
    /// variant) row — the paper normalizes everything to MESI.
    Protocol(ProtocolKind),
}

impl Default for Baseline {
    fn default() -> Self {
        Baseline::Protocol(ProtocolKind::Mesi)
    }
}

impl Baseline {
    /// The protocol this baseline resolves to.
    pub fn protocol(self) -> ProtocolKind {
        match self {
            Baseline::Protocol(p) => p,
        }
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
    /// What figures normalize to.
    pub baseline: Baseline,
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
            baseline: Baseline::default(),
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
                // The name is emitted only where it differs from the
                // source's default, keeping hand-written specs terse.
                let default_name = match &w.source {
                    WorkloadSource::Bench(kind) => kind.name().to_string(),
                    WorkloadSource::Trace(path) => path.to_string_lossy().into_owned(),
                    WorkloadSource::Provided(name) => name.clone(),
                };
                if w.name != default_name {
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
                    ("line_bytes", v.line_bytes),
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
            (
                "baseline".to_string(),
                Json::str(self.baseline.protocol().name()),
            ),
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
        let name = doc
            .require("name")
            .and_then(Json::as_str)
            .map_err(bad)?
            .to_string();
        let scale =
            ScaleProfile::by_name(doc.require("scale").and_then(Json::as_str).map_err(bad)?)
                .map_err(bad)?;
        let baseline = match doc.get("baseline") {
            None => Baseline::default(),
            Some(v) => {
                let pname = v.as_str().map_err(bad)?;
                Baseline::Protocol(
                    crate::sim::protocol_by_name(pname)
                        .ok_or_else(|| bad(format!("unknown baseline protocol `{pname}`")))?,
                )
            }
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
                    crate::sim::protocol_by_name(pname)
                        .ok_or_else(|| bad(format!("unknown protocol `{pname}`")))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let workloads = doc
            .require("workloads")
            .and_then(Json::as_arr)
            .map_err(bad)?
            .iter()
            .map(|w| {
                // Strict like the variant entries: unknown fields and
                // conflicting sources are named errors, never silently
                // resolved in favour of one key.
                for (key, _) in w.as_obj().map_err(bad)? {
                    if !matches!(key.as_str(), "bench" | "trace" | "provided" | "name") {
                        return Err(bad(format!(
                            "unknown workload field `{key}` (expected bench | trace | provided | name)"
                        )));
                    }
                }
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
                let default_name = match &source {
                    WorkloadSource::Bench(kind) => kind.name().to_string(),
                    WorkloadSource::Trace(path) => path.to_string_lossy().into_owned(),
                    WorkloadSource::Provided(name) => name.clone(),
                };
                let name = match w.get("name") {
                    Some(n) => n.as_str().map_err(bad)?.to_string(),
                    None => default_name,
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
                            for (key, _) in entry.as_obj().map_err(bad)? {
                                if !matches!(
                                    key.as_str(),
                                    "label" | "mesh" | "l1_bytes" | "l2_slice_bytes" | "line_bytes"
                                        | "network"
                                ) {
                                    return Err(bad(format!(
                                        "unknown variant field `{key}` (expected label | mesh | l1_bytes | l2_slice_bytes | line_bytes | network)"
                                    )));
                                }
                            }
                            let mesh = match entry.get("mesh") {
                                None => None,
                                Some(m) => {
                                    let dims = m.as_arr().map_err(bad)?;
                                    let [cols, rows] = dims else {
                                        return Err(bad(
                                            "`mesh` must be a [cols, rows] pair".to_string(),
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
                                label: entry
                                    .require("label")
                                    .and_then(Json::as_str)
                                    .map_err(bad)?
                                    .to_string(),
                                mesh,
                                l1_bytes: field("l1_bytes")?,
                                l2_slice_bytes: field("l2_slice_bytes")?,
                                line_bytes: field("line_bytes")?,
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
    /// Workloads are built once per distinct (source, core count) pair and
    /// shared across the protocol axis; their content digests are computed
    /// here, so every cell knows its full identity before anything is
    /// simulated.
    ///
    /// Every call generates its benchmark workloads afresh; a
    /// [`Session`](super::Session) that compiles many specs shares them
    /// through [`Session::compile`](super::Session::compile), which is this
    /// function over the session's memo instead of a throwaway one.
    pub fn compile(&self, provided: &WorkloadSet) -> Result<CompiledPlan, ExperimentError> {
        self.compile_with(provided, &WorkloadMemo::default())
    }

    /// [`compile`](Self::compile), with generated workloads looked up in (and
    /// left behind in) `memo`.
    pub(super) fn compile_with(
        &self,
        provided: &WorkloadSet,
        memo: &WorkloadMemo,
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
        // workloads have a fixed one and error on mismatch). Generation plus
        // content digesting is the expensive part of compilation — and the
        // whole cost of a fully-warm cached run unless `memo` already holds
        // the workloads — so the distinct builds fan out on the rayon pool;
        // errors surface in deterministic (workload, variant) order.
        let mut wanted: Vec<(usize, usize, String)> = Vec::new();
        for (wi, _) in self.workloads.iter().enumerate() {
            for (variant_label, sys) in &systems {
                if !wanted.iter().any(|(i, t, _)| *i == wi && *t == sys.tiles()) {
                    wanted.push((wi, sys.tiles(), variant_label.clone()));
                }
            }
        }
        type BuiltEntry = ((usize, usize), (Arc<Workload>, Digest));
        let build_results: Vec<Result<BuiltEntry, ExperimentError>> = wanted
            .par_iter()
            .map(|(wi, tiles, variant_label)| {
                let w = &self.workloads[*wi];
                // A generated workload comes out of the memo with its
                // digest; a trace file is read every time (it may have been
                // rewritten) and a provided workload is digested as given.
                let (wl, memoized) = match &w.source {
                    WorkloadSource::Bench(kind) => {
                        let (wl, digest) = memo.get_or_build((*kind, self.scale, *tiles))?;
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
            })
            .collect();
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
    /// Baseline figures normalize to.
    pub baseline: Baseline,
    /// Figure rows `(identity, display label)` in plan order.
    pub rows: Vec<(RowKey, String)>,
    /// Resolved system configuration per variant label.
    pub variants: Vec<(String, SystemConfig)>,
    /// All cells, row-major (workload, then variant, then protocol).
    pub cells: Vec<PlannedCell>,
}
