//! The golden functional memory model.
//!
//! The paper's methodology only compares protocols that *service the
//! identical reference stream and agree on functional memory behavior*; the
//! simulator itself never models data values, so this module supplies the
//! protocol-independent ground truth the differential runner diffs against.
//!
//! The model is **sequential consistency per barrier phase over data-race-
//! free programs** — exactly the contract DeNovo assumes of its (DPJ-style)
//! software:
//!
//! * a core's operations execute in program order;
//! * within one barrier phase, a word that is stored may only be touched by
//!   the storing core (any other access is a data race and rejected);
//! * across a barrier, every core observes every earlier phase's last write.
//!
//! Under that discipline the final memory image and every load's observed
//! value are independent of the cross-core interleaving, so the model can
//! execute cores one at a time per phase and still be exact. Store *values*
//! are not carried by [`TraceOp`]; the model assigns each store the value
//! `mix(core, program-order ordinal)` — unique per store — so any
//! corruption of the stream (a flipped store, a reordering, a dropped op)
//! perturbs the image or an observation and therefore the fingerprint.

use std::collections::BTreeMap;
use std::fmt;
use tw_types::{Addr, MemKind, Record, TraceOp};
use tw_workloads::Workload;

/// A data race: within one barrier phase a stored word was touched by more
/// than the storing core, making the functional outcome interleaving-
/// dependent — such a workload can never be an oracle reference.
///
/// Core identifiers are carried exactly (no bitmask truncation), so the
/// check is sound for any core count a trace file may declare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceViolation {
    /// Barrier-phase index (0-based) the conflicting accesses fall in.
    pub phase: usize,
    /// The contested word address.
    pub addr: Addr,
    /// The core that stored the word in the phase.
    pub writer: usize,
    /// A different core that also touched it in the same phase.
    pub other: usize,
    /// Whether the conflicting access was itself a store (write-write race)
    /// rather than a load (read-write race).
    pub other_wrote: bool,
}

impl fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data race in phase {} at {}: core {} wrote it while core {} {} it",
            self.phase,
            self.addr,
            self.writer,
            self.other,
            if self.other_wrote {
                "also wrote"
            } else {
                "read"
            }
        )
    }
}

/// The oracle's verdict on one workload: exact op counts plus a fingerprint
/// of the functional behavior (every load's observed value and the final
/// memory image). Two workloads with equal fingerprints are functionally
/// indistinguishable under SC-per-phase; a differing fingerprint proves a
/// behavioral divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleReport {
    /// Load records across all cores.
    pub loads: u64,
    /// Store records across all cores.
    pub stores: u64,
    /// Barrier-phase count (barriers per core).
    pub phases: u64,
    /// Order-sensitive hash of (core, ordinal, op, observed value) for every
    /// memory record plus the final memory image.
    pub fingerprint: u64,
}

impl OracleReport {
    /// Memory operations (loads + stores).
    pub fn mem_ops(&self) -> u64 {
        self.loads + self.stores
    }
}

/// splitmix64's finalizer: the cheap, deterministic mixer every hash in the
/// oracle is built from.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive fold of one record into a running fingerprint — the
/// primitive every deterministic digest in the fuzz pipeline is built from
/// (the oracle fingerprint here, the per-protocol summary digest in
/// `experiments fuzz`).
pub fn fold(h: u64, parts: [u64; 4]) -> u64 {
    let mut acc = h;
    for p in parts {
        acc = mix64(acc ^ p).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    acc
}

/// The unique value assigned to the `ordinal`-th record of `core` when it is
/// a store. Value 0 is reserved for unwritten ("background") memory.
fn store_value(core: usize, ordinal: usize) -> u64 {
    mix64(((core as u64) << 32) ^ ordinal as u64 ^ 0x57ee_d0a7_a5ca_de00) | 1
}

/// Executes the golden model over a workload.
///
/// Returns the oracle report, or the first [`RaceViolation`] if the workload
/// is not data-race-free per phase. The caller is expected to have run
/// [`Workload::try_well_formed`] first (this function tolerates but does not
/// diagnose structural problems like barrier mismatches; it splits phases by
/// each core's own barrier records).
pub fn golden_execute(wl: &Workload) -> Result<OracleReport, RaceViolation> {
    // Split each core's stream into phase slices. The trailing slice after
    // the last barrier is the (implicit) final phase.
    let per_core_phases: Vec<Vec<&[TraceOp]>> = wl
        .traces
        .iter()
        .map(|t| {
            let mut phases = Vec::new();
            let mut start = 0usize;
            for (i, op) in t.iter().enumerate() {
                if matches!(op.view(), Record::Barrier { .. }) {
                    phases.push(&t[start..i]);
                    start = i + 1;
                }
            }
            phases.push(&t[start..]);
            phases
        })
        .collect();
    let phase_count = per_core_phases.iter().map(Vec::len).max().unwrap_or(0);

    let mut mem: BTreeMap<Addr, u64> = BTreeMap::new();
    // Per-core program-order ordinals persist across phases so every store
    // value stays globally unique.
    let mut ordinals: Vec<usize> = vec![0; wl.traces.len()];
    let (mut loads, mut stores) = (0u64, 0u64);
    let mut h: u64 = 0x0c0a_11e5_ced0_0d1e;

    for phase in 0..phase_count {
        // Pass 1 — race detection. Per word we only need the (single
        // allowed) writer, one conflicting writer, and up to two *distinct*
        // reader cores: with two distinct readers recorded, at most one can
        // equal the writer, so a foreign reader can never go unnoticed.
        // Core ids are stored exactly — no bitmask width to alias past.
        #[derive(Clone, Copy, Default)]
        struct AccessRec {
            writer: Option<usize>,
            second_writer: Option<usize>,
            reader_a: Option<usize>,
            reader_b: Option<usize>,
        }
        let mut access: BTreeMap<Addr, AccessRec> = BTreeMap::new();
        for (core, phases) in per_core_phases.iter().enumerate() {
            let Some(slice) = phases.get(phase) else {
                continue;
            };
            for op in *slice {
                if let Record::Mem { kind, addr, .. } = op.view() {
                    let rec = access.entry(addr).or_default();
                    match kind {
                        MemKind::Store => match rec.writer {
                            None => rec.writer = Some(core),
                            Some(w) if w != core && rec.second_writer.is_none() => {
                                rec.second_writer = Some(core)
                            }
                            _ => {}
                        },
                        MemKind::Load => match (rec.reader_a, rec.reader_b) {
                            (None, _) => rec.reader_a = Some(core),
                            (Some(a), None) if a != core => rec.reader_b = Some(core),
                            _ => {}
                        },
                    }
                }
            }
        }
        for (addr, rec) in &access {
            let Some(writer) = rec.writer else {
                continue;
            };
            let conflict = rec.second_writer.map(|c| (c, true)).or_else(|| {
                [rec.reader_a, rec.reader_b]
                    .into_iter()
                    .flatten()
                    .find(|&r| r != writer)
                    .map(|c| (c, false))
            });
            if let Some((other, other_wrote)) = conflict {
                return Err(RaceViolation {
                    phase,
                    addr: *addr,
                    writer,
                    other,
                    other_wrote,
                });
            }
        }

        // Pass 2 — execution. DRF guarantees core-sequential execution
        // within the phase is equivalent to any interleaving.
        for (core, phases) in per_core_phases.iter().enumerate() {
            let Some(slice) = phases.get(phase) else {
                continue;
            };
            for op in *slice {
                let ordinal = ordinals[core];
                ordinals[core] += 1;
                if let Record::Mem { kind, addr, .. } = op.view() {
                    match kind {
                        MemKind::Store => {
                            stores += 1;
                            let v = store_value(core, ordinal);
                            mem.insert(addr, v);
                            h = fold(h, [core as u64, ordinal as u64, addr.byte() << 1, v]);
                        }
                        MemKind::Load => {
                            loads += 1;
                            let v = mem.get(&addr).copied().unwrap_or(0);
                            h = fold(h, [core as u64, ordinal as u64, (addr.byte() << 1) | 1, v]);
                        }
                    }
                }
            }
        }
    }

    // Fold the final image so post-measurement state differences (a dead
    // store redirected to another word, a dropped trailing store) are still
    // observable even when no load ever witnessed them.
    for (addr, v) in &mem {
        h = fold(h, [IMAGE_TAG, addr.byte(), *v, 0]);
    }

    Ok(OracleReport {
        loads,
        stores,
        phases: wl.barriers() as u64,
        fingerprint: h,
    })
}

/// Tag separating the final-image fold from the per-op folds.
const IMAGE_TAG: u64 = 0x1a9e_0f1a_a11a_9e00;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize;
    use tw_types::{RegionId, RegionInfo, RegionTable};
    use tw_workloads::BenchmarkKind;

    fn two_core_workload(traces: Vec<Vec<TraceOp>>) -> Workload {
        let mut regions = RegionTable::new();
        regions.insert(RegionInfo::plain(RegionId(1), "a", Addr::new(0), 1 << 16));
        Workload {
            kind: BenchmarkKind::Synthesized,
            input: "hand-built".into(),
            regions,
            traces: traces.into(),
        }
    }

    #[test]
    fn race_free_workload_executes() {
        let wl = two_core_workload(vec![
            vec![
                TraceOp::store(Addr::new(0), RegionId(1)),
                TraceOp::barrier(0),
                TraceOp::load(Addr::new(64), RegionId(1)),
            ],
            vec![
                TraceOp::store(Addr::new(64), RegionId(1)),
                TraceOp::barrier(0),
                TraceOp::load(Addr::new(0), RegionId(1)),
            ],
        ]);
        let r = golden_execute(&wl).unwrap();
        assert_eq!(r.loads, 2);
        assert_eq!(r.stores, 2);
        assert_eq!(r.mem_ops(), 4);
        assert_eq!(r.phases, 1);
    }

    #[test]
    fn same_phase_cross_core_read_of_written_word_is_a_race() {
        let wl = two_core_workload(vec![
            vec![TraceOp::store(Addr::new(0), RegionId(1))],
            vec![TraceOp::load(Addr::new(0), RegionId(1))],
        ]);
        let race = golden_execute(&wl).unwrap_err();
        assert_eq!(race.phase, 0);
        assert_eq!(race.addr, Addr::new(0));
        assert_eq!(race.writer, 0);
        assert_eq!(race.other, 1);
        assert!(!race.other_wrote);
        assert!(race.to_string().contains("data race in phase 0"));
    }

    #[test]
    fn write_write_conflict_is_a_race() {
        let wl = two_core_workload(vec![
            vec![TraceOp::store(Addr::new(4), RegionId(1))],
            vec![TraceOp::store(Addr::new(4), RegionId(1))],
        ]);
        assert!(golden_execute(&wl).is_err());
    }

    #[test]
    fn cross_phase_communication_is_not_a_race() {
        // Producer in phase 0, consumer in phase 1 — the pattern every
        // DeNovo workload is built from.
        let wl = two_core_workload(vec![
            vec![
                TraceOp::store(Addr::new(0), RegionId(1)),
                TraceOp::barrier(0),
            ],
            vec![
                TraceOp::barrier(0),
                TraceOp::load(Addr::new(0), RegionId(1)),
            ],
        ]);
        assert!(golden_execute(&wl).is_ok());
    }

    #[test]
    fn races_between_cores_32_apart_are_not_aliased_away() {
        // External trace files can declare any core count; core ids must be
        // tracked exactly (a 32-bit mask would alias core 32 onto core 0 and
        // miss both of these).
        let mut regions = RegionTable::new();
        regions.insert(RegionInfo::plain(RegionId(1), "a", Addr::new(0), 4096));
        let mut traces: Vec<Vec<TraceOp>> = vec![Vec::new(); 33];
        traces[0] = vec![TraceOp::store(Addr::new(0), RegionId(1))];
        traces[32] = vec![TraceOp::store(Addr::new(0), RegionId(1))];
        let ww = Workload {
            kind: BenchmarkKind::Synthesized,
            input: "33-core write-write".into(),
            regions: regions.clone(),
            traces: traces.clone().into(),
        };
        let race = golden_execute(&ww).unwrap_err();
        assert_eq!((race.writer, race.other, race.other_wrote), (0, 32, true));

        traces[32] = vec![TraceOp::load(Addr::new(0), RegionId(1))];
        let rw = Workload {
            kind: BenchmarkKind::Synthesized,
            input: "33-core read-write".into(),
            regions,
            traces: traces.into(),
        };
        let race = golden_execute(&rw).unwrap_err();
        assert_eq!((race.writer, race.other, race.other_wrote), (0, 32, false));
    }

    #[test]
    fn fingerprint_is_deterministic_and_discriminating() {
        let a = golden_execute(&synthesize(7)).unwrap();
        let b = golden_execute(&synthesize(7)).unwrap();
        assert_eq!(a, b);
        let c = golden_execute(&synthesize(8)).unwrap();
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn synthesized_workloads_are_race_free() {
        for seed in 0..48 {
            let wl = synthesize(seed);
            golden_execute(&wl).unwrap_or_else(|race| panic!("seed {seed}: {race}"));
        }
    }

    #[test]
    fn loads_observe_program_order_values() {
        // A store then load by the same core in the same phase must observe
        // the store; redirecting the store must change the fingerprint.
        let base = two_core_workload(vec![
            vec![
                TraceOp::store(Addr::new(0), RegionId(1)),
                TraceOp::load(Addr::new(0), RegionId(1)),
            ],
            vec![],
        ]);
        let flipped = two_core_workload(vec![
            vec![
                TraceOp::store(Addr::new(4), RegionId(1)),
                TraceOp::load(Addr::new(0), RegionId(1)),
            ],
            vec![],
        ]);
        let fb = golden_execute(&base).unwrap();
        let ff = golden_execute(&flipped).unwrap();
        assert_ne!(fb.fingerprint, ff.fingerprint);
    }
}
