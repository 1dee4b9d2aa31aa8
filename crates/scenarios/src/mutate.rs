//! Known-bad mutation operators and the detection check.
//!
//! An oracle is only trustworthy if it demonstrably *fails* on broken
//! inputs. Each [`Mutation`] injects one class of coherence violation into a
//! well-formed workload — the kinds of corruption a buggy protocol or codec
//! would introduce — and [`detect`] compares the golden model's verdict on
//! the result with the reference. The test suite (and `experiments fuzz
//! --self-test`) asserts every class is caught on every seed tried.

use crate::oracle::{golden_execute, OracleReport};
use tw_types::{Addr, MemKind, Record, TraceOp, WORD_BYTES};
use tw_workloads::Workload;

/// One class of injected coherence violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Redirects the last store of a core to the neighboring word of the
    /// same region. `TraceOp` carries no data values — store values are
    /// derived from stream position — so corrupting the *target* of the
    /// final write to a word is the trace-level image of a flipped store
    /// value: the final memory image changes at two words.
    FlippedStore,
    /// Removes one core's last barrier record, desynchronizing its phase
    /// structure from every other core's.
    DroppedBarrier,
    /// Swaps the first adjacent pair of distinct memory records of one core,
    /// reordering its serviced stream.
    ReorderedStream,
    /// Demotes the last store of a core to a load of the same word, silently
    /// losing the write.
    LostStore,
    /// Moves a store whose word is touched again later to the end of its
    /// core's trace — the trace-level image of a dropped update broadcast
    /// in an update protocol (Dragon): the write's visibility is deferred
    /// past every consumer, so sharers keep observing the stale pre-update
    /// value. Store values are position-derived, so the deferral perturbs
    /// an observation, the final image, or the phase's race discipline.
    DroppedUpdate,
}

impl Mutation {
    /// Every mutation class.
    pub const ALL: [Mutation; 5] = [
        Mutation::FlippedStore,
        Mutation::DroppedBarrier,
        Mutation::ReorderedStream,
        Mutation::LostStore,
        Mutation::DroppedUpdate,
    ];

    /// Short name used in self-test output.
    pub const fn name(self) -> &'static str {
        match self {
            Mutation::FlippedStore => "flipped-store",
            Mutation::DroppedBarrier => "dropped-barrier",
            Mutation::ReorderedStream => "reordered-stream",
            Mutation::LostStore => "lost-store",
            Mutation::DroppedUpdate => "dropped-update",
        }
    }

    /// Applies the mutation to a copy of the workload. Returns `None` when
    /// the workload has no site for this class (e.g. no store anywhere).
    pub fn apply(self, wl: &Workload) -> Option<Workload> {
        let mut out = wl.clone();
        match self {
            Mutation::FlippedStore => {
                let (core, idx, addr, region) = last_store(wl)?;
                let flipped = neighbor_word(wl, addr, region)?;
                out.traces[core][idx] = TraceOp::store(flipped, region);
            }
            Mutation::DroppedBarrier => {
                let core = wl.traces.iter().position(|t| t.iter().any(is_barrier))?;
                let idx = out.traces[core].iter().rposition(is_barrier)?;
                out.traces[core].remove(idx);
            }
            Mutation::ReorderedStream => {
                let (core, idx) = adjacent_distinct_mem_pair(wl)?;
                out.traces[core].swap(idx, idx + 1);
            }
            Mutation::LostStore => {
                let (core, idx, addr, region) = last_store(wl)?;
                out.traces[core][idx] = TraceOp::load(addr, region);
            }
            Mutation::DroppedUpdate => {
                let (core, idx) = dropped_update_site(wl)?;
                let op = out.traces[core].remove(idx);
                out.traces[core].push(op);
            }
        }
        Some(out)
    }
}

fn is_barrier(op: &TraceOp) -> bool {
    matches!(op.view(), Record::Barrier { .. })
}

fn is_store(op: &TraceOp) -> bool {
    matches!(
        op.view(),
        Record::Mem {
            kind: MemKind::Store,
            ..
        }
    )
}

/// The site of a core's final store, scanning cores in order: the last store
/// of a stream is never overwritten later by the same core, and (in a
/// race-free workload) never by another core in the same phase, so its value
/// survives into the final memory image — mutating it is always observable.
fn last_store(wl: &Workload) -> Option<(usize, usize, Addr, tw_types::RegionId)> {
    for (core, t) in wl.traces.iter().enumerate() {
        if let Some(idx) = t.iter().rposition(is_store) {
            if let Record::Mem { addr, region, .. } = t[idx].view() {
                return Some((core, idx, addr, region));
            }
        }
    }
    None
}

/// A word adjacent to `addr` inside the same region, so the mutated access
/// still passes the structural region check and reaches the oracle.
fn neighbor_word(wl: &Workload, addr: Addr, region: tw_types::RegionId) -> Option<Addr> {
    let info = wl.regions.get(region)?;
    let fwd = addr.offset(WORD_BYTES);
    if info.contains(fwd) {
        return Some(fwd);
    }
    let back = Addr::new(addr.byte().checked_sub(WORD_BYTES)?);
    info.contains(back).then_some(back)
}

/// The site for [`Mutation::DroppedUpdate`]: a store whose word is touched
/// again afterwards — by the same core later in its stream, or by another
/// core in a strictly later phase (the cross-barrier consumer a dropped
/// update broadcast would starve). When no such store exists, falls back to
/// any store that is not its core's final record: deferring it to the end of
/// the stream still shifts its program-order ordinal, which re-derives its
/// value and perturbs the final-image fold.
fn dropped_update_site(wl: &Workload) -> Option<(usize, usize)> {
    for (core, t) in wl.traces.iter().enumerate() {
        let mut phase = 0usize;
        for (idx, op) in t.iter().enumerate() {
            if is_barrier(op) {
                phase += 1;
                continue;
            }
            let Record::Mem {
                kind: MemKind::Store,
                addr,
                ..
            } = op.view()
            else {
                continue;
            };
            if idx + 1 >= t.len() {
                continue;
            }
            let same_core_later = t[idx + 1..].iter().any(|o| o.addr() == Some(addr));
            let later_phase_elsewhere = wl
                .traces
                .iter()
                .enumerate()
                .filter(|&(c, _)| c != core)
                .any(|(_, ot)| {
                    let mut p = 0usize;
                    ot.iter().any(|o| {
                        if is_barrier(o) {
                            p += 1;
                            return false;
                        }
                        p > phase && o.addr() == Some(addr)
                    })
                });
            if same_core_later || later_phase_elsewhere {
                return Some((core, idx));
            }
        }
    }
    for (core, t) in wl.traces.iter().enumerate() {
        if let Some(idx) = t.iter().position(is_store) {
            if idx + 1 < t.len() {
                return Some((core, idx));
            }
        }
    }
    None
}

/// First adjacent pair of memory records of one core that differ in address
/// or kind (swapping two identical records would be a no-op).
fn adjacent_distinct_mem_pair(wl: &Workload) -> Option<(usize, usize)> {
    for (core, t) in wl.traces.iter().enumerate() {
        for idx in 0..t.len().saturating_sub(1) {
            let (a, b) = (&t[idx], &t[idx + 1]);
            if a.is_mem() && b.is_mem() && a != b {
                return Some((core, idx));
            }
        }
    }
    None
}

/// How the differential oracle caught a mutated workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detection {
    /// Structural validation ([`Workload::try_well_formed`]) rejected it.
    Malformed(String),
    /// The golden model found a data race.
    Race(String),
    /// The golden model executed but its fingerprint diverged from the
    /// reference report.
    FingerprintDiff {
        /// Fingerprint of the unmutated reference.
        expected: u64,
        /// Fingerprint of the mutated workload.
        actual: u64,
    },
}

impl Detection {
    /// Short label used in self-test output.
    pub const fn label(&self) -> &'static str {
        match self {
            Detection::Malformed(_) => "malformed",
            Detection::Race(_) => "race",
            Detection::FingerprintDiff { .. } => "fingerprint-diff",
        }
    }
}

/// Runs the oracle pipeline on a (possibly mutated) workload and reports how
/// it diverges from the reference report, or `None` if it is
/// indistinguishable — what proves the mutations are caught.
pub fn detect(reference: &OracleReport, mutated: &Workload) -> Option<Detection> {
    if let Err(msg) = mutated.try_well_formed() {
        return Some(Detection::Malformed(msg));
    }
    match golden_execute(mutated) {
        Err(race) => Some(Detection::Race(race.to_string())),
        Ok(report) => {
            if report.fingerprint != reference.fingerprint {
                Some(Detection::FingerprintDiff {
                    expected: reference.fingerprint,
                    actual: report.fingerprint,
                })
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize;

    #[test]
    fn every_mutation_class_is_detected_across_seeds() {
        for seed in 0..16 {
            let wl = synthesize(seed);
            let reference = golden_execute(&wl).unwrap();
            for m in Mutation::ALL {
                let mutated = m
                    .apply(&wl)
                    .unwrap_or_else(|| panic!("seed {seed}: no site for {}", m.name()));
                let detection = detect(&reference, &mutated);
                assert!(
                    detection.is_some(),
                    "seed {seed}: injected {} went undetected",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn dropped_barrier_is_flagged_structurally() {
        let wl = synthesize(3);
        let reference = golden_execute(&wl).unwrap();
        let mutated = Mutation::DroppedBarrier.apply(&wl).unwrap();
        match detect(&reference, &mutated) {
            Some(Detection::Malformed(msg)) => {
                assert!(msg.contains("barrier sequence"), "{msg}")
            }
            other => panic!("expected structural rejection, got {other:?}"),
        }
    }

    #[test]
    fn flipped_store_changes_the_fingerprint_or_races() {
        let wl = synthesize(5);
        let reference = golden_execute(&wl).unwrap();
        let mutated = Mutation::FlippedStore.apply(&wl).unwrap();
        let d = detect(&reference, &mutated).expect("flip must be detected");
        assert!(
            matches!(d, Detection::FingerprintDiff { .. } | Detection::Race(_)),
            "unexpected detection {d:?}"
        );
    }

    #[test]
    fn dropped_update_broadcast_is_caught_by_the_fingerprint_oracle() {
        // The trace-level image of a Dragon update broadcast that never
        // reached its sharers: the write becomes visible only after every
        // consumer already read the word. Structure (barriers, regions) is
        // untouched, so detection must come from the functional layer.
        for seed in [1u64, 5, 12] {
            let wl = synthesize(seed);
            let reference = golden_execute(&wl).unwrap();
            let mutated = Mutation::DroppedUpdate.apply(&wl).unwrap();
            assert!(mutated.try_well_formed().is_ok(), "seed {seed}");
            let d = detect(&reference, &mutated)
                .unwrap_or_else(|| panic!("seed {seed}: dropped update went undetected"));
            assert!(
                matches!(d, Detection::FingerprintDiff { .. } | Detection::Race(_)),
                "seed {seed}: unexpected detection {d:?}"
            );
        }
    }

    #[test]
    fn unmutated_workload_is_indistinguishable_from_itself() {
        let wl = synthesize(9);
        let reference = golden_execute(&wl).unwrap();
        assert_eq!(detect(&reference, &wl), None);
    }
}
