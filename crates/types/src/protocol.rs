//! The protocol configuration space studied by the paper (§3.2–§3.3), plus
//! the update-based extension point.
//!
//! Two MESI variants and seven DeNovo variants are evaluated by the paper.
//! Each variant is a point in a feature lattice; [`ProtocolKind`] enumerates
//! the points and exposes the feature predicates the simulator queries. The
//! tenth entry, [`ProtocolKind::Dragon`], is a classic write-update design
//! (outside the paper's figure set, hence [`ProtocolKind::PAPER`]) that puts
//! the invalidate-vs-update axis of the coherence design space under the
//! same waste taxonomy.

use crate::region::RegionTable;
use std::fmt;

/// One of the protocol configurations in the registry: the nine the paper
/// evaluates plus the Dragon write-update extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolKind {
    /// Baseline directory-based MESI (GEMS-style, blocking directory,
    /// inclusive L2, fetch-on-write).
    Mesi,
    /// MESI + "Memory Controller to L1 Transfer" (unblock+data messages;
    /// write-miss fills are not forwarded to the L2).
    MMemL1,
    /// Baseline DeNovo line protocol with write-combining registration.
    DeNovo,
    /// DeNovo + Flex for responses served by on-chip caches (L1/L2).
    DFlexL1,
    /// DeNovo + L2 write-validate + dirty-words-only L2→memory writebacks.
    DValidateL2,
    /// `DValidateL2` + memory-controller-to-L1 parallel transfer.
    DMemL1,
    /// `DMemL1` + Flex on-chip and at the memory controller.
    DFlexL2,
    /// `DFlexL2` + L2 response bypass for annotated regions.
    DBypL2,
    /// `DBypL2` + L2 request bypass using Bloom filters.
    DBypFull,
    /// Dragon write-update protocol (Exclusive / Shared-Clean /
    /// Shared-Modified / Modified): a write to a shared line broadcasts the
    /// written words to the sharers as an *update* instead of invalidating
    /// them, so sharers never re-fetch. Not part of the paper's figure set.
    Dragon,
}

impl ProtocolKind {
    /// Every registered configuration, in figure order: the paper's nine
    /// followed by the update-based extension.
    pub const ALL: [ProtocolKind; 10] = [
        ProtocolKind::Mesi,
        ProtocolKind::MMemL1,
        ProtocolKind::DeNovo,
        ProtocolKind::DFlexL1,
        ProtocolKind::DValidateL2,
        ProtocolKind::DMemL1,
        ProtocolKind::DFlexL2,
        ProtocolKind::DBypL2,
        ProtocolKind::DBypFull,
        ProtocolKind::Dragon,
    ];

    /// The nine configurations the paper's figures present, in their order —
    /// the protocol axis of the reproduced evaluation matrix. [`Self::ALL`]
    /// additionally carries the update-based extension.
    pub const PAPER: [ProtocolKind; 9] = [
        ProtocolKind::Mesi,
        ProtocolKind::MMemL1,
        ProtocolKind::DeNovo,
        ProtocolKind::DFlexL1,
        ProtocolKind::DValidateL2,
        ProtocolKind::DMemL1,
        ProtocolKind::DFlexL2,
        ProtocolKind::DBypL2,
        ProtocolKind::DBypFull,
    ];

    /// Resolves a configuration from its figure name (case-insensitive) —
    /// the inverse of [`Self::name`].
    ///
    /// # Errors
    ///
    /// Names the rejected name and lists the accepted ones.
    pub fn by_name(name: &str) -> Result<ProtocolKind, String> {
        Self::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|p| p.name()).collect();
                format!(
                    "unknown protocol `{name}`; expected one of: {}",
                    names.join(" ")
                )
            })
    }

    /// L2 write policy is write-validate (no memory fetch on L2 write miss).
    pub const fn l2_write_validate(self) -> bool {
        matches!(
            self,
            ProtocolKind::DValidateL2
                | ProtocolKind::DMemL1
                | ProtocolKind::DFlexL2
                | ProtocolKind::DBypL2
                | ProtocolKind::DBypFull
        )
    }

    /// L2→memory writebacks carry only dirty words.
    pub const fn dirty_words_only_writeback(self) -> bool {
        self.l2_write_validate()
    }

    /// Memory-controller-to-L1 transfer (data sent to L1 and L2 in parallel;
    /// for MESI, the unblock+data variant).
    pub const fn mem_to_l1(self) -> bool {
        matches!(
            self,
            ProtocolKind::MMemL1
                | ProtocolKind::DMemL1
                | ProtocolKind::DFlexL2
                | ProtocolKind::DBypL2
                | ProtocolKind::DBypFull
        )
    }

    /// Flex applied to responses served by on-chip caches.
    pub const fn flex_on_chip(self) -> bool {
        matches!(
            self,
            ProtocolKind::DFlexL1
                | ProtocolKind::DFlexL2
                | ProtocolKind::DBypL2
                | ProtocolKind::DBypFull
        )
    }

    /// Flex applied at the memory controller ("L2 Flex").
    pub const fn flex_at_memory(self) -> bool {
        matches!(
            self,
            ProtocolKind::DFlexL2 | ProtocolKind::DBypL2 | ProtocolKind::DBypFull
        )
    }

    /// L2 response bypass for annotated regions.
    pub const fn l2_response_bypass(self) -> bool {
        matches!(self, ProtocolKind::DBypL2 | ProtocolKind::DBypFull)
    }

    /// L2 request bypass (Bloom-filter-guarded direct-to-MC requests).
    pub const fn l2_request_bypass(self) -> bool {
        matches!(self, ProtocolKind::DBypFull)
    }

    /// The configuration whose machine this one *is* on an application
    /// carrying `regions`: a feature that acts only through a software
    /// annotation no region has cannot be exercised, so the rung collapses
    /// onto the one below it. `DFlexL1` adds only [`Self::flex_on_chip`] to
    /// `DeNovo`, and Flex needs a communication region; `DBypL2` and
    /// `DBypFull` add only [`Self::l2_response_bypass`] and
    /// [`Self::l2_request_bypass`] to `DFlexL2`, and both act on
    /// bypass-annotated regions. Everything else is the identity — also the
    /// pairs that merely happen to report equal numbers on some input: the
    /// rule reads annotations and predicates, never a result.
    pub fn effective_for(self, regions: &RegionTable) -> ProtocolKind {
        match self {
            ProtocolKind::DFlexL1 if !regions.iter().any(|r| r.comm.is_some()) => {
                ProtocolKind::DeNovo
            }
            ProtocolKind::DBypL2 | ProtocolKind::DBypFull
                if !regions.iter().any(|r| r.bypass.bypasses_l2()) =>
            {
                ProtocolKind::DFlexL2
            }
            other => other,
        }
    }

    /// Short name used in figures and reports.
    pub const fn name(self) -> &'static str {
        match self {
            ProtocolKind::Mesi => "MESI",
            ProtocolKind::MMemL1 => "MMemL1",
            ProtocolKind::DeNovo => "DeNovo",
            ProtocolKind::DFlexL1 => "DFlexL1",
            ProtocolKind::DValidateL2 => "DValidateL2",
            ProtocolKind::DMemL1 => "DMemL1",
            ProtocolKind::DFlexL2 => "DFlexL2",
            ProtocolKind::DBypL2 => "DBypL2",
            ProtocolKind::DBypFull => "DBypFull",
            ProtocolKind::Dragon => "Dragon",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_ten_in_figure_order() {
        assert_eq!(ProtocolKind::ALL.len(), 10);
        assert_eq!(ProtocolKind::ALL[0], ProtocolKind::Mesi);
        assert_eq!(ProtocolKind::ALL[8], ProtocolKind::DBypFull);
        assert_eq!(ProtocolKind::ALL[9], ProtocolKind::Dragon);
        // The paper set is exactly ALL minus the update-based extension, in
        // the same order — the figure matrix depends on that prefix property.
        assert_eq!(ProtocolKind::PAPER.len(), 9);
        assert_eq!(&ProtocolKind::ALL[..9], &ProtocolKind::PAPER[..]);
    }

    #[test]
    fn dragon_is_update_based_and_inclusive() {
        let p = ProtocolKind::Dragon;
        // Dragon is fetch-on-write with whole-line writebacks, like MESI.
        assert!(!p.l2_write_validate());
        assert!(!p.dirty_words_only_writeback());
        assert!(!p.mem_to_l1());
        assert!(!p.flex_on_chip());
        assert!(!p.l2_response_bypass());
        assert!(!p.l2_request_bypass());
    }

    #[test]
    fn feature_lattice_is_monotone_in_denovo_chain() {
        // Each successive DeNovo variant only adds features.
        let chain = [
            ProtocolKind::DValidateL2,
            ProtocolKind::DMemL1,
            ProtocolKind::DFlexL2,
            ProtocolKind::DBypL2,
            ProtocolKind::DBypFull,
        ];
        let features = |p: ProtocolKind| {
            [
                p.l2_write_validate(),
                p.mem_to_l1(),
                p.flex_at_memory(),
                p.l2_response_bypass(),
                p.l2_request_bypass(),
            ]
        };
        // A response that bypasses the L2 goes to the L1: the engine has no
        // "through the L2 without filling it" path.
        for p in ProtocolKind::ALL {
            assert!(!p.l2_response_bypass() || p.mem_to_l1(), "{p}");
            assert!(!p.l2_request_bypass() || p.l2_response_bypass(), "{p}");
        }
        for w in chain.windows(2) {
            let (a, b) = (features(w[0]), features(w[1]));
            for i in 0..a.len() {
                assert!(
                    !a[i] || b[i],
                    "{:?} lost a feature moving to {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn mesi_variants() {
        assert!(!ProtocolKind::Mesi.mem_to_l1());
        assert!(ProtocolKind::MMemL1.mem_to_l1());
        assert!(!ProtocolKind::MMemL1.flex_on_chip());
    }

    #[test]
    fn denovo_baselines() {
        assert!(!ProtocolKind::DeNovo.l2_write_validate());
        assert!(ProtocolKind::DFlexL1.flex_on_chip());
        assert!(!ProtocolKind::DFlexL1.flex_at_memory());
    }

    #[test]
    fn fully_optimized_protocol_has_every_feature() {
        let p = ProtocolKind::DBypFull;
        assert!(p.l2_write_validate());
        assert!(p.dirty_words_only_writeback());
        assert!(p.mem_to_l1());
        assert!(p.flex_on_chip());
        assert!(p.flex_at_memory());
        assert!(p.l2_response_bypass());
        assert!(p.l2_request_bypass());
    }

    #[test]
    fn an_unexercisable_rung_is_the_rung_below() {
        use crate::addr::Addr;
        use crate::region::{BypassKind, CommRegion, RegionId, RegionInfo};
        let table = |comm: bool, bypass: bool| {
            let mut info = RegionInfo::plain(RegionId(1), "data", Addr::new(0), 4096);
            if comm {
                info.comm = Some(CommRegion::whole_object(64));
            }
            if bypass {
                info.bypass = BypassKind::StreamingOncePerPhase;
            }
            let mut regions = RegionTable::new();
            regions.insert(info);
            regions
        };
        use ProtocolKind::*;
        for (comm, bypass) in [(false, false), (false, true), (true, false), (true, true)] {
            let regions = table(comm, bypass);
            for p in ProtocolKind::ALL {
                let want = match p {
                    DFlexL1 if !comm => DeNovo,
                    DBypL2 | DBypFull if !bypass => DFlexL2,
                    p => p,
                };
                let got = p.effective_for(&regions);
                assert_eq!(got, want, "{p} with comm={comm} bypass={bypass}");
                // A representative stands for itself: the rule never chains.
                assert_eq!(got.effective_for(&regions), got);
            }
        }
        // No annotation at all is the annotation-free case.
        let empty = RegionTable::new();
        assert_eq!(DFlexL1.effective_for(&empty), DeNovo);
        assert_eq!(DBypFull.effective_for(&empty), DFlexL2);
        assert_eq!(DFlexL2.effective_for(&empty), DFlexL2);
    }

    #[test]
    fn names_are_the_figure_labels() {
        let names: Vec<_> = ProtocolKind::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "MESI",
                "MMemL1",
                "DeNovo",
                "DFlexL1",
                "DValidateL2",
                "DMemL1",
                "DFlexL2",
                "DBypL2",
                "DBypFull",
                "Dragon"
            ]
        );
    }
}
