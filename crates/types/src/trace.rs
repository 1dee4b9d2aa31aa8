//! Per-core memory-reference traces.
//!
//! The study drives the memory system with the reference stream of each core.
//! A workload is a set of per-core [`TraceOp`] sequences separated into
//! barrier-synchronized phases; non-memory work appears as `Compute` records
//! (the in-order core model of the paper completes all non-memory
//! instructions in one cycle, so a `Compute(n)` record stands for `n` such
//! instructions).

use crate::addr::{Addr, WORD_BYTES};
use crate::region::RegionId;
use std::fmt;

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// A load (read) of one word.
    Load,
    /// A store (write) of one word.
    Store,
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemKind::Load => f.write_str("LD"),
            MemKind::Store => f.write_str("ST"),
        }
    }
}

/// Exclusive upper bound of a trace address: a memory record keeps a 46-bit
/// word index, so it holds any word-aligned byte address below 2^48.
pub const TRACE_ADDR_LIMIT: u64 = 1 << 48;

const TAG_MASK: u64 = 0b11;
const TAG_LOAD: u64 = 0;
const TAG_STORE: u64 = 1;
const TAG_COMPUTE: u64 = 2;
const TAG_BARRIER: u64 = 3;
const REGION_SHIFT: u32 = 2;
const WORD_SHIFT: u32 = 18;
const PAYLOAD_SHIFT: u32 = 32;

/// One record of a core's trace, packed in one word.
///
/// Bits 0–1 are the tag (load, store, compute, barrier). A memory record
/// keeps its [`RegionId`] in bits 2–17 and its word index (`addr >> 2`) in
/// bits 18–63; compute and barrier records keep their `u32` in bits 32–63.
/// Every other bit is zero, so two records are equal exactly when their
/// words are. Read the fields through [`TraceOp::view`].
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TraceOp(u64);

const _: () = assert!(std::mem::size_of::<TraceOp>() == 8);

/// The fields of one [`TraceOp`], for matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// A word-sized memory access tagged with its software region.
    Mem {
        /// Load or store.
        kind: MemKind,
        /// Word-aligned byte address, below [`TRACE_ADDR_LIMIT`].
        addr: Addr,
        /// Software region of the accessed data.
        region: RegionId,
    },
    /// `cycles` of non-memory work on the issuing core.
    Compute {
        /// Number of busy cycles.
        cycles: u32,
    },
    /// A global barrier; all cores must reach barrier `id` before any
    /// proceeds. DeNovo self-invalidates at barriers.
    Barrier {
        /// Barrier sequence number (must be identical across cores).
        id: u32,
    },
}

impl TraceOp {
    /// A memory record, or why `addr` cannot be one: it must be word-aligned
    /// and below [`TRACE_ADDR_LIMIT`]. The trace readers build records here.
    #[inline]
    pub fn mem(kind: MemKind, addr: Addr, region: RegionId) -> Result<TraceOp, String> {
        let byte = addr.byte();
        if addr.word_aligned() != addr {
            return Err(format!("address {byte:#x} is not word-aligned"));
        }
        if byte >= TRACE_ADDR_LIMIT {
            return Err(format!("address {byte:#x} is not below 2^48"));
        }
        let tag = match kind {
            MemKind::Load => TAG_LOAD,
            MemKind::Store => TAG_STORE,
        };
        Ok(TraceOp(
            tag | (region.0 as u64) << REGION_SHIFT | (byte / WORD_BYTES) << WORD_SHIFT,
        ))
    }

    /// A memory record of the word containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not below [`TRACE_ADDR_LIMIT`].
    #[inline]
    fn word(kind: MemKind, addr: Addr, region: RegionId) -> Self {
        Self::mem(kind, addr.word_aligned(), region).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Convenience constructor for a load of the word containing `addr`.
    #[inline]
    pub fn load(addr: Addr, region: RegionId) -> Self {
        Self::word(MemKind::Load, addr, region)
    }

    /// Convenience constructor for a store to the word containing `addr`.
    #[inline]
    pub fn store(addr: Addr, region: RegionId) -> Self {
        Self::word(MemKind::Store, addr, region)
    }

    /// Convenience constructor for compute work.
    #[inline]
    pub fn compute(cycles: u32) -> Self {
        TraceOp(TAG_COMPUTE | (cycles as u64) << PAYLOAD_SHIFT)
    }

    /// Convenience constructor for a barrier.
    #[inline]
    pub fn barrier(id: u32) -> Self {
        TraceOp(TAG_BARRIER | (id as u64) << PAYLOAD_SHIFT)
    }

    /// The record's fields.
    #[inline]
    pub fn view(self) -> Record {
        let w = self.0;
        let payload = (w >> PAYLOAD_SHIFT) as u32;
        // One arm per variant, so a caller's match on the view folds into
        // this one; a memory record's kind is the tag's low bit.
        match w & TAG_MASK {
            TAG_LOAD | TAG_STORE => Record::Mem {
                kind: if w & TAG_STORE == 0 {
                    MemKind::Load
                } else {
                    MemKind::Store
                },
                addr: Addr::new((w >> WORD_SHIFT) * WORD_BYTES),
                region: RegionId((w >> REGION_SHIFT) as u16),
            },
            TAG_COMPUTE => Record::Compute { cycles: payload },
            _ => Record::Barrier { id: payload },
        }
    }

    /// Whether this record is a memory access.
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.0 & TAG_MASK <= TAG_STORE
    }

    /// The accessed address, for memory records.
    #[inline]
    pub fn addr(&self) -> Option<Addr> {
        match self.view() {
            Record::Mem { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// The accessed region, for memory records.
    #[inline]
    pub fn region(&self) -> Option<RegionId> {
        match self.view() {
            Record::Mem { region, .. } => Some(region),
            _ => None,
        }
    }
}

/// Prints the record as its [`Record`] (`trace diff` shows records this way).
impl fmt::Debug for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// Summary counters of one trace stream, used by trace tooling (`trace
/// info`, `trace diff`) and workload validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total records.
    pub ops: u64,
    /// Load records.
    pub loads: u64,
    /// Store records.
    pub stores: u64,
    /// Total busy cycles across compute records.
    pub compute_cycles: u64,
    /// Barrier records.
    pub barriers: u64,
}

impl TraceStats {
    /// Counts one record.
    pub fn record(&mut self, op: &TraceOp) {
        self.ops += 1;
        match op.view() {
            Record::Mem {
                kind: MemKind::Load,
                ..
            } => self.loads += 1,
            Record::Mem {
                kind: MemKind::Store,
                ..
            } => self.stores += 1,
            Record::Compute { cycles } => self.compute_cycles += cycles as u64,
            Record::Barrier { .. } => self.barriers += 1,
        }
    }

    /// Summarizes a whole stream.
    pub fn from_stream(ops: &[TraceOp]) -> Self {
        let mut stats = TraceStats::default();
        for op in ops {
            stats.record(op);
        }
        stats
    }

    /// Accumulates another stream's counters (e.g. across cores).
    pub fn merge(&mut self, other: &TraceStats) {
        self.ops += other.ops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.compute_cycles += other.compute_cycles;
        self.barriers += other.barriers;
    }

    /// Memory records (loads + stores).
    pub fn mem_ops(&self) -> u64 {
        self.loads + self.stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_word_align_addresses() {
        let op = TraceOp::load(Addr::new(0x1003), RegionId(1));
        match op.view() {
            Record::Mem { addr, kind, region } => {
                assert_eq!(addr, Addr::new(0x1000));
                assert_eq!(kind, MemKind::Load);
                assert_eq!(region, RegionId(1));
            }
            _ => panic!("expected Mem"),
        }
        assert!(op.is_mem());
        assert!(!TraceOp::compute(5).is_mem());
        assert!(!TraceOp::barrier(0).is_mem());
    }

    #[test]
    fn memkind_display() {
        assert_eq!(MemKind::Load.to_string(), "LD");
        assert_eq!(MemKind::Store.to_string(), "ST");
    }

    #[test]
    fn accessors_expose_mem_fields() {
        let op = TraceOp::store(Addr::new(0x40), RegionId(7));
        assert_eq!(op.addr(), Some(Addr::new(0x40)));
        assert_eq!(op.region(), Some(RegionId(7)));
        assert_eq!(TraceOp::barrier(0).addr(), None);
        assert_eq!(TraceOp::compute(1).region(), None);
    }

    #[test]
    fn stats_count_every_record_kind() {
        let stream = [
            TraceOp::load(Addr::new(0), RegionId(1)),
            TraceOp::store(Addr::new(4), RegionId(1)),
            TraceOp::store(Addr::new(8), RegionId(1)),
            TraceOp::compute(10),
            TraceOp::compute(5),
            TraceOp::barrier(0),
        ];
        let s = TraceStats::from_stream(&stream);
        assert_eq!(s.ops, 6);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 2);
        assert_eq!(s.mem_ops(), 3);
        assert_eq!(s.compute_cycles, 15);
        assert_eq!(s.barriers, 1);

        let mut total = TraceStats::default();
        total.merge(&s);
        total.merge(&s);
        assert_eq!(total.ops, 12);
        assert_eq!(total.compute_cycles, 30);
    }

    #[test]
    fn boundaries_of_every_field_round_trip() {
        for kind in [MemKind::Load, MemKind::Store] {
            for byte in [0, 4, TRACE_ADDR_LIMIT - 4] {
                for region in [RegionId(0), RegionId(1), RegionId(u16::MAX)] {
                    let addr = Addr::new(byte);
                    let op = TraceOp::mem(kind, addr, region).unwrap();
                    assert_eq!(op.view(), Record::Mem { kind, addr, region });
                }
            }
        }
        for n in [0, 1, u32::MAX] {
            assert_eq!(TraceOp::compute(n).view(), Record::Compute { cycles: n });
            assert_eq!(TraceOp::barrier(n).view(), Record::Barrier { id: n });
        }
    }

    #[test]
    fn mem_refuses_what_a_record_cannot_hold() {
        for byte in [2, 0x1003, !3, 1 << 48, 1 << 63, u64::MAX] {
            let err = TraceOp::mem(MemKind::Store, Addr::new(byte), RegionId(1)).unwrap_err();
            assert!(err.contains(&format!("{byte:#x}")), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "not below 2^48")]
    fn constructors_refuse_addresses_beyond_48_bits() {
        TraceOp::load(Addr::new(TRACE_ADDR_LIMIT + 3), RegionId(1));
    }

    #[test]
    fn records_of_different_kinds_are_different_words() {
        let zeros = [
            TraceOp::load(Addr::new(0), RegionId(0)),
            TraceOp::store(Addr::new(0), RegionId(0)),
            TraceOp::compute(0),
            TraceOp::barrier(0),
        ];
        for (i, a) in zeros.iter().enumerate() {
            for (j, b) in zeros.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }

    /// `trace diff` prints records with `{:?}`: the strings the enum this
    /// type replaced derived.
    #[test]
    fn debug_prints_the_derived_enum_strings() {
        assert_eq!(
            format!("{:?}", TraceOp::load(Addr::new(0x1000), RegionId(1))),
            "Mem { kind: Load, addr: Addr(4096), region: RegionId(1) }"
        );
        assert_eq!(
            format!("{:?}", TraceOp::store(Addr::new(64), RegionId(u16::MAX))),
            "Mem { kind: Store, addr: Addr(64), region: RegionId(65535) }"
        );
        assert_eq!(
            format!("{:?}", TraceOp::compute(12)),
            "Compute { cycles: 12 }"
        );
        assert_eq!(format!("{:?}", TraceOp::barrier(3)), "Barrier { id: 3 }");
    }

    /// Cases per property: the CI release step runs ten times the suite's.
    const CASES: u32 = if cfg!(debug_assertions) {
        1 << 10
    } else {
        1 << 14
    };

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(CASES))]

        /// Every aligned address below 2^48, every region and every payload
        /// comes back out of the word it was packed into.
        #[test]
        fn packing_round_trips_every_field(
            store in proptest::any::<bool>(),
            word in 0u64..TRACE_ADDR_LIMIT / WORD_BYTES,
            region in proptest::any::<u16>(),
            payload in proptest::any::<u32>(),
        ) {
            let kind = if store { MemKind::Store } else { MemKind::Load };
            let (addr, region) = (Addr::new(word * WORD_BYTES), RegionId(region));
            let op = TraceOp::mem(kind, addr, region).unwrap();
            proptest::prop_assert_eq!(op.view(), Record::Mem { kind, addr, region });
            proptest::prop_assert_eq!(op.addr(), Some(addr));
            proptest::prop_assert_eq!(op.region(), Some(region));
            proptest::prop_assert!(op.is_mem());
            let compute = TraceOp::compute(payload);
            proptest::prop_assert_eq!(compute.view(), Record::Compute { cycles: payload });
            proptest::prop_assert!(!compute.is_mem());
            let barrier = TraceOp::barrier(payload);
            proptest::prop_assert_eq!(barrier.view(), Record::Barrier { id: payload });
            proptest::prop_assert!(!barrier.is_mem());
        }
    }
}
