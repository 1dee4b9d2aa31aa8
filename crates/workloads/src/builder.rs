//! Helpers for emitting per-core traces.

use tw_types::{Addr, Record, RegionId, TraceOp, WORD_BYTES};

/// A per-core trace under construction.
///
/// The builder provides word- and element-granular access helpers so the
/// benchmark generators read like the loops of the original programs.
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    ops: Vec<TraceOp>,
}

impl TraceBuilder {
    /// Creates an empty trace.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Number of records emitted so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no records have been emitted.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Emits a load of the word at `addr`.
    pub fn load(&mut self, addr: Addr, region: RegionId) -> &mut Self {
        self.ops.push(TraceOp::load(addr, region));
        self
    }

    /// Emits a store to the word at `addr`.
    pub fn store(&mut self, addr: Addr, region: RegionId) -> &mut Self {
        self.ops.push(TraceOp::store(addr, region));
        self
    }

    /// Emits `cycles` of non-memory work (coalesced with a preceding compute
    /// record when possible to keep traces compact).
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        if cycles == 0 {
            return self;
        }
        let total = match self.ops.last().map(|op| op.view()) {
            Some(Record::Compute { cycles: prev }) => {
                self.ops.pop();
                prev.saturating_add(cycles)
            }
            _ => cycles,
        };
        self.ops.push(TraceOp::compute(total));
        self
    }

    /// Emits a barrier.
    pub fn barrier(&mut self, id: u32) -> &mut Self {
        self.ops.push(TraceOp::barrier(id));
        self
    }

    /// Loads `words` consecutive words starting at `addr`.
    pub fn load_words(&mut self, addr: Addr, words: usize, region: RegionId) -> &mut Self {
        for i in 0..words {
            self.load(addr.offset(i as u64 * WORD_BYTES), region);
        }
        self
    }

    /// Stores `words` consecutive words starting at `addr`.
    pub fn store_words(&mut self, addr: Addr, words: usize, region: RegionId) -> &mut Self {
        for i in 0..words {
            self.store(addr.offset(i as u64 * WORD_BYTES), region);
        }
        self
    }

    /// The records emitted so far.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Drops every record and keeps the allocation, for the next core.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Finishes the trace.
    pub fn into_ops(self) -> Vec<TraceOp> {
        self.ops
    }
}

/// How many of `items` each of `cores` cores works on.
///
/// # Errors
///
/// Fails if the items do not divide evenly: the partitioned generators give
/// every core the same share. `what` names the items ("FFT points").
pub(crate) fn even_share(items: usize, what: &str, cores: usize) -> Result<u64, String> {
    if cores == 0 || !items.is_multiple_of(cores) {
        return Err(format!(
            "{items} {what} do not divide evenly among {cores} cores"
        ));
    }
    Ok((items / cores) as u64)
}

/// A typed view of an array laid out at a fixed base address, used by the
/// generators to turn element indices into word addresses.
#[derive(Debug, Clone, Copy)]
pub struct ArrayLayout {
    /// Base byte address.
    pub base: Addr,
    /// Element size in bytes.
    pub elem_bytes: u64,
    /// Number of elements.
    pub elems: u64,
    /// Region the array belongs to.
    pub region: RegionId,
}

impl ArrayLayout {
    /// Creates a layout description.
    pub fn new(base: u64, elem_bytes: u64, elems: u64, region: RegionId) -> Self {
        ArrayLayout {
            base: Addr::new(base),
            elem_bytes,
            elems,
            region,
        }
    }

    /// Total footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.elem_bytes * self.elems
    }

    /// Address of byte `offset` within element `idx`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `idx` is out of bounds.
    pub fn field(&self, idx: u64, offset: u64) -> Addr {
        debug_assert!(
            idx < self.elems,
            "element {idx} out of bounds ({})",
            self.elems
        );
        debug_assert!(offset < self.elem_bytes);
        Addr::new(self.base.byte() + idx * self.elem_bytes + offset)
    }

    /// Address of element `idx` (offset 0).
    pub fn elem(&self, idx: u64) -> Addr {
        self.field(idx, 0)
    }

    /// Number of words each element occupies (rounded up).
    pub fn words_per_elem(&self) -> usize {
        self.elem_bytes.div_ceil(WORD_BYTES) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_emits_in_program_order() {
        let mut b = TraceBuilder::new();
        b.load(Addr::new(0), RegionId(1))
            .store(Addr::new(4), RegionId(1))
            .compute(10)
            .barrier(0);
        let ops = b.into_ops();
        assert_eq!(ops.len(), 4);
        assert!(ops[0].is_mem());
        assert_eq!(ops[3], TraceOp::barrier(0));
    }

    #[test]
    fn compute_records_coalesce() {
        let mut b = TraceBuilder::new();
        b.compute(5).compute(7).compute(0);
        let ops = b.into_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0], TraceOp::compute(12));
    }

    #[test]
    fn bulk_word_helpers() {
        let mut b = TraceBuilder::new();
        b.load_words(Addr::new(0x100), 4, RegionId(2));
        b.store_words(Addr::new(0x200), 2, RegionId(2));
        let ops = b.into_ops();
        assert_eq!(ops.len(), 6);
        assert_eq!(ops[3].addr(), Some(Addr::new(0x10c)));
    }

    #[test]
    fn array_layout_addressing() {
        let a = ArrayLayout::new(0x1000, 24, 100, RegionId(3));
        assert_eq!(a.bytes(), 2400);
        assert_eq!(a.elem(0), Addr::new(0x1000));
        assert_eq!(a.elem(2), Addr::new(0x1000 + 48));
        assert_eq!(a.field(1, 8), Addr::new(0x1000 + 32));
        assert_eq!(a.words_per_elem(), 6);
    }

    #[test]
    fn empty_builder_reports_empty() {
        assert!(TraceBuilder::new().is_empty());
        assert_eq!(TraceBuilder::new().len(), 0);
    }
}
