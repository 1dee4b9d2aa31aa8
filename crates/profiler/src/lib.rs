//! Waste characterization: the profiling methodology of paper §4.1.
//!
//! Every word moved into an L1, into the L2, or fetched from memory is
//! classified into one of six categories — `Used`, `Write`, `Fetch`,
//! `Invalidate`, `Evict`, `Unevicted` (plus `Excess` at the memory level for
//! words dropped at the memory controller by the L2-Flex optimization).
//! Classification is deferred: a word's fate is only known once it is read,
//! overwritten, invalidated, evicted, or the simulation ends. The profilers in
//! this crate implement the three finite-state machines of Figures 4.1–4.3
//! and, because each tracked word also remembers the flit-hops spent moving
//! it, they retroactively attribute response data traffic to the
//! `Used`/`Waste` buckets of Figures 5.1b–5.1c.
//!
//! Both profilers keep their pending words by 64-byte chunk and classify
//! through one path each: a per-word event is the line event over the one
//! word at its address, so a word and a line take the same steps.
//!
//! # Example
//!
//! ```
//! use tw_profiler::{CacheLevel, CacheWasteProfiler, WasteCategory};
//! use tw_types::{Addr, MessageClass};
//!
//! let mut l1 = CacheWasteProfiler::new(CacheLevel::L1);
//! let a = Addr::new(0x100);
//! l1.arrive(a, false, 1.5, MessageClass::Load);
//! l1.loaded(a);
//! let report = l1.finish();
//! assert_eq!(report.words(WasteCategory::Used), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache_profile;
pub mod category;
pub mod memory_profile;
mod table;
pub mod traffic;

pub use cache_profile::{CacheLevel, CacheWasteProfiler};
pub use category::{WasteCategory, WasteReport};
pub use memory_profile::MemoryWasteProfiler;
pub use traffic::TrafficBreakdown;

use tw_types::{Addr, WordMask, WORD_BYTES};

/// Pending state is grouped by 64-byte chunk — the maximum line size a
/// [`WordMask`] can describe — so one hash probe covers a whole line event.
const CHUNK_SHIFT: u32 = 6;
const CHUNK_WORDS: usize = 16;

/// The word at an address, as a line mask whose first word is that address:
/// what a per-word event passes to its line path.
const ONE_WORD: WordMask = WordMask::from_bits(1);

/// Chunk key of the line whose first word is at `line0`, and its `words` as
/// bits of that chunk.
#[inline(always)]
fn chunk_of(line0: Addr, words: WordMask) -> (u64, u16) {
    let byte = line0.word_aligned().byte();
    let w0 = (byte / WORD_BYTES) as usize & (CHUNK_WORDS - 1);
    let bits = (words.bits() as u32) << w0;
    debug_assert!(bits <= u16::MAX as u32, "line spans a 64-byte chunk");
    (byte >> CHUNK_SHIFT, bits as u16)
}
