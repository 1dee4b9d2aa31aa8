//! Byte, word and cache-line addresses.
//!
//! The study measures everything at *word* granularity: a 64-byte cache line
//! holds sixteen 4-byte words, a 16-byte network flit carries four words, and
//! DeNovo maintains coherence per word. The newtypes in this module keep the
//! three granularities from being mixed up.

use std::fmt;

/// Size of a machine word in bytes (the coherence and profiling granularity).
pub const WORD_BYTES: u64 = 4;

/// Size of a cache line in bytes — the one line size
/// [`crate::SystemConfig::validate`] lets run.
pub const LINE_BYTES: u64 = 64;

/// Number of words per cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / WORD_BYTES) as usize;

/// A byte address in the simulated physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    ///
    /// ```
    /// # use tw_types::Addr;
    /// assert_eq!(Addr::new(64).byte(), 64);
    /// ```
    pub const fn new(byte: u64) -> Self {
        Addr(byte)
    }

    /// Raw byte value of the address.
    pub const fn byte(self) -> u64 {
        self.0
    }

    /// Word-aligned address (truncates to the containing word).
    pub const fn word_aligned(self) -> Addr {
        Addr(self.0 & !(WORD_BYTES - 1))
    }

    /// Index of this address's word within a line of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `line_bytes` is not a multiple of the word size.
    #[inline]
    pub fn word_in_line(self, line_bytes: u64) -> WordIdx {
        debug_assert!(line_bytes.is_multiple_of(WORD_BYTES));
        if line_bytes.is_power_of_two() {
            // Strength-reduced path for the (universal in practice) pow2 line
            // size: identical result, no runtime division.
            return WordIdx(((self.0 & (line_bytes - 1)) / WORD_BYTES) as u8);
        }
        WordIdx(((self.0 % line_bytes) / WORD_BYTES) as u8)
    }

    /// Returns the address offset by `bytes`.
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// Index of a word within its cache line (`0..WORDS_PER_LINE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordIdx(pub u8);

impl WordIdx {
    /// Word index as a `usize` suitable for array indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WordIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A cache-line-aligned address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// The line containing byte address `addr` for lines of `line_bytes` bytes.
    ///
    /// ```
    /// # use tw_types::{Addr, LineAddr};
    /// let l = LineAddr::containing(Addr::new(0x1078), 64);
    /// assert_eq!(l.byte(), 0x1040);
    /// ```
    pub fn containing(addr: Addr, line_bytes: u64) -> Self {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(addr.byte() & !(line_bytes - 1))
    }

    /// Creates a line address from an already-aligned byte value.
    pub const fn from_aligned(byte: u64) -> Self {
        LineAddr(byte)
    }

    /// Byte address of the first word of the line.
    pub const fn byte(self) -> u64 {
        self.0
    }

    /// Byte address of word `w` within this line.
    pub fn word_addr(self, w: WordIdx) -> Addr {
        Addr(self.0 + w.0 as u64 * WORD_BYTES)
    }

    /// Iterator over the byte addresses of all words in this line.
    pub fn words(self, line_bytes: u64) -> impl Iterator<Item = Addr> {
        let base = self.0;
        (0..line_bytes / WORD_BYTES).map(move |i| Addr(base + i * WORD_BYTES))
    }

    /// The line `n` lines after this one.
    pub const fn next(self, line_bytes: u64, n: u64) -> LineAddr {
        LineAddr(self.0 + n * line_bytes)
    }

    /// DRAM row identifier of the line for rows of `row_bytes` bytes.
    pub fn dram_row(self, row_bytes: u64) -> u64 {
        self.0 / row_bytes
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_alignment() {
        assert_eq!(Addr::new(0x103).word_aligned(), Addr::new(0x100));
        assert_eq!(Addr::new(0x100).word_aligned(), Addr::new(0x100));
    }

    #[test]
    fn word_in_line_spans_all_sixteen_words() {
        for i in 0..WORDS_PER_LINE as u64 {
            let a = Addr::new(0x4000 + i * WORD_BYTES);
            assert_eq!(a.word_in_line(64).index(), i as usize);
        }
    }

    #[test]
    fn line_containing_masks_low_bits() {
        let l = LineAddr::containing(Addr::new(0x7fff), 64);
        assert_eq!(l.byte(), 0x7fc0);
        assert_eq!(l.word_addr(WordIdx(0)).byte(), 0x7fc0);
        assert_eq!(l.word_addr(WordIdx(15)).byte(), 0x7ffc);
    }

    #[test]
    fn line_word_iteration_counts_sixteen() {
        let l = LineAddr::from_aligned(0x80);
        let words: Vec<_> = l.words(64).collect();
        assert_eq!(words.len(), 16);
        assert_eq!(words[0], Addr::new(0x80));
        assert_eq!(words[15], Addr::new(0x80 + 60));
    }

    #[test]
    fn dram_row_mapping() {
        let l = LineAddr::from_aligned(8192 + 64);
        assert_eq!(l.dram_row(8192), 1);
    }

    #[test]
    fn next_line_steps_by_line_size() {
        let l = LineAddr::from_aligned(0);
        assert_eq!(l.next(64, 3).byte(), 192);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Addr::new(0x40)), "0x40");
        assert_eq!(format!("{}", LineAddr::from_aligned(0x40)), "L0x40");
        assert_eq!(format!("{}", WordIdx(3)), "w3");
    }
}
