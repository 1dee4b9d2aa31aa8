//! Per-word bit masks over a cache line.
//!
//! Several mechanisms in the study are expressed as sets of words within a
//! 16-word cache line: DeNovo's per-word valid/dirty/registered state, the
//! dirty-word bit-vector attached to requests under the "Memory Controller to
//! L1 Transfer" optimization, Flex communication-region selections, and the
//! write-combining table's pending-registration vector. [`WordMask`] is that
//! set, stored as a `u16`.

use crate::addr::WordIdx;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not, Sub};

/// A set of word positions within a single cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WordMask(u16);

impl WordMask {
    /// The empty set.
    pub const EMPTY: WordMask = WordMask(0);

    /// The full line (all sixteen words).
    pub const FULL: WordMask = WordMask(u16::MAX);

    /// Creates a mask from raw bits (bit *i* set ⇔ word *i* in the set).
    pub const fn from_bits(bits: u16) -> Self {
        WordMask(bits)
    }

    /// Raw bit representation.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// A mask containing exactly one word.
    pub const fn single(w: WordIdx) -> Self {
        WordMask(1 << w.0)
    }

    /// Whether word `w` is in the set.
    pub const fn contains(self, w: WordIdx) -> bool {
        self.0 & (1 << w.0) != 0
    }

    /// Inserts word `w`.
    pub fn insert(&mut self, w: WordIdx) {
        self.0 |= 1 << w.0;
    }

    /// Removes word `w`.
    pub fn remove(&mut self, w: WordIdx) {
        self.0 &= !(1 << w.0);
    }

    /// Number of words in the set.
    pub const fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether the set covers the entire line.
    pub const fn is_full(self) -> bool {
        self.0 == u16::MAX
    }

    /// Iterator over the word indices in the set, in ascending order.
    pub fn iter(self) -> impl Iterator<Item = WordIdx> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            Some(WordIdx(i))
        })
    }

    /// Set union.
    pub const fn union(self, other: WordMask) -> WordMask {
        WordMask(self.0 | other.0)
    }

    /// Set intersection.
    pub const fn intersect(self, other: WordMask) -> WordMask {
        WordMask(self.0 & other.0)
    }

    /// Words in `self` but not in `other`.
    pub const fn difference(self, other: WordMask) -> WordMask {
        WordMask(self.0 & !other.0)
    }
}

impl BitOr for WordMask {
    type Output = WordMask;
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl BitAnd for WordMask {
    type Output = WordMask;
    fn bitand(self, rhs: Self) -> Self {
        self.intersect(rhs)
    }
}

impl BitXor for WordMask {
    type Output = WordMask;
    fn bitxor(self, rhs: Self) -> Self {
        WordMask(self.0 ^ rhs.0)
    }
}

impl Sub for WordMask {
    type Output = WordMask;
    fn sub(self, rhs: Self) -> Self {
        self.difference(rhs)
    }
}

impl Not for WordMask {
    type Output = WordMask;
    fn not(self) -> Self {
        WordMask(!self.0)
    }
}

impl FromIterator<WordIdx> for WordMask {
    fn from_iter<T: IntoIterator<Item = WordIdx>>(iter: T) -> Self {
        let mut m = WordMask::EMPTY;
        for w in iter {
            m.insert(w);
        }
        m
    }
}

impl fmt::Display for WordMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016b}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut m = WordMask::EMPTY;
        assert!(m.is_empty());
        m.insert(WordIdx(3));
        m.insert(WordIdx(15));
        assert!(m.contains(WordIdx(3)));
        assert!(m.contains(WordIdx(15)));
        assert!(!m.contains(WordIdx(0)));
        assert_eq!(m.count(), 2);
        m.remove(WordIdx(3));
        assert!(!m.contains(WordIdx(3)));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = WordMask::from_bits(0b0000_1111);
        let b = WordMask::from_bits(0b0011_1100);
        assert_eq!((a | b).bits(), 0b0011_1111);
        assert_eq!((a & b).bits(), 0b0000_1100);
        assert_eq!((a - b).bits(), 0b0000_0011);
        assert_eq!((a ^ b).bits(), 0b0011_0011);
        assert_eq!((!a).bits(), 0b1111_1111_1111_0000);
        assert!((!WordMask::EMPTY).is_full());
        assert_eq!(WordMask::FULL.count(), crate::addr::WORDS_PER_LINE);
    }

    #[test]
    fn iteration_order_ascending() {
        let m: WordMask = [WordIdx(9), WordIdx(1), WordIdx(4)].into_iter().collect();
        let idx: Vec<_> = m.iter().map(|w| w.index()).collect();
        assert_eq!(idx, vec![1, 4, 9]);
    }

    #[test]
    fn single_word_mask() {
        let m = WordMask::single(WordIdx(7));
        assert_eq!(m.count(), 1);
        assert!(m.contains(WordIdx(7)));
    }

    #[test]
    fn display_is_binary() {
        assert_eq!(WordMask::from_bits(0b101).to_string(), "0000000000000101");
    }
}
